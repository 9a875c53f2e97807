//! Execution reports and scheduler errors.

use crate::modes::ExecutionMode;
use japonica_cpuexec::CpuExecError;
use japonica_faults::{DeviceFault, FaultStats};
use japonica_gpusim::SimtError;
use japonica_ir::{ExecError, LoopId, Scheme};
use japonica_tls::{TlsError, TlsReport};

/// Any error surfaced while scheduling/executing a loop.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    Exec(ExecError),
    Simt(SimtError),
    Tls(TlsError),
    /// A device fault that exhausted every retry/fallback rung (or escaped
    /// early under `ResilienceConfig::fail_fast`), carried with its
    /// structured origin (loop, sub-loop, warp, chunk) and the resilience
    /// counters accumulated before the run gave up, so callers above the
    /// scheduler see what the ladder tried rather than just a message.
    Device {
        fault: DeviceFault,
        stats: FaultStats,
    },
    /// A scheduler invariant was violated — replaces what used to be a
    /// panic on the hot path.
    Internal(String),
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::Exec(e) => write!(f, "{e}"),
            SchedError::Simt(e) => write!(f, "{e}"),
            SchedError::Tls(e) => write!(f, "{e}"),
            SchedError::Device { fault, .. } => write!(f, "unrecovered device fault: {fault}"),
            SchedError::Internal(m) => write!(f, "scheduler invariant violated: {m}"),
        }
    }
}

impl std::error::Error for SchedError {
    /// Expose the wrapped error so `?`-propagated `SchedError`s keep their
    /// cause chain across crate boundaries (e.g. into `japonica-serve`'s
    /// `ServeError`).
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedError::Exec(e) => Some(e),
            SchedError::Simt(e) => Some(e),
            SchedError::Tls(e) => Some(e),
            SchedError::Device { fault, .. } => Some(fault),
            SchedError::Internal(_) => None,
        }
    }
}

impl From<ExecError> for SchedError {
    fn from(e: ExecError) -> SchedError {
        SchedError::Exec(e)
    }
}

impl From<CpuExecError> for SchedError {
    fn from(e: CpuExecError) -> SchedError {
        match e {
            CpuExecError::Exec(e) => SchedError::Exec(e),
            CpuExecError::Fault(f) => f.into(),
        }
    }
}

impl From<SimtError> for SchedError {
    fn from(e: SimtError) -> SchedError {
        match e {
            SimtError::Fault(f) => f.into(),
            SimtError::Mem(e) => SchedError::Exec(e),
            other => SchedError::Simt(other),
        }
    }
}

impl From<TlsError> for SchedError {
    fn from(e: TlsError) -> SchedError {
        match e {
            TlsError::Fault(f) => f.into(),
            other => SchedError::Tls(other),
        }
    }
}

impl From<DeviceFault> for SchedError {
    fn from(fault: DeviceFault) -> SchedError {
        SchedError::Device {
            fault,
            stats: FaultStats::default(),
        }
    }
}

impl SchedError {
    /// The resilience counters a failed run accumulated before giving up,
    /// when the failure was a device fault.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        match self {
            SchedError::Device { stats, .. } => Some(*stats),
            _ => None,
        }
    }
}

/// Execution record of one scheduled loop.
#[derive(Debug, Clone)]
pub struct LoopExecReport {
    /// The loop.
    pub loop_id: LoopId,
    /// The execution mode selected by the Fig. 2(b) workflow.
    pub mode: ExecutionMode,
    /// The scheduling scheme in effect.
    pub scheme: Scheme,
    /// Total iterations executed.
    pub iterations: u64,
    /// Iterations that ran on the GPU / CPU side.
    pub gpu_iters: u64,
    pub cpu_iters: u64,
    /// Simulated busy time per side (excluding transfers).
    pub gpu_busy_s: f64,
    pub cpu_busy_s: f64,
    /// Host↔device traffic.
    pub bytes_in: usize,
    pub bytes_out: usize,
    /// Simulated transfer seconds on the critical path (after overlap).
    pub transfer_s: f64,
    /// TLS engine report when mode B/D ran.
    pub tls: Option<TlsReport>,
    /// Injected-fault bookkeeping: retries, fallbacks, degradation ladder.
    pub faults: FaultStats,
    /// Wall-clock of the loop (max over the concurrent device timelines).
    pub wall_s: f64,
}

impl LoopExecReport {
    /// An empty report skeleton.
    pub fn new(loop_id: LoopId, mode: ExecutionMode, scheme: Scheme) -> LoopExecReport {
        LoopExecReport {
            loop_id,
            mode,
            scheme,
            iterations: 0,
            gpu_iters: 0,
            cpu_iters: 0,
            gpu_busy_s: 0.0,
            cpu_busy_s: 0.0,
            bytes_in: 0,
            bytes_out: 0,
            transfer_s: 0.0,
            tls: None,
            faults: FaultStats::default(),
            wall_s: 0.0,
        }
    }

    /// Fraction of iterations the GPU executed.
    pub fn gpu_share(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.gpu_iters as f64 / self.iterations as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_share_computation() {
        let mut r = LoopExecReport::new(LoopId(0), ExecutionMode::A, Scheme::Sharing);
        r.iterations = 100;
        r.gpu_iters = 75;
        assert!((r.gpu_share() - 0.75).abs() < 1e-12);
        let empty = LoopExecReport::new(LoopId(1), ExecutionMode::C, Scheme::Sharing);
        assert_eq!(empty.gpu_share(), 0.0);
    }

    #[test]
    fn error_conversions() {
        let e: SchedError = ExecError::DivisionByZero.into();
        assert!(e.to_string().contains("division"));
        let e: SchedError = SimtError::Unsupported("x".into()).into();
        assert!(e.to_string().contains("unsupported"));
    }
}
