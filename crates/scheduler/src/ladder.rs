//! The fault ladder: the one retry loop and every rung a guarded operation
//! steps down to, each written once and called by every scheme; `fail_fast`
//! turns a rung into the error it would have absorbed (DESIGN.md,
//! "Scheduling core").

use crate::exec::LoopRun;
use crate::report::{LoopExecReport, SchedError};
use japonica_faults::{DegradationLevel, DeviceFault, FaultStats, ResilienceConfig};
use japonica_gpusim::SimtError;
use japonica_ir::{Env, Heap};

/// What an attempt came to once transient faults were retried: its value,
/// or the fault that outlived the retries, and each backoff charged.
pub struct Retried<T> {
    pub outcome: Result<T, DeviceFault>,
    /// One entry per retry, in order, in seconds.
    pub backoffs: Vec<f64>,
}

impl<T> Retried<T> {
    /// Total backoff, summed in the order it was charged.
    pub fn backoff_s(&self) -> f64 {
        self.backoffs.iter().fold(0.0, |sum, b| sum + b)
    }
}

/// Run `attempt_fn`, retrying transient injected faults up to
/// `res.max_retries` times with a linear backoff charged to `stats`.
/// Errors that are not device faults propagate.
pub(crate) fn retry_transient<T, E: Into<SchedError>>(
    res: &ResilienceConfig,
    stats: &mut FaultStats,
    mut attempt_fn: impl FnMut() -> Result<T, E>,
) -> Result<Retried<T>, SchedError> {
    let mut backoffs = Vec::new();
    let outcome = loop {
        let fault = match attempt_fn().map_err(Into::into) {
            Ok(v) => break Ok(v),
            Err(SchedError::Device { fault, .. }) => fault,
            Err(e) => return Err(e),
        };
        stats.observe(&fault);
        if !fault.transient || backoffs.len() as u32 >= res.max_retries {
            break Err(fault);
        }
        stats.retries += 1;
        let b = res.retry_backoff_us * 1e-6 * (backoffs.len() + 1) as f64;
        stats.backoff_s += b;
        backoffs.push(b);
    };
    Ok(Retried { outcome, backoffs })
}

/// Run one guarded transfer under [`retry_transient`]. Persistent (or
/// retry-exhausted) faults surface as [`SchedError::Device`] for the
/// caller's fallback rung.
pub(crate) fn transfer_with_retry<T>(
    res: &ResilienceConfig,
    stats: &mut FaultStats,
    attempt_fn: impl FnMut() -> Result<T, SimtError>,
) -> Result<T, SchedError> {
    let run = retry_transient(res, stats, attempt_fn)?;
    run.outcome.map_err(|fault| SchedError::Device {
        fault,
        stats: *stats,
    })
}

/// `fault` outlived its retries: surface it under `fail_fast`, else count
/// the fallback the caller is about to take.
fn absorb(
    res: &ResilienceConfig,
    stats: &mut FaultStats,
    fault: DeviceFault,
) -> Result<(), SchedError> {
    if res.fail_fast {
        return Err(SchedError::Device {
            fault,
            stats: *stats,
        });
    }
    stats.fallbacks += 1;
    Ok(())
}

/// A GPU fault outlived its retries: the caller resubmits the work on the
/// host. Returns whether the GPU stays in service.
pub(crate) fn absorb_gpu_fault(
    res: &ResilienceConfig,
    stats: &mut FaultStats,
    fault: DeviceFault,
) -> Result<bool, SchedError> {
    absorb(res, stats, fault)?;
    stats.escalate(DegradationLevel::GpuDegraded);
    let device_faults = stats.gpu_faults + stats.transfer_faults + stats.deadline_overruns;
    let alive = device_faults < res.device_fault_tolerance;
    if !alive {
        stats.escalate(DegradationLevel::CpuOnly);
    }
    Ok(alive)
}

/// A worker-pool fault outlived its retries: the caller runs the batch
/// sequentially (the guaranteed rung), and a pool that has exhausted its
/// fault tolerance is retired.
pub(crate) fn absorb_pool_fault(
    res: &ResilienceConfig,
    stats: &mut FaultStats,
    fault: DeviceFault,
) -> Result<(), SchedError> {
    absorb(res, stats, fault)?;
    if stats.cpu_faults >= res.device_fault_tolerance {
        stats.escalate(DegradationLevel::Sequential);
    }
    Ok(())
}

/// Has the worker pool been retired? The ladder's last level is reached by
/// nothing else while chunks are still being dispatched.
pub(crate) fn pool_retired(stats: &FaultStats) -> bool {
    stats.level >= DegradationLevel::Sequential
}

impl LoopRun<'_> {
    /// The bottom rung, for a device fault `err` that left the GPU side of
    /// the loop unusable: put back the heap the loop found (when the device
    /// may already have written into it) and run the whole loop
    /// sequentially on the host. Any other error propagates.
    pub(crate) fn replay_sequentially(
        &self,
        err: SchedError,
        pristine: Option<Heap>,
        env: &mut Env,
        heap: &mut Heap,
        mut report: LoopExecReport,
    ) -> Result<LoopExecReport, SchedError> {
        let SchedError::Device { fault, .. } = err else {
            return Err(err);
        };
        absorb(&self.cfg.resilience, &mut report.faults, fault)?;
        report.faults.escalate(DegradationLevel::Sequential);
        if let Some(p) = pristine {
            *heap = p;
        }
        let trip = self.trip();
        report.gpu_iters = 0;
        report.cpu_iters = trip;
        report.cpu_busy_s = self.cpu_sequential(0..trip, env, heap)? + report.faults.backoff_s;
        report.wall_s = report.cpu_busy_s;
        Ok(report)
    }
}
