//! Scheduler configuration.

use japonica_cpuexec::CpuConfig;
use japonica_faults::{FaultPlan, ResilienceConfig};
use japonica_gpusim::{DeviceConfig, DevicePartition};
use japonica_ir::KernelCache;
use japonica_tls::TlsConfig;
use std::sync::Arc;

/// Tunables of both scheduling schemes plus the platform descriptions.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// The simulated GPU.
    pub gpu: DeviceConfig,
    /// The simulated CPU.
    pub cpu: CpuConfig,
    /// The TLS engine settings (modes B and D).
    pub tls: TlsConfig,
    /// Worker threads for CPU-side multithreaded execution. The paper uses
    /// 16 (on 12 cores), reserving one thread for GPU management and one
    /// for CPU thread management.
    pub cpu_threads: u32,
    /// Minimum iterations per sharing chunk ("uniform chunks of moderate
    /// size", §V-A).
    pub chunk_iters: u64,
    /// Upper bound on the number of sharing chunks per loop — large loops
    /// get proportionally larger chunks so kernel-launch overhead stays
    /// amortized.
    pub max_chunks: u64,
    /// The density threshold `N` of Fig. 2(b): profiled loops with true-
    /// dependence density above it go to the CPU (mode C), below it to
    /// GPU-TLS (mode B).
    pub td_density_threshold: f64,
    /// How many sub-loops the stealing scheme splits each DOALL task into
    /// (the paper splits BICG loops into 4 and Crypt loops into 8).
    pub subloops_per_task: u32,
    /// May an idle CPU pull chunks back from the GPU's boundary partition?
    /// `true` (default) is this reproduction's bidirectional sharing;
    /// `false` is the paper's literal scheme, where the boundary statically
    /// fixes the CPU partition and only the GPU extends its run (§V-A).
    pub cpu_steals_back: bool,
    /// Retry/backoff/watchdog policy applied when a fault plan is active.
    pub resilience: ResilienceConfig,
    /// Optional seeded fault-injection plan; `None` (default) leaves every
    /// hot path untouched.
    pub faults: Option<FaultPlan>,
    /// Degraded placement: route every loop through the CPU-only baseline
    /// executor (no device staging, no kernel launches, no fault hooks).
    /// The serving layer's last ladder rung before giving up on a job.
    pub cpu_only: bool,
    /// Optional externally owned kernel/native-tier cache. When `None`
    /// (default) each scheduler entry point compiles into a cache of its
    /// own; `Runtime::run` installs one per call, so a program's loops
    /// compile once per run however often they are dispatched. A serving
    /// layer may hand in a cache scoped to one *program*
    /// (loop ids are only unique within a program) so repeat executions of
    /// the same program on the same device keep their compiled bytecode and
    /// promoted native tiers warm. Engine choice never changes result bits
    /// (walker ≡ bytecode ≡ native, proven by the differential suites), so
    /// cache warmth affects host wall-clock only — never a report.
    pub kernels: Option<Arc<KernelCache>>,
}

impl SchedulerConfig {
    /// Set how many host threads the GPU simulator spreads warps over
    /// (purely a wall-clock knob — simulated results are bit-identical for
    /// every value; see `japonica_gpusim::SimConfig`).
    pub fn with_host_threads(mut self, n: usize) -> SchedulerConfig {
        self.gpu.sim.host_threads = n.max(1);
        self
    }

    /// Restrict this configuration to one tenant's share of a partitioned
    /// platform: the GPU simulation sees only `partition`'s SM slice and
    /// the CPU side gets `cpu_slots` worker threads (each backed by one
    /// core, capped at the physical core count). This is the view a
    /// `japonica-serve` dispatch ticket hands to the schedulers for the
    /// slice its `PartitionAllocator` carved — the sharing boundary, chunk
    /// occupancy, TLS dependence checking and profiling all scale to the
    /// slice automatically, and none of them observe `sm_base`, so a job on
    /// a slice is bit-identical to the same job alone on an equal-sized
    /// device.
    pub fn with_partition(mut self, partition: DevicePartition, cpu_slots: u32) -> SchedulerConfig {
        self.gpu.partition = Some(partition);
        self.cpu_threads = cpu_slots.max(1);
        self.cpu.cores = self.cpu.cores.min(cpu_slots.max(1));
        self
    }

    /// The cache this dispatch compiles into: the caller's, else a private
    /// one.
    pub(crate) fn kernel_cache(&self) -> Arc<KernelCache> {
        self.kernels.clone().unwrap_or_default()
    }

    /// The task-sharing boundary `Cg·Fg / (Cg·Fg + Cc·Fc)` (paper §V-A):
    /// the fraction of the iteration space preferentially assigned to the
    /// GPU, from the devices' core counts and clock frequencies.
    pub fn boundary_fraction(&self) -> f64 {
        let cg_fg = self.gpu.total_lanes() as f64 * self.gpu.clock_ghz;
        let cc_fc = self.cpu.cores as f64 * self.cpu.clock_ghz;
        cg_fg / (cg_fg + cc_fc)
    }
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            gpu: DeviceConfig::default(),
            cpu: CpuConfig::default(),
            tls: TlsConfig::default(),
            cpu_threads: 16,
            chunk_iters: 2048,
            max_chunks: 32,
            td_density_threshold: 0.1,
            subloops_per_task: 4,
            cpu_steals_back: true,
            resilience: ResilienceConfig::default(),
            faults: None,
            cpu_only: false,
            kernels: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_matches_paper_formula() {
        let c = SchedulerConfig::default();
        // 448 lanes * 1.15 GHz vs 12 cores * 2.66 GHz
        let expect = (448.0 * 1.15) / (448.0 * 1.15 + 12.0 * 2.66);
        assert!((c.boundary_fraction() - expect).abs() < 1e-12);
        // The M2050/X5650 boundary strongly favors the GPU.
        assert!(c.boundary_fraction() > 0.9);
    }

    #[test]
    fn partition_view_scales_boundary_and_cpu_side() {
        let full = SchedulerConfig::default();
        let half = SchedulerConfig::default().with_partition(
            DevicePartition {
                sm_base: 7,
                sm_count: 7,
            },
            8,
        );
        assert_eq!(half.gpu.effective_sms(), 7);
        assert_eq!(half.cpu_threads, 8);
        assert_eq!(half.cpu.cores, 8);
        // The boundary of the half-GPU slice tilts toward the CPU relative
        // to the whole machine's boundary.
        assert!(half.boundary_fraction() < full.boundary_fraction());
        // sm_base does not enter any derived quantity.
        let other = SchedulerConfig::default().with_partition(
            DevicePartition {
                sm_base: 0,
                sm_count: 7,
            },
            8,
        );
        assert_eq!(
            half.boundary_fraction().to_bits(),
            other.boundary_fraction().to_bits()
        );
    }

    #[test]
    fn defaults_are_sane() {
        let c = SchedulerConfig::default();
        assert_eq!(c.cpu_threads, 16);
        assert!(c.td_density_threshold > 0.0 && c.td_density_threshold < 1.0);
    }
}
