//! Device configuration and cost model.

use japonica_ir::{CostTable, ExecEngine, OpClass};

/// How the simulator itself runs on the host — as opposed to what it
/// models. Purely a wall-clock knob: every simulated quantity (cycle
/// counts, TLS conflict sets, fault decisions) is bit-identical across
/// `host_threads` values and across `engine` choices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Host worker threads the kernel launcher spreads warps over.
    /// `1` (the default) is the reference sequential interpreter; higher
    /// counts run warps on a `std::thread::scope` pool and merge per-warp
    /// results in global warp order (see `launch_loop_par`).
    pub host_threads: usize,
    /// Which warp executor runs kernel bodies: the compiled bytecode VM
    /// (default) or the reference tree walker. Both produce bit-identical
    /// memory, stats and cycle counts; kernels the bytecode compiler
    /// declines (recursion, deep static call chains) silently fall back to
    /// the walker either way.
    pub engine: ExecEngine,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            host_threads: 1,
            engine: ExecEngine::default(),
        }
    }
}

impl SimConfig {
    /// A configuration with exactly `n` host threads (clamped to ≥ 1).
    pub fn with_threads(n: usize) -> SimConfig {
        SimConfig {
            host_threads: n.max(1),
            engine: ExecEngine::default(),
        }
    }

    /// One host thread per available hardware thread.
    pub fn auto() -> SimConfig {
        SimConfig::with_threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

/// A contiguous slice of a device's streaming multiprocessors, leased to
/// one tenant of a shared device (see `japonica-serve`'s
/// `PartitionAllocator`).
///
/// Every simulated quantity depends only on `sm_count` — `sm_base` exists
/// purely so occupancy can be attributed to physical SMs of the shared
/// device. That is the multi-tenant determinism argument: a job running on
/// the partition `[3, 10)` is bit-identical to the same job running alone
/// on a 7-SM device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DevicePartition {
    /// First physical SM of the slice (attribution only).
    pub sm_base: u32,
    /// Number of SMs in the slice (what the simulation sees).
    pub sm_count: u32,
}

impl DevicePartition {
    /// The whole device as one partition.
    pub fn full(sm_count: u32) -> DevicePartition {
        DevicePartition {
            sm_base: 0,
            sm_count,
        }
    }

    /// Physical SM ids covered by this partition.
    pub fn sm_range(&self) -> std::ops::Range<u32> {
        self.sm_base..self.sm_base + self.sm_count
    }
}

/// Parameters of the simulated GPU. Defaults model the paper's testbed GPU,
/// an Nvidia Fermi M2050 (14 SMs × 32 CUDA cores @ 1.15 GHz, PCIe gen-2
/// host link), at the granularity the scheduler cares about.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Streaming multiprocessors.
    pub sm_count: u32,
    /// Lanes per warp (CUDA fixes this at 32).
    pub warp_size: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Cycles for one memory transaction (one coalesced segment).
    pub mem_tx_cycles: f64,
    /// Size of a coalescing segment in bytes (Fermi: 128-byte lines).
    pub mem_segment_bytes: usize,
    /// Fixed kernel-launch overhead in microseconds (driver + the JNI hop —
    /// the paper invokes kernels from Java through JNI). Streamed chunked
    /// launches pipeline this cost (see the sharing scheduler).
    pub kernel_launch_us: f64,
    /// Host↔device bandwidth in GB/s. Effective, not peak: the paper's
    /// stack moves Java arrays through JNI into pageable staging buffers
    /// before PCIe, roughly halving the usable rate.
    pub pcie_gb_per_s: f64,
    /// Per-transfer latency in microseconds.
    pub pcie_latency_us: f64,
    /// How many memory transactions the SM pipeline keeps in flight:
    /// resident warps hide global-memory latency behind compute, so an
    /// SM's time is `issue + mem / mem_concurrency`.
    pub mem_concurrency: f64,
    /// Per-op issue costs for the SIMT cores.
    pub cost: CostTable,
    /// Host-side execution settings of the simulator itself (thread count);
    /// does not affect any simulated quantity.
    pub sim: SimConfig,
    /// The SM slice this config may use. `None` (the default) means the
    /// whole device; a multi-tenant lease restricts the simulation to its
    /// slice (see [`DevicePartition`]).
    pub partition: Option<DevicePartition>,
}

impl DeviceConfig {
    /// SMs the simulation actually schedules warps over: the partition's
    /// size when one is set (clamped to the physical count), otherwise the
    /// whole device.
    pub fn effective_sms(&self) -> u32 {
        self.partition
            .map(|p| p.sm_count.min(self.sm_count))
            .unwrap_or(self.sm_count)
            .max(1)
    }

    /// Restrict this config to `partition`. The returned view is what a
    /// `japonica-serve` dispatch ticket hands to a tenant's scheduler.
    pub fn partitioned(mut self, partition: DevicePartition) -> DeviceConfig {
        self.partition = Some(partition);
        self
    }

    /// Total hardware lanes (`effective_sms × warp_size` — one warp
    /// resident per SM per cycle in this model). Respects a partition, so
    /// the sharing boundary of a leased slice is computed from the slice.
    pub fn total_lanes(&self) -> u32 {
        self.effective_sms() * self.warp_size
    }

    /// Seconds for `cycles` device cycles.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e9)
    }

    /// Seconds to move `bytes` across PCIe (one direction, one synchronous
    /// transfer, paying the full latency).
    pub fn transfer_seconds(&self, bytes: usize) -> f64 {
        self.pcie_latency_us * 1e-6 + bytes as f64 / (self.pcie_gb_per_s * 1e9)
    }

    /// Seconds `bytes` occupy an already-open asynchronous stream
    /// (bandwidth only; the one-time latency is charged when the stream
    /// opens).
    pub fn stream_seconds(&self, bytes: usize) -> f64 {
        bytes as f64 / (self.pcie_gb_per_s * 1e9)
    }
}

impl Default for DeviceConfig {
    fn default() -> DeviceConfig {
        DeviceConfig {
            sm_count: 14,
            warp_size: 32,
            clock_ghz: 1.15,
            mem_tx_cycles: 16.0,
            mem_segment_bytes: 128,
            kernel_launch_us: 40.0,
            pcie_gb_per_s: 1.5,
            pcie_latency_us: 30.0,
            mem_concurrency: 16.0,
            cost: gpu_cost_table(),
            sim: SimConfig::default(),
            partition: None,
        }
    }
}

/// The per-op issue cost of a Fermi-class SIMT core: fast FP32/int ALU,
/// special-function units for transcendentals, painful integer division.
pub fn gpu_cost_table() -> CostTable {
    CostTable::uniform(1.0)
        .with(OpClass::IntMul, 2.0)
        .with(OpClass::IntDiv, 40.0)
        .with(OpClass::FpAlu, 1.0)
        .with(OpClass::FpDiv, 10.0)
        .with(OpClass::Special, 4.0)
        .with(OpClass::Cast, 1.0)
        .with(OpClass::Branch, 2.0)
        .with(OpClass::Move, 0.5)
        // Load/Store issue cost; segment traffic is charged separately.
        .with(OpClass::Load, 2.0)
        .with(OpClass::Store, 2.0)
        .with(OpClass::Call, 4.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_model_m2050() {
        let c = DeviceConfig::default();
        assert_eq!(c.sm_count, 14);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.total_lanes(), 448); // the M2050's 448 CUDA cores
    }

    #[test]
    fn cycles_to_seconds() {
        let c = DeviceConfig::default();
        let s = c.cycles_to_seconds(1.15e9);
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_time_has_latency_floor() {
        let c = DeviceConfig::default();
        let tiny = c.transfer_seconds(4);
        assert!(tiny >= c.pcie_latency_us * 1e-6);
        let big = c.transfer_seconds(400_000_000); // 400 MB
        assert!(big > 0.2); // ~0.27 s at 1.5 GB/s
    }

    #[test]
    fn sim_config_defaults_sequential() {
        assert_eq!(SimConfig::default().host_threads, 1);
        assert_eq!(DeviceConfig::default().sim.host_threads, 1);
        assert_eq!(SimConfig::with_threads(0).host_threads, 1);
        assert!(SimConfig::auto().host_threads >= 1);
    }

    #[test]
    fn partition_restricts_effective_sms_but_not_base() {
        let c = DeviceConfig::default();
        assert_eq!(c.effective_sms(), 14);
        let p = c.clone().partitioned(DevicePartition {
            sm_base: 3,
            sm_count: 7,
        });
        assert_eq!(p.effective_sms(), 7);
        assert_eq!(p.total_lanes(), 7 * 32);
        // sm_base is attribution-only: two partitions of equal size are
        // indistinguishable to the simulation.
        let q = c.clone().partitioned(DevicePartition {
            sm_base: 0,
            sm_count: 7,
        });
        assert_eq!(p.effective_sms(), q.effective_sms());
        assert_eq!(p.partition.expect("partitioned").sm_range(), 3..10);
        // Oversized partitions clamp to the physical device.
        let big = c.partitioned(DevicePartition {
            sm_base: 0,
            sm_count: 99,
        });
        assert_eq!(big.effective_sms(), 14);
    }

    #[test]
    fn gpu_cost_table_shape() {
        let t = gpu_cost_table();
        assert!(t.cost(OpClass::Special) < t.cost(OpClass::IntDiv));
        assert!(t.cost(OpClass::FpAlu) <= t.cost(OpClass::FpDiv));
    }
}
