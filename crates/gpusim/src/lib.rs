//! # japonica-gpusim
//!
//! A behavioural SIMT GPU simulator standing in for the paper's Nvidia
//! Fermi M2050 + CUDA 3.2 stack. It executes Japonica kernel IR with the
//! properties the paper's results hinge on:
//!
//! * **massive parallelism** — a grid of threads, one loop iteration per
//!   thread, grouped into 32-lane warps scheduled over 14 SMs;
//! * **lock-step SIMD execution** — all active lanes of a warp issue the
//!   same instruction together; divergent branches serialize both paths
//!   with complementary active masks (and are counted, because divergence
//!   is why BFS-like irregular kernels underperform);
//! * **memory coalescing** — each warp-level load/store is charged by the
//!   number of distinct memory segments the active lanes touch, so
//!   strided/irregular access patterns cost more than unit-stride ones;
//! * **explicit host↔device transfers** — a PCIe model with latency and
//!   bandwidth, plus asynchronous streams for overlap (used by the task
//!   sharing scheme to hide transfer latency, paper §V-A);
//! * **pluggable lane memory** — the [`LaneMemory`] trait lets GPU-TLS
//!   buffer speculative stores and lets the profiler trace every access
//!   without touching the interpreter.

pub mod config;
pub mod kernel;
pub mod memory;
pub mod native;
pub mod simt;
pub mod stats;
pub mod vm;
mod warp;

pub use config::{DeviceConfig, DevicePartition, SimConfig};
pub use kernel::{
    launch_loop, launch_loop_guarded, launch_loop_guarded_with, launch_loop_par,
    launch_loop_par_with, KernelReport,
};
pub use memory::{
    gather_warp, AccessCtx, DeviceMemory, JournaledMemory, LaneMemory, ParallelLaneMemory,
    ShadowView, Transfer, WarpAccess, WriteList,
};
pub use native::{compile_native_warp, NativeSimtVm, NativeWarpKernel};
pub use simt::{SimtError, SimtExec};
pub use stats::{GpuStats, WarpStats};
pub use vm::{LanePlan, SimtVm};
pub use warp::LaneCounts;
