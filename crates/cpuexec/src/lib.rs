//! # japonica-cpuexec
//!
//! CPU-side loop execution for Japonica, standing in for the paper's
//! multi-threaded Java on a 2× Xeon X5650 (12 cores @ 2.66 GHz):
//!
//! * [`config::CpuConfig`] — core count, clock, a JIT-efficiency factor
//!   calibrated once globally (Java vs. native), and a per-op cost table;
//! * [`executor::CpuCtx`] — what one execution needs besides the loop and
//!   its state (program, config, kernel cache, fault plan, and what static
//!   analysis proved about the loop), with the executors as methods:
//!   [`run_sequential`](executor::CpuCtx::run_sequential), single-thread
//!   execution of an iteration range (the paper's mode C and the serial
//!   baselines), [`run_deferred`](executor::CpuCtx::run_deferred), the same
//!   against a private write buffer the caller commits later (mode D's CPU
//!   share), and [`run_parallel`](executor::CpuCtx::run_parallel), the
//!   range split into contiguous chunks, one per *simulated* worker thread;
//! * how the host walks those iterations is invisible to every simulated
//!   number. A range runs 32 consecutive iterations at a time through the
//!   SIMT simulator's lane sweeps on the calling thread ([`lanes`]), each
//!   lane's ops counted into the simulated thread that owns it; unless the
//!   loop is [`executor::Independence::Proven`], [`lanes::Checked`] verifies
//!   every batch access by access. A batch that does not get through —
//!   and every range under the tree-walker engine — runs the scalar VMs:
//!   the sequential executors replay just that batch, `run_parallel` undoes
//!   the range, gives each simulated chunk a private write buffer
//!   ([`buffer::BufferedBackend`]), spreads the chunks over at most
//!   `available_parallelism` OS workers (`std::thread::scope`) and commits
//!   the buffers in chunk order, so DOALL loops produce exactly the
//!   sequential result;
//! * [`executor::run_sequential_with`] / [`executor::run_parallel_with`] —
//!   flat-argument wrappers with nothing proven (every batch checked).
//!
//! Reported times come from the same cycle-accounting model the GPU
//! simulator uses, so CPU:GPU ratios are controlled by configuration, not
//! by host-machine noise.

pub mod buffer;
pub mod config;
pub mod executor;
pub mod lanes;

pub use buffer::BufferedBackend;
pub use config::CpuConfig;
pub use executor::{
    run_parallel_with, run_sequential_with, CpuCtx, CpuExecError, CpuReport, DeferredWrites,
    Independence,
};
