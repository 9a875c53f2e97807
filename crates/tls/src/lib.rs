//! # japonica-tls
//!
//! The GPU-tailored thread-level-speculation (TLS) runtime of Japonica — a
//! reimplementation of the GPU-TLS library the paper builds on (§IV) plus
//! the privatization execution mode PE(V) (§V-A, modes D/D').
//!
//! GPU-TLS divides a target loop into **sub-loops**; each sub-loop runs as
//! one GPU kernel that passes through four phases:
//!
//! 1. **Speculative execution (SE)** — iterations run in parallel as if
//!    there were no cross-iteration dependences. Every thread buffers its
//!    possibly-unsafe memory updates in a private write buffer instead of
//!    updating global memory, and metadata is recorded around every memory
//!    access ([`SpeculativeMemory`]).
//! 2. **Dependency checking (DC)** — the access metadata is scanned for
//!    read-after-write violations: an iteration that read a location from
//!    global memory which an *earlier* iteration of the same sub-loop wrote
//!    (it observed a stale value). Intra-warp and inter-warp violations are
//!    distinguished, mirroring the paper's two analyses.
//! 3. **Commit** — threads without violations copy their buffered updates
//!    to global memory in iteration order.
//! 4. **Mis-speculation recovery** — execution restarts from the earliest
//!    violating iteration: a window is replayed sequentially (on the CPU
//!    side, as the paper's scheduler does when the profile says the next
//!    warps carry true dependences), then speculation resumes on the GPU.
//!
//! [`engine::run_privatized`] implements PE(V): buffered parallel execution
//! committed in iteration order *without* dependence checking — safe for
//! loops whose only hazards are false (WAR/WAW) dependences.

pub mod config;
pub mod engine;
pub mod spec_mem;

pub use config::TlsConfig;
pub use engine::{
    run_privatized, run_privatized_with, run_tls_loop, run_tls_loop_guarded,
    run_tls_loop_guarded_with, DeviceBackend, TlsError, TlsReport,
};
pub use spec_mem::{
    DcOutcome, DepStats, SpecArena, SpecDelta, SpecView, SpeculativeMemory, WriteList,
};
