//! # japonica-scheduler
//!
//! The profile-guided task scheduler of Japonica (paper §V): the component
//! that distributes annotated-loop work across the CPU cores and the GPU.
//! DESIGN.md's "Scheduling core" section describes how the pieces fit.
//!
//! * [`modes`] — the execution-mode decision workflow of paper Fig. 2(b)
//!   (modes A, B, C, D, D′);
//! * [`plan`] — the data-movement plan: explicit `copyin`/`copyout` clause
//!   ranges when given, otherwise derived from the live-in / live-out
//!   classification (paper §III-B);
//! * [`schedule`] — the two policies as pure state machines: **task
//!   sharing** (§V-A, one loop split at the boundary
//!   `Cg·Fg / (Cg·Fg + Cc·Fc)`) and **task stealing** (§V-B, Algorithm 1,
//!   PDG batches over two queues);
//! * [`exec`] — the per-loop execution context every scheme runs its
//!   tickets through, and [`ladder`] — the fault ladder they step down;
//! * [`sharing`], [`stealing`] — the drivers, plus the whole-loop
//!   compositions (modes B and C, the evaluation's baselines);
//! * [`report`] — per-loop execution reports and scheduler errors.

pub mod config;
pub mod exec;
pub mod ladder;
pub mod modes;
pub mod plan;
pub mod report;
pub mod schedule;
pub mod sharing;
pub mod stealing;

pub use config::SchedulerConfig;
pub use exec::LoopRun;
pub use modes::{decide_mode, ExecutionMode};
pub use plan::DataPlan;
pub use report::{LoopExecReport, SchedError};
pub use sharing::{run_sharing, LoopTask};
pub use stealing::{run_stealing, StealingReport};
