//! # japonica-perf
//!
//! One seeded benchmark for the whole stack — the runtime, the fleet and
//! sessions — with named end-to-end and per-layer metrics ([`spec`]).
//! `perf run` measures, checks every timed operation's output and prints
//! every metric by name; `perf run --trace 1` adds the per-layer numbers
//! from spans the harness records around its calls into each layer;
//! `perf compare` judges two runs by the bounds the benchmark fixed.
//! `README.md` beside this crate explains each metric and workload.

pub mod compare;
pub mod compile;
pub mod harness;
pub mod inputs;
pub mod json;
pub mod pacer;
pub mod probes;
pub mod report;
pub mod run;
pub mod serve;
pub mod session;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod table2;
pub mod trace;
