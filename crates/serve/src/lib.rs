//! `japonica-serve`: a multi-tenant runtime service over the shared
//! simulated CPU+GPU platform.
//!
//! The paper's runtime executes one annotated MiniJava program at a time.
//! This crate turns that runtime into a long-lived *service*: many
//! concurrent program submissions share a fleet of simulated devices.
//!
//! Every serving decision lives once, in the [`dispatch`] core — a pure,
//! single-threaded state machine driven by timestamped events (*admit*,
//! *next*, *finish*) that hands out tickets and verdicts. It owns
//!
//! - one [`PartitionAllocator`] per device, carving disjoint, contiguous
//!   SM slices and CPU worker slots — tenant isolation by construction,
//! - the bounded weighted-fair queue ([`qos`]) with admission control: a
//!   full queue *rejects* ([`Rejected::QueueFull`]) instead of dropping,
//!   deadlines cancel jobs that queued too long, and submitters can cancel,
//! - the [`fleet`] policy: an optional seeded fault template and a
//!   sliding-window health circuit breaker per device (Healthy → Suspect →
//!   Quarantined, with deterministic probe-based recovery), and a
//!   serve-layer failover ladder above PR 1's in-run recovery — retry on
//!   the same device, resubmit on the healthiest other device, degrade to
//!   CPU-only, then a typed [`error::FaultVerdict`]. Per-attempt fault
//!   plans derive from `(job salt, rung)` alone, so a faulted-and-migrated
//!   job is bit-identical to the same job run solo through the same rungs,
//! - the [`dedup`] registry: submissions are keyed by `(program
//!   content-hash, input fingerprint, device-relevant config)`; identical
//!   ones coalesce onto one execution whose result fans out to every
//!   waiter, each with its own verdict, latency sample and accounting row,
//! - exact accounting in [`ServeStats`]: every submitted job lands in
//!   exactly one counter, with a log₂ latency histogram and SM occupancy;
//!   `completed + failed == executions + dedup_joins` makes coalescing
//!   exactly auditable.
//!
//! Two thin *drivers* supply what the core does not have — a clock and
//! threads: [`Serve`] (a mutex, a condition variable, worker threads, the
//! host clock) and [`simulate_batch`] / [`SimServe`] (a virtual clock that
//! orders finish, arrival and ready times and executes tickets inline,
//! exactly reproducible, so tests can pin whole traces).
//! They share one configuration ([`ServeConfig`]) and cannot disagree on a
//! decision, because neither makes any. A content-hash [`ProgramCache`]
//! sits beside the core so repeated submissions of the same source skip
//! the frontend entirely.
//!
//! The determinism backbone: the GPU simulation depends only on a
//! partition's SM *count*, never on which physical SMs it occupies. A job
//! on a slice is therefore bit-identical to the same job run solo on an
//! equal-sized device.
//!
//! Saturation throughput comes from dedup plus two order-law features of
//! [`qos`]: **weighted-fair QoS admission** (deficit-weighted round-robin
//! across tenant tiers; priority still orders jobs within a tenant, a
//! single tenant reduces exactly to strict priority-then-FIFO, and tenant
//! queue shares bound admission so a greedy tenant cannot crowd others
//! out) and **program-hash batch dispatch** ([`qos::BatchConfig`]: the
//! dispatch order prefers queued jobs sharing the previous take's program
//! hash, up to a per-tenant burst cap, keeping each device's
//! program-scoped kernel caches — [`fleet::ProgramKernels`] — warm).
//! Batching reorders dispatch only — placement and fault draws are
//! untouched, so every bit-identity proof survives.

pub mod cache;
pub mod dedup;
pub mod dispatch;
pub mod error;
pub mod fleet;
pub mod job;
pub mod pool;
pub mod qos;
pub mod server;
pub mod sim;
pub mod stats;

pub use cache::{content_hash, ProgramCache};
pub use dedup::{dedup_key, DedupConfig, DedupKey};
pub use dispatch::{
    AttemptResult, DispatchCore, Done, KeyPolicy, Keyed, Next, ServeConfig, Ticket, Verdict,
};
pub use error::{FaultVerdict, Rejected, ServeError};
pub use fleet::{
    attempt_salt, DeviceHealthStats, DeviceId, DeviceKernelStats, FleetConfig, FleetDeviceConfig,
    HealthConfig, HealthState, HealthTracker, ProgramKernels, RetryPolicy, CPU_RUNG,
};
pub use job::{Attempt, JobHandle, JobId, JobRequest, JobResult};
pub use pool::{PartitionAllocator, PoolSnapshot, ResourceRequest};
pub use qos::{BatchConfig, JobMeta, QosConfig};
pub use server::Serve;
pub use sim::{
    simulate_batch, ScheduleEvent, SimBatchReport, SimJobOutcome, SimServe, SimServeConfig,
};
pub use stats::{LatencyHistogram, ServeStats};
