//! The virtual-clock driver of the dispatch core: deterministic batch
//! simulation of the service.
//!
//! [`simulate_batch`] replays a timed submission trace through one
//! [`DispatchCore`] — the same admission policy, queue order, first-fit
//! placement, fleet failover ladder, health circuit breaker and dedup as
//! the threaded [`Serve`](crate::Serve), because it is the same code — on
//! a virtual clock, where a job's "run time" is its own simulated wall
//! time (`RunReport::total_s`) and a retry's backoff is a gap between
//! events instead of a sleep. Every quantity is a pure function of the
//! inputs: tests can assert exact schedules, exact placements, and exact
//! latencies, and diff two runs bit-for-bit (`tests/dispatch_golden.rs`,
//! `tests/fleet_chaos.rs`).
//!
//! What this driver adds to the core is the clock. Event order at equal
//! timestamps is fixed: completions first (resources free before anything
//! else happens), then arrivals (admission control), then dispatch — the
//! core's `next` asked again and again until it is idle, every ticket
//! executed inline. A successful attempt holds its slice until `dispatch +
//! total_s`; a faulted, failed or panicked one is zero-length (fail-fast
//! aborts consume no simulated wall time of their own) and finishes at the
//! instant it dispatched.

use crate::cache::ProgramCache;
use crate::dispatch::{DispatchCore, Next, ServeConfig, Ticket, Verdict};
use crate::error::{Rejected, ServeError};
use crate::job::JobRequest;
use crate::stats::ServeStats;
use japonica::RunReport;
use japonica_ir::Heap;
use std::sync::Arc;

/// Virtual-clock batch parameters: the service's one configuration
/// (`workers` is ignored — the virtual clock has no threads).
pub type SimServeConfig = ServeConfig;

/// Terminal state of one submitted job, in submission order.
#[derive(Debug)]
pub enum SimJobOutcome {
    /// Ran to completion on its slice.
    Completed {
        /// The job's full runtime report (bit-identical to a solo run on
        /// an equal-sized partition).
        report: RunReport,
        /// The job's heap after execution.
        heap: Heap,
        /// Virtual seconds spent queued before its first dispatch.
        queued_s: f64,
        /// Virtual dispatch time of the *successful* attempt.
        started_s: f64,
        /// Virtual completion time (`started_s + report.total_s`).
        finished_s: f64,
    },
    /// Turned away at arrival: the queue was at capacity.
    RejectedFull,
    /// Turned away at arrival: no device of the fleet could ever satisfy
    /// the request.
    RejectedInvalid,
    /// Cancelled at dispatch: its deadline had already passed in the
    /// virtual queue.
    DeadlineMissed {
        /// Virtual seconds spent queued.
        queued_s: f64,
        /// The job's deadline.
        deadline_s: f64,
    },
    /// Compile or runtime failure — including a typed
    /// [`ServeError::Exhausted`] verdict after the failover ladder's
    /// budget, and contained [`ServeError::Panicked`] worker panics.
    Failed(ServeError),
}

/// One dispatch decision, for exact-schedule assertions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleEvent {
    /// Index of the job in the submission trace.
    pub job: usize,
    /// Fleet device the attempt ran on.
    pub device: usize,
    /// First SM of the slice the job ran on.
    pub sm_base: u32,
    /// SMs in the slice.
    pub sm_count: u32,
    /// Virtual dispatch time.
    pub started_s: f64,
    /// Ladder rung of this attempt (0 = first try).
    pub attempt: u32,
    /// Whether quarantine was bypassed via the forced-dispatch hatch.
    pub forced: bool,
}

/// The full, deterministic result of a batch simulation.
#[derive(Debug)]
pub struct SimBatchReport {
    /// Per-job terminal states, indexed by submission order.
    pub outcomes: Vec<SimJobOutcome>,
    /// Dispatch decisions in dispatch order (one per *attempt*).
    pub schedule: Vec<ScheduleEvent>,
    /// Service counters with *virtual* latencies.
    pub stats: ServeStats,
    /// Virtual time when the last job finished.
    pub makespan_s: f64,
}

impl SimBatchReport {
    /// A compact fingerprint of the whole run — bit-exact over every
    /// simulated time, placement, attempt, and health decision — for
    /// determinism oracles: two runs of the same trace must produce
    /// byte-identical fingerprints.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, o) in self.outcomes.iter().enumerate() {
            match o {
                SimJobOutcome::Completed {
                    report,
                    queued_s,
                    started_s,
                    finished_s,
                    ..
                } => {
                    let _ = writeln!(
                        out,
                        "job {i}: done total={:016x} queued={:016x} start={:016x} end={:016x} {}",
                        report.total_s.to_bits(),
                        queued_s.to_bits(),
                        started_s.to_bits(),
                        finished_s.to_bits(),
                        report.summary()
                    );
                }
                SimJobOutcome::RejectedFull => {
                    let _ = writeln!(out, "job {i}: rejected-full");
                }
                SimJobOutcome::RejectedInvalid => {
                    let _ = writeln!(out, "job {i}: rejected-invalid");
                }
                SimJobOutcome::DeadlineMissed {
                    queued_s,
                    deadline_s,
                } => {
                    let _ = writeln!(
                        out,
                        "job {i}: deadline-missed queued={:016x} deadline={:016x}",
                        queued_s.to_bits(),
                        deadline_s.to_bits()
                    );
                }
                SimJobOutcome::Failed(e) => {
                    let _ = writeln!(out, "job {i}: failed {e}");
                }
            }
        }
        for ev in &self.schedule {
            let _ = writeln!(
                out,
                "dispatch job {} attempt {} on dev{} [{}, {}) at {:016x}{}",
                ev.job,
                ev.attempt,
                ev.device,
                ev.sm_base,
                ev.sm_base + ev.sm_count,
                ev.started_s.to_bits(),
                if ev.forced { " forced" } else { "" }
            );
        }
        out
    }
}

/// A successful attempt holding its slice on the virtual clock.
struct Running {
    finish_s: f64,
    dispatch_seq: usize,
    ticket: Box<Ticket<usize>>,
    report: RunReport,
}

/// Everything a batch produces besides the core's own counters.
struct Ledger {
    outcomes: Vec<Option<SimJobOutcome>>,
    makespan_s: f64,
}

impl Ledger {
    /// Record the verdicts the core handed out at virtual time `at_s`.
    fn settle(&mut self, verdicts: impl IntoIterator<Item = (usize, Verdict)>, at_s: f64) {
        for (job, verdict) in verdicts {
            // A deadline miss never ran, so it does not extend the makespan.
            if !matches!(verdict, Err(ServeError::DeadlineMissed { .. })) {
                self.makespan_s = self.makespan_s.max(at_s);
            }
            self.outcomes[job] = Some(match verdict {
                Ok(done) => SimJobOutcome::Completed {
                    report: done.report,
                    heap: done.heap,
                    queued_s: done.queued_s,
                    started_s: done.started_s,
                    finished_s: at_s,
                },
                Err(ServeError::DeadlineMissed {
                    queued_s,
                    deadline_s,
                }) => SimJobOutcome::DeadlineMissed {
                    queued_s,
                    deadline_s,
                },
                Err(e) => SimJobOutcome::Failed(e),
            });
        }
    }
}

/// The virtual-clock service as a value: a configuration plus the program
/// cache its batches compile through. A session holds one so that every
/// RUN it simulates hits the same cache its LOADs filled and invalidated —
/// the role [`Serve::program_cache`](crate::Serve::program_cache) plays on
/// the threaded side. Each batch still starts from a fresh dispatch core.
pub struct SimServe {
    cfg: ServeConfig,
    cache: Arc<ProgramCache>,
}

impl SimServe {
    /// A virtual service over `cfg` with an empty program cache.
    pub fn new(cfg: ServeConfig) -> SimServe {
        SimServe {
            cfg,
            cache: Arc::new(ProgramCache::new()),
        }
    }

    /// The cache every batch of this service compiles through.
    pub fn program_cache(&self) -> Arc<ProgramCache> {
        Arc::clone(&self.cache)
    }

    /// Replay `trace` — `(arrival_s, request)` pairs — through the
    /// service's policies on a virtual clock. Arrivals at equal times are
    /// processed in trace order. Returns every job's terminal state plus
    /// the exact schedule; given the cache's contents the result is a pure
    /// function of `(cfg, trace)`, and no result bit depends on the cache.
    pub fn run(&self, trace: Vec<(f64, JobRequest)>) -> SimBatchReport {
        let cache = &self.cache;
        let mut core: DispatchCore<usize> = DispatchCore::new(&self.cfg, Arc::clone(cache));
        let keys = core.key_policy();
        let mut ledger = Ledger {
            outcomes: trace.iter().map(|_| None).collect(),
            makespan_s: 0.0,
        };
        let mut arrivals: Vec<(f64, usize, JobRequest)> = trace
            .into_iter()
            .enumerate()
            .map(|(i, (t, r))| (t.max(0.0), i, r))
            .collect();
        // Stable by arrival time; trace order breaks ties. Reversed, so the
        // next arrival pops off the end.
        arrivals.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.1.cmp(&a.1))
        });
        let mut schedule: Vec<ScheduleEvent> = Vec::new();
        let mut running: Vec<Running> = Vec::new();
        let mut now = 0.0f64;

        loop {
            // 1. Finish every run ending at or before `now`, in
            //    deterministic order (finish time, then dispatch order).
            running.sort_by(|a, b| {
                a.finish_s
                    .partial_cmp(&b.finish_s)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.dispatch_seq.cmp(&b.dispatch_seq))
            });
            while running.first().is_some_and(|r| r.finish_s <= now) {
                let r = running.remove(0);
                ledger.settle(core.finish(*r.ticket, Ok(r.report), r.finish_s), r.finish_s);
            }

            // 2. Admit every job arriving at `now` (trace order on ties).
            while let Some((t, job, req)) = arrivals.pop_if(|a| a.0 <= now) {
                if let Err(rejected) = core.admit(keys.key(req), job, t) {
                    ledger.outcomes[job] = Some(match rejected {
                        Rejected::InvalidRequest(_) => SimJobOutcome::RejectedInvalid,
                        _ => SimJobOutcome::RejectedFull,
                    });
                }
            }

            // 3. Dispatch until the core is idle.
            let idle = loop {
                match core.next(now) {
                    Next::Idle { ready_at } => break Some(ready_at),
                    Next::Retired(job, verdict) => ledger.settle([(job, verdict)], now),
                    Next::Dispatch(mut ticket) => {
                        let a = ticket.attempt();
                        let dispatch_seq = schedule.len();
                        schedule.push(ScheduleEvent {
                            job: *ticket.tag(),
                            device: a.device,
                            sm_base: a.partition.sm_base,
                            sm_count: a.partition.sm_count,
                            started_s: now,
                            attempt: a.rung,
                            forced: a.forced,
                        });
                        match ticket.execute(cache) {
                            Ok(report) => {
                                let finish_s = now + report.total_s;
                                running.push(Running {
                                    finish_s,
                                    dispatch_seq,
                                    ticket,
                                    report,
                                });
                                // A zero-length run frees its slice at
                                // `now`: step 1 finishes it before anything
                                // else is placed.
                                if finish_s <= now {
                                    break None;
                                }
                            }
                            failed => ledger.settle(core.finish(*ticket, failed, now), now),
                        }
                    }
                }
            };
            let Some(ready_at) = idle else { continue };

            // 4. Advance the clock to the next event: a completion, an
            //    arrival, or a backed-off retry becoming ready.
            let next_t = running
                .iter()
                .map(|r| r.finish_s)
                .chain(arrivals.last().map(|a| a.0))
                .chain(ready_at)
                .fold(f64::INFINITY, f64::min);
            if next_t.is_infinite() {
                // Nothing will ever free resources or arrive: whatever is
                // still queued can never be placed.
                ledger.settle(core.abandon(), now);
                break;
            }
            now = next_t.max(now);
        }

        SimBatchReport {
            outcomes: ledger
                .outcomes
                .into_iter()
                .map(|o| o.unwrap_or(SimJobOutcome::Failed(ServeError::Lost)))
                .collect(),
            schedule,
            stats: core.stats(ledger.makespan_s),
            makespan_s: ledger.makespan_s,
        }
    }
}

/// One batch on a fresh virtual service: [`SimServe::run`] with an empty
/// program cache, so the result is a pure function of `(cfg, trace)`.
pub fn simulate_batch(cfg: &SimServeConfig, trace: Vec<(f64, JobRequest)>) -> SimBatchReport {
    SimServe::new(cfg.clone()).run(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dedup::DedupConfig;
    use crate::fleet::{FleetConfig, RetryPolicy};
    use crate::pool::ResourceRequest;
    use japonica_faults::{FaultKind, FaultPlan, FaultRule};
    use japonica_ir::Value;
    use japonica_scheduler::SchedulerConfig;

    const SRC: &str = "static void scale(double[] a, int n) {
        /* acc parallel */
        for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; }
    }";

    fn request(n: usize, sms: u32, cpus: u32) -> JobRequest {
        let mut heap = Heap::new();
        let a = heap.alloc_doubles(&vec![1.0; n]);
        JobRequest::new(
            SRC,
            "scale",
            vec![Value::Array(a), Value::Int(n as i32)],
            heap,
            ResourceRequest::new(sms, cpus),
        )
    }

    #[test]
    fn two_tenants_share_the_device_concurrently() {
        let cfg = SimServeConfig::default();
        let trace = vec![(0.0, request(4096, 7, 8)), (0.0, request(4096, 7, 8))];
        let rep = simulate_batch(&cfg, trace);
        // Both dispatch at t=0 on disjoint halves.
        assert_eq!(rep.schedule.len(), 2);
        assert_eq!(rep.schedule[0].started_s, 0.0);
        assert_eq!(rep.schedule[1].started_s, 0.0);
        assert_eq!(rep.schedule[0].sm_base, 0);
        assert_eq!(rep.schedule[1].sm_base, 7);
        // Equal jobs on equal slices: bit-identical reports.
        let (
            SimJobOutcome::Completed { report: r0, .. },
            SimJobOutcome::Completed { report: r1, .. },
        ) = (&rep.outcomes[0], &rep.outcomes[1])
        else {
            panic!("both jobs should complete: {:?}", rep.outcomes);
        };
        assert_eq!(r0.total_s.to_bits(), r1.total_s.to_bits());
        assert_eq!(rep.stats.completed, 2);
        assert!(
            rep.stats.accounts_for_every_job(),
            "{}",
            rep.stats.summary()
        );
        assert!(rep.makespan_s > 0.0);
        assert!(rep.stats.sm_occupancy > 0.0);
    }

    #[test]
    fn multi_tenant_report_is_bit_identical_to_solo_run() {
        // Two tenants sharing the device each see exactly the report a
        // solo run on an equal-sized device slice produces.
        let cfg = SimServeConfig::default();
        let shared = simulate_batch(
            &cfg,
            vec![(0.0, request(4096, 7, 8)), (0.0, request(4096, 7, 8))],
        );
        let solo = simulate_batch(&cfg, vec![(0.0, request(4096, 7, 8))]);
        let (
            SimJobOutcome::Completed {
                report: shared1, ..
            },
            SimJobOutcome::Completed { report: solo0, .. },
        ) = (&shared.outcomes[1], &solo.outcomes[0])
        else {
            panic!("jobs should complete");
        };
        // Tenant 1 ran on [7, 14); the solo job on [0, 7) — same width,
        // different base, same bits.
        assert_eq!(shared.schedule[1].sm_base, 7);
        assert_eq!(solo.schedule[0].sm_base, 0);
        assert_eq!(shared1.total_s.to_bits(), solo0.total_s.to_bits());
        assert_eq!(shared1.summary(), solo0.summary());
    }

    #[test]
    fn simulation_is_deterministic() {
        let cfg = SimServeConfig {
            queue_capacity: 3,
            ..SimServeConfig::default()
        };
        let trace = || {
            vec![
                (0.0, request(4096, 14, 16)),
                (0.0, request(1024, 7, 8).with_priority(5)),
                (0.0, request(1024, 7, 8).with_priority(200)),
                (0.0, request(64, 1, 1)), // 4th arrival: queue cap 3 → rejected
                (1e-9, request(512, 2, 2)), // arrives after queue drains a slot
            ]
        };
        let a = simulate_batch(&cfg, trace());
        let b = simulate_batch(&cfg, trace());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(matches!(a.outcomes[3], SimJobOutcome::RejectedFull));
        assert_eq!(a.stats.rejected_full, 1);
        assert!(a.stats.accounts_for_every_job(), "{}", a.stats.summary());
        // Priority 200 dispatches before priority 5 once the full-device
        // job releases the SMs.
        let pos_high = a.schedule.iter().position(|e| e.job == 2);
        let pos_low = a.schedule.iter().position(|e| e.job == 1);
        assert!(pos_high < pos_low, "schedule: {:?}", a.schedule);
    }

    #[test]
    fn queued_deadline_misses_are_cancelled_not_run() {
        let cfg = SimServeConfig::default();
        let trace = vec![
            (0.0, request(65536, 14, 16)),
            (
                0.0,
                request(64, 1, 1).with_deadline(std::time::Duration::from_nanos(1)),
            ),
        ];
        let rep = simulate_batch(&cfg, trace);
        assert!(matches!(
            rep.outcomes[1],
            SimJobOutcome::DeadlineMissed { .. }
        ));
        assert_eq!(rep.stats.deadline_missed, 1);
        assert_eq!(rep.schedule.len(), 1, "missed job must never dispatch");
        assert!(rep.stats.accounts_for_every_job());
    }

    #[test]
    fn broken_program_fails_without_stalling_the_batch() {
        let cfg = SimServeConfig::default();
        let mut bad = request(64, 2, 2);
        bad.source = "static void broken(".into();
        let rep = simulate_batch(&cfg, vec![(0.0, bad), (0.0, request(1024, 7, 8))]);
        assert!(matches!(rep.outcomes[0], SimJobOutcome::Failed(_)));
        assert!(matches!(rep.outcomes[1], SimJobOutcome::Completed { .. }));
        assert_eq!((rep.stats.failed, rep.stats.completed), (1, 1));
        assert!(rep.stats.accounts_for_every_job());
    }

    #[test]
    fn unsatisfiable_request_is_rejected_invalid() {
        let cfg = SimServeConfig::default();
        let rep = simulate_batch(
            &cfg,
            vec![(0.0, request(64, 99, 1)), (0.0, request(1024, 7, 8))],
        );
        assert!(matches!(rep.outcomes[0], SimJobOutcome::RejectedInvalid));
        assert!(matches!(rep.outcomes[1], SimJobOutcome::Completed { .. }));
        assert_eq!(rep.stats.rejected_invalid, 1);
        assert!(
            rep.stats.accounts_for_every_job(),
            "{}",
            rep.stats.summary()
        );
    }

    #[test]
    fn faulted_job_walks_the_ladder_and_completes() {
        // Every kernel launch faults: rung 0 (home), rung 1 (retry), and
        // rung 2 (migrate) all fault; rung 3 (CPU-only, no plan) must
        // complete the job.
        let template = FaultPlan::new(5, vec![FaultRule::persistent(FaultKind::KernelLaunch)]);
        let cfg = SimServeConfig {
            fleet: Some(FleetConfig::uniform(
                2,
                SchedulerConfig::default(),
                16,
                Some(template),
            )),
            ..SimServeConfig::default()
        };
        let rep = simulate_batch(&cfg, vec![(0.0, request(2048, 7, 8))]);
        let SimJobOutcome::Completed { heap, .. } = &rep.outcomes[0] else {
            panic!("job must complete via CPU degradation: {:?}", rep.outcomes);
        };
        // Output correctness survives the migrations.
        let a = japonica_ir::ArrayId(0);
        assert!(heap.read_doubles(a).unwrap().iter().all(|&v| v == 2.0));
        assert_eq!(rep.schedule.len(), 4, "{:?}", rep.schedule);
        assert_eq!(rep.schedule[0].attempt, 0);
        assert_eq!(rep.schedule[3].attempt, 3);
        // Rung 2 migrated off the home device.
        assert_ne!(rep.schedule[2].device, rep.schedule[1].device);
        assert_eq!(rep.schedule[1].device, rep.schedule[0].device);
        assert_eq!(
            (
                rep.stats.attempts,
                rep.stats.retried,
                rep.stats.migrated,
                rep.stats.cpu_degraded
            ),
            (4, 1, 1, 1)
        );
        assert!(
            rep.stats.accounts_for_every_job(),
            "{}",
            rep.stats.summary()
        );
        // Backoff gaps are charged to the virtual clock.
        assert!(rep.schedule[1].started_s > rep.schedule[0].started_s);
    }

    #[test]
    fn exhausted_budget_returns_typed_verdict() {
        let template = FaultPlan::new(5, vec![FaultRule::persistent(FaultKind::KernelLaunch)]);
        let mut fleet = FleetConfig::uniform(1, SchedulerConfig::default(), 16, Some(template));
        fleet.retry = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let cfg = SimServeConfig {
            fleet: Some(fleet),
            ..SimServeConfig::default()
        };
        let rep = simulate_batch(&cfg, vec![(0.0, request(2048, 7, 8))]);
        let SimJobOutcome::Failed(ServeError::Exhausted(v)) = &rep.outcomes[0] else {
            panic!("expected exhausted verdict: {:?}", rep.outcomes);
        };
        assert_eq!(v.attempts, 2);
        assert!(v.stats.gpu_faults >= 2, "{:?}", v.stats);
        assert_eq!(rep.stats.failed, 1);
        assert!(
            rep.stats.accounts_for_every_job(),
            "{}",
            rep.stats.summary()
        );
    }

    #[test]
    fn a_joiner_fanned_out_past_its_deadline_is_completed_late() {
        // Two identical jobs at t=0: the second parks on the first at
        // once (inside its 1 ns deadline, so it is not missed) and gets
        // its verdict when the leader finishes — a whole run later.
        let cfg = SimServeConfig {
            dedup: DedupConfig::enabled(),
            ..SimServeConfig::default()
        };
        let trace = vec![
            (0.0, request(4096, 7, 8)),
            (
                0.0,
                request(4096, 7, 8).with_deadline(std::time::Duration::from_nanos(1)),
            ),
        ];
        let rep = simulate_batch(&cfg, trace);
        let SimJobOutcome::Completed {
            queued_s,
            finished_s,
            ..
        } = rep.outcomes[1]
        else {
            panic!("the joiner completes: {:?}", rep.outcomes[1]);
        };
        assert!(queued_s > 1e-9 && queued_s == finished_s);
        assert_eq!(rep.schedule.len(), 1, "one execution");
        assert_eq!(
            (
                rep.stats.completed,
                rep.stats.dedup_joins,
                rep.stats.completed_late,
                rep.stats.deadline_missed
            ),
            (2, 1, 1, 0)
        );
        assert!(rep.stats.accounts_for_every_job());
    }
}
