//! The dispatch core: every serving decision, once.
//!
//! [`DispatchCore`] is a pure, single-threaded state machine. It owns the
//! weighted-fair queue, one [`PartitionAllocator`] and [`HealthTracker`]
//! per fleet device, the dedup registry, the retry policy, the per-device
//! kernel registries and every [`ServeStats`] counter, and it is driven
//! only by timestamped events:
//!
//! - [`admit`](DispatchCore::admit)`(job, now)` — admission control, in
//!   the fixed order invalid → shutting down → global capacity → tenant
//!   share;
//! - [`next`](DispatchCore::next)`(now)` — one skip-over scan of the queue
//!   in the [`crate::qos`] total order. It answers with a job retired
//!   without running (cancelled, deadline missed, or joined onto a
//!   memoized execution), with a [`Ticket`] — a job plus the slice, rung,
//!   fault plan and kernel cache of one attempt — or with
//!   [`Next::Idle`] and the earliest time a backed-off retry turns ready;
//! - [`finish`](DispatchCore::finish)`(ticket, result, now)` — the slice
//!   returns, the device's health records the outcome, and the job either
//!   re-enters the queue at its *original* admission sequence one backoff
//!   later or retires: counters flush, and the leader's verdict fans out
//!   to every duplicate parked on it.
//!
//! The core never reads a clock, spawns a thread or executes a program.
//! A *driver* supplies those: [`Serve`](crate::Serve) wraps one core in a
//! mutex, takes `now` from the host clock and runs tickets on worker
//! threads; [`simulate_batch`](crate::simulate_batch) owns one outright,
//! advances a virtual clock from event to event and charges a run its own
//! simulated time. Both execute a ticket through [`Ticket::execute`], so
//! the two services agree on every decision because there is only one
//! copy of each.
//!
//! The law, as the virtual-clock simulator always had it: a job whose
//! chosen device is full is skipped, not waited on; health marks (probes,
//! forced dispatches) are committed only when a slice is actually carved;
//! the deadline and the cancel flag are screened until the first dispatch
//! and never after; a faulted attempt costs the job one backoff in the
//! queue, not a pinned worker.

use crate::cache::{content_hash, ProgramCache};
use crate::dedup::{dedup_key, DedupConfig, DedupKey, DedupState, DoneEntry, Lookup};
use crate::error::{FaultVerdict, Rejected, ServeError};
use crate::fleet::{
    attempt_salt, choose_device, mark_dispatch, FleetConfig, HealthTracker, ProgramKernels,
    RetryPolicy, CPU_RUNG, DEFAULT_KERNELS_PER_DEVICE,
};
use crate::job::{execute_attempt, Attempt, JobRequest};
use crate::pool::{PartitionAllocator, PoolSnapshot, ResourceRequest};
use crate::qos::{BatchConfig, DwrrCore, JobMeta, QosConfig, ScanVerdict};
use crate::stats::ServeStats;
use japonica::RunReport;
use japonica_faults::{FaultPlan, FaultStats};
use japonica_gpusim::DevicePartition;
use japonica_ir::Heap;
use japonica_scheduler::{SchedError, SchedulerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Service tunables — the one configuration both drivers take.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The shared platform every slice is carved from (device 0 when no
    /// explicit fleet is configured).
    pub base: SchedulerConfig,
    /// CPU worker slots per device (the paper's 16 threads by default).
    pub cpu_slots: u32,
    /// Bounded queue capacity — the backpressure knob.
    pub queue_capacity: usize,
    /// Dispatcher threads of the threaded driver (the virtual clock has no
    /// threads and ignores it). More workers than the fleet has SMs is
    /// never useful; 4 covers a half-SM-each four-tenant mix.
    pub workers: usize,
    /// Explicit fleet layout (devices, fault templates, retry/health
    /// policy). `None` builds a single-device fleet from `base` and
    /// `cpu_slots` — the PR-1 service shape.
    pub fleet: Option<FleetConfig>,
    /// Per-tenant DWRR weights (weighted-fair QoS admission). Empty
    /// (default) = every tenant weighs 1, no per-tenant queue shares —
    /// which for a single tenant is exactly the old strict-priority order.
    pub qos: QosConfig,
    /// Execution dedup (off by default: every submission executes).
    pub dedup: DedupConfig,
    /// Program-hash batch dispatch (off by default).
    pub batch: BatchConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            base: SchedulerConfig::default(),
            cpu_slots: 16,
            queue_capacity: 64,
            workers: 4,
            fleet: None,
            qos: QosConfig::default(),
            dedup: DedupConfig::default(),
            batch: BatchConfig::default(),
        }
    }
}

impl ServeConfig {
    /// The fleet this configuration describes (never empty).
    fn resolved_fleet(&self) -> FleetConfig {
        let single = || FleetConfig::single(self.base.clone(), self.cpu_slots);
        let mut fleet = self.fleet.clone().unwrap_or_else(single);
        if fleet.devices.is_empty() {
            fleet.devices = single().devices;
        }
        fleet
    }
}

/// How submissions are keyed, fixed by the configuration
/// ([`DispatchCore::key_policy`]): whether identical ones coalesce, and
/// whether the job salt discriminates (it seeds the fault draws, so it
/// must whenever any device can fault). Keying hashes the whole input
/// heap, so drivers do it *before* taking the core's lock.
#[derive(Debug, Clone, Copy)]
pub struct KeyPolicy {
    dedup: bool,
    chaos: bool,
}

impl KeyPolicy {
    /// Hash `req`'s program (batching and kernel-registry key) and, when
    /// dedup applies to it, its execution identity. `chaos_panic` probes
    /// never coalesce — a deliberate panic must happen every time.
    pub fn key(self, req: JobRequest) -> Keyed {
        Keyed {
            meta: JobMeta {
                prio: req.priority,
                tenant: req.tenant,
                hash: content_hash(&req.source),
            },
            key: (self.dedup && !req.chaos_panic).then(|| dedup_key(&req, self.chaos)),
            req,
        }
    }
}

/// A submission with its hashes computed, ready for [`DispatchCore::admit`].
#[derive(Debug)]
pub struct Keyed {
    req: JobRequest,
    meta: JobMeta,
    key: Option<DedupKey>,
}

/// What a completed job hands back, on the driver's clock.
#[derive(Debug)]
pub struct Done {
    /// The runtime's full report.
    pub report: RunReport,
    /// The job's heap after execution.
    pub heap: Heap,
    /// Seconds from admission to first dispatch. A coalesced duplicate
    /// never dispatches: its fan-out instant is both its start and its
    /// end, so `queued_s == latency_s`.
    pub queued_s: f64,
    /// Dispatch time of the successful attempt.
    pub started_s: f64,
    /// Seconds from admission to this verdict.
    pub latency_s: f64,
}

/// The terminal state of one admitted job.
pub type Verdict = Result<Done, ServeError>;

/// What one attempt came back with. A contained panic arrives as
/// [`ServeError::Panicked`].
pub type AttemptResult = Result<RunReport, ServeError>;

/// One admitted job between events.
struct Job<T> {
    tag: T,
    req: JobRequest,
    cancel: Arc<AtomicBool>,
    arrived_s: f64,
    /// Next ladder rung to dispatch (0 = first attempt).
    rung: u32,
    /// Earliest time the next attempt may dispatch: the arrival, then
    /// `fault time + backoff` after each faulted attempt.
    ready_s: f64,
    /// Queue time, fixed at the first dispatch.
    queued_s: f64,
    /// Fault/recovery accounting merged across the job's attempts so far.
    acc: FaultStats,
    /// Heap as submitted, restored before each retry.
    pristine: Option<Heap>,
    /// Execution identity, when dedup applies to this job.
    key: Option<DedupKey>,
}

impl<T> Job<T> {
    fn deadline_s(&self) -> Option<f64> {
        self.req.deadline.map(|d| d.as_secs_f64())
    }

    /// What is left of a job that coalesces instead of executing.
    fn into_joiner(self) -> Joiner<T> {
        Joiner {
            deadline_s: self.deadline_s(),
            arrived_s: self.arrived_s,
            tag: self.tag,
        }
    }
}

/// A duplicate parked on an in-flight leader: what its own verdict,
/// latency sample and late flag need at fan-out time.
struct Joiner<T> {
    tag: T,
    arrived_s: f64,
    deadline_s: Option<f64>,
}

/// One placed attempt, checked out of the core: the job travels with it
/// and comes back through [`DispatchCore::finish`].
pub struct Ticket<T> {
    job: Job<T>,
    meta: JobMeta,
    seq: u64,
    attempt: Attempt,
    started_s: f64,
    /// Whether any device can fault (so retries need the pristine heap).
    chaos: bool,
}

impl<T> Ticket<T> {
    /// The driver's tag for the job.
    pub fn tag(&self) -> &T {
        &self.job.tag
    }

    /// Where and how this attempt runs.
    pub fn attempt(&self) -> &Attempt {
        &self.attempt
    }

    /// Run the attempt (compiling through `cache`), containing a panic as
    /// [`ServeError::Panicked`]. Touches no core state — drivers call it
    /// without holding the core.
    pub fn execute(&mut self, cache: &ProgramCache) -> AttemptResult {
        let job = &mut self.job;
        if self.attempt.rung == 0 {
            // A fail-fast abort can leave a half-written heap (CPU chunks
            // write in place), so retries re-run from a snapshot. Only
            // needed when faults are possible at all.
            job.pristine = self.chaos.then(|| job.req.heap.clone());
        } else if let Some(p) = &job.pristine {
            job.req.heap = p.clone();
        }
        let mut heap = std::mem::take(&mut job.req.heap);
        let attempt = &self.attempt;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_attempt(cache, attempt, &job.req, &mut heap)
        }));
        job.req.heap = heap;
        result.unwrap_or_else(|payload| {
            Err(ServeError::Panicked(
                if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "opaque panic payload".to_string()
                },
            ))
        })
    }
}

/// The answer to [`DispatchCore::next`].
pub enum Next<T> {
    /// Nothing queued can be placed at `now`. `ready_at` is the earliest
    /// time a backed-off retry turns ready, if any is waiting; otherwise
    /// only a `finish` or an `admit` can change the answer.
    Idle {
        /// Earliest ready time among queued retries.
        ready_at: Option<f64>,
    },
    /// A job left the queue without running.
    Retired(T, Verdict),
    /// Run this attempt, then hand the ticket to [`DispatchCore::finish`].
    Dispatch(Box<Ticket<T>>),
}

struct Device {
    base: Arc<SchedulerConfig>,
    alloc: PartitionAllocator,
    kernels: ProgramKernels,
    /// Σ (seconds held × SMs) over returned slices.
    busy_sm_s: f64,
}

/// What the skip-over scan decided for the job it took.
enum Action {
    Cancelled,
    DeadlineMissed {
        queued_s: f64,
        deadline_s: f64,
    },
    /// Park on the key's in-flight leader.
    Join(DedupKey),
    /// Retire from the key's memoized verdict.
    Memo(Arc<DoneEntry>),
    /// Execute on `device` (slice already carved).
    Place {
        device: usize,
        partition: DevicePartition,
    },
}

/// The dispatch state machine. `T` is the driver's per-job tag (a result
/// channel, a trace index); the core only carries it.
pub struct DispatchCore<T> {
    devices: Vec<Device>,
    // Parallel to `devices`, in the slices `mark_dispatch` takes.
    trackers: Vec<HealthTracker>,
    templates: Vec<Option<FaultPlan>>,
    keys: KeyPolicy,
    retry: RetryPolicy,
    capacity: usize,
    queue: DwrrCore<Job<T>>,
    dedup: DedupState<Joiner<T>>,
    cache: Arc<ProgramCache>,
    /// The monotone counters and the latency histogram; the point-in-time
    /// fields are filled by [`DispatchCore::stats`].
    stats: ServeStats,
    /// Tickets checked out and not yet finished.
    running: usize,
    closed: bool,
}

impl<T> DispatchCore<T> {
    /// A core over `cfg`'s fleet. `cache` is the program cache tickets
    /// will compile through; the core only reads its counters.
    pub fn new(cfg: &ServeConfig, cache: Arc<ProgramCache>) -> DispatchCore<T> {
        let fleet = cfg.resolved_fleet();
        let templates: Vec<Option<FaultPlan>> = fleet
            .devices
            .iter()
            .map(|d| d.fault_template.clone())
            .collect();
        DispatchCore {
            trackers: (0..fleet.devices.len())
                .map(|i| HealthTracker::new(i, fleet.health.clone()))
                .collect(),
            keys: KeyPolicy {
                dedup: cfg.dedup.enabled,
                chaos: templates.iter().any(Option::is_some),
            },
            templates,
            devices: fleet
                .devices
                .into_iter()
                .map(|d| Device {
                    alloc: PartitionAllocator::new(d.base.gpu.sm_count, d.cpu_slots.max(1)),
                    base: Arc::new(d.base),
                    kernels: ProgramKernels::new(DEFAULT_KERNELS_PER_DEVICE),
                    busy_sm_s: 0.0,
                })
                .collect(),
            retry: fleet.retry,
            capacity: cfg.queue_capacity.max(1),
            queue: DwrrCore::new(cfg.qos.clone(), cfg.batch.clone()),
            dedup: DedupState::new(cfg.dedup.capacity),
            cache,
            stats: ServeStats::default(),
            running: 0,
            closed: false,
        }
    }

    /// How to key submissions for this core.
    pub fn key_policy(&self) -> KeyPolicy {
        self.keys
    }

    /// Admission screen: `req` must be satisfiable by at least one device.
    fn admissible(&self, req: ResourceRequest) -> Result<(), Rejected> {
        let mut last = Ok(());
        for d in &self.devices {
            match d.alloc.admissible(req) {
                Ok(()) => return Ok(()),
                e @ Err(_) => last = e,
            }
        }
        last
    }

    /// Admit or reject one submission. `Ok` is the job's cancel flag: set
    /// it before the job first dispatches and it retires `Cancelled`.
    /// Rejection is all-or-nothing — the job is turned away with a
    /// verdict, never silently dropped.
    pub fn admit(&mut self, job: Keyed, tag: T, now: f64) -> Result<Arc<AtomicBool>, Rejected> {
        let Keyed { req, meta, key } = job;
        self.stats.submitted += 1;
        if let Err(r) = self.admissible(req.resources) {
            self.stats.rejected_invalid += 1;
            return Err(r);
        }
        if self.closed {
            self.stats.rejected_shutdown += 1;
            return Err(Rejected::ShuttingDown);
        }
        // Global capacity, then — with QoS tiers configured — the
        // tenant's weighted share, so a greedy tenant can never crowd the
        // others out of admission.
        let share = self.queue.qos().tenant_cap(self.capacity, meta.tenant);
        let full = if self.queue.len() >= self.capacity {
            Some(self.capacity)
        } else if self.queue.tenant_len(meta.tenant) >= share {
            Some(share)
        } else {
            None
        };
        if let Some(capacity) = full {
            self.stats.rejected_full += 1;
            return Err(Rejected::QueueFull { capacity });
        }
        self.stats.admitted += 1;
        let cancel = Arc::new(AtomicBool::new(false));
        self.queue.push(
            meta,
            Job {
                tag,
                req,
                cancel: Arc::clone(&cancel),
                arrived_s: now,
                rung: 0,
                ready_s: now,
                queued_s: 0.0,
                acc: FaultStats::default(),
                pristine: None,
                key,
            },
        );
        Ok(cancel)
    }

    /// Take the first job in dispatch order that can make progress at
    /// `now`. Jobs that cannot — not ready yet, or their chosen device has
    /// no room — are skipped over and left queued, so one blocked wide job
    /// does not starve the narrow jobs behind it.
    pub fn next(&mut self, now: f64) -> Next<T> {
        loop {
            let mut action = None;
            let Self {
                queue,
                devices,
                trackers,
                dedup,
                ..
            } = &mut *self;
            let taken = queue.scan(|_, job| {
                // Cancellation and the deadline apply to jobs that have
                // never started; a faulted job already consumed its
                // dispatch (and may lead a dedup key).
                if job.rung == 0 {
                    if job.cancel.load(Ordering::Relaxed) {
                        action = Some(Action::Cancelled);
                        return ScanVerdict::Take;
                    }
                    let queued_s = now - job.arrived_s;
                    if let Some(deadline_s) = job.deadline_s().filter(|dl| queued_s > *dl) {
                        action = Some(Action::DeadlineMissed {
                            queued_s,
                            deadline_s,
                        });
                        return ScanVerdict::Take;
                    }
                }
                if job.ready_s > now {
                    return ScanVerdict::Skip;
                }
                // Dedup resolves at first dispatch (past rung 0 this job
                // *is* its key's leader), bypassing device allocation.
                if let (0, Some(key)) = (job.rung, job.key) {
                    match dedup.lookup(&key) {
                        Lookup::InFlight => {
                            action = Some(Action::Join(key));
                            return ScanVerdict::Take;
                        }
                        Lookup::Done(entry) => {
                            action = Some(Action::Memo(entry));
                            return ScanVerdict::Take;
                        }
                        Lookup::Lead => {}
                    }
                }
                // Choose the rung's device without marking it: selection
                // must leave no probe or dispatch mark when the chosen
                // device has no room right now.
                let device = choose_device(job.rung, job.req.salt, trackers);
                match devices[device].alloc.try_alloc(job.req.resources) {
                    Some(partition) => {
                        action = Some(Action::Place { device, partition });
                        ScanVerdict::Take
                    }
                    None => ScanVerdict::Skip,
                }
            });
            let Some((meta, seq, mut job)) = taken else {
                let mut ready_at = f64::INFINITY;
                self.queue.for_each(|_, j| {
                    if j.ready_s > now {
                        ready_at = ready_at.min(j.ready_s);
                    }
                });
                return Next::Idle {
                    ready_at: ready_at.is_finite().then_some(ready_at),
                };
            };
            match action.expect("a taken job always has an action") {
                Action::Cancelled => {
                    self.stats.cancelled += 1;
                    return Next::Retired(job.tag, Err(ServeError::Cancelled));
                }
                Action::DeadlineMissed {
                    queued_s,
                    deadline_s,
                } => {
                    self.stats.deadline_missed += 1;
                    let missed = ServeError::DeadlineMissed {
                        queued_s,
                        deadline_s,
                    };
                    return Next::Retired(job.tag, Err(missed));
                }
                Action::Join(key) => {
                    // Retires at the leader's finish.
                    self.stats.dedup_hits += 1;
                    self.dedup.park(key, job.into_joiner());
                }
                Action::Memo(entry) => {
                    self.stats.dedup_hits += 1;
                    let (tag, verdict) = self.retire_join(job.into_joiner(), &entry, now);
                    return Next::Retired(tag, verdict);
                }
                Action::Place { device, partition } => {
                    let (rung, salt) = (job.rung, job.req.salt);
                    // Mark the scan's choice on the real health state.
                    let forced = mark_dispatch(device, &mut self.trackers, &self.templates);
                    if rung == 0 {
                        job.queued_s = now - job.arrived_s;
                        // First dispatch makes this job its key's leader.
                        if let Some(key) = job.key {
                            self.dedup.lead(key);
                        }
                    }
                    // The CPU rung never touches the simulated GPU and
                    // carries no plan, so it cannot fault. Every other
                    // plan derives from (salt, rung) alone — never from
                    // placement.
                    let plan = self.templates[device]
                        .as_ref()
                        .filter(|_| rung < CPU_RUNG)
                        .map(|t| t.reseeded(attempt_salt(salt, rung)));
                    // A session-owned kernel cache wins over the device's
                    // registry: hot-reload state follows the session.
                    let kernels = job
                        .req
                        .kernels
                        .clone()
                        .unwrap_or_else(|| self.devices[device].kernels.for_program(meta.hash));
                    self.running += 1;
                    return Next::Dispatch(Box::new(Ticket {
                        attempt: Attempt {
                            device,
                            base: Arc::clone(&self.devices[device].base),
                            partition,
                            cpu_slots: job.req.resources.cpu_slots,
                            rung,
                            forced,
                            plan,
                            kernels,
                        },
                        job,
                        meta,
                        seq,
                        started_s: now,
                        chaos: self.keys.chaos,
                    }));
                }
            }
        }
    }

    /// Take back a ticket with what its attempt produced. A device fault
    /// with budget left re-queues the job (empty result); anything else
    /// retires it and returns the verdicts to deliver — the job's own,
    /// then one per duplicate parked on it.
    pub fn finish(
        &mut self,
        ticket: Ticket<T>,
        result: AttemptResult,
        now: f64,
    ) -> Vec<(T, Verdict)> {
        let Ticket {
            mut job,
            meta,
            seq,
            attempt,
            started_s,
            ..
        } = ticket;
        let (dev, rung) = (attempt.device, attempt.rung);
        self.running -= 1;
        let device = &mut self.devices[dev];
        device.alloc.release(attempt.partition, attempt.cpu_slots);
        device.busy_sm_s += (now - started_s) * attempt.partition.sm_count as f64;
        let result = match result {
            Ok(report) => {
                self.trackers[dev].record_outcome(false);
                job.acc.merge(&report.fault_stats());
                Ok(report)
            }
            // The only retryable failure class: a device fault that
            // escaped the scheduler's fail-fast run.
            Err(ServeError::Sched(SchedError::Device { fault, stats })) => {
                self.trackers[dev].record_outcome(true);
                job.acc.merge(&stats);
                if rung + 1 < self.retry.budget() {
                    job.rung = rung + 1;
                    job.ready_s = now + self.retry.backoff_s(job.rung);
                    self.queue.push_with_seq(meta, seq, job);
                    return Vec::new();
                }
                Err(ServeError::Exhausted(FaultVerdict {
                    fault,
                    stats: job.acc,
                    attempts: rung + 1,
                }))
            }
            // A panic is a job bug, not a device fault: contained,
            // terminal, and not held against the device's health.
            Err(e @ ServeError::Panicked(_)) => {
                self.stats.worker_panics += 1;
                Err(e)
            }
            // Compile/exec/internal failures are the job's own fault:
            // terminal, and the device served its attempt cleanly.
            Err(e) => {
                self.trackers[dev].record_outcome(false);
                Err(e)
            }
        };
        let attempts = rung as u64 + 1;
        let heap = std::mem::take(&mut job.req.heap);
        // A leader's verdict is memoized so late duplicates join it too.
        let entry = job.key.map(|key| {
            let verdict = match &result {
                Ok(report) => Ok((report.clone(), heap.clone())),
                Err(e) => Err(e.clone()),
            };
            (key, Arc::new(DoneEntry { verdict, attempts }))
        });
        let own = self.retire(
            job.deadline_s(),
            result.map(|report| Done {
                report,
                heap,
                queued_s: job.queued_s,
                started_s,
                latency_s: now - job.arrived_s,
            }),
        );
        self.flush_execution(rung, &job.acc);
        let mut verdicts = vec![(job.tag, own)];
        if let Some((key, entry)) = entry {
            for j in self.dedup.complete(key, Arc::clone(&entry)) {
                verdicts.push(self.retire_join(j, &entry, now));
            }
        }
        verdicts
    }

    /// Flush one retired execution's ladder counters: one execution,
    /// `final_rung + 1` attempts, one count per rung walked past the
    /// first, and its merged fault accounting. Only ever at retirement, so
    /// the extended accounting identities hold at every snapshot.
    fn flush_execution(&mut self, final_rung: u32, acc: &FaultStats) {
        self.stats.executions += 1;
        self.stats.attempts += final_rung as u64 + 1;
        self.stats.retried += (final_rung >= 1) as u64;
        self.stats.migrated += (final_rung >= 2) as u64;
        self.stats.cpu_degraded += (final_rung >= CPU_RUNG) as u64;
        self.stats.faults.merge(acc);
    }

    /// Count one job's terminal state: completed (with its latency sample
    /// and late flag) or failed.
    fn retire(&mut self, deadline_s: Option<f64>, verdict: Verdict) -> Verdict {
        match &verdict {
            Ok(done) => {
                self.stats.completed += 1;
                if deadline_s.is_some_and(|dl| done.latency_s > dl) {
                    self.stats.completed_late += 1;
                }
                self.stats.latency.record(done.latency_s);
            }
            Err(_) => self.stats.failed += 1,
        }
        verdict
    }

    /// Retire one coalesced duplicate from its leader's verdict: its own
    /// copy of the result, latency sample, late flag and accounting row.
    fn retire_join(&mut self, j: Joiner<T>, entry: &DoneEntry, now: f64) -> (T, Verdict) {
        self.stats.dedup_joins += 1;
        self.stats.dedup_suppressed_attempts += entry.attempts;
        let latency_s = now - j.arrived_s;
        let verdict = match &entry.verdict {
            Ok((report, heap)) => Ok(Done {
                report: report.clone(),
                heap: heap.clone(),
                queued_s: latency_s,
                started_s: now,
                latency_s,
            }),
            Err(e) => Err(e.clone()),
        };
        (j.tag, self.retire(j.deadline_s, verdict))
    }

    /// Stop admitting. Queued and running jobs still get their verdicts.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Whether [`close`](DispatchCore::close) was called.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Tickets checked out and not yet finished.
    pub fn running(&self) -> usize {
        self.running
    }

    /// Dedup keys whose leader is in flight.
    pub fn dedup_in_flight(&self) -> usize {
        self.dedup.in_flight()
    }

    /// Give up on everything still queued or parked, with a
    /// [`ServeError::Lost`] verdict each. For a driver that has learnt
    /// nothing can ever place them: `next` is idle with no retry pending,
    /// no ticket is out, and nothing more will arrive. (The admission
    /// screen makes this empty on a homogeneous fleet; a job homed on a
    /// device too small for it is how it is not.)
    pub fn abandon(&mut self) -> Vec<(T, Verdict)> {
        let mut lost = Vec::new();
        for (_, _, job) in self.queue.drain() {
            if job.rung > 0 {
                // Dispatched at least once: a failed execution.
                self.stats.failed += 1;
                self.flush_execution(job.rung - 1, &job.acc);
            } else {
                self.stats.cancelled += 1;
            }
            lost.push((job.tag, Err(ServeError::Lost)));
        }
        for j in self.dedup.drain_parked() {
            self.stats.cancelled += 1;
            lost.push((j.tag, Err(ServeError::Lost)));
        }
        lost
    }

    /// One consistent snapshot of every counter; `now` dates the occupancy
    /// figure. `accounts_for_every_job()` holds on every snapshot.
    pub fn stats(&self, now: f64) -> ServeStats {
        let mut s = self.stats.clone();
        s.in_flight = s.admitted - s.completed - s.failed - s.deadline_missed - s.cancelled;
        s.queue_depth = self.queue.len();
        s.program_cache_hits = self.cache.hits();
        s.program_cache_misses = self.cache.misses();
        s.cache_evictions = self.cache.evictions();
        s.cache_invalidations = self.cache.invalidations();
        let pools = self.pool_snapshots(now);
        s.free_sms = pools.iter().map(|p| p.free_sms).sum();
        let sms: u32 = pools.iter().map(|p| p.sm_count).sum();
        let busy_sm_s: f64 = self.devices.iter().map(|d| d.busy_sm_s).sum();
        s.sm_occupancy = occupancy(busy_sm_s, sms, now);
        s.devices = self.trackers.iter().map(HealthTracker::snapshot).collect();
        s.device_kernels = self
            .devices
            .iter()
            .enumerate()
            .map(|(i, d)| d.kernels.stats(i))
            .collect();
        s
    }

    /// Per-device utilization at `now`.
    pub fn pool_snapshots(&self, now: f64) -> Vec<PoolSnapshot> {
        self.devices
            .iter()
            .map(|d| PoolSnapshot {
                sm_count: d.alloc.sm_count(),
                free_sms: d.alloc.free_sms(),
                cpu_slots: d.alloc.cpu_slots(),
                free_cpu_slots: d.alloc.free_cpu_slots(),
                sm_occupancy: occupancy(d.busy_sm_s, d.alloc.sm_count(), now),
            })
            .collect()
    }
}

/// Σ(held seconds × SMs) over `sms` SMs for `elapsed_s`, as a share in
/// [0, 1] (0 before any time has passed).
fn occupancy(busy_sm_s: f64, sms: u32, elapsed_s: f64) -> f64 {
    let sm_s = elapsed_s * sms as f64;
    if sm_s > 0.0 {
        (busy_sm_s / sm_s).clamp(0.0, 1.0)
    } else {
        0.0
    }
}
