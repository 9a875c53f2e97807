//! Job descriptions, handles and results.

use crate::cache::ProgramCache;
use crate::error::ServeError;
use crate::fleet::CPU_RUNG;
use crate::pool::ResourceRequest;
use japonica::{RunReport, Runtime, RuntimeConfig};
use japonica_faults::FaultPlan;
use japonica_gpusim::DevicePartition;
use japonica_ir::{Heap, KernelCache, Scheme, Value};
use japonica_scheduler::SchedulerConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Service-assigned job identity (dense, in submission order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// One program submission: source + entry + inputs + scheduling intent.
#[derive(Debug)]
pub struct JobRequest {
    /// Annotated MiniJava source (content-hashed for the program cache).
    pub source: String,
    /// Entry function name.
    pub entry: String,
    /// Entry arguments.
    pub args: Vec<Value>,
    /// The job's private heap (inputs in, outputs out). Jobs never share
    /// heaps — tenant isolation is by construction.
    pub heap: Heap,
    /// Queue priority: higher runs earlier; FIFO within a class. Under
    /// weighted-fair QoS the priority orders jobs *within* the tenant.
    pub priority: u8,
    /// QoS tenant id: indexes the service's `QosConfig` weights for
    /// deficit-weighted round-robin admission. Tenant 0 (default) with no
    /// configured weights reproduces the pre-QoS strict-priority order.
    pub tenant: u32,
    /// Give up if the job has not *started* within this budget after
    /// submission (and flag it `completed_late` if it finishes past it).
    pub deadline: Option<Duration>,
    /// The slice of the shared platform the job runs on.
    pub resources: ResourceRequest,
    /// Optional stealing-scheme split override (Table II's per-app knob).
    pub subloops_per_task: Option<u32>,
    /// Optional scheme override, as in `RuntimeConfig`.
    pub scheme_override: Option<Scheme>,
    /// Per-job salt: seeds the fault draws of every attempt (via
    /// `fleet::attempt_salt`) and picks the job's home device
    /// (`salt % devices`). Purely deterministic — equal salts on equal
    /// fleets replay identical fault schedules.
    pub salt: u64,
    /// Test/chaos hook: make the worker panic while this job executes, to
    /// exercise the panic-containment path. Never set by real submitters.
    pub chaos_panic: bool,
    /// Caller-owned kernel/native-tier cache, overriding the fleet's
    /// per-device program-scoped registry. Sessions route their resident
    /// compilation here so incrementally recompiled kernels (and their
    /// promoted native tiers) survive across submissions. Warmth never
    /// changes result bits, only host time, so every bit-identity oracle
    /// is unaffected by the override.
    pub kernels: Option<Arc<KernelCache>>,
}

impl JobRequest {
    /// A request at default priority (100) with no deadline.
    pub fn new(
        source: impl Into<String>,
        entry: impl Into<String>,
        args: Vec<Value>,
        heap: Heap,
        resources: ResourceRequest,
    ) -> JobRequest {
        JobRequest {
            source: source.into(),
            entry: entry.into(),
            args,
            heap,
            priority: 100,
            tenant: 0,
            deadline: None,
            resources,
            subloops_per_task: None,
            scheme_override: None,
            salt: 0,
            chaos_panic: false,
            kernels: None,
        }
    }

    /// Set the per-job fault-schedule salt.
    pub fn with_salt(mut self, salt: u64) -> JobRequest {
        self.salt = salt;
        self
    }

    /// Set the queue priority.
    pub fn with_priority(mut self, priority: u8) -> JobRequest {
        self.priority = priority;
        self
    }

    /// Set the QoS tenant id.
    pub fn with_tenant(mut self, tenant: u32) -> JobRequest {
        self.tenant = tenant;
        self
    }

    /// Set the start deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> JobRequest {
        self.deadline = Some(deadline);
        self
    }

    /// Set the stealing sub-loop split.
    pub fn with_subloops(mut self, subloops: u32) -> JobRequest {
        self.subloops_per_task = Some(subloops);
        self
    }

    /// Route execution through a caller-owned kernel cache (session state)
    /// instead of the fleet's per-device registry.
    pub fn with_kernels(mut self, kernels: Arc<KernelCache>) -> JobRequest {
        self.kernels = Some(kernels);
        self
    }
}

/// What a finished job hands back to its submitter.
#[derive(Debug)]
pub struct JobResult {
    /// The job's identity.
    pub id: JobId,
    /// The runtime's full report (simulated wall, per-loop modes, faults).
    pub report: RunReport,
    /// The job's heap after execution (outputs live here).
    pub heap: Heap,
    /// Host seconds from submission to dispatch.
    pub queued_s: f64,
    /// Host seconds from submission to result.
    pub latency_s: f64,
}

/// The submitter's side of an admitted job.
#[derive(Debug)]
pub struct JobHandle {
    pub(crate) id: JobId,
    pub(crate) cancel: Arc<AtomicBool>,
    pub(crate) rx: mpsc::Receiver<Result<JobResult, ServeError>>,
}

impl JobHandle {
    /// The service-assigned id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Ask the service to drop the job before it starts. Best-effort: a
    /// job already running completes normally.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Block until the job's verdict arrives.
    pub fn wait(self) -> Result<JobResult, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Lost))
    }

    /// Non-blocking poll; `None` while the job is still in the system.
    pub fn try_wait(&self) -> Option<Result<JobResult, ServeError>> {
        self.rx.try_recv().ok()
    }
}

/// One ladder attempt as the dispatch core describes it on a ticket: where
/// it runs, at which rung, and under which derived fault plan.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// Fleet device the attempt was placed on.
    pub device: usize,
    /// That device's platform (the slice is carved out of it).
    pub base: Arc<SchedulerConfig>,
    /// The carved SM slice.
    pub partition: DevicePartition,
    /// CPU worker slots held with the slice.
    pub cpu_slots: u32,
    /// Ladder rung (0 = first try; [`CPU_RUNG`] and past run CPU-only).
    pub rung: u32,
    /// Whether quarantine was bypassed via the forced-dispatch hatch.
    pub forced: bool,
    /// The device template reseeded for `(job salt, rung)`; `None` on a
    /// fault-free device and always on the CPU rung.
    pub plan: Option<FaultPlan>,
    /// Kernel cache to execute through: the request's session-owned cache
    /// when it carries one, else the device's program-scoped registry.
    pub kernels: Arc<KernelCache>,
}

/// Compile (through `cache`) and run one ladder attempt of a job on the
/// attempt's slice, with its derived fault plan and placement mode. This is
/// the single execution path under both drivers of the dispatch core, so
/// they produce bit-identical per-job reports for equal partitions and
/// plans.
///
/// When a plan is installed, the scheduler runs *fail-fast*: the in-run
/// recovery ladder is disabled so the first device fault escapes — with its
/// accumulated `FaultStats` — to the serve-layer ladder, which owns retry
/// placement across the fleet. CPU-only attempts carry no plan at all (the
/// paper's baseline executor has no fault injection points), so the final
/// rung is guaranteed to be fault-free.
pub(crate) fn execute_attempt(
    cache: &ProgramCache,
    attempt: &Attempt,
    req: &JobRequest,
    heap: &mut Heap,
) -> Result<RunReport, ServeError> {
    let compiled = cache.get_or_compile(&req.source)?;
    let mut sched = (*attempt.base)
        .clone()
        .with_partition(attempt.partition, attempt.cpu_slots);
    // Program-scoped kernel/native-tier cache (batch dispatch keeps it
    // warm). Engine warmth never changes result bits, only host time.
    sched.kernels = Some(Arc::clone(&attempt.kernels));
    if let Some(s) = req.subloops_per_task {
        sched.subloops_per_task = s;
    }
    sched.cpu_only = attempt.rung >= CPU_RUNG;
    sched.faults = attempt.plan.clone();
    if sched.faults.is_some() {
        sched.resilience.fail_fast = true;
        sched.resilience.max_retries = 0;
    }
    let rt = Runtime::new(RuntimeConfig {
        sched,
        scheme_override: req.scheme_override,
        profile_limit: None,
    });
    if req.chaos_panic {
        panic!("chaos_panic requested for this job");
    }
    Ok(rt.run(&compiled, &req.entry, &req.args, heap)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "static void scale(double[] a, int n) {
        /* acc parallel */
        for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; }
    }";

    #[test]
    fn execute_on_partition_runs_and_respects_slice() {
        let cache = ProgramCache::new();
        let base = SchedulerConfig::default();
        let mut heap = Heap::new();
        let a = heap.alloc_doubles(&vec![1.0; 4096]);
        let req = JobRequest::new(
            SRC,
            "scale",
            vec![Value::Array(a), Value::Int(4096)],
            Heap::new(),
            ResourceRequest::new(7, 8),
        );
        let on = |sm_base: u32| Attempt {
            device: 0,
            base: Arc::new(base.clone()),
            partition: DevicePartition {
                sm_base,
                sm_count: 7,
            },
            cpu_slots: 8,
            rung: 0,
            forced: false,
            plan: None,
            kernels: Arc::new(KernelCache::new()),
        };
        let report = execute_attempt(&cache, &on(7), &req, &mut heap).unwrap();
        assert_eq!(report.loops.len(), 1);
        assert!(heap.read_doubles(a).unwrap().iter().all(|&v| v == 2.0));
        // Identical job on the [0,7) slice: bit-identical simulated time.
        let mut heap2 = Heap::new();
        let a2 = heap2.alloc_doubles(&vec![1.0; 4096]);
        let req2 = JobRequest::new(
            SRC,
            "scale",
            vec![Value::Array(a2), Value::Int(4096)],
            Heap::new(),
            ResourceRequest::new(7, 8),
        );
        let r2 = execute_attempt(&cache, &on(0), &req2, &mut heap2).unwrap();
        assert_eq!(report.total_s.to_bits(), r2.total_s.to_bits());
        assert_eq!(report.summary(), r2.summary());
        assert_eq!(cache.hits(), 1);
    }
}
