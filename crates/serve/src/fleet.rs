//! The device fleet: N independent devices with per-device health
//! tracking and a serve-layer retry/failover ladder. This module holds the
//! fleet's *policy pieces* — configuration, the retry budget, the health
//! circuit breaker, device selection and the per-device kernel registry;
//! the dispatch core ([`crate::dispatch`]) owns one of each per device and
//! is the only code that drives them.
//!
//! PR 1's resilience ladder lives *inside* one scheduler run (retry a
//! chunk, resubmit it on the other device, degrade the run). This module
//! adds the layer above it: when a whole *job attempt* faults, the serving
//! layer decides which device gets the retry — the same device first, then
//! the healthiest other device, then a degraded CPU-only placement, then a
//! typed failure verdict. The ladder's rungs are fixed:
//!
//! | rung | placement                     | counter       |
//! |------|-------------------------------|---------------|
//! | 0    | home device (`salt % n`)      | —             |
//! | 1    | same device, retry            | `retried`     |
//! | 2    | healthiest *other* device     | `migrated`    |
//! | 3    | CPU-only degraded placement   | `cpu_degraded`|
//!
//! Determinism contract: the fault plan of an attempt is derived from the
//! device's *template* plan reseeded with [`attempt_salt`]`(job salt,
//! rung)` — a pure function of the job and the rung, never of which
//! physical device the attempt landed on. On a homogeneous fleet (equal
//! SM widths, equal templates — the chaos tests' configuration) every
//! job therefore walks the *same* rung sequence and produces bit-identical
//! per-attempt reports whether it runs threaded, in the virtual-clock
//! simulator, or solo on a single-device fleet. Health tracking can only
//! redirect *which device* serves a rung; it never skips or reorders rungs.
//!
//! Health is a per-device circuit breaker: a sliding window of attempt
//! outcomes drives Healthy → Suspect → Quarantined transitions, and a
//! quarantined device takes no new leases until a seeded-deterministic
//! *probe* (a derived plan consulted at a synthetic kernel-launch point)
//! succeeds — except for the forced-bypass escape hatch: when every device
//! is quarantined and probes keep failing, dispatch proceeds anyway with
//! the event marked `forced`, so the fleet can never livelock.

use japonica_faults::{FaultOrigin, FaultPlan};
use japonica_ir::KernelCache;
use japonica_scheduler::SchedulerConfig;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Index of a device in the fleet (dense, stable for the fleet's life).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub usize);

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dev#{}", self.0)
    }
}

/// The ladder rung that runs CPU-only (and every rung past it, if the
/// budget were ever larger).
pub const CPU_RUNG: u32 = 3;

/// Salt domain separator for health probes (distinct from any job salt
/// mix, so probe draws never alias attempt draws).
const PROBE_SALT: u64 = 0x5052_4F42_455F_4A50;

/// Derive the per-attempt fault-plan salt from a job's salt and the ladder
/// rung. Pure in `(salt, rung)` — placement never enters, which is what
/// keeps fault draws identical across threaded, simulated, and solo runs.
pub fn attempt_salt(salt: u64, rung: u32) -> u64 {
    salt.rotate_left((7 * (rung + 1)) % 64) ^ (rung as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Circuit-breaker states of one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// Serving normally.
    #[default]
    Healthy,
    /// Elevated fault rate (or half-open after a successful probe): still
    /// serving, watched closely.
    Suspect,
    /// Pulled from rotation: no new leases until a probe succeeds.
    Quarantined,
}

impl HealthState {
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Suspect => "suspect",
            HealthState::Quarantined => "quarantined",
        }
    }

    /// Rank for "healthiest" comparisons (lower is healthier).
    fn rank(self) -> u8 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Suspect => 1,
            HealthState::Quarantined => 2,
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Health state-machine knobs.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Sliding window length, in attempt outcomes.
    pub window: usize,
    /// Faults in the window that turn a Healthy device Suspect.
    pub suspect_threshold: u32,
    /// Faults in the window that quarantine the device.
    pub quarantine_threshold: u32,
    /// Consecutive failed probes before a refused dispatch proceeds anyway
    /// (the all-quarantined livelock escape hatch).
    pub forced_bypass_after: u32,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            window: 16,
            suspect_threshold: 2,
            quarantine_threshold: 4,
            forced_bypass_after: 3,
        }
    }
}

/// Serve-layer retry policy: the per-job attempt budget and the bounded
/// exponential backoff charged before every rung past the first.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per job (rung budget). 4 covers the full ladder;
    /// smaller budgets truncate it (and the verdict records the count).
    pub max_attempts: u32,
    /// Backoff before the first retry, in microseconds.
    pub backoff_base_us: f64,
    /// Multiplier per further rung.
    pub backoff_mult: f64,
    /// Backoff ceiling, in microseconds.
    pub backoff_cap_us: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            backoff_base_us: 100.0,
            backoff_mult: 2.0,
            backoff_cap_us: 5000.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff (seconds) charged before dispatching rung `rung` (0 for the
    /// first attempt): `min(cap, base · mult^(rung-1))`.
    pub fn backoff_s(&self, rung: u32) -> f64 {
        if rung == 0 {
            return 0.0;
        }
        let us = self.backoff_base_us * self.backoff_mult.powi(rung as i32 - 1);
        us.min(self.backoff_cap_us).max(0.0) * 1e-6
    }

    /// The effective rung budget (≥ 1, ≤ the full ladder).
    pub fn budget(&self) -> u32 {
        self.max_attempts.clamp(1, CPU_RUNG + 1)
    }
}

/// One device of the fleet: its platform and optional fault template.
#[derive(Debug, Clone)]
pub struct FleetDeviceConfig {
    /// The device's simulated platform.
    pub base: SchedulerConfig,
    /// Leasable CPU worker slots.
    pub cpu_slots: u32,
    /// Optional seeded fault *template*. Per-attempt plans are derived via
    /// [`FaultPlan::reseeded`]`(`[`attempt_salt`]`)`; the template itself
    /// is never consulted by job attempts (only by probes).
    pub fault_template: Option<FaultPlan>,
}

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The devices, indexed by [`DeviceId`].
    pub devices: Vec<FleetDeviceConfig>,
    /// The serve-layer retry/failover policy.
    pub retry: RetryPolicy,
    /// The per-device health circuit breaker.
    pub health: HealthConfig,
}

impl FleetConfig {
    /// A single-device fleet with no fault injection — the PR-1 service
    /// shape, used when no explicit fleet is configured.
    pub fn single(base: SchedulerConfig, cpu_slots: u32) -> FleetConfig {
        FleetConfig {
            devices: vec![FleetDeviceConfig {
                base,
                cpu_slots,
                fault_template: None,
            }],
            retry: RetryPolicy::default(),
            health: HealthConfig::default(),
        }
    }

    /// `n` identical devices sharing one platform shape and one fault
    /// template (cloned per device, so every device draws from the same
    /// rule set — the homogeneous configuration the bit-exactness oracle
    /// requires).
    pub fn uniform(
        n: usize,
        base: SchedulerConfig,
        cpu_slots: u32,
        template: Option<FaultPlan>,
    ) -> FleetConfig {
        FleetConfig {
            devices: (0..n.max(1))
                .map(|_| FleetDeviceConfig {
                    base: base.clone(),
                    cpu_slots,
                    fault_template: template.clone(),
                })
                .collect(),
            retry: RetryPolicy::default(),
            health: HealthConfig::default(),
        }
    }
}

/// Monotonic per-device health counters, snapshotted into
/// [`ServeStats`](crate::ServeStats).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceHealthStats {
    /// Device index.
    pub device: usize,
    /// Job attempts dispatched to this device.
    pub attempts: u64,
    /// Attempts that came back with a device fault.
    pub faults: u64,
    /// Healthy/Suspect → Quarantined transitions.
    pub quarantines: u64,
    /// Healthy → Suspect transitions.
    pub suspicions: u64,
    /// Quarantined → Suspect recoveries (successful probes).
    pub recoveries: u64,
    /// Probes run against this device.
    pub probes: u64,
    /// Probes that drew a fault.
    pub probe_failures: u64,
    /// Dispatches that bypassed quarantine via the escape hatch.
    pub forced_dispatches: u64,
    /// Unforced dispatches that reached a quarantined device — the
    /// embargo oracle; must stay 0.
    pub embargo_violations: u64,
    /// State at snapshot time.
    pub state: HealthState,
}

/// Per-device sliding-window circuit breaker. Pure state machine — the
/// probe *draws* happen outside (they need the device template), the
/// tracker only owns the counters and transitions.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    cfg: HealthConfig,
    window: VecDeque<bool>,
    state: HealthState,
    /// Consecutive failed probes since quarantine (forced-bypass gate).
    failed_probes_row: u32,
    /// Total probes started (also the probe-salt counter).
    probes: u64,
    stats: DeviceHealthStats,
}

impl HealthTracker {
    pub fn new(device: usize, cfg: HealthConfig) -> HealthTracker {
        HealthTracker {
            cfg,
            window: VecDeque::new(),
            state: HealthState::Healthy,
            failed_probes_row: 0,
            probes: 0,
            stats: DeviceHealthStats {
                device,
                ..DeviceHealthStats::default()
            },
        }
    }

    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Faults currently in the window.
    pub fn faults_in_window(&self) -> u32 {
        self.window.iter().filter(|f| **f).count() as u32
    }

    /// May this device take a new lease right now?
    pub fn allows_dispatch(&self) -> bool {
        self.state != HealthState::Quarantined
    }

    /// Record one attempt outcome and re-derive the state. Quarantine
    /// latches: only a successful probe leaves it.
    pub fn record_outcome(&mut self, fault: bool) {
        self.stats.attempts += 1;
        if fault {
            self.stats.faults += 1;
        }
        self.window.push_back(fault);
        while self.window.len() > self.cfg.window.max(1) {
            self.window.pop_front();
        }
        if self.state == HealthState::Quarantined {
            return;
        }
        let faults = self.faults_in_window();
        let next = if faults >= self.cfg.quarantine_threshold {
            HealthState::Quarantined
        } else if faults >= self.cfg.suspect_threshold {
            HealthState::Suspect
        } else {
            HealthState::Healthy
        };
        if next != self.state {
            match next {
                HealthState::Quarantined => self.stats.quarantines += 1,
                HealthState::Suspect if self.state == HealthState::Healthy => {
                    self.stats.suspicions += 1
                }
                _ => {}
            }
            self.state = next;
        }
    }

    /// Start one probe: returns the probe index to salt the draw with.
    pub fn begin_probe(&mut self) -> u64 {
        let idx = self.probes;
        self.probes += 1;
        self.stats.probes += 1;
        idx
    }

    /// Record the probe's outcome. Success re-opens the breaker half-way:
    /// the device returns to rotation as Suspect with a cleared window, so
    /// the first clean attempt promotes it back to Healthy.
    pub fn record_probe(&mut self, success: bool) {
        if success {
            if self.state == HealthState::Quarantined {
                self.stats.recoveries += 1;
            }
            self.state = HealthState::Suspect;
            self.window.clear();
            self.failed_probes_row = 0;
        } else {
            self.stats.probe_failures += 1;
            self.failed_probes_row += 1;
        }
    }

    /// Has the escape hatch armed (enough consecutive failed probes)?
    pub fn force_bypass_due(&self) -> bool {
        self.failed_probes_row >= self.cfg.forced_bypass_after.max(1)
    }

    /// Record a dispatch decision against this device's embargo counters.
    pub fn record_dispatch(&mut self, forced: bool) {
        if self.state == HealthState::Quarantined {
            if forced {
                self.stats.forced_dispatches += 1;
            } else {
                self.stats.embargo_violations += 1;
            }
        }
    }

    /// Counter snapshot (state field refreshed).
    pub fn snapshot(&self) -> DeviceHealthStats {
        let mut s = self.stats.clone();
        s.state = self.state;
        s
    }
}

/// One seeded-deterministic probe draw against a device template: derive a
/// fresh plan from `(template, probe index)` and consult it at a synthetic
/// kernel-launch point. A device with no template always probes clean.
pub fn probe_draw(template: Option<&FaultPlan>, probe_index: u64) -> bool {
    match template {
        None => true,
        Some(t) => t
            .reseeded(PROBE_SALT ^ probe_index.wrapping_mul(0x0101_0101_0101_0101))
            .on_kernel_launch(FaultOrigin::default())
            .is_none(),
    }
}

/// The device ladder rung `rung` of a job with `salt` goes to, given the
/// fleet's current health states. Read-only, so a caller may ask before it
/// knows whether the device has room; [`mark_dispatch`] marks the choice.
///
/// The preference order is a pure function of `(rung, salt, states)`:
/// rungs 0 and 1 prefer the home device (`salt % n`), rung 2 prefers the
/// healthiest *other* device, and the CPU rung the healthiest device
/// overall; the first candidate that allows dispatch wins. When every
/// candidate is quarantined the preferred one is returned: probing it can
/// only decide whether the dispatch is forced, never move it elsewhere.
pub fn choose_device(rung: u32, salt: u64, trackers: &[HealthTracker]) -> usize {
    let n = trackers.len().max(1);
    let home = (salt % n as u64) as usize;
    // Candidate order for this rung: preference first, then health rank,
    // then fewest window faults, then index (all deterministic).
    let mut order: Vec<usize> = (0..n).collect();
    let keyed = |i: usize| {
        let t = &trackers[i];
        (t.state().rank(), t.faults_in_window(), i)
    };
    match rung {
        0 | 1 => {
            // Home first, then healthiest as fallback when home is out.
            order.sort_by_key(|&i| (i != home, keyed(i)));
        }
        2 => {
            // Healthiest other; home only when it is the sole device.
            order.sort_by_key(|&i| (i == home && n > 1, keyed(i)));
        }
        _ => {
            // CPU rung: healthiest overall (the placement barely matters —
            // the run never touches the simulated GPU).
            order.sort_by_key(|&i| keyed(i));
        }
    }
    order
        .iter()
        .copied()
        .find(|&i| trackers[i].allows_dispatch())
        .unwrap_or(order[0])
}

/// Mark a dispatch to `target` — the device [`choose_device`] named — on
/// the health state. Returns whether the dispatch is forced.
///
/// When `target` is quarantined (every candidate was), it is probed until
/// a probe succeeds or the forced-bypass hatch arms.
pub fn mark_dispatch(
    target: usize,
    trackers: &mut [HealthTracker],
    templates: &[Option<FaultPlan>],
) -> bool {
    if trackers[target].allows_dispatch() {
        trackers[target].record_dispatch(false);
        return false;
    }
    // Bounded: each failed probe advances `failed_probes_row` toward
    // `forced_bypass_after`.
    loop {
        let idx = trackers[target].begin_probe();
        let ok = probe_draw(templates[target].as_ref(), idx);
        trackers[target].record_probe(ok);
        if ok {
            trackers[target].record_dispatch(false);
            return false;
        }
        if trackers[target].force_bypass_due() {
            trackers[target].record_dispatch(true);
            return true;
        }
    }
}

/// Default number of programs whose kernel caches one device keeps warm.
pub const DEFAULT_KERNELS_PER_DEVICE: usize = 32;

/// Per-device kernel-cache aggregate (summed over the device's resident
/// program caches), surfaced in `ServeStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceKernelStats {
    /// Device index.
    pub device: usize,
    /// Programs with a resident kernel cache.
    pub programs: usize,
    /// Kernel-cache hits summed over resident programs.
    pub hits: u64,
    /// Kernel-cache misses (compilations) summed over resident programs.
    pub misses: u64,
}

/// Bounded per-device registry of *program-scoped* kernel caches, the
/// device-resident state that program-hash batch dispatch keeps warm:
/// consecutive same-program jobs on a device reuse the program's compiled
/// bytecode and promoted native tiers instead of recompiling per job.
/// Keyed by program content hash because `LoopId`s are only unique within
/// one program — a cache must never span programs. FIFO-bounded so a
/// long-tailed program mix cannot grow device state without bound.
/// Evicted hit/miss totals are folded into `retired_{hits,misses}` so the
/// aggregates stay monotone.
pub struct ProgramKernels {
    capacity: usize,
    inner: Mutex<ProgramKernelsState>,
}

struct ProgramKernelsState {
    resident: BTreeMap<u64, Arc<KernelCache>>,
    order: VecDeque<u64>,
    retired_hits: u64,
    retired_misses: u64,
}

impl ProgramKernels {
    /// A registry keeping at most `capacity` program caches resident.
    pub fn new(capacity: usize) -> ProgramKernels {
        ProgramKernels {
            capacity: capacity.max(1),
            inner: Mutex::new(ProgramKernelsState {
                resident: BTreeMap::new(),
                order: VecDeque::new(),
                retired_hits: 0,
                retired_misses: 0,
            }),
        }
    }

    /// The kernel cache for `program_hash`, creating (and possibly
    /// evicting the oldest) if absent.
    pub fn for_program(&self, program_hash: u64) -> Arc<KernelCache> {
        let mut st = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(k) = st.resident.get(&program_hash) {
            return k.clone();
        }
        if st.resident.len() >= self.capacity {
            if let Some(old) = st.order.pop_front() {
                if let Some(k) = st.resident.remove(&old) {
                    st.retired_hits += k.hits();
                    st.retired_misses += k.misses();
                }
            }
        }
        let k = Arc::new(KernelCache::new());
        st.resident.insert(program_hash, k.clone());
        st.order.push_back(program_hash);
        k
    }

    /// Aggregate hit/miss totals over resident and evicted program caches.
    pub fn stats(&self, device: usize) -> DeviceKernelStats {
        let st = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut s = DeviceKernelStats {
            device,
            programs: st.resident.len(),
            hits: st.retired_hits,
            misses: st.retired_misses,
        };
        for k in st.resident.values() {
            s.hits += k.hits();
            s.misses += k.misses();
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use japonica_faults::{FaultKind, FaultRule};

    fn trackers(n: usize) -> Vec<HealthTracker> {
        (0..n)
            .map(|i| HealthTracker::new(i, HealthConfig::default()))
            .collect()
    }

    #[test]
    fn attempt_salt_is_rung_sensitive_and_placement_free() {
        assert_eq!(attempt_salt(42, 1), attempt_salt(42, 1));
        assert_ne!(attempt_salt(42, 1), attempt_salt(42, 2));
        assert_ne!(attempt_salt(42, 0), attempt_salt(43, 0));
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_s(0), 0.0);
        assert!((p.backoff_s(1) - 100e-6).abs() < 1e-12);
        assert!((p.backoff_s(2) - 200e-6).abs() < 1e-12);
        let capped = RetryPolicy {
            backoff_base_us: 4000.0,
            ..RetryPolicy::default()
        };
        assert!((capped.backoff_s(2) - 5000e-6).abs() < 1e-12, "cap binds");
        assert_eq!(RetryPolicy::default().budget(), 4);
        let tiny = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(tiny.budget(), 1);
    }

    #[test]
    fn health_state_machine_walks_the_ladder() {
        let mut t = HealthTracker::new(0, HealthConfig::default());
        assert_eq!(t.state(), HealthState::Healthy);
        t.record_outcome(true);
        assert_eq!(t.state(), HealthState::Healthy);
        t.record_outcome(true);
        assert_eq!(t.state(), HealthState::Suspect);
        t.record_outcome(true);
        t.record_outcome(true);
        assert_eq!(t.state(), HealthState::Quarantined);
        assert!(!t.allows_dispatch());
        // Quarantine latches even as the window slides clean.
        for _ in 0..20 {
            t.record_outcome(false);
        }
        assert_eq!(t.state(), HealthState::Quarantined);
        // A successful probe half-opens; a clean attempt closes.
        t.record_probe(true);
        assert_eq!(t.state(), HealthState::Suspect);
        t.record_outcome(false);
        assert_eq!(t.state(), HealthState::Healthy);
        let s = t.snapshot();
        assert_eq!(s.quarantines, 1);
        assert_eq!(s.suspicions, 1);
        assert_eq!(s.recoveries, 1);
    }

    /// Choose and mark, as the dispatch core does once a slice is carved.
    fn select_device(
        rung: u32,
        salt: u64,
        trackers: &mut [HealthTracker],
        templates: &[Option<FaultPlan>],
    ) -> (usize, bool) {
        let device = choose_device(rung, salt, trackers);
        (device, mark_dispatch(device, trackers, templates))
    }

    #[test]
    fn selection_prefers_home_then_health() {
        let mut ts = trackers(3);
        let tpl: Vec<Option<FaultPlan>> = vec![None, None, None];
        // salt 5 % 3 = 2 → home is device 2 for rungs 0 and 1.
        assert_eq!(select_device(0, 5, &mut ts, &tpl), (2, false));
        assert_eq!(select_device(1, 5, &mut ts, &tpl), (2, false));
        // Rung 2 migrates off the home device.
        let (dev, forced) = select_device(2, 5, &mut ts, &tpl);
        assert_ne!(dev, 2);
        assert!(!forced);
        // A quarantined home is skipped even at rung 0.
        for _ in 0..4 {
            ts[2].record_outcome(true);
        }
        assert_eq!(ts[2].state(), HealthState::Quarantined);
        let (dev, forced) = select_device(0, 5, &mut ts, &tpl);
        assert_ne!(dev, 2);
        assert!(!forced);
        assert_eq!(ts[2].snapshot().embargo_violations, 0);
    }

    #[test]
    fn single_device_rung2_stays_home() {
        let mut ts = trackers(1);
        let tpl: Vec<Option<FaultPlan>> = vec![None];
        assert_eq!(select_device(2, 9, &mut ts, &tpl), (0, false));
    }

    #[test]
    fn all_quarantined_probes_then_forces() {
        // A template that always faults: probes can never succeed, so the
        // escape hatch must arm after `forced_bypass_after` failures.
        let tpl = vec![Some(FaultPlan::new(
            3,
            vec![FaultRule::persistent(FaultKind::KernelLaunch)],
        ))];
        let mut ts = trackers(1);
        for _ in 0..4 {
            ts[0].record_outcome(true);
        }
        assert_eq!(ts[0].state(), HealthState::Quarantined);
        let (dev, forced) = select_device(0, 0, &mut ts, &tpl);
        assert_eq!(dev, 0);
        assert!(forced, "hatch must arm when probes cannot succeed");
        let s = ts[0].snapshot();
        assert_eq!(s.probes, s.probe_failures);
        assert!(s.probes >= 3);
        assert_eq!(s.forced_dispatches, 1);
        assert_eq!(s.embargo_violations, 0);
        // With no template the very first probe succeeds instead.
        let mut ts2 = trackers(1);
        for _ in 0..4 {
            ts2[0].record_outcome(true);
        }
        let (_, forced) = select_device(0, 0, &mut ts2, &[None]);
        assert!(!forced);
        assert_eq!(ts2[0].state(), HealthState::Suspect);
    }

    #[test]
    fn probe_draws_are_deterministic() {
        let t = FaultPlan::new(
            11,
            vec![FaultRule::persistent(FaultKind::KernelLaunch).with_probability(0.5)],
        );
        let a: Vec<bool> = (0..32).map(|i| probe_draw(Some(&t), i)).collect();
        let b: Vec<bool> = (0..32).map(|i| probe_draw(Some(&t), i)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|x| *x) && a.iter().any(|x| !*x));
        assert!(probe_draw(None, 7));
    }
}
