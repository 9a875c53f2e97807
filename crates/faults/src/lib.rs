//! Deterministic device-fault injection for the Japonica runtime.
//!
//! Real heterogeneous Java runtimes treat device failure as routine:
//! TornadoVM-style systems fall back to the interpreter when GPU execution
//! fails, and task-based runtimes degrade to sequential execution per task.
//! This crate supplies the substrate for reproducing that behavior inside
//! the simulator: a seedable, reproducible [`FaultPlan`] that the execution
//! layers consult at well-defined points (kernel launch, per-warp issue,
//! H2D/D2H transfer, CPU worker chunk), plus the shared [`DeviceFault`]
//! error payload, the [`DegradationLevel`] ladder, and the [`FaultStats`]
//! counters the scheduler reports.
//!
//! Injection is *pull-based*: the hot paths carry an `Option<&FaultPlan>`
//! and only touch the plan when one is installed, so the happy path is
//! unchanged — no plan, no branches taken, identical timing.

use std::fmt;
use std::sync::{Arc, Mutex};

use japonica_ir::LoopId;

/// Where in the execution a fault fired. Every field is optional because the
/// layers know different amounts of context; whatever is known travels with
/// the fault instead of being stringified away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultOrigin {
    /// The loop being executed.
    pub loop_id: Option<LoopId>,
    /// First iteration of the sub-loop / kernel launch.
    pub subloop: Option<u64>,
    /// The warp that faulted (SIMT faults only).
    pub warp: Option<u64>,
    /// The scheduler chunk or CPU worker chunk index.
    pub chunk: Option<u64>,
}

impl FaultOrigin {
    pub fn for_loop(loop_id: LoopId) -> FaultOrigin {
        FaultOrigin {
            loop_id: Some(loop_id),
            ..FaultOrigin::default()
        }
    }

    pub fn with_subloop(mut self, start: u64) -> FaultOrigin {
        self.subloop = Some(start);
        self
    }

    pub fn with_warp(mut self, warp: u64) -> FaultOrigin {
        self.warp = Some(warp);
        self
    }

    pub fn with_chunk(mut self, chunk: u64) -> FaultOrigin {
        self.chunk = Some(chunk);
        self
    }
}

impl fmt::Display for FaultOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        if let Some(l) = self.loop_id {
            write!(f, "loop {}", l.0)?;
            wrote = true;
        }
        if let Some(s) = self.subloop {
            write!(f, "{}sub-loop @{s}", if wrote { ", " } else { "" })?;
            wrote = true;
        }
        if let Some(w) = self.warp {
            write!(f, "{}warp {w}", if wrote { ", " } else { "" })?;
            wrote = true;
        }
        if let Some(c) = self.chunk {
            write!(f, "{}chunk {c}", if wrote { ", " } else { "" })?;
            wrote = true;
        }
        if !wrote {
            f.write_str("unknown site")?;
        }
        Ok(())
    }
}

/// The injectable fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The kernel never started (driver-level launch failure).
    KernelLaunch,
    /// A transient SIMT fault in one warp mid-kernel.
    Simt,
    /// Host-to-device transfer failed.
    TransferH2D,
    /// Device-to-host transfer failed.
    TransferD2H,
    /// The kernel ran past its watchdog deadline.
    DeadlineOverrun,
    /// A CPU worker chunk failed.
    CpuChunk,
}

impl FaultKind {
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::KernelLaunch => "kernel-launch failure",
            FaultKind::Simt => "SIMT fault",
            FaultKind::TransferH2D => "H2D transfer failure",
            FaultKind::TransferD2H => "D2H transfer failure",
            FaultKind::DeadlineOverrun => "kernel deadline overrun",
            FaultKind::CpuChunk => "CPU worker-chunk failure",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A device fault surfaced to the recovery machinery. This is the shared
/// error payload carried (not stringified) through `SimtError`, `TlsError`,
/// and `SchedError`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceFault {
    pub kind: FaultKind,
    pub origin: FaultOrigin,
    /// Transient faults are worth retrying; persistent ones are not.
    pub transient: bool,
}

impl fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}) at {}",
            self.kind,
            if self.transient {
                "transient"
            } else {
                "persistent"
            },
            self.origin
        )
    }
}

impl std::error::Error for DeviceFault {}

/// One trigger rule of a [`FaultPlan`]. Each injection point of a matching
/// kind counts as one *occurrence*; the rule fires on occurrences inside
/// `[after, after + count)`, optionally thinned by `probability` and (for
/// SIMT faults) gated on a specific warp.
#[derive(Debug, Clone)]
pub struct FaultRule {
    pub kind: FaultKind,
    /// Skip this many matching occurrences before arming.
    pub after: u64,
    /// Fire on at most this many occurrences once armed. A *finite* count
    /// models a transient fault (a retry advances the occurrence counter
    /// past the window); `u64::MAX` models a hard, persistent fault.
    pub count: u64,
    /// Probability in `[0, 1]` that an armed occurrence actually fires,
    /// drawn from the plan's seeded RNG. `1.0` = always.
    pub probability: f64,
    /// For [`FaultKind::Simt`]: only fire on this warp.
    pub warp: Option<u64>,
    /// For [`FaultKind::DeadlineOverrun`]: extra simulated cycles the stuck
    /// kernel would burn. The watchdog compares against its deadline.
    pub stall_cycles: f64,
}

impl FaultRule {
    /// A rule that fires on every matching occurrence — a hard fault.
    pub fn persistent(kind: FaultKind) -> FaultRule {
        FaultRule {
            kind,
            after: 0,
            count: u64::MAX,
            probability: 1.0,
            warp: None,
            stall_cycles: 0.0,
        }
    }

    /// A rule that fires `count` times then goes quiet — a transient fault
    /// that a bounded retry can ride out.
    pub fn transient(kind: FaultKind, count: u64) -> FaultRule {
        FaultRule {
            count,
            ..FaultRule::persistent(kind)
        }
    }

    pub fn after(mut self, n: u64) -> FaultRule {
        self.after = n;
        self
    }

    pub fn with_probability(mut self, p: f64) -> FaultRule {
        self.probability = p.clamp(0.0, 1.0);
        self
    }

    pub fn on_warp(mut self, warp: u64) -> FaultRule {
        self.warp = Some(warp);
        self
    }

    pub fn stalling(mut self, cycles: f64) -> FaultRule {
        self.stall_cycles = cycles;
        self
    }

    fn is_transient(&self) -> bool {
        self.count != u64::MAX
    }
}

#[derive(Debug, Default)]
struct PlanState {
    /// RNG state (splitmix64), advanced once per probability draw.
    rng: u64,
    /// Per-rule occurrence counters, indexed like `FaultPlan::rules`.
    seen: Vec<u64>,
    /// Total faults this plan has injected.
    injected: u64,
}

/// A seedable, reproducible fault-injection plan.
///
/// The plan is immutable once built except for interior occurrence counters
/// and the RNG, which sit behind a mutex so the plan can be consulted from
/// the scheduler's single-threaded control loops without plumbing `&mut`
/// through every layer. Two runs with the same plan (same seed, same rules)
/// inject exactly the same faults at the same points.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    state: Arc<Mutex<PlanState>>,
}

impl Clone for FaultPlan {
    /// Cloning resets the injection state: the clone behaves like a fresh
    /// plan with the same seed and rules.
    fn clone(&self) -> FaultPlan {
        FaultPlan::new(self.seed, self.rules.clone())
    }
}

impl FaultPlan {
    pub fn new(seed: u64, rules: Vec<FaultRule>) -> FaultPlan {
        let n = rules.len();
        FaultPlan {
            seed,
            rules,
            state: Arc::new(Mutex::new(PlanState {
                rng: seed ^ 0x6A09_E667_F3BC_C909,
                seen: vec![0; n],
                injected: 0,
            })),
        }
    }

    /// A second handle onto *this* plan: same rules and the same injection
    /// state, so an occurrence counted or a fault drawn through either
    /// handle is counted or gone for both. What a configuration derived for
    /// one run carries, so the run draws from its parent's plan where
    /// [`Clone`] would start it over.
    pub fn share(&self) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            rules: self.rules.clone(),
            state: Arc::clone(&self.state),
        }
    }

    /// A plan with no rules: never fires, useful as a base for builders.
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan::new(seed, Vec::new())
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.state
            .lock()
            .expect("fault-plan state poisoned")
            .injected
    }

    /// A fresh plan with the same rules but the seed mixed with `salt`
    /// (splitmix-style finalizer so nearby salts decorrelate). Serving
    /// layers use this to derive per-attempt plans from a device template:
    /// the derived plan depends only on `(template seed, salt)`, never on
    /// which physical device the attempt lands on, which is what keeps
    /// fault draws placement-independent across the fleet.
    pub fn reseeded(&self, salt: u64) -> FaultPlan {
        let mut z = self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        FaultPlan::new(z, self.rules.clone())
    }

    /// Reset occurrence counters and RNG to the initial state.
    pub fn reset(&self) {
        let mut st = self.state.lock().expect("fault-plan state poisoned");
        st.rng = self.seed ^ 0x6A09_E667_F3BC_C909;
        st.seen = vec![0; self.rules.len()];
        st.injected = 0;
    }

    fn next_unit(rng: &mut u64) -> f64 {
        *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Record one occurrence at an injection point of the given kind and
    /// decide whether a fault fires there. At most one rule fires per
    /// occurrence (the first match wins).
    fn check(&self, kind: FaultKind, origin: FaultOrigin) -> Option<DeviceFault> {
        if self.rules.is_empty() {
            return None;
        }
        let mut st = self.state.lock().expect("fault-plan state poisoned");
        let mut fired: Option<DeviceFault> = None;
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.kind != kind {
                continue;
            }
            if let (Some(want), FaultKind::Simt) = (rule.warp, kind) {
                if origin.warp != Some(want) {
                    continue;
                }
            }
            let occ = st.seen[i];
            st.seen[i] += 1;
            if fired.is_some() {
                continue; // still count the occurrence for later rules
            }
            let armed = occ >= rule.after && occ - rule.after < rule.count;
            if !armed {
                continue;
            }
            if rule.probability < 1.0 && Self::next_unit(&mut st.rng) >= rule.probability {
                continue;
            }
            st.injected += 1;
            fired = Some(DeviceFault {
                kind,
                origin,
                transient: rule.is_transient(),
            });
        }
        fired
    }

    /// Hook: a kernel launch is about to happen.
    pub fn on_kernel_launch(&self, origin: FaultOrigin) -> Option<DeviceFault> {
        self.check(FaultKind::KernelLaunch, origin)
    }

    /// Hook: a warp is about to issue.
    pub fn on_warp(&self, origin: FaultOrigin) -> Option<DeviceFault> {
        self.check(FaultKind::Simt, origin)
    }

    /// Hook: a transfer is about to run (`to_device` selects H2D vs D2H).
    pub fn on_transfer(&self, to_device: bool, origin: FaultOrigin) -> Option<DeviceFault> {
        let kind = if to_device {
            FaultKind::TransferH2D
        } else {
            FaultKind::TransferD2H
        };
        self.check(kind, origin)
    }

    /// Hook: a CPU worker batch is about to run.
    pub fn on_cpu_chunk(&self, origin: FaultOrigin) -> Option<DeviceFault> {
        self.check(FaultKind::CpuChunk, origin)
    }

    /// Hook: a kernel finished its simulated execution. Returns extra stall
    /// cycles a stuck device would have burned plus the fault to raise if
    /// the watchdog's deadline is exceeded.
    pub fn stall_cycles(&self, origin: FaultOrigin) -> Option<(f64, DeviceFault)> {
        self.check(FaultKind::DeadlineOverrun, origin).map(|f| {
            let stall = self
                .rules
                .iter()
                .find(|r| r.kind == FaultKind::DeadlineOverrun)
                .map(|r| r.stall_cycles)
                .unwrap_or(0.0);
            (stall, f)
        })
    }
}

/// The per-run degradation ladder (§ "graceful degradation"): each rung
/// gives up more parallel hardware in exchange for guaranteed progress.
/// `Ord` follows rung order so `max` picks the worst level reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum DegradationLevel {
    /// GPU + multithreaded CPU, the normal heterogeneous schedule.
    #[default]
    Full,
    /// The GPU was retired after repeated device faults; the multithreaded
    /// CPU carries the remaining work.
    GpuDegraded,
    /// The CPU worker pool was also degraded; remaining chunks run
    /// sequentially, still chunk-at-a-time through the scheduler.
    CpuOnly,
    /// Whole-loop sequential fallback — the last rung, always correct.
    Sequential,
}

impl DegradationLevel {
    pub fn label(self) -> &'static str {
        match self {
            DegradationLevel::Full => "full",
            DegradationLevel::GpuDegraded => "gpu-degraded",
            DegradationLevel::CpuOnly => "cpu-only",
            DegradationLevel::Sequential => "sequential",
        }
    }
}

impl fmt::Display for DegradationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Observable resilience counters, carried per loop and merged into the run
/// report: every retry, fallback, and ladder transition is visible.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultStats {
    /// Transient-fault retries that were attempted.
    pub retries: u32,
    /// Chunks/tasks resubmitted to the other device (or sequentially).
    pub fallbacks: u32,
    /// Ladder escalations.
    pub degradations: u32,
    /// GPU-side faults observed (launch, SIMT, deadline).
    pub gpu_faults: u32,
    /// CPU-side faults observed.
    pub cpu_faults: u32,
    /// Transfer faults observed (either direction).
    pub transfer_faults: u32,
    /// Watchdog deadline overruns observed.
    pub deadline_overruns: u32,
    /// Injected-latency backoff charged to the time model, in seconds.
    pub backoff_s: f64,
    /// Worst ladder rung reached during the run.
    pub level: DegradationLevel,
}

impl FaultStats {
    /// Record a fault observation under the right counter.
    pub fn observe(&mut self, fault: &DeviceFault) {
        match fault.kind {
            FaultKind::KernelLaunch | FaultKind::Simt => self.gpu_faults += 1,
            FaultKind::DeadlineOverrun => {
                self.gpu_faults += 1;
                self.deadline_overruns += 1;
            }
            FaultKind::TransferH2D | FaultKind::TransferD2H => self.transfer_faults += 1,
            FaultKind::CpuChunk => self.cpu_faults += 1,
        }
    }

    /// Escalate the ladder to at least `level`, counting the transition.
    pub fn escalate(&mut self, level: DegradationLevel) {
        if level > self.level {
            self.level = level;
            self.degradations += 1;
        }
    }

    /// Fold another loop's stats into this run-level accumulator: counters
    /// add, the ladder keeps the worst rung.
    pub fn merge(&mut self, other: &FaultStats) {
        self.retries += other.retries;
        self.fallbacks += other.fallbacks;
        self.degradations += other.degradations;
        self.gpu_faults += other.gpu_faults;
        self.cpu_faults += other.cpu_faults;
        self.transfer_faults += other.transfer_faults;
        self.deadline_overruns += other.deadline_overruns;
        self.backoff_s += other.backoff_s;
        self.level = self.level.max(other.level);
    }

    /// Did any recovery machinery engage?
    pub fn any(&self) -> bool {
        self.retries > 0
            || self.fallbacks > 0
            || self.degradations > 0
            || self.gpu_faults > 0
            || self.cpu_faults > 0
            || self.transfer_faults > 0
    }
}

/// Retry/fallback policy knobs, carried in `SchedulerConfig`.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Bounded retries for a transient device fault before it is treated as
    /// persistent.
    pub max_retries: u32,
    /// Backoff charged to the time model per retry, in microseconds,
    /// multiplied by the attempt number (linear backoff).
    pub retry_backoff_us: f64,
    /// Persistent faults tolerated on one device before it is retired for
    /// the rest of the loop (ladder escalation).
    pub device_fault_tolerance: u32,
    /// Kernel watchdog slack: a launch whose simulated cycles exceed the
    /// cost-model estimate × this factor is killed as a deadline overrun.
    /// Values ≤ 1 disable the watchdog.
    pub watchdog_slack: f64,
    /// When set, the in-run recovery ladder is disabled past retries: the
    /// first fault that would have triggered a cross-device fallback or a
    /// degradation rung is returned as an error instead of being absorbed.
    /// A serving layer that owns its own retry/failover ladder sets this so
    /// faults escape to it with the run's accumulated `FaultStats` attached.
    pub fail_fast: bool,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            max_retries: 2,
            retry_backoff_us: 50.0,
            device_fault_tolerance: 3,
            watchdog_slack: 4.0,
            fail_fast: false,
        }
    }
}

impl ResilienceConfig {
    /// The watchdog slack as an option, `None` when disabled.
    pub fn watchdog(&self) -> Option<f64> {
        (self.watchdog_slack > 1.0).then_some(self.watchdog_slack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn origin() -> FaultOrigin {
        FaultOrigin::for_loop(LoopId(3))
            .with_subloop(128)
            .with_warp(2)
    }

    #[test]
    fn quiet_plan_never_fires() {
        let p = FaultPlan::quiet(9);
        for _ in 0..100 {
            assert!(p.on_kernel_launch(origin()).is_none());
            assert!(p.on_warp(origin()).is_none());
            assert!(p.on_transfer(true, origin()).is_none());
            assert!(p.on_cpu_chunk(origin()).is_none());
        }
        assert_eq!(p.injected(), 0);
    }

    #[test]
    fn occurrence_window_matches() {
        // Fire on the 3rd and 4th kernel launches only.
        let p = FaultPlan::new(
            1,
            vec![FaultRule::transient(FaultKind::KernelLaunch, 2).after(2)],
        );
        let fired: Vec<bool> = (0..6)
            .map(|_| p.on_kernel_launch(origin()).is_some())
            .collect();
        assert_eq!(fired, vec![false, false, true, true, false, false]);
        assert_eq!(p.injected(), 2);
    }

    #[test]
    fn persistent_rule_fires_forever() {
        let p = FaultPlan::new(1, vec![FaultRule::persistent(FaultKind::TransferH2D)]);
        for _ in 0..50 {
            let f = p.on_transfer(true, origin()).expect("must fire");
            assert!(!f.transient);
            assert_eq!(f.kind, FaultKind::TransferH2D);
        }
        // The other direction is a different kind.
        assert!(p.on_transfer(false, origin()).is_none());
    }

    #[test]
    fn warp_gate_restricts_simt_faults() {
        let p = FaultPlan::new(1, vec![FaultRule::persistent(FaultKind::Simt).on_warp(5)]);
        assert!(p.on_warp(origin().with_warp(4)).is_none());
        let f = p.on_warp(origin().with_warp(5)).expect("warp 5 faults");
        assert_eq!(f.origin.warp, Some(5));
    }

    #[test]
    fn probability_is_deterministic_by_seed() {
        let mk = |seed| {
            let p = FaultPlan::new(
                seed,
                vec![FaultRule::persistent(FaultKind::CpuChunk).with_probability(0.5)],
            );
            (0..64)
                .map(|_| p.on_cpu_chunk(origin()).is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
        let hits = mk(7).iter().filter(|b| **b).count();
        assert!(hits > 10 && hits < 54, "p=0.5 fired {hits}/64");
    }

    #[test]
    fn clone_resets_state() {
        let p = FaultPlan::new(1, vec![FaultRule::transient(FaultKind::KernelLaunch, 1)]);
        assert!(p.on_kernel_launch(origin()).is_some());
        assert!(p.on_kernel_launch(origin()).is_none());
        let q = p.clone();
        assert!(q.on_kernel_launch(origin()).is_some());
    }

    #[test]
    fn share_keeps_drawing_from_the_same_state() {
        let p = FaultPlan::new(1, vec![FaultRule::transient(FaultKind::KernelLaunch, 1)]);
        let q = p.share();
        assert!(q.on_kernel_launch(origin()).is_some());
        assert!(p.on_kernel_launch(origin()).is_none());
        assert_eq!(p.injected(), 1);
    }

    #[test]
    fn reseeded_is_deterministic_and_salt_sensitive() {
        let tmpl = FaultPlan::new(
            42,
            vec![FaultRule::persistent(FaultKind::KernelLaunch).with_probability(0.5)],
        );
        let draws = |p: &FaultPlan| {
            (0..64)
                .map(|_| p.on_kernel_launch(origin()).is_some())
                .collect::<Vec<_>>()
        };
        // Same (template, salt) → identical derived behavior.
        assert_eq!(draws(&tmpl.reseeded(3)), draws(&tmpl.reseeded(3)));
        // Different salts decorrelate; rules are preserved.
        assert_ne!(draws(&tmpl.reseeded(3)), draws(&tmpl.reseeded(4)));
        assert_eq!(tmpl.reseeded(3).rules().len(), 1);
        // Deriving never consumes template state.
        assert_eq!(tmpl.injected(), 0);
    }

    #[test]
    fn stall_reports_cycles() {
        let p = FaultPlan::new(
            1,
            vec![FaultRule::persistent(FaultKind::DeadlineOverrun).stalling(1e6)],
        );
        let (stall, f) = p.stall_cycles(origin()).expect("must fire");
        assert!((stall - 1e6).abs() < 1e-9);
        assert_eq!(f.kind, FaultKind::DeadlineOverrun);
    }

    #[test]
    fn ladder_orders_and_escalates() {
        use DegradationLevel::*;
        assert!(Full < GpuDegraded && GpuDegraded < CpuOnly && CpuOnly < Sequential);
        let mut s = FaultStats::default();
        s.escalate(GpuDegraded);
        assert_eq!(s.level, GpuDegraded);
        assert_eq!(s.degradations, 1);
        // De-escalation never happens.
        s.escalate(Full);
        assert_eq!(s.level, GpuDegraded);
        assert_eq!(s.degradations, 1);
        s.escalate(Sequential);
        assert_eq!(s.level, Sequential);
        assert_eq!(s.degradations, 2);
    }

    #[test]
    fn stats_merge_adds_counters_and_keeps_worst_level() {
        let a = FaultStats {
            retries: 2,
            fallbacks: 1,
            gpu_faults: 3,
            backoff_s: 0.5,
            level: DegradationLevel::GpuDegraded,
            ..FaultStats::default()
        };
        let b = FaultStats {
            retries: 1,
            cpu_faults: 4,
            backoff_s: 0.25,
            level: DegradationLevel::Full,
            ..FaultStats::default()
        };
        let mut m = FaultStats::default();
        m.merge(&a);
        m.merge(&b);
        assert_eq!(m.retries, 3);
        assert_eq!(m.fallbacks, 1);
        assert_eq!(m.gpu_faults, 3);
        assert_eq!(m.cpu_faults, 4);
        assert!((m.backoff_s - 0.75).abs() < 1e-12);
        assert_eq!(m.level, DegradationLevel::GpuDegraded);
        assert!(m.any());
        assert!(!FaultStats::default().any());
    }

    #[test]
    fn origin_display_is_informative() {
        let s = format!(
            "{}",
            DeviceFault {
                kind: FaultKind::Simt,
                origin: origin().with_chunk(7),
                transient: true,
            }
        );
        assert!(s.contains("SIMT"));
        assert!(s.contains("loop 3"));
        assert!(s.contains("warp 2"));
        assert!(s.contains("chunk 7"));
    }

    #[test]
    fn watchdog_config_gates() {
        let mut r = ResilienceConfig::default();
        assert!(r.watchdog().is_some());
        r.watchdog_slack = 0.0;
        assert!(r.watchdog().is_none());
    }
}
