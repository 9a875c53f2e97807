//! What every workload shares: the time budget, repeated set-up, the
//! failure ledger, and the measured quantities a workload hands back.

use crate::stats::Summary;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::time::Instant;

/// How long a workload measures: `--seconds S` time-boxes the pass loop.
/// `--quick` is the smoke run: one pass, no warm-up pass, one set-up.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub quick: bool,
    /// Whole passes a time-boxed loop runs even when one pass overruns the
    /// box. Untraced runs use [`MIN_PASSES`]; a traced run, whose numbers
    /// are not gated, splits its time three ways and settles for one.
    pub min_passes: usize,
}

/// A median of fewer than three passes is one noisy pass.
pub const MIN_PASSES: usize = 3;

impl Budget {
    /// Another pass? `done` passes have run since `started`.
    pub fn another_pass(&self, started: Instant, done: usize) -> bool {
        if self.quick {
            done == 0
        } else {
            done < self.min_passes || started.elapsed().as_secs_f64() < self.seconds
        }
    }

    /// One untimed pass before the timed ones, except in the smoke run.
    pub fn warmup(&self) -> bool {
        !self.quick
    }

    /// The same policy over a share of the time (traced runs split their
    /// budget between the untraced passes, the traced passes and the
    /// per-layer extras).
    pub fn share(&self, share: f64) -> Budget {
        Budget {
            seconds: self.seconds * share,
            ..*self
        }
    }
}

/// Run `setup` once untimed (page faults, lazy initialisation), then at
/// least three times — and, when it is cheap, until it has run for 0.3 s or
/// 256 times — keep the last state, and summarise the times. `setup_s` is
/// a median over warm set-ups: a process's first tenth of a second runs on
/// cold caches and often a sleeping CPU, and a millisecond set-up timed
/// only there reads up to half again as slow in some processes. The smoke
/// run sets up once and reports that one time.
pub fn timed_setup<T>(budget: Budget, mut setup: impl FnMut() -> T) -> (T, Summary) {
    if !budget.quick {
        drop(setup());
    }
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let state = setup();
        times.push(t0.elapsed().as_secs_f64());
        let enough = times.len() >= 256 || started.elapsed().as_secs_f64() >= 0.3;
        if budget.quick || (times.len() >= 3 && enough) {
            return (state, Summary::of(&times));
        }
    }
}

/// Attempted / failed ops with the first few reasons.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Ledger {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(why.into());
        }
    }

    pub fn check(&mut self, r: Result<(), String>) {
        match r {
            Ok(()) => self.ok(),
            Err(e) => self.fail(e),
        }
    }

    pub fn absorb(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }
}

/// What one workload measured in its untraced passes (plus, in a traced
/// run, its per-layer numbers).
#[derive(Debug, Default)]
pub struct Measured {
    pub ledger: Ledger,
    /// Host seconds of each timed pass.
    pub pass_walls: Vec<f64>,
    /// Host seconds of each timed op.
    pub latencies: Vec<f64>,
    /// Workload-specific end-to-end metrics.
    pub extra: BTreeMap<&'static str, Summary>,
    pub sim_fingerprint: Option<String>,
    /// Per-layer metrics by name (traced runs only).
    pub layer: BTreeMap<String, f64>,
    /// Host seconds the set-up spent generating inputs and running the
    /// Rust references (`workloads.*`).
    pub instantiate_s: f64,
    pub reference_s: f64,
}

/// Fisher-Yates with the seeded generator: the order every pass visits its
/// cells or jobs in.
pub fn shuffle<T>(rng: &mut StdRng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_range(0..i + 1));
    }
}

/// 64-bit FNV-1a, the fingerprint hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bs: &[u8]) {
        for b in bs {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// Fingerprint of one simulated outcome: the simulated clock's bit pattern
/// and the report summary (modes, splits, bytes, steals).
pub fn report_fingerprint(report: &japonica::RunReport) -> u64 {
    let mut h = Fnv::default();
    h.u64(report.total_s.to_bits());
    h.bytes(report.summary().as_bytes());
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    const TIMED: Budget = Budget {
        seconds: 0.0,
        quick: false,
        min_passes: MIN_PASSES,
    };
    const QUICK: Budget = Budget {
        quick: true,
        ..TIMED
    };

    #[test]
    fn a_timed_budget_runs_at_least_three_passes_and_a_quick_one_runs_one() {
        let t0 = Instant::now();
        assert!(TIMED.another_pass(t0, 2) && TIMED.warmup());
        assert!(!TIMED.another_pass(t0, 3));
        assert!(QUICK.another_pass(t0, 0) && !QUICK.warmup());
        assert!(!QUICK.another_pass(t0, 1));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..22).collect();
        let mut b = a.clone();
        shuffle(&mut StdRng::seed_from_u64(9), &mut a);
        shuffle(&mut StdRng::seed_from_u64(9), &mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..22).collect::<Vec<_>>());
        a.sort_unstable();
        assert_eq!(a, (0..22).collect::<Vec<_>>());
    }

    #[test]
    fn setup_is_repeated_and_its_median_reported() {
        let mut calls = 0;
        let (state, s) = timed_setup(TIMED, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(110));
            calls
        });
        assert_eq!((state, s.n), (4, 3));
        let (_, cheap) = timed_setup(TIMED, || ());
        assert_eq!(cheap.n, 256);
        let (_, once) = timed_setup(QUICK, || ());
        assert_eq!(once.n, 1);
    }

    #[test]
    fn ledger_counts_failures_against_attempts() {
        let mut l = Ledger::default();
        l.ok();
        l.check(Err("mismatch".into()));
        let mut m = Ledger::default();
        m.fail("shed");
        l.absorb(m);
        assert_eq!((l.attempted, l.failed, l.reasons.len()), (3, 2, 2));
    }
}
