//! Integration tests of the fault-tolerant fleet: chaos replay
//! determinism, bit-identity of migrated jobs, quarantine embargo,
//! typed exhaustion verdicts, worker-panic containment, and
//! threaded-vs-virtual-clock agreement under identical fault schedules.

use japonica_faults::{FaultKind, FaultPlan, FaultRule};
use japonica_scheduler::SchedulerConfig;
use japonica_serve::{
    simulate_batch, FleetConfig, HealthState, JobRequest, ResourceRequest, RetryPolicy, Serve,
    ServeConfig, ServeError, SimJobOutcome, SimServeConfig,
};
use japonica_workloads::Workload;
use proptest::prelude::*;

/// Build a service request for Table II workload `widx` at scale 1 on an
/// `sms`-wide slice with `cpus` CPU slots, salted for chaos draws.
fn workload_request(widx: usize, sms: u32, cpus: u32, salt: u64) -> JobRequest {
    let w = &Workload::all()[widx];
    let inst = w.instantiate(1);
    JobRequest::new(
        w.source,
        w.entry,
        inst.args,
        inst.heap,
        ResourceRequest::new(sms, cpus),
    )
    .with_subloops(w.subloops)
    .with_salt(salt)
}

/// A chaos fault template: every GPU kernel launch faults with
/// probability `p`, every H2D transfer with `p/2`.
fn chaos_template(seed: u64, p: f64) -> FaultPlan {
    FaultPlan::new(
        seed,
        vec![
            FaultRule::persistent(FaultKind::KernelLaunch).with_probability(p),
            FaultRule::persistent(FaultKind::TransferH2D).with_probability(p / 2.0),
        ],
    )
}

fn chaos_sim_config(devices: usize, p: f64) -> SimServeConfig {
    SimServeConfig {
        fleet: Some(FleetConfig::uniform(
            devices,
            SchedulerConfig::default(),
            16,
            Some(chaos_template(0xC4A05, p)),
        )),
        ..SimServeConfig::default()
    }
}

/// A seeded chaos trace over the Table II corpus.
fn chaos_trace(seed: u64, jobs: usize) -> Vec<(f64, JobRequest)> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        // xorshift64*: cheap, deterministic, no external RNG.
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    (0..jobs)
        .map(|i| {
            let widx = (next() % 11) as usize;
            let sms = [2u32, 3, 4, 7][(next() % 4) as usize];
            let cpus = [2u32, 4, 8][(next() % 3) as usize];
            let t = (next() % 1000) as f64 * 1e-5;
            (t, workload_request(widx, sms, cpus, next() ^ i as u64))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Replaying the same seeded chaos trace through the virtual-clock
    /// fleet gives a byte-identical fingerprint — every fault draw, rung,
    /// placement, probe, and timestamp is a pure function of the seed.
    #[test]
    fn chaos_replay_is_bit_identical(seed in 0u64..1_000, devices in 1usize..4) {
        let cfg = chaos_sim_config(devices, 0.2);
        let a = simulate_batch(&cfg, chaos_trace(seed, 8));
        let b = simulate_batch(&cfg, chaos_trace(seed, 8));
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        prop_assert!(a.stats.accounts_for_every_job(), "{}", a.stats.summary());
        // Chaos loses no admitted job, on this fleet or on the 3-device
        // one: the default budget reaches the CPU-only rung, which carries
        // no fault plan.
        let three = simulate_batch(&chaos_sim_config(3, 0.2), chaos_trace(seed, 8));
        for (i, o) in a.outcomes.iter().chain(&three.outcomes).enumerate() {
            prop_assert!(
                matches!(o, SimJobOutcome::Completed { .. }),
                "job {} lost to chaos: {:?}", i % 8, o
            );
        }
    }

    /// A job that faults and migrates across the fleet produces the
    /// bit-identical report of the same salted job run through a
    /// single-device fleet: per-attempt fault plans derive from
    /// `(salt, rung)` alone, never from placement.
    #[test]
    fn migrated_job_is_bit_identical_to_solo(salt in 0u64..10_000, widx in 0usize..11) {
        let fleet3 = chaos_sim_config(3, 0.5);
        let solo1 = chaos_sim_config(1, 0.5);
        let run = |cfg: &SimServeConfig| {
            simulate_batch(cfg, vec![(0.0, workload_request(widx, 4, 4, salt))])
        };
        let (a, b) = (run(&fleet3), run(&solo1));
        match (&a.outcomes[0], &b.outcomes[0]) {
            (
                SimJobOutcome::Completed { report: ra, heap: ha, .. },
                SimJobOutcome::Completed { report: rb, heap: hb, .. },
            ) => {
                prop_assert_eq!(ra.total_s.to_bits(), rb.total_s.to_bits());
                prop_assert_eq!(&ra.summary(), &rb.summary());
                prop_assert_eq!(format!("{ha:?}"), format!("{hb:?}"));
                // Same rung sequence on both fleets.
                let rungs = |r: &japonica_serve::SimBatchReport| {
                    r.schedule.iter().map(|e| e.attempt).collect::<Vec<_>>()
                };
                prop_assert_eq!(rungs(&a), rungs(&b));
            }
            (
                SimJobOutcome::Failed(ServeError::Exhausted(va)),
                SimJobOutcome::Failed(ServeError::Exhausted(vb)),
            ) => {
                prop_assert_eq!(va.attempts, vb.attempts);
                prop_assert_eq!(va.stats, vb.stats);
            }
            (oa, ob) => return Err(TestCaseError::fail(
                format!("fleet/solo outcomes diverged: {oa:?} vs {ob:?}"))),
        }
    }
}

#[test]
fn quarantined_device_gets_no_leases_until_probe_succeeds() {
    // Device 0 faults every kernel launch; device 1 is clean. Jobs homed
    // on device 0 fault, the health window quarantines it, and every
    // later dispatch lands on device 1 — with zero embargo violations.
    let mut fleet = FleetConfig::uniform(2, SchedulerConfig::default(), 16, None);
    fleet.devices[0].fault_template = Some(chaos_template(7, 1.0));
    let cfg = SimServeConfig {
        fleet: Some(fleet),
        ..SimServeConfig::default()
    };
    let trace: Vec<(f64, JobRequest)> = (0..12)
        .map(|i| {
            // Even salts home on device 0 (salt % 2).
            (i as f64 * 1e-4, workload_request(1, 2, 2, i * 2))
        })
        .collect();
    let rep = simulate_batch(&cfg, trace);
    for (i, o) in rep.outcomes.iter().enumerate() {
        assert!(
            matches!(o, SimJobOutcome::Completed { .. }),
            "job {i} did not complete: {o:?}"
        );
    }
    let d0 = &rep.stats.devices[0];
    let d1 = &rep.stats.devices[1];
    assert_eq!(d0.state, HealthState::Quarantined, "{d0:?}");
    assert!(d0.quarantines >= 1);
    assert_eq!(
        (d0.embargo_violations, d1.embargo_violations),
        (0, 0),
        "quarantine embargo was violated: {d0:?} {d1:?}"
    );
    // With a healthy sibling available, the sick device is skipped — not
    // probed (probing is the all-quarantined escape hatch, unit-tested in
    // the fleet module) — and the clean device absorbs the fleet.
    assert_eq!(d0.forced_dispatches, 0, "{d0:?}");
    assert!(d1.faults == 0 && d1.attempts > 0, "{d1:?}");
    // Once quarantined, the sick device stops receiving dispatches: its
    // schedule entries all precede the quarantine point.
    let last_d0 = rep
        .schedule
        .iter()
        .filter(|e| e.device == 0 && !e.forced)
        .count() as u64;
    assert_eq!(last_d0, d0.attempts, "unforced dispatches must match");
    assert!(
        rep.stats.accounts_for_every_job(),
        "{}",
        rep.stats.summary()
    );
}

#[test]
fn exhausted_budget_is_a_typed_verdict_with_fault_stats() {
    // Certain faults + a 2-attempt budget: the threaded service returns
    // ServeError::Exhausted carrying the accumulated FaultStats and the
    // attempt count — not a stringly-typed error.
    let mut fleet = FleetConfig::uniform(
        1,
        SchedulerConfig::default(),
        16,
        Some(chaos_template(3, 1.0)),
    );
    fleet.retry = RetryPolicy {
        max_attempts: 2,
        ..RetryPolicy::default()
    };
    let serve = Serve::start(ServeConfig {
        workers: 1,
        fleet: Some(fleet),
        ..ServeConfig::default()
    });
    let h = serve
        .submit(workload_request(1, 4, 4, 11))
        .expect("admitted");
    let err = h.wait().expect_err("all attempts fault");
    let ServeError::Exhausted(v) = err else {
        panic!("expected Exhausted, got {err}");
    };
    assert_eq!(v.attempts, 2);
    assert!(
        v.stats.gpu_faults + v.stats.transfer_faults >= 2,
        "verdict lost its fault stats: {:?}",
        v.stats
    );
    let stats = serve.shutdown();
    assert_eq!((stats.failed, stats.retried), (1, 1));
    assert_eq!(stats.attempts, 2);
    assert!(stats.accounts_for_every_job(), "{}", stats.summary());
    assert!(stats.faults.gpu_faults + stats.faults.transfer_faults >= 2);
}

#[test]
fn worker_panic_is_contained_and_counted() {
    let serve = Serve::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let mut bomb = workload_request(1, 2, 2, 5);
    bomb.chaos_panic = true;
    let hb = serve.submit(bomb).expect("admitted");
    let good: Vec<_> = (0..3)
        .map(|i| {
            serve
                .submit(workload_request(2, 2, 2, i))
                .expect("admitted")
        })
        .collect();
    assert!(
        matches!(hb.wait(), Err(ServeError::Panicked(_))),
        "panic must surface as a typed verdict"
    );
    for h in good {
        h.wait().expect("jobs after the panic still complete");
    }
    let stats = serve.shutdown();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!((stats.completed, stats.failed), (3, 1));
    assert!(stats.accounts_for_every_job(), "{}", stats.summary());
    // The panicking job is not held against any device's health.
    assert!(
        stats.devices.iter().all(|d| d.faults == 0),
        "{:?}",
        stats.devices
    );
}

#[test]
fn threaded_fleet_agrees_with_virtual_clock_under_chaos() {
    // The lockstep oracle: the same salted jobs through the same chaotic
    // fleet — threaded workers vs virtual clock — end with bit-identical
    // per-job reports and identical rung-counter totals. Placement-
    // independent fault draws make this hold despite the threaded run's
    // nondeterministic timing.
    let p = 0.35;
    let jobs: Vec<(usize, u64)> = (0..8).map(|i| ((i % 11) as usize, 1000 + 17 * i)).collect();

    let sim_cfg = chaos_sim_config(2, p);
    let sim = simulate_batch(
        &sim_cfg,
        jobs.iter()
            .map(|&(widx, salt)| (0.0, workload_request(widx, 4, 4, salt)))
            .collect(),
    );

    let serve = Serve::start(ServeConfig {
        workers: 4,
        fleet: Some(FleetConfig::uniform(
            2,
            SchedulerConfig::default(),
            16,
            Some(chaos_template(0xC4A05, p)),
        )),
        ..ServeConfig::default()
    });
    let handles: Vec<_> = jobs
        .iter()
        .map(|&(widx, salt)| {
            serve
                .submit(workload_request(widx, 4, 4, salt))
                .expect("admitted")
        })
        .collect();
    let threaded: Vec<Result<(u64, String), ServeError>> = handles
        .into_iter()
        .map(|h| {
            h.wait()
                .map(|r| (r.report.total_s.to_bits(), r.report.summary()))
        })
        .collect();
    let stats = serve.shutdown();

    for (i, (t, s)) in threaded.iter().zip(&sim.outcomes).enumerate() {
        match (t, s) {
            (Ok((bits, summary)), SimJobOutcome::Completed { report, .. }) => {
                assert_eq!(
                    *bits,
                    report.total_s.to_bits(),
                    "job {i}: threaded/sim clock bits diverged"
                );
                assert_eq!(summary, &report.summary(), "job {i}");
            }
            (Err(ServeError::Exhausted(v)), SimJobOutcome::Failed(ServeError::Exhausted(w))) => {
                assert_eq!(v.attempts, w.attempts, "job {i}");
                assert_eq!(v.stats, w.stats, "job {i}");
            }
            (t, s) => panic!("job {i}: threaded {t:?} vs sim {s:?}"),
        }
    }
    // Identical rung walks in aggregate.
    assert_eq!(
        (
            stats.attempts,
            stats.retried,
            stats.migrated,
            stats.cpu_degraded
        ),
        (
            sim.stats.attempts,
            sim.stats.retried,
            sim.stats.migrated,
            sim.stats.cpu_degraded
        ),
        "threaded: {}\nsim: {}",
        stats.fleet_summary(),
        sim.stats.fleet_summary()
    );
    assert_eq!(
        stats.faults, sim.stats.faults,
        "merged fault accounting diverged"
    );
    assert!(stats.accounts_for_every_job(), "{}", stats.summary());
    assert!(
        sim.stats.accounts_for_every_job(),
        "{}",
        sim.stats.summary()
    );
}
