//! Integration tests of the multi-tenant service: tenant isolation
//! (bit-identity with solo runs), admission control (queue-full is a
//! rejection, never a drop), deadline cancellation, and exact virtual-clock
//! schedules.

use japonica_serve::{
    simulate_batch, JobRequest, Rejected, ResourceRequest, Serve, ServeConfig, ServeError,
    SimJobOutcome, SimServeConfig,
};
use japonica_workloads::{outputs_match, Workload};
use proptest::prelude::*;

/// Build a service request for Table II workload `widx` at scale 1 on an
/// `sms`-wide slice with `cpus` CPU slots.
fn workload_request(widx: usize, sms: u32, cpus: u32) -> JobRequest {
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
}

/// The solo reference: the same request run alone on an equal-sized
/// partition, through the deterministic simulator.
fn solo_reference(widx: usize, sms: u32, cpus: u32) -> (u64, String) {
    let solo = simulate_batch(
        &SimServeConfig::default(),
        vec![(0.0, workload_request(widx, sms, cpus))],
    );
    match solo.outcomes.into_iter().next() {
        Some(SimJobOutcome::Completed { report, .. }) => {
            (report.total_s.to_bits(), report.summary())
        }
        other => panic!("solo run of workload {widx} did not complete: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// K jobs run concurrently on leased slices of one shared device must
    /// each produce (a) the bit-identical simulated report of a solo run
    /// on an equal partition and (b) outputs matching the sequential Rust
    /// reference — tenant isolation by construction.
    #[test]
    fn concurrent_jobs_are_bit_identical_to_solo_runs(
        k in 2usize..5,
        picks in proptest::collection::vec(
            (0usize..11, 0usize..3, 0usize..3), 4),
    ) {
        let serve = Serve::start(ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        });
        let jobs: Vec<(usize, u32, u32)> = (0..k)
            .map(|i| {
                let (widx, si, ci) = picks[i % picks.len()];
                (widx, [2u32, 4, 7][si], [2u32, 4, 8][ci])
            })
            .collect();
        let handles: Vec<_> = jobs
            .iter()
            .map(|&(widx, sms, cpus)| {
                serve
                    .submit(workload_request(widx, sms, cpus))
                    .expect("mix fits the pool")
            })
            .collect();
        let solos: Vec<(u64, String)> =
            jobs.iter().map(|&(w, s, c)| solo_reference(w, s, c)).collect();
        for ((h, &(widx, sms, _)), (solo_bits, solo_summary)) in
            handles.into_iter().zip(&jobs).zip(&solos)
        {
            let result = h.wait().expect("job completes");
            prop_assert_eq!(
                result.report.total_s.to_bits(),
                *solo_bits,
                "workload {} on {} SMs: shared-tenancy clock diverged from solo",
                Workload::all()[widx].name,
                sms
            );
            prop_assert_eq!(&result.report.summary(), solo_summary);
            // Outputs match the sequential reference: neighbors never
            // corrupted this tenant's heap.
            let w = &Workload::all()[widx];
            let inst = w.instantiate(1);
            let mut expected = inst.heap.clone();
            w.run_reference(&mut expected, &inst.args);
            if let Err(e) = outputs_match(&result.heap, &expected, &inst) {
                return Err(TestCaseError::fail(format!("{} outputs: {e}", w.name)));
            }
        }
        let stats = serve.shutdown();
        prop_assert_eq!(stats.completed, k as u64);
        prop_assert!(stats.accounts_for_every_job(), "{}", stats.summary());
        // The same batch on the virtual clock, where overlap is exact: at
        // least two jobs share the device (else the oracle is vacuous), and
        // each one still matches its solo run.
        let sim = simulate_batch(
            &SimServeConfig::default(),
            jobs.iter().map(|&(w, s, c)| (0.0, workload_request(w, s, c))).collect(),
        );
        let mut spans = Vec::new();
        for (o, (solo_bits, solo_summary)) in sim.outcomes.iter().zip(&solos) {
            let SimJobOutcome::Completed { report, started_s, finished_s, .. } = o else {
                return Err(TestCaseError::fail(format!("job did not complete: {o:?}")));
            };
            prop_assert_eq!(report.total_s.to_bits(), *solo_bits);
            prop_assert_eq!(&report.summary(), solo_summary);
            spans.push((*started_s, *finished_s));
        }
        let overlap = spans.iter().enumerate().any(|(i, a)| {
            spans[i + 1..].iter().any(|b| a.0 < b.1 && b.0 < a.1)
        });
        prop_assert!(overlap, "the batch never ran two jobs at once: {:?}", spans);
    }
}

#[test]
fn queue_full_submissions_are_rejected_not_dropped() {
    // Virtual-clock version: 1 queue slot, three simultaneous arrivals —
    // the third is rejected with a verdict and counted, never lost.
    let cfg = SimServeConfig {
        queue_capacity: 2,
        ..SimServeConfig::default()
    };
    let rep = simulate_batch(
        &cfg,
        vec![
            (0.0, workload_request(1, 14, 8)), // VectorAdd, whole device
            (0.0, workload_request(1, 14, 8)),
            (0.0, workload_request(1, 14, 8)),
        ],
    );
    assert!(matches!(rep.outcomes[2], SimJobOutcome::RejectedFull));
    assert_eq!(rep.stats.rejected_full, 1);
    assert_eq!(rep.stats.completed, 2);
    assert!(
        rep.stats.accounts_for_every_job(),
        "{}",
        rep.stats.summary()
    );

    // Threaded version: a single worker pinned by a full-device job, then
    // more submissions than the queue holds.
    let serve = Serve::start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let blocker = serve
        .submit(workload_request(0, 14, 16).with_priority(200))
        .expect("blocker admitted");
    let mut verdicts = (0, 0); // (admitted, rejected-full)
    let mut admitted = Vec::new();
    for _ in 0..4 {
        match serve.submit(workload_request(1, 2, 2)) {
            Ok(h) => {
                verdicts.0 += 1;
                admitted.push(h);
            }
            Err(Rejected::QueueFull { capacity }) => {
                assert_eq!(capacity, 1);
                verdicts.1 += 1;
            }
            Err(other) => panic!("unexpected verdict: {other}"),
        }
    }
    assert!(verdicts.1 >= 1, "backpressure never engaged: {verdicts:?}");
    blocker.wait().expect("blocker completes");
    for h in admitted {
        h.wait().expect("admitted jobs complete");
    }
    let stats = serve.shutdown();
    assert_eq!(stats.rejected_full, verdicts.1);
    assert_eq!(stats.submitted, 5);
    assert!(stats.accounts_for_every_job(), "{}", stats.summary());
}

#[test]
fn deadlines_cancel_queued_jobs_with_a_verdict() {
    // Virtual clock: a zero-deadline job queued behind a full-device job
    // is cancelled at dispatch time, never run.
    let rep = simulate_batch(
        &SimServeConfig::default(),
        vec![
            (0.0, workload_request(0, 14, 16)),
            (
                0.0,
                workload_request(1, 2, 2).with_deadline(std::time::Duration::from_nanos(1)),
            ),
        ],
    );
    let SimJobOutcome::DeadlineMissed {
        queued_s,
        deadline_s,
    } = rep.outcomes[1]
    else {
        panic!("expected a deadline miss, got {:?}", rep.outcomes[1]);
    };
    assert!(queued_s > deadline_s);
    assert_eq!(rep.schedule.len(), 1, "the missed job must never dispatch");
    assert_eq!(rep.stats.deadline_missed, 1);
    assert!(rep.stats.accounts_for_every_job());

    // Threaded: same shape with a wall-clock zero deadline.
    let serve = Serve::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let blocker = serve
        .submit(workload_request(0, 14, 16).with_priority(200))
        .expect("blocker admitted");
    let doomed = serve
        .submit(workload_request(1, 2, 2).with_deadline(std::time::Duration::ZERO))
        .expect("admitted");
    blocker.wait().expect("blocker completes");
    assert!(matches!(
        doomed.wait(),
        Err(ServeError::DeadlineMissed { .. })
    ));
    let stats = serve.shutdown();
    assert_eq!(stats.deadline_missed, 1);
    assert!(stats.accounts_for_every_job(), "{}", stats.summary());
}

#[test]
fn cancellation_delivers_a_verdict_and_is_counted() {
    let serve = Serve::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let blocker = serve
        .submit(workload_request(0, 14, 16).with_priority(200))
        .expect("blocker admitted");
    let victim = serve
        .submit(workload_request(1, 2, 2).with_priority(1))
        .expect("admitted");
    victim.cancel();
    blocker.wait().expect("blocker completes");
    assert!(matches!(victim.wait(), Err(ServeError::Cancelled)));
    let stats = serve.shutdown();
    assert_eq!(stats.cancelled, 1);
    assert!(stats.accounts_for_every_job(), "{}", stats.summary());
}

#[test]
fn virtual_clock_schedule_is_exact() {
    // Two half-device tenants at t=0 and a full-device job behind them:
    // the halves co-run on [0,7) and [7,14); the full job starts exactly
    // when the slower half finishes.
    let trace = vec![
        (0.0, workload_request(1, 7, 8)),                    // VectorAdd
        (0.0, workload_request(3, 7, 8)),                    // MVT
        (0.0, workload_request(6, 14, 16).with_priority(1)), // Sepia, whole device
    ];
    let rep = simulate_batch(&SimServeConfig::default(), trace);
    assert_eq!(rep.schedule.len(), 3);
    assert_eq!(
        (
            rep.schedule[0].job,
            rep.schedule[0].sm_base,
            rep.schedule[0].started_s
        ),
        (0, 0, 0.0)
    );
    assert_eq!(
        (
            rep.schedule[1].job,
            rep.schedule[1].sm_base,
            rep.schedule[1].started_s
        ),
        (1, 7, 0.0)
    );
    let finishes: Vec<f64> = rep.outcomes[..2]
        .iter()
        .map(|o| match o {
            SimJobOutcome::Completed { finished_s, .. } => *finished_s,
            other => panic!("job did not complete: {other:?}"),
        })
        .collect();
    let slower = finishes[0].max(finishes[1]);
    assert_eq!(rep.schedule[2].job, 2);
    assert_eq!(rep.schedule[2].sm_base, 0);
    assert_eq!(rep.schedule[2].started_s.to_bits(), slower.to_bits());
    // And the whole thing replays bit-identically.
    let again = simulate_batch(
        &SimServeConfig::default(),
        vec![
            (0.0, workload_request(1, 7, 8)),
            (0.0, workload_request(3, 7, 8)),
            (0.0, workload_request(6, 14, 16).with_priority(1)),
        ],
    );
    assert_eq!(rep.fingerprint(), again.fingerprint());
}

#[test]
fn every_stats_snapshot_is_consistent_while_jobs_flow() {
    // 200 one-SM jobs through 4 workers while a reader hammers `stats()`:
    // a snapshot is one read under the core's lock, so a job admitted and
    // retired between two counter loads can no longer tear the identity
    // or underflow `in_flight`.
    const SRC: &str = "static void scale(double[] a, int n) {
        /* acc parallel */
        for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; }
    }";
    let serve = Serve::start(ServeConfig {
        workers: 4,
        queue_capacity: 256,
        ..ServeConfig::default()
    });
    let done = std::sync::atomic::AtomicBool::new(false);
    let snapshots = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut snapshots = 0u64;
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                let stats = serve.stats();
                assert!(stats.accounts_for_every_job(), "{}", stats.summary());
                snapshots += 1;
            }
            snapshots
        });
        let handles: Vec<_> = (0..200)
            .map(|_| {
                let mut heap = japonica_ir::Heap::new();
                let a = heap.alloc_doubles(&[1.0; 64]);
                let args = vec![japonica_ir::Value::Array(a), japonica_ir::Value::Int(64)];
                serve
                    .submit(JobRequest::new(
                        SRC,
                        "scale",
                        args,
                        heap,
                        ResourceRequest::new(1, 1),
                    ))
                    .expect("queue sized for the whole burst")
            })
            .collect();
        for h in handles {
            h.wait().expect("job completes");
        }
        done.store(true, std::sync::atomic::Ordering::Release);
        reader
            .join()
            .expect("a snapshot broke the accounting identity")
    });
    assert!(snapshots > 0);
    let stats = serve.shutdown();
    assert_eq!((stats.completed, stats.in_flight), (200, 0));
    assert!(stats.accounts_for_every_job(), "{}", stats.summary());
}
