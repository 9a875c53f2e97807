//! Integration tests of the saturation-serving mechanisms: execution
//! dedup (coalescing + fan-out bit-identity + exact accounting),
//! program-hash batch dispatch (a pure reordering — no result bit may
//! move), weighted-fair DWRR admission (10:1 convergence, no admitted
//! job lost), and threaded-vs-virtual-clock lockstep with all three
//! mechanisms on under chaos.

use japonica::RunReport;
use japonica_faults::{FaultKind, FaultPlan, FaultRule};
use japonica_scheduler::SchedulerConfig;
use japonica_serve::{
    simulate_batch, BatchConfig, DedupConfig, DispatchCore, FleetConfig, JobRequest, Next,
    ProgramCache, QosConfig, ResourceRequest, Serve, ServeConfig, ServeError, SimJobOutcome,
    SimServeConfig,
};
use japonica_workloads::Workload;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A salted Table II request on an `sms`-wide slice (scale 1).
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

fn chaos_template(seed: u64, p: f64) -> FaultPlan {
    FaultPlan::new(
        seed,
        vec![
            FaultRule::persistent(FaultKind::KernelLaunch).with_probability(p),
            FaultRule::persistent(FaultKind::TransferH2D).with_probability(p / 2.0),
        ],
    )
}

/// Duplicate-heavy job list: `distinct` shapes, each repeated `copies`
/// times — the dedup substrate. Same `(widx, salt, slice)` means same
/// dedup key (the salt only enters the key under chaos).
fn duplicate_mix(distinct: usize, copies: usize) -> Vec<(usize, u64)> {
    let mut jobs = Vec::new();
    for d in 0..distinct {
        for _ in 0..copies {
            jobs.push(((d % 11), 2000 + 31 * d as u64));
        }
    }
    jobs
}

#[test]
fn dedup_coalesces_duplicates_onto_one_execution() {
    let distinct = 4;
    let copies = 5;
    let serve = Serve::start(ServeConfig {
        workers: 4,
        dedup: DedupConfig::enabled(),
        ..ServeConfig::default()
    });
    let handles: Vec<_> = duplicate_mix(distinct, copies)
        .into_iter()
        .map(|(widx, salt)| serve.submit(workload_request(widx, 4, 4, salt)).unwrap())
        .collect();
    // Fan-out: every copy of a shape yields bit-identical results.
    let mut bits: BTreeMap<usize, (u64, String)> = BTreeMap::new();
    for (i, h) in handles.into_iter().enumerate() {
        let r = h.wait().expect("all jobs complete");
        let key = i / copies;
        let entry = bits
            .entry(key)
            .or_insert_with(|| (r.report.total_s.to_bits(), r.report.summary()));
        assert_eq!(
            (r.report.total_s.to_bits(), r.report.summary()),
            entry.clone(),
            "copy {i} of shape {key} diverged from its siblings"
        );
        // A joiner's queue time is its whole latency — it never dispatched.
        assert!(r.latency_s >= r.queued_s);
    }
    let stats = serve.shutdown();
    // Exactly one execution per distinct key — however the threads raced,
    // a duplicate either joined the in-flight leader or the memo table.
    assert_eq!(stats.executions, distinct as u64, "{}", stats.summary());
    assert_eq!(
        stats.dedup_joins,
        (distinct * (copies - 1)) as u64,
        "{}",
        stats.fleet_summary()
    );
    assert_eq!(stats.dedup_hits, stats.dedup_joins);
    assert_eq!(stats.completed, (distinct * copies) as u64);
    // Each join suppressed the leader's full attempt count (1, no chaos).
    assert_eq!(stats.dedup_suppressed_attempts, stats.dedup_joins);
    assert!(stats.accounts_for_every_job(), "{}", stats.summary());
}

#[test]
fn dedup_results_match_the_dedup_free_run_bit_for_bit() {
    let jobs = duplicate_mix(3, 3);
    let run = |dedup: DedupConfig| {
        let serve = Serve::start(ServeConfig {
            workers: 3,
            dedup,
            ..ServeConfig::default()
        });
        let handles: Vec<_> = jobs
            .iter()
            .map(|&(widx, salt)| serve.submit(workload_request(widx, 4, 4, salt)).unwrap())
            .collect();
        let out: Vec<(u64, String)> = handles
            .into_iter()
            .map(|h| {
                let r = h.wait().expect("completes");
                (r.report.total_s.to_bits(), r.report.summary())
            })
            .collect();
        let stats = serve.shutdown();
        assert!(stats.accounts_for_every_job(), "{}", stats.summary());
        (out, stats)
    };
    let (with, s_with) = run(DedupConfig::enabled());
    let (without, s_without) = run(DedupConfig::default());
    assert_eq!(with, without, "dedup changed a result bit");
    assert_eq!(s_without.executions, jobs.len() as u64);
    assert_eq!(s_without.dedup_joins, 0);
    assert!(s_with.executions < s_without.executions);
}

#[test]
fn batching_reorders_dispatch_but_never_a_result_bit() {
    // Distinct salts (no dedup anywhere): batching alone must be a pure
    // dispatch reordering — per-job report bits identical with it on/off.
    let trace = || {
        (0..10u64)
            .map(|i| {
                (
                    i as f64 * 1e-4,
                    workload_request((i % 5) as usize, 2, 2, 900 + i),
                )
            })
            .collect::<Vec<_>>()
    };
    let run = |batch: BatchConfig| {
        simulate_batch(
            &SimServeConfig {
                queue_capacity: 16,
                batch,
                ..SimServeConfig::default()
            },
            trace(),
        )
    };
    let on = run(BatchConfig::enabled());
    let off = run(BatchConfig::default());
    for (i, (a, b)) in on.outcomes.iter().zip(&off.outcomes).enumerate() {
        match (a, b) {
            (
                SimJobOutcome::Completed { report: ra, .. },
                SimJobOutcome::Completed { report: rb, .. },
            ) => {
                assert_eq!(ra.total_s.to_bits(), rb.total_s.to_bits(), "job {i}");
                assert_eq!(ra.summary(), rb.summary(), "job {i}");
            }
            (a, b) => panic!("job {i}: batching changed the outcome: {a:?} vs {b:?}"),
        }
    }
    assert!(on.stats.accounts_for_every_job(), "{}", on.stats.summary());
}

#[test]
fn threaded_and_sim_agree_with_all_three_mechanisms_on_under_chaos() {
    // The full-stack lockstep oracle: dedup + batching + DWRR tenants +
    // chaos faults, threaded workers vs virtual clock. Per-job bits,
    // rung-counter walks, dedup accounting, and merged fault stats must
    // all agree exactly.
    let p = 0.3;
    let qos = QosConfig {
        weights: vec![3, 1],
    };
    // Duplicate-heavy, spread over two tenants (tenant is NOT in the
    // dedup key — identical programs coalesce across tenants).
    let jobs: Vec<(usize, u64, u32)> = duplicate_mix(4, 3)
        .into_iter()
        .enumerate()
        .map(|(i, (widx, salt))| (widx, salt, (i % 2) as u32))
        .collect();
    let fleet = || {
        Some(FleetConfig::uniform(
            2,
            SchedulerConfig::default(),
            16,
            Some(chaos_template(0xC4A05, p)),
        ))
    };
    let request = |&(widx, salt, tenant): &(usize, u64, u32)| {
        workload_request(widx, 4, 4, salt).with_tenant(tenant)
    };

    // Sized so each tenant's weighted share holds its whole burst: at
    // 3:1 weights the light tenant's share of 4×len is len.
    let sim = simulate_batch(
        &SimServeConfig {
            queue_capacity: 4 * jobs.len(),
            fleet: fleet(),
            qos: qos.clone(),
            dedup: DedupConfig::enabled(),
            batch: BatchConfig::enabled(),
            ..SimServeConfig::default()
        },
        jobs.iter().map(|j| (0.0, request(j))).collect(),
    );

    let serve = Serve::start(ServeConfig {
        workers: 4,
        queue_capacity: 4 * jobs.len(),
        fleet: fleet(),
        qos,
        dedup: DedupConfig::enabled(),
        batch: BatchConfig::enabled(),
        ..ServeConfig::default()
    });
    let handles: Vec<_> = jobs
        .iter()
        .map(|j| serve.submit(request(j)).unwrap())
        .collect();
    let threaded: Vec<(u64, String)> = handles
        .into_iter()
        .map(|h| {
            let r = h.wait().expect("chaos loses no admitted job");
            (r.report.total_s.to_bits(), r.report.summary())
        })
        .collect();
    let stats = serve.shutdown();

    for (i, (t, s)) in threaded.iter().zip(&sim.outcomes).enumerate() {
        let SimJobOutcome::Completed { report, .. } = s else {
            panic!("sim job {i} did not complete: {s:?}");
        };
        assert_eq!(
            t.0,
            report.total_s.to_bits(),
            "job {i}: clock bits diverged"
        );
        assert_eq!(t.1, report.summary(), "job {i}");
    }
    assert_eq!(
        (
            stats.attempts,
            stats.retried,
            stats.migrated,
            stats.cpu_degraded,
            stats.executions,
            stats.dedup_joins,
        ),
        (
            sim.stats.attempts,
            sim.stats.retried,
            sim.stats.migrated,
            sim.stats.cpu_degraded,
            sim.stats.executions,
            sim.stats.dedup_joins,
        ),
        "threaded: {}\nsim: {}",
        stats.fleet_summary(),
        sim.stats.fleet_summary()
    );
    assert_eq!(stats.faults, sim.stats.faults, "fault accounting diverged");
    assert_eq!(stats.dedup_joins, 4 * 2, "every duplicate pair coalesced");
    assert!(stats.accounts_for_every_job(), "{}", stats.summary());
    assert!(
        sim.stats.accounts_for_every_job(),
        "{}",
        sim.stats.summary()
    );
}

/// A request that is never executed: the queue-law proptests drive the
/// dispatch core directly and finish every ticket with a canned report.
fn token(tenant: u32, prio: u8) -> JobRequest {
    JobRequest::new(
        "",
        "f",
        vec![],
        japonica_ir::Heap::default(),
        ResourceRequest::new(1, 1),
    )
    .with_tenant(tenant)
    .with_priority(prio)
}

/// One step of a drain: ask the core for the next job at `now`, finish a
/// dispatched ticket on the spot (so the device is free again), and say
/// which job left the queue and how. `None` once the core is idle.
fn pop<T: Copy>(core: &mut DispatchCore<T>, now: f64) -> Option<(T, &'static str)> {
    match core.next(now) {
        Next::Idle { .. } => None,
        Next::Retired(tag, Err(ServeError::Cancelled)) => Some((tag, "cancelled")),
        Next::Retired(tag, Err(ServeError::DeadlineMissed { .. })) => Some((tag, "expired")),
        Next::Retired(_, other) => panic!("unexpected verdict {other:?}"),
        Next::Dispatch(ticket) => {
            let tag = *ticket.tag();
            let verdicts = core.finish(*ticket, Ok(RunReport::default()), now);
            assert_eq!(verdicts.len(), 1, "one job, one verdict");
            Some((tag, "ran"))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// DWRR fairness converges to the configured weight ratio (up to 10:1)
    /// while both tenants stay backlogged, and no admitted job is lost:
    /// every admission is matched by exactly one dispatch.
    #[test]
    fn dwrr_service_converges_to_weights_and_loses_nothing(
        w0 in 1u32..=10,
        backlog in 22usize..=60,
    ) {
        // Capacity sized so the light tenant's weighted share — capacity
        // × 1/(w0+1) — holds its whole backlog.
        let cfg = ServeConfig {
            queue_capacity: (w0 as usize + 1) * backlog,
            qos: QosConfig { weights: vec![w0, 1] },
            ..ServeConfig::default()
        };
        let mut core: DispatchCore<(u32, usize)> =
            DispatchCore::new(&cfg, Arc::new(ProgramCache::new()));
        let keys = core.key_policy();
        for i in 0..backlog {
            for tenant in 0..2u32 {
                core.admit(keys.key(token(tenant, 100)), (tenant, i), 0.0)
                    .expect("sized to fit");
            }
        }
        let mut counts = [0usize; 2];
        let mut popped = 0usize;
        let mut checked_window = false;
        while let Some(((tenant, _), how)) = pop(&mut core, 0.0) {
            prop_assert_eq!(how, "ran");
            counts[tenant as usize] += 1;
            popped += 1;
            // While BOTH tenants stay backlogged, the heavy tenant's share
            // of any prefix tracks w0/(w0+1) to within one round of slack
            // in each direction. (Once either backlog drains, the other
            // tenant legitimately absorbs every remaining pop.)
            if counts[0] < backlog && counts[1] < backlog && popped >= (w0 as usize + 1) {
                let expect = popped as f64 * w0 as f64 / (w0 as f64 + 1.0);
                let slack = w0 as f64 + 1.0;
                prop_assert!(
                    (counts[0] as f64 - expect).abs() <= slack,
                    "after {} pops: heavy served {} expected {:.1}±{:.0} (weights {}:1)",
                    popped, counts[0], expect, slack, w0
                );
                checked_window = true;
            }
        }
        prop_assert!(checked_window, "mix never exercised a contended window");
        // No admitted job lost: every admission dispatched exactly once.
        prop_assert_eq!(popped, 2 * backlog);
        prop_assert_eq!(counts[0], backlog);
        prop_assert_eq!(counts[1], backlog);
        let stats = core.stats(0.0);
        prop_assert_eq!(stats.completed, 2 * backlog as u64);
        prop_assert!(stats.accounts_for_every_job(), "{}", stats.summary());
    }

    /// The core's dispatch order is total and law-abiding under
    /// interleaved submit / cancel / deadline-expiry: every `next` takes
    /// the taken tenant's best queued job — highest priority, then earliest
    /// admission — and every admitted job, including every cancelled or
    /// expired one, leaves through exactly one `next` with the verdict its
    /// kind calls for, so no verdict can be dropped or doubled.
    #[test]
    fn queue_order_is_total_under_submit_cancel_and_expiry(
        ops in proptest::collection::vec((0u8..4, 0u8..3, 0u8..=250u8), 1..120),
    ) {
        let cfg = ServeConfig {
            queue_capacity: 256,
            qos: QosConfig { weights: vec![4, 2, 1] },
            ..ServeConfig::default()
        };
        let mut core: DispatchCore<(u32, u8, usize, &str)> =
            DispatchCore::new(&cfg, Arc::new(ProgramCache::new()));
        let keys = core.key_policy();
        // kind 0: plain job · 1: cancelled after admission · 2: deadline
        // expired by the next tick · 3: take one job now. Cancel and expiry
        // are resolved when the scan reaches the job (the core's contract),
        // so both still occupy a slot in the dispatch order and must
        // surface through it. One op is one tick of the clock.
        const KINDS: [&str; 3] = ["ran", "cancelled", "expired"];
        let mut admitted = 0usize;
        let mut seen: Vec<usize> = Vec::new();
        // Reference model: each tenant's queued jobs as (254 - prio, seq),
        // so the set's minimum is the law's next take for that tenant.
        let mut model: Vec<std::collections::BTreeSet<(u8, usize)>> =
            vec![Default::default(); 3];
        let check = |taken: ((u32, u8, usize, &str), &str),
                         model: &mut Vec<std::collections::BTreeSet<(u8, usize)>>,
                         seen: &mut Vec<usize>|
         -> Result<(), TestCaseError> {
            let ((tenant, prio, seq, kind), how) = taken;
            let best = *model[tenant as usize]
                .iter()
                .next()
                .expect("took a job the model never admitted");
            prop_assert_eq!(
                (254 - prio, seq),
                best,
                "tenant {}: take violated the (prio desc, seq asc) law",
                tenant
            );
            model[tenant as usize].remove(&best);
            prop_assert_eq!(how, kind, "job {} got the wrong verdict", seq);
            seen.push(seq);
            Ok(())
        };
        let mut now = 0.0f64;
        for (seq, &(kind, tenant, prio)) in ops.iter().enumerate() {
            now += 1.0;
            if kind == 3 {
                if let Some(taken) = pop(&mut core, now) {
                    check(taken, &mut model, &mut seen)?;
                }
                continue;
            }
            let mut req = token(tenant as u32, prio);
            if kind == 2 {
                req = req.with_deadline(std::time::Duration::ZERO);
            }
            let tag = (tenant as u32, prio, seq, KINDS[kind as usize]);
            if let Ok(cancel) = core.admit(keys.key(req), tag, now) {
                admitted += 1;
                model[tenant as usize].insert((254 - prio, seq));
                if kind == 1 {
                    cancel.store(true, std::sync::atomic::Ordering::Relaxed);
                }
            }
        }
        now += 1.0;
        while let Some(taken) = pop(&mut core, now) {
            check(taken, &mut model, &mut seen)?;
        }
        // Exactly one verdict per admitted job, cancelled and expired ones
        // included.
        prop_assert_eq!(seen.len(), admitted);
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), admitted, "a job was taken twice or lost");
        prop_assert!(model.iter().all(|m| m.is_empty()), "model retained jobs");
        let stats = core.stats(now);
        prop_assert_eq!(stats.in_flight, 0);
        prop_assert!(stats.accounts_for_every_job(), "{}", stats.summary());
    }
}
