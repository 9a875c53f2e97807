//! The dispatch core on its own: no threads, no sleeps, no program ever
//! executed. Tickets are finished with canned results, and time is
//! whatever number the test passes in — so each of the serving decisions
//! both drivers share can be pinned exactly, including the ones the old
//! threaded service got wrong (head-of-line parking, a pinned worker per
//! backoff, health marks written at selection, never-late virtual jobs).

use japonica::RunReport;
use japonica_faults::{DeviceFault, FaultKind, FaultOrigin, FaultPlan, FaultRule, FaultStats};
use japonica_scheduler::{SchedError, SchedulerConfig};
use japonica_serve::{
    AttemptResult, BatchConfig, DedupConfig, DispatchCore, FleetConfig, JobRequest, KeyPolicy,
    Next, ProgramCache, QosConfig, Rejected, ResourceRequest, RetryPolicy, ServeConfig, ServeError,
    Ticket, Verdict,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// A request that is never executed; `shape` varies the program text so
/// equal shapes share a dedup key and different ones do not.
fn token(shape: u8, sms: u32, cpus: u32) -> JobRequest {
    JobRequest::new(
        format!("// shape {shape}"),
        "f",
        vec![],
        japonica_ir::Heap::default(),
        ResourceRequest::new(sms, cpus),
    )
}

fn core_of<T>(cfg: &ServeConfig) -> (DispatchCore<T>, KeyPolicy) {
    let core = DispatchCore::new(cfg, Arc::new(ProgramCache::new()));
    let keys = core.key_policy();
    (core, keys)
}

fn ok() -> AttemptResult {
    Ok(RunReport::default())
}

/// A device fault as it escapes a fail-fast scheduler run.
fn device_fault() -> AttemptResult {
    let fault = DeviceFault {
        kind: FaultKind::KernelLaunch,
        origin: FaultOrigin::default(),
        transient: false,
    };
    let mut stats = FaultStats::default();
    stats.observe(&fault);
    Err(ServeError::Sched(SchedError::Device { fault, stats }))
}

fn dispatched<T>(next: Next<T>) -> Box<Ticket<T>> {
    match next {
        Next::Dispatch(ticket) => ticket,
        Next::Idle { ready_at } => panic!("expected a dispatch, core is idle until {ready_at:?}"),
        Next::Retired(_, verdict) => panic!("expected a dispatch, a job retired: {verdict:?}"),
    }
}

fn idle_until<T>(next: Next<T>) -> Option<f64> {
    match next {
        Next::Idle { ready_at } => ready_at,
        Next::Dispatch(_) => panic!("expected an idle core, got a dispatch"),
        Next::Retired(_, verdict) => panic!("expected an idle core, a job retired: {verdict:?}"),
    }
}

/// A fleet whose devices fault every kernel launch — so every probe fails.
fn sick_fleet(devices: usize) -> FleetConfig {
    FleetConfig::uniform(
        devices,
        SchedulerConfig::default(),
        16,
        Some(FaultPlan::new(
            3,
            vec![FaultRule::persistent(FaultKind::KernelLaunch)],
        )),
    )
}

#[test]
fn admission_order_is_invalid_then_capacity_then_tenant_share() {
    let cfg = ServeConfig {
        queue_capacity: 4,
        qos: QosConfig {
            weights: vec![3, 1],
        },
        ..ServeConfig::default()
    };
    let (mut core, keys) = core_of::<u32>(&cfg);
    let admit = |core: &mut DispatchCore<u32>, req: JobRequest| core.admit(keys.key(req), 0, 0.0);
    // Unsatisfiable by any device: invalid, whatever the queue holds.
    assert!(matches!(
        admit(&mut core, token(0, 99, 1)),
        Err(Rejected::InvalidRequest(_))
    ));
    // Tenant 0's share of 4 slots at 3:1 is 3; its 4th submission bounces
    // off the share, not the global capacity.
    for _ in 0..3 {
        admit(&mut core, token(0, 1, 1)).expect("within the share");
    }
    assert_eq!(
        admit(&mut core, token(0, 1, 1)).map(|_| ()),
        Err(Rejected::QueueFull { capacity: 3 })
    );
    // Tenant 1 still has its slot; after it the queue is globally full.
    admit(&mut core, token(0, 1, 1).with_tenant(1)).expect("tenant 1's slot");
    assert_eq!(
        admit(&mut core, token(0, 1, 1).with_tenant(1)).map(|_| ()),
        Err(Rejected::QueueFull { capacity: 4 })
    );
    // Draining one slot re-opens admission.
    let ticket = dispatched(core.next(0.0));
    admit(&mut core, token(0, 1, 1)).expect("a slot freed");
    core.finish(*ticket, ok(), 0.0);
    let stats = core.stats(0.0);
    assert_eq!((stats.rejected_invalid, stats.rejected_full), (1, 2));
    assert!(stats.accounts_for_every_job(), "{}", stats.summary());
}

#[test]
fn a_closed_core_rejects_and_still_drains() {
    let (mut core, keys) = core_of::<u32>(&ServeConfig::default());
    core.admit(keys.key(token(0, 1, 1)), 7, 0.0)
        .expect("admitted");
    core.close();
    assert_eq!(
        core.admit(keys.key(token(0, 1, 1)), 8, 0.0).map(|_| ()),
        Err(Rejected::ShuttingDown)
    );
    let ticket = dispatched(core.next(0.0));
    assert_eq!(*ticket.tag(), 7);
    let verdicts = core.finish(*ticket, ok(), 0.0);
    assert!(matches!(verdicts.as_slice(), [(7, Ok(_))]));
    assert_eq!(idle_until(core.next(0.0)), None);
    let stats = core.stats(0.0);
    assert_eq!((stats.rejected_shutdown, stats.completed), (1, 1));
    assert!(stats.accounts_for_every_job(), "{}", stats.summary());
}

#[test]
fn a_full_device_is_skipped_over_not_waited_on() {
    let (mut core, keys) = core_of::<&str>(&ServeConfig::default());
    core.admit(keys.key(token(0, 7, 8)), "A", 0.0).expect("A");
    let a = dispatched(core.next(0.0));
    assert_eq!((a.attempt().partition.sm_base, *a.tag()), (0, "A"));
    // B wants the whole device; C, behind it, fits beside A.
    core.admit(keys.key(token(1, 14, 8)), "B", 1.0).expect("B");
    core.admit(keys.key(token(2, 7, 8)), "C", 2.0).expect("C");
    let c = dispatched(core.next(3.0));
    assert_eq!((c.attempt().partition.sm_base, *c.tag()), (7, "C"));
    assert_eq!(idle_until(core.next(3.0)), None, "B waits, queued");
    // B goes the moment the device can hold it — not before.
    core.finish(*a, ok(), 4.0);
    assert_eq!(idle_until(core.next(4.0)), None, "C still holds [7, 14)");
    core.finish(*c, ok(), 5.0);
    let b = dispatched(core.next(5.0));
    assert_eq!((b.attempt().partition.sm_count, *b.tag()), (14, "B"));
    let verdicts = core.finish(*b, ok(), 6.0);
    let [(_, Ok(done))] = verdicts.as_slice() else {
        panic!("B completes");
    };
    assert_eq!(
        (done.queued_s, done.started_s, done.latency_s),
        (4.0, 5.0, 5.0)
    );
    assert!(core.stats(6.0).accounts_for_every_job());
}

#[test]
fn a_backed_off_retry_waits_in_the_queue_at_its_original_rank() {
    let cfg = ServeConfig {
        fleet: Some(sick_fleet(1)),
        ..ServeConfig::default()
    };
    let backoff = RetryPolicy::default().backoff_s(1);
    let (mut core, keys) = core_of::<&str>(&cfg);
    core.admit(keys.key(token(0, 14, 16)), "first", 0.0)
        .expect("first");
    core.admit(keys.key(token(1, 14, 16)), "second", 0.0)
        .expect("second");
    let first = dispatched(core.next(1.0));
    assert_eq!((*first.tag(), first.attempt().rung), ("first", 0));
    assert!(first.attempt().plan.is_some(), "GPU rungs carry a plan");
    // The attempt faults at t = 1: nothing is delivered, the slice is
    // back, and the job behind it is offered at once.
    assert!(core.finish(*first, device_fault(), 1.0).is_empty());
    let second = dispatched(core.next(1.0));
    assert_eq!(*second.tag(), "second");
    assert_eq!(idle_until(core.next(1.0)), Some(1.0 + backoff));
    core.admit(keys.key(token(2, 14, 16)), "third", 1.0)
        .expect("third");
    core.finish(*second, ok(), 2.0);
    // Past its backoff the retry outranks the job admitted after it.
    let retry = dispatched(core.next(2.0));
    assert_eq!((*retry.tag(), retry.attempt().rung), ("first", 1));
    core.finish(*retry, ok(), 3.0);
    let third = dispatched(core.next(3.0));
    assert_eq!(*third.tag(), "third");
    core.finish(*third, ok(), 3.0);
    let stats = core.stats(3.0);
    assert_eq!((stats.attempts, stats.retried, stats.completed), (4, 1, 3));
    assert_eq!(stats.faults.gpu_faults, 1);
    assert!(stats.accounts_for_every_job(), "{}", stats.summary());
}

#[test]
fn the_cpu_rung_carries_no_plan_and_the_budget_ends_in_a_typed_verdict() {
    let mut fleet = sick_fleet(2);
    let cfg = ServeConfig {
        fleet: Some(fleet.clone()),
        ..ServeConfig::default()
    };
    let (mut core, keys) = core_of::<u32>(&cfg);
    core.admit(keys.key(token(0, 4, 4).with_salt(5)), 0, 0.0)
        .expect("admitted");
    let mut now = 0.0;
    let mut devices = Vec::new();
    for rung in 0..4 {
        let ticket = dispatched(core.next(now));
        let a = ticket.attempt();
        assert_eq!(a.rung, rung);
        assert_eq!(
            a.plan.is_none(),
            rung == 3,
            "only the CPU rung is plan-free"
        );
        devices.push(a.device);
        let result = if rung < 3 { device_fault() } else { ok() };
        let verdicts = core.finish(*ticket, result, now);
        assert_eq!(verdicts.len(), usize::from(rung == 3));
        now += 1.0;
    }
    // Home twice (salt 5 % 2), then the other device.
    assert_eq!(devices[..3], [1, 1, 0]);
    let stats = core.stats(now);
    assert_eq!(
        (
            stats.attempts,
            stats.retried,
            stats.migrated,
            stats.cpu_degraded
        ),
        (4, 1, 1, 1)
    );

    // A 2-attempt budget: the second fault is terminal and typed.
    fleet.retry = RetryPolicy {
        max_attempts: 2,
        ..RetryPolicy::default()
    };
    let cfg = ServeConfig {
        fleet: Some(fleet),
        ..ServeConfig::default()
    };
    let (mut core, keys) = core_of::<u32>(&cfg);
    core.admit(keys.key(token(0, 4, 4)), 0, 0.0)
        .expect("admitted");
    let ticket = dispatched(core.next(0.0));
    assert!(core.finish(*ticket, device_fault(), 0.0).is_empty());
    let ticket = dispatched(core.next(1.0));
    let verdicts = core.finish(*ticket, device_fault(), 1.0);
    let [(0, Err(ServeError::Exhausted(v)))] = verdicts.as_slice() else {
        panic!("expected an exhausted verdict");
    };
    assert_eq!((v.attempts, v.stats.gpu_faults), (2, 2));
    assert!(core.stats(1.0).accounts_for_every_job());
}

#[test]
fn selection_leaves_no_health_mark_unless_a_slice_is_carved() {
    let cfg = ServeConfig {
        fleet: Some(sick_fleet(1)),
        ..ServeConfig::default()
    };
    let (mut core, keys) = core_of::<&str>(&cfg);
    // Walk two jobs down the ladder: six faults quarantine the device.
    let mut now = 0.0;
    for name in ["x", "y"] {
        core.admit(keys.key(token(0, 14, 16)), name, now)
            .expect("admitted");
        for rung in 0..4 {
            now += 1.0;
            let ticket = dispatched(core.next(now));
            let result = if rung < 3 { device_fault() } else { ok() };
            core.finish(*ticket, result, now);
        }
    }
    let quarantined = core.stats(now).devices;
    assert_eq!(quarantined[0].state.label(), "quarantined");
    // Choosing a quarantined device probes it (every probe fails here, so
    // the dispatch is forced) — and those marks are written because the
    // slice was carved.
    core.admit(keys.key(token(1, 14, 16)), "holder", now)
        .expect("admitted");
    let holder = dispatched(core.next(now));
    assert!(holder.attempt().forced);
    let held = core.stats(now).devices;
    assert!(held[0].probes > quarantined[0].probes);
    assert_eq!(
        held[0].forced_dispatches,
        quarantined[0].forced_dispatches + 1
    );
    // With the device full, the same choice for the next job must leave
    // every health counter where it was.
    core.admit(keys.key(token(2, 14, 16)), "waiter", now)
        .expect("admitted");
    assert_eq!(idle_until(core.next(now)), None);
    assert_eq!(core.stats(now).devices, held, "a full device was marked");
    core.finish(*holder, ok(), now + 1.0);
    let waiter = dispatched(core.next(now + 1.0));
    assert_eq!(*waiter.tag(), "waiter");
    assert!(core.stats(now + 1.0).devices[0].probes > held[0].probes);
    core.finish(*waiter, ok(), now + 2.0);
    assert!(core.stats(now + 2.0).accounts_for_every_job());
}

#[test]
fn a_run_that_outlives_its_deadline_is_completed_late_not_missed() {
    let (mut core, keys) = core_of::<u32>(&ServeConfig::default());
    let req = token(0, 4, 4).with_deadline(Duration::from_secs(1));
    core.admit(keys.key(req), 0, 0.0).expect("admitted");
    // Half a second in the queue: inside the deadline, so it starts …
    let ticket = dispatched(core.next(0.5));
    // … and finishes a second past it.
    let verdicts = core.finish(*ticket, ok(), 2.0);
    let [(0, Ok(done))] = verdicts.as_slice() else {
        panic!("the job completes");
    };
    assert_eq!((done.queued_s, done.latency_s), (0.5, 2.0));
    let stats = core.stats(2.0);
    assert_eq!(
        (stats.completed, stats.completed_late, stats.deadline_missed),
        (1, 1, 0)
    );
    // The same job left queueing past its deadline never starts.
    let req = token(0, 4, 4).with_deadline(Duration::from_secs(1));
    core.admit(keys.key(req), 1, 2.0).expect("admitted");
    assert!(matches!(
        core.next(3.5),
        Next::Retired(1, Err(ServeError::DeadlineMissed { .. }))
    ));
    let stats = core.stats(3.5);
    assert_eq!((stats.completed_late, stats.deadline_missed), (1, 1));
    assert!(stats.accounts_for_every_job(), "{}", stats.summary());
}

#[test]
fn duplicates_park_on_the_leader_and_late_ones_take_the_memo() {
    let cfg = ServeConfig {
        dedup: DedupConfig::enabled(),
        ..ServeConfig::default()
    };
    let (mut core, keys) = core_of::<u32>(&cfg);
    for tag in 0..3 {
        core.admit(keys.key(token(0, 4, 4)), tag, 0.0)
            .expect("admitted");
    }
    // A deliberate-panic probe with the same inputs must never coalesce.
    let mut probe = token(0, 4, 4);
    probe.chaos_panic = true;
    core.admit(keys.key(probe), 9, 0.0).expect("admitted");
    let leader = dispatched(core.next(0.0));
    let probe = dispatched(core.next(0.0));
    assert_eq!((*leader.tag(), *probe.tag()), (0, 9));
    assert_eq!(idle_until(core.next(0.0)), None, "duplicates parked");
    assert_eq!(core.dedup_in_flight(), 1);
    core.finish(*probe, Err(ServeError::Panicked("boom".into())), 0.5);
    // The leader's verdict first, then one per parked duplicate.
    let verdicts = core.finish(*leader, ok(), 1.0);
    let tags: Vec<u32> = verdicts.iter().map(|(t, _)| *t).collect();
    assert_eq!(tags, [0, 1, 2]);
    assert!(verdicts.iter().all(|(_, v)| v.is_ok()));
    assert_eq!(core.dedup_in_flight(), 0);
    // A late duplicate retires from the memo without touching a device.
    core.admit(keys.key(token(0, 4, 4)), 3, 2.0)
        .expect("admitted");
    let Next::Retired(3, Ok(done)) = core.next(2.5) else {
        panic!("memo hit");
    };
    assert_eq!(
        (done.queued_s, done.latency_s, done.started_s),
        (0.5, 0.5, 2.5)
    );
    let stats = core.stats(2.5);
    assert_eq!(
        (stats.executions, stats.dedup_hits, stats.dedup_joins),
        (2, 3, 3)
    );
    assert_eq!(
        (stats.completed, stats.failed, stats.worker_panics),
        (4, 1, 1)
    );
    assert!(stats.devices.iter().all(|d| d.faults == 0));
    assert!(stats.accounts_for_every_job(), "{}", stats.summary());

    // Dedup off: the same three submissions all execute.
    let (mut core, keys) = core_of::<u32>(&ServeConfig::default());
    for tag in 0..3 {
        core.admit(keys.key(token(0, 4, 4)), tag, 0.0)
            .expect("admitted");
    }
    for _ in 0..3 {
        dispatched(core.next(0.0));
    }
}

/// Count `verdicts` against the jobs admitted so far: each must belong to
/// an admitted job that has none yet.
fn deliver(
    seen: &mut BTreeMap<usize, u32>,
    verdicts: Vec<(usize, Verdict)>,
) -> Result<(), TestCaseError> {
    for (job, _) in verdicts {
        let n = seen
            .get_mut(&job)
            .expect("verdict for a job never admitted");
        *n += 1;
        prop_assert_eq!(*n, 1, "job {} got a second verdict", job);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Whatever the drivers do — any interleaving of admissions (random
    /// tenant, priority, deadline, duplicate shape), cancels, `next`s and
    /// `finish`es with any outcome class — the four-line accounting
    /// identity holds after *every* event, no job ever gets two verdicts,
    /// and once everything has drained every slice is back, no dedup key
    /// is in flight and nothing is left in flight.
    #[test]
    fn accounting_identities_hold_after_every_event(
        script in proptest::collection::vec(
            (0u8..10, 0u8..=255u8, 0u8..=255u8, 0u8..=255u8), 1..160),
    ) {
        let cfg = ServeConfig {
            queue_capacity: 12,
            fleet: Some(sick_fleet(2)),
            qos: QosConfig { weights: vec![3, 1, 1] },
            dedup: DedupConfig { enabled: true, capacity: 4 },
            batch: BatchConfig::enabled(),
            ..ServeConfig::default()
        };
        let (mut core, keys) = core_of::<usize>(&cfg);
        let mut now = 0.0f64;
        let mut held: Vec<Box<Ticket<usize>>> = Vec::new();
        let mut flags = Vec::new();
        // Verdicts received per admitted job.
        let mut seen: BTreeMap<usize, u32> = BTreeMap::new();
        for (i, &(op, a, b, c)) in script.iter().enumerate() {
            now += (c % 4) as f64 * 5e-5;
            match op {
                // Admit: slice (one of them unsatisfiable), tenant,
                // priority, one of five duplicate shapes, maybe a deadline.
                0..=3 => {
                    let (sms, cpus) = [(4, 4), (7, 8), (14, 16), (15, 1)][(a % 4) as usize];
                    let mut req = token(b % 5, sms, cpus)
                        .with_tenant((a / 4 % 3) as u32)
                        .with_priority(c)
                        .with_salt((b % 5) as u64);
                    if a >= 192 {
                        req = req.with_deadline(Duration::from_micros((b % 4) as u64 * 50));
                    }
                    if let Ok(flag) = core.admit(keys.key(req), i, now) {
                        seen.insert(i, 0);
                        flags.push(flag);
                    }
                }
                // Cancel some admitted job (queued, running or long gone).
                4 => {
                    if !flags.is_empty() {
                        flags[a as usize % flags.len()].store(true, Ordering::Relaxed);
                    }
                }
                5..=7 => match core.next(now) {
                    Next::Idle { .. } => {}
                    Next::Retired(job, verdict) => deliver(&mut seen, vec![(job, verdict)])?,
                    Next::Dispatch(ticket) => held.push(ticket),
                },
                // Finish some held ticket: ok, device fault, job error or
                // contained panic.
                _ => {
                    if !held.is_empty() {
                        let ticket = held.swap_remove(a as usize % held.len());
                        let result = match b % 8 {
                            0..=3 => ok(),
                            4 | 5 => device_fault(),
                            6 => Err(ServeError::Sched(SchedError::Internal("job bug".into()))),
                            _ => Err(ServeError::Panicked("boom".into())),
                        };
                        deliver(&mut seen, core.finish(*ticket, result, now))?;
                    }
                }
            }
            let stats = core.stats(now);
            prop_assert!(
                stats.accounts_for_every_job(),
                "after step {}: {}", i, stats.summary()
            );
            prop_assert_eq!(core.running(), held.len());
        }
        // Quiescence: finish what is out, ride out every backoff.
        loop {
            for ticket in held.drain(..) {
                deliver(&mut seen, core.finish(*ticket, ok(), now))?;
            }
            match core.next(now) {
                Next::Idle { ready_at: Some(t) } => now = t,
                Next::Idle { ready_at: None } => break,
                Next::Retired(job, verdict) => deliver(&mut seen, vec![(job, verdict)])?,
                Next::Dispatch(ticket) => held.push(ticket),
            }
        }
        let stats = core.stats(now);
        prop_assert!(stats.accounts_for_every_job(), "{}", stats.summary());
        prop_assert_eq!((stats.in_flight, stats.queue_depth, core.running()), (0, 0, 0));
        prop_assert_eq!(core.dedup_in_flight(), 0);
        for pool in core.pool_snapshots(now) {
            prop_assert_eq!(
                (pool.free_sms, pool.free_cpu_slots),
                (pool.sm_count, pool.cpu_slots)
            );
        }
        prop_assert!(seen.values().all(|&n| n == 1), "a job never got its verdict");
    }
}
