//! Golden record of the serve dispatch policy on the virtual clock: four
//! seeded traces over the Table II corpus (scale 1), each pinned by the
//! batch fingerprint (every outcome, placement, attempt and timestamp bit)
//! plus the counters a dispatch decision can move — rung walk, dedup,
//! rejections, deadline misses, merged fault accounting and every device's
//! health counters.
//!
//! `dispatch_golden.txt` was recorded on the commit *before* the threaded
//! service and the simulator became drivers of one dispatch core, and must
//! stay byte-identical through that refactor. `completed_late` is left out
//! on purpose: the old simulator never counted it. On a mismatch the test
//! prints the record it computed.

use japonica_faults::{FaultKind, FaultPlan, FaultRule};
use japonica_scheduler::SchedulerConfig;
use japonica_serve::{
    simulate_batch, BatchConfig, DedupConfig, FleetConfig, JobRequest, QosConfig, ResourceRequest,
    RetryPolicy, SimBatchReport, SimServeConfig,
};
use japonica_workloads::Workload;
use std::fmt::Write;

const GOLDEN: &str = include_str!("dispatch_golden.txt");

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

/// The chaos template of `fleet_chaos.rs`.
fn chaos_template(seed: u64, p: f64) -> FaultPlan {
    FaultPlan::new(
        seed,
        vec![
            FaultRule::persistent(FaultKind::KernelLaunch).with_probability(p),
            FaultRule::persistent(FaultKind::TransferH2D).with_probability(p / 2.0),
        ],
    )
}

/// xorshift64*: cheap, deterministic, no external RNG.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// (i) 40 jobs on one device behind a 6-slot queue: mixed priorities, a
/// few nanosecond deadlines, arrivals bunched enough to overflow the queue.
fn trace_backpressure() -> Vec<(f64, JobRequest)> {
    let mut next = rng(0xD15_0001);
    (0..40u64)
        .map(|i| {
            let widx = (next() % 11) as usize;
            let sms = [2u32, 4, 7, 14][(next() % 4) as usize];
            let cpus = [2u32, 4, 8][(next() % 3) as usize];
            let prio = [1u8, 50, 100, 200][(next() % 4) as usize];
            let t = (next() % 400) as f64 * 1e-5;
            let mut req = workload_request(widx, sms, cpus, i).with_priority(prio);
            if next().is_multiple_of(5) {
                req = req.with_deadline(std::time::Duration::from_nanos(1 + next() % 3));
            }
            (t, req)
        })
        .collect()
}

/// (ii) 24 salted jobs over a three-device chaotic fleet.
fn trace_chaos() -> Vec<(f64, JobRequest)> {
    let mut next = rng(0xD15_0002);
    (0..24u64)
        .map(|i| {
            let widx = (next() % 11) as usize;
            let sms = [2u32, 3, 4, 7][(next() % 4) as usize];
            let cpus = [2u32, 4, 8][(next() % 3) as usize];
            let t = (next() % 1000) as f64 * 1e-5;
            (t, workload_request(widx, sms, cpus, next() ^ i))
        })
        .collect()
}

/// (iii)/(iv) 36 jobs, 70 % of them drawn from six hot shapes (same
/// workload, slice and salt, so they share a dedup key even under chaos),
/// spread over three tenants.
fn trace_duplicates() -> Vec<(f64, JobRequest)> {
    let mut next = rng(0xD15_0003);
    (0..36u64)
        .map(|i| {
            let tenant = (next() % 3) as u32;
            let t = (next() % 60) as f64 * 1e-5;
            let req = if next() % 10 < 7 {
                let hot = next() % 6;
                workload_request((hot % 11) as usize, 4, 4, 7000 + 13 * hot)
            } else {
                let widx = (next() % 11) as usize;
                workload_request(widx, 4, 4, 9000 + i)
            };
            (t, req.with_tenant(tenant))
        })
        .collect()
}

fn saturation_config(fleet: Option<FleetConfig>) -> SimServeConfig {
    SimServeConfig {
        queue_capacity: 14,
        fleet,
        qos: QosConfig {
            weights: vec![8, 4, 2],
        },
        dedup: DedupConfig::enabled(),
        batch: BatchConfig::enabled(),
        ..SimServeConfig::default()
    }
}

fn record(out: &mut String, name: &str, rep: &SimBatchReport) {
    let s = &rep.stats;
    assert!(s.accounts_for_every_job(), "{name}: {}", s.summary());
    writeln!(out, "== {name}").expect("writing to a String");
    out.push_str(&rep.fingerprint());
    writeln!(
        out,
        "rungs attempts={} retried={} migrated={} cpu_degraded={}",
        s.attempts, s.retried, s.migrated, s.cpu_degraded
    )
    .expect("writing to a String");
    writeln!(
        out,
        "dedup executions={} hits={} joins={} suppressed_attempts={}",
        s.executions, s.dedup_hits, s.dedup_joins, s.dedup_suppressed_attempts
    )
    .expect("writing to a String");
    writeln!(
        out,
        "turned-away full={} shutdown={} invalid={} deadline_missed={}",
        s.rejected_full, s.rejected_shutdown, s.rejected_invalid, s.deadline_missed
    )
    .expect("writing to a String");
    writeln!(out, "faults {:?}", s.faults).expect("writing to a String");
    for d in &s.devices {
        writeln!(out, "{d:?}").expect("writing to a String");
    }
}

#[test]
fn dispatch_policy_matches_the_recorded_golden() {
    let mut out = String::new();

    let backpressure = SimServeConfig {
        queue_capacity: 6,
        ..SimServeConfig::default()
    };
    record(
        &mut out,
        "backpressure: 40 jobs, 1 device, queue 6",
        &simulate_batch(&backpressure, trace_backpressure()),
    );

    let chaos_fleet = |devices: usize| {
        FleetConfig::uniform(
            devices,
            SchedulerConfig::default(),
            16,
            Some(chaos_template(0xC4A05, 0.35)),
        )
    };
    let chaos = SimServeConfig {
        fleet: Some(chaos_fleet(3)),
        ..SimServeConfig::default()
    };
    record(
        &mut out,
        "chaos: 24 salted jobs, 3 devices, p=0.35",
        &simulate_batch(&chaos, trace_chaos()),
    );

    record(
        &mut out,
        "duplicates: 70% hot shapes, tenants 8:4:2, dedup+batch",
        &simulate_batch(&saturation_config(None), trace_duplicates()),
    );

    let mut short_ladder = chaos_fleet(2);
    short_ladder.retry = RetryPolicy {
        max_attempts: 2,
        ..RetryPolicy::default()
    };
    record(
        &mut out,
        "duplicates under chaos: 2 devices, 2-attempt budget",
        &simulate_batch(&saturation_config(Some(short_ladder)), trace_duplicates()),
    );

    if out != GOLDEN {
        println!("{out}");
    }
    assert!(
        out == GOLDEN,
        "dispatch golden moved (computed record printed above)"
    );
}
