//! `loadgen` — seeded synthetic load generator and determinism oracle for
//! the `japonica-serve` multi-tenant service.
//!
//! Generates a reproducible mix of Table II programs with exponential
//! inter-arrivals at `--rate` jobs per *virtual* second, replays it through
//! the deterministic virtual-clock simulator, and checks three oracles:
//!
//! 1. **Replay determinism** — two simulations of the same trace must
//!    produce byte-identical fingerprints (every simulated time bit-exact).
//! 2. **Tenant isolation** — every job completed in the shared batch must
//!    be bit-identical (simulated wall clock and report summary) to the
//!    same job run *solo* on an equal-sized device slice.
//! 3. **Exact accounting** — every submitted job lands in exactly one
//!    `ServeStats` counter, in both the simulator and the threaded service.
//!
//! The threaded phase then pushes the same mix through the real
//! [`Serve`](japonica_serve::Serve) worker pool for a host throughput /
//! latency snapshot (optionally written as flat JSON with `--json`).
//!
//! Chaos mode (`--chaos P`, optionally `--devices N`) runs the same
//! oracles against a fault-injecting fleet: every device carries a seeded
//! fault template (kernel launches fault with probability P, H2D
//! transfers with P/2), jobs are salted so each attempt's fault draws are
//! a pure function of `(salt, rung)`, and two more oracles apply:
//!
//! 4. **No job lost to chaos** — the failover ladder ends at a fault-free
//!    CPU-only rung, so every admitted job must still complete.
//! 5. **Fleet lockstep** — the threaded fleet and the virtual-clock fleet
//!    must agree bit-for-bit on every per-job report and on the total
//!    rung-counter walk (attempts / retried / migrated / cpu-degraded),
//!    and no quarantined device may receive an unforced lease.
//!
//! Open-loop mode (`--open --rate R --jobs N`) switches from the replay
//! oracles to a saturation throughput benchmark: arrivals are paced by the
//! *host* wall clock at `R` jobs/s, independent of completions (an open
//! loop — the queue overflowing sheds load instead of slowing arrivals).
//! The mix is duplicate-heavy (a small seeded pool of distinct program
//! shapes, each arrival drawing one) and spread across weighted QoS
//! tenants. The same mix runs twice — dedup + program-hash batching OFF,
//! then ON — and every completed job in *both* arms must stay bit-identical
//! to a solo virtual-clock run of the same shape. `--gate-speedup X` exits
//! 5 when ON fails to reach `X`× the OFF arm's sustained jobs/s.
//!
//! Exit codes: 0 ok · 2 determinism, isolation, or embargo violation ·
//! 3 accounting violation · 4 a phase failed to run · 5 speedup gate.

use japonica_bench::{json_escape, json_f64};
use japonica_faults::{FaultKind, FaultPlan, FaultRule};
use japonica_scheduler::SchedulerConfig;
use japonica_serve::{
    simulate_batch, BatchConfig, DedupConfig, FleetConfig, JobRequest, QosConfig, Rejected,
    ResourceRequest, Serve, ServeConfig, ServeStats, SimJobOutcome, SimServeConfig,
};
use japonica_workloads::Workload;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Opts {
    rate: f64,
    seed: u64,
    jobs: usize,
    scale: u64,
    queue_cap: usize,
    workers: usize,
    devices: usize,
    chaos: f64,
    json: Option<String>,
    quick: bool,
    open: bool,
    tenants: usize,
    gate_speedup: Option<f64>,
    sessions: usize,
    edits: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--rate JOBS_PER_S] [--seed N] [--jobs N] [--scale N]\n\
         \x20              [--queue-cap N] [--workers N] [--devices N] [--chaos P]\n\
         \x20              [--json PATH] [--quick]\n\
         \x20      loadgen --sessions K [--edits P] [--jobs N] [--seed N]\n\
         \x20              [--workers N] [--json PATH]\n\
         \x20      loadgen --open --rate JOBS_PER_S --jobs N [--tenants N]\n\
         \x20              [--gate-speedup X] [--seed N] [--queue-cap N]\n\
         \x20              [--workers N] [--devices N] [--chaos P] [--json PATH]\n\
         \n\
         Replays a seeded synthetic mix of Table II programs through the\n\
         japonica-serve virtual-clock simulator (determinism + isolation\n\
         oracles, exit 2 on violation) and the threaded service (throughput\n\
         and latency snapshot). --devices N serves over an N-device fleet;\n\
         --chaos P injects seeded device faults (kernel launch probability\n\
         P, H2D transfer P/2) and additionally enforces the fault-tolerance\n\
         oracles: no admitted job lost, threaded/virtual-clock lockstep on\n\
         per-job bits and rung counters, and a clean quarantine embargo.\n\
         --quick shrinks the mix for CI smoke.\n\
         \n\
         --open runs the saturation benchmark instead: wall-clock-paced\n\
         arrivals at --rate jobs/s (independent of completions; queue\n\
         overflow sheds load), a duplicate-heavy seeded mix over --tenants\n\
         weighted QoS tenants, one arm with execution dedup + program-hash\n\
         batching OFF and one ON. Every completed job must stay\n\
         bit-identical to its solo virtual-clock reference; --gate-speedup\n\
         X exits 5 when ON < X times the OFF arm's sustained jobs/s.\n\
         \n\
         --sessions K drives K persistent tenant sessions (japonica-session)\n\
         through seeded interleaved OPEN/LOAD/edit/RUN/CLOSE scripts, each\n\
         LOAD editing one stage with probability P (--edits, default 0.3).\n\
         The identical op list replays through the threaded service and the\n\
         virtual-clock backend in lockstep: every LOAD's reuse/recompile/\n\
         invalidate split and every RUN's result bits must agree byte-for-\n\
         byte (exit 2), session + serve accounting identities must close and\n\
         no device lease may leak (exit 3)."
    );
    std::process::exit(2)
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        rate: 200.0,
        seed: 7,
        jobs: 0,
        scale: 1,
        queue_cap: 16,
        workers: 4,
        devices: 1,
        chaos: 0.0,
        json: None,
        quick: false,
        open: false,
        tenants: 3,
        gate_speedup: None,
        sessions: 0,
        edits: 0.3,
    };
    let mut jobs_set = false;
    let mut queue_cap_set = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let num = |args: &mut dyn Iterator<Item = String>| -> f64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match a.as_str() {
            "--rate" => o.rate = num(&mut args).max(1e-6),
            "--seed" => o.seed = num(&mut args) as u64,
            "--jobs" => {
                o.jobs = (num(&mut args) as usize).max(1);
                jobs_set = true;
            }
            "--scale" => o.scale = (num(&mut args) as u64).max(1),
            "--queue-cap" => {
                o.queue_cap = (num(&mut args) as usize).max(1);
                queue_cap_set = true;
            }
            "--workers" => o.workers = (num(&mut args) as usize).max(1),
            "--devices" => o.devices = (num(&mut args) as usize).clamp(1, 16),
            "--chaos" => o.chaos = num(&mut args).clamp(0.0, 1.0),
            "--json" => o.json = args.next().or_else(|| usage()).into(),
            "--quick" => o.quick = true,
            "--open" => o.open = true,
            "--tenants" => o.tenants = (num(&mut args) as usize).clamp(1, 16),
            "--gate-speedup" => o.gate_speedup = Some(num(&mut args).max(0.0)),
            "--sessions" => o.sessions = (num(&mut args) as usize).clamp(1, 64),
            "--edits" => o.edits = num(&mut args).clamp(0.0, 1.0),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }
    if !jobs_set {
        o.jobs = match (o.open, o.quick) {
            (true, _) => 2000,
            (false, true) => 8,
            (false, false) => 24,
        };
    }
    // Open loop: a deeper default queue so transient bursts queue instead
    // of shedding — saturation sheds at sustained overload, not jitter.
    if o.open && !queue_cap_set {
        o.queue_cap = 256;
    }
    o
}

/// The shape of one generated job, kept so it can be regenerated exactly
/// (workload instances are seeded per kind, so rebuilding a request yields
/// byte-identical inputs).
#[derive(Clone, Copy)]
struct MixSlot {
    widx: usize,
    sms: u32,
    cpus: u32,
    prio: u8,
    arrival_s: f64,
    /// Per-job salt: seeds every attempt's fault draws and the home-device
    /// pick. Drawn with the mix so chaos schedules replay with the seed.
    salt: u64,
    /// Workload instantiation scale (`--scale` closed-loop; drawn per pool
    /// entry in the open-loop mix so dedup keys differ across scales).
    scale: u64,
    /// QoS tenant (always 0 closed-loop; spread over `--tenants` open-loop).
    tenant: u32,
}

/// Draw the seeded mix: which workload, which slice, which priority, and
/// exponential inter-arrival times at `rate` jobs per virtual second.
fn draw_mix(o: &Opts) -> Vec<MixSlot> {
    let mut rng = StdRng::seed_from_u64(o.seed);
    let mut t = 0.0f64;
    (0..o.jobs)
        .map(|i| {
            let widx = rng.gen_range(0..Workload::all().len());
            // Mostly partial slices so tenants can share; the occasional
            // full-device job exercises head-of-line blocking.
            let sms = [2u32, 3, 4, 7, 7, 14][rng.gen_range(0..6usize)];
            let cpus = [2u32, 4, 8][rng.gen_range(0..3usize)];
            let prio = [50u8, 100, 200][rng.gen_range(0..3usize)];
            // Bursty arrivals: a third of the jobs arrive back-to-back with
            // their predecessor, the rest after an exponential gap at
            // `rate` jobs per virtual second.
            let u: f64 = rng.gen();
            if i > 0 && rng.gen_range(0..3u32) == 0 {
                // burst: same arrival instant as the previous job
            } else {
                t += -(1.0 - u).ln() / o.rate;
            }
            MixSlot {
                widx,
                sms,
                cpus,
                prio,
                arrival_s: t,
                salt: rng.gen(),
                scale: o.scale,
                tenant: 0,
            }
        })
        .collect()
}

/// Draw the open-loop mix: a small seeded pool of distinct program shapes
/// (so the stream is duplicate-heavy — the dedup and batching substrate),
/// then `jobs` arrivals each picking a pool entry and a weighted-QoS
/// tenant, with exponential inter-arrivals at `rate` jobs per second. The
/// salt pool is small so chaos-mode dedup keys still collide.
fn draw_open_mix(o: &Opts) -> Vec<MixSlot> {
    let mut rng = StdRng::seed_from_u64(o.seed);
    let salts: Vec<u64> = (0..4).map(|_| rng.gen()).collect();
    let pool_n = (o.jobs / 16).clamp(4, 48);
    let pool: Vec<MixSlot> = (0..pool_n)
        .map(|_| MixSlot {
            widx: rng.gen_range(0..Workload::all().len()),
            sms: [2u32, 3, 4, 7][rng.gen_range(0..4usize)],
            cpus: [2u32, 4][rng.gen_range(0..2usize)],
            prio: [50u8, 100, 200][rng.gen_range(0..3usize)],
            arrival_s: 0.0,
            salt: salts[rng.gen_range(0..salts.len())],
            scale: rng.gen_range(1..3u64),
            tenant: 0,
        })
        .collect();
    let mut t = 0.0f64;
    (0..o.jobs)
        .map(|_| {
            let mut s = pool[rng.gen_range(0..pool_n)];
            s.tenant = rng.gen_range(0..o.tenants as u32);
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / o.rate;
            s.arrival_s = t;
            s
        })
        .collect()
}

/// DWRR weights for the open-loop tenants: halving from 8 (floor 1), so
/// three tenants get 8:4:2 service shares under saturation.
fn tenant_weights(tenants: usize) -> Vec<u32> {
    (0..tenants).map(|t| (8u32 >> t.min(3)).max(1)).collect()
}

fn build_request(slot: &MixSlot) -> JobRequest {
    let w = &Workload::all()[slot.widx];
    let inst = w.instantiate(slot.scale);
    JobRequest::new(
        w.source,
        w.entry,
        inst.args,
        inst.heap,
        ResourceRequest::new(slot.sms, slot.cpus),
    )
    .with_priority(slot.prio)
    .with_subloops(w.subloops)
    .with_salt(slot.salt)
    .with_tenant(slot.tenant)
}

/// The chaos fleet: `devices` uniform devices, each with the same seeded
/// fault template (uniform templates keep the threaded and virtual-clock
/// fleets in lockstep — fault draws depend on `(salt, rung)`, never on
/// which device serves the attempt). `None` when neither knob is set, so
/// the default single-device path is byte-identical to earlier versions.
fn fleet_config(o: &Opts) -> Option<FleetConfig> {
    if o.devices == 1 && o.chaos <= 0.0 {
        return None;
    }
    let template = (o.chaos > 0.0).then(|| {
        FaultPlan::new(
            o.seed ^ 0xC4A0_5C4A_05C4_A05C,
            vec![
                FaultRule::persistent(FaultKind::KernelLaunch).with_probability(o.chaos),
                FaultRule::persistent(FaultKind::TransferH2D).with_probability(o.chaos / 2.0),
            ],
        )
    });
    Some(FleetConfig::uniform(
        o.devices,
        SchedulerConfig::default(),
        16,
        template,
    ))
}

/// Identity of a solo-reference run: which workload, which slice, which
/// scale — plus the salt under chaos, where the fault schedule (a pure
/// function of the salt) decides which ladder rungs the job walks.
type SoloKey = (usize, u32, u32, u64, u64);

fn solo_shape(slot: &MixSlot, chaos: f64) -> SoloKey {
    (
        slot.widx,
        slot.sms,
        slot.cpus,
        slot.scale,
        if chaos > 0.0 { slot.salt } else { 0 },
    )
}

fn trace(mix: &[MixSlot]) -> Vec<(f64, JobRequest)> {
    mix.iter()
        .map(|s| (s.arrival_s, build_request(s)))
        .collect()
}

/// Count the maximum number of simultaneously running jobs in a schedule.
fn peak_concurrency(rep: &japonica_serve::SimBatchReport) -> usize {
    let mut edges: Vec<(f64, i32)> = Vec::new();
    for o in &rep.outcomes {
        if let SimJobOutcome::Completed {
            started_s,
            finished_s,
            ..
        } = o
        {
            edges.push((*started_s, 1));
            edges.push((*finished_s, -1));
        }
    }
    // Ends before starts at equal times: touching intervals don't overlap.
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut cur, mut peak) = (0i32, 0i32);
    for (_, d) in edges {
        cur += d;
        peak = peak.max(cur);
    }
    peak.max(0) as usize
}

/// Exit 2 if any device of a finished run ever handed an unforced lease
/// to a quarantined device — the embargo is part of the contract.
fn check_embargo(
    devices: &[japonica_serve::DeviceHealthStats],
    what: &str,
) -> Result<(), ExitCode> {
    for d in devices {
        if d.embargo_violations > 0 {
            eprintln!(
                "FAIL: {what} dev#{} dispatched {} unforced lease(s) while quarantined",
                d.device, d.embargo_violations
            );
            return Err(ExitCode::from(2));
        }
    }
    Ok(())
}

/// Sum the per-device kernel-cache registries into fleet-wide aggregates.
fn kernel_totals(stats: &ServeStats) -> (u64, u64) {
    stats
        .device_kernels
        .iter()
        .fold((0, 0), |(h, m), d| (h + d.hits, m + d.misses))
}

/// Per-device kernel-cache registry as a flat JSON array value.
fn device_kernels_json(stats: &ServeStats) -> String {
    let items: Vec<String> = stats
        .device_kernels
        .iter()
        .map(|d| {
            format!(
                "{{\"device\": {}, \"programs\": {}, \"hits\": {}, \"misses\": {}}}",
                d.device, d.programs, d.hits, d.misses
            )
        })
        .collect();
    format!("[{}]", items.join(", "))
}

fn main() -> ExitCode {
    let o = parse_opts();
    if o.sessions > 0 {
        return run_sessions(&o);
    }
    if o.open {
        return run_open(&o);
    }
    run_closed(&o)
}

/// One arm of the open-loop benchmark: the full mix paced by the host
/// wall clock through a fresh threaded service, dedup + batching either
/// both off or both on.
struct ArmReport {
    stats: ServeStats,
    wall_s: f64,
    submitted: usize,
    shed: usize,
    /// `(slot, report.total_s bits, report summary)` per completed job —
    /// enough for the solo-reference oracle without retaining heaps.
    completed: Vec<(MixSlot, u64, String)>,
}

fn run_open_arm(o: &Opts, mix: &[MixSlot], fleet: &Option<FleetConfig>, accel: bool) -> ArmReport {
    let serve = Serve::start(ServeConfig {
        queue_capacity: o.queue_cap,
        workers: o.workers,
        fleet: fleet.clone(),
        qos: QosConfig {
            weights: tenant_weights(o.tenants),
        },
        dedup: if accel {
            DedupConfig::enabled()
        } else {
            DedupConfig::default()
        },
        batch: if accel {
            BatchConfig::enabled()
        } else {
            BatchConfig::default()
        },
        ..ServeConfig::default()
    });
    // A collector thread drains handles so arrivals never block on
    // completions — the defining property of an open loop.
    let (tx, rx) = std::sync::mpsc::channel::<(MixSlot, japonica_serve::JobHandle)>();
    let collector = std::thread::spawn(move || {
        let mut done = Vec::new();
        for (slot, h) in rx {
            match h.wait() {
                Ok(r) => done.push((slot, r.report.total_s.to_bits(), r.report.summary())),
                Err(e) => {
                    eprintln!("FAIL: open-loop job failed: {e}");
                    std::process::exit(4)
                }
            }
        }
        done
    });
    let start = Instant::now();
    let mut submitted = 0usize;
    let mut shed = 0usize;
    for slot in mix {
        let now = start.elapsed().as_secs_f64();
        if slot.arrival_s > now {
            std::thread::sleep(Duration::from_secs_f64(slot.arrival_s - now));
        }
        match serve.submit(build_request(slot)) {
            Ok(h) => {
                submitted += 1;
                let _ = tx.send((*slot, h));
            }
            // Open loop: overflow sheds the arrival instead of pacing down.
            Err(Rejected::QueueFull { .. }) => shed += 1,
            Err(e) => {
                eprintln!("FAIL: open-loop submit rejected: {e}");
                std::process::exit(4)
            }
        }
    }
    drop(tx);
    let completed = collector.join().unwrap_or_else(|_| {
        eprintln!("FAIL: open-loop collector thread panicked");
        std::process::exit(4)
    });
    let wall_s = start.elapsed().as_secs_f64();
    let stats = serve.shutdown();
    let arm = if accel { "on" } else { "off" };
    if !stats.accounts_for_every_job() {
        eprintln!(
            "FAIL: open-loop [{arm}] stats lost a job: {}",
            stats.summary()
        );
        std::process::exit(3)
    }
    if check_embargo(&stats.devices, "open-loop").is_err() {
        std::process::exit(2)
    }
    ArmReport {
        stats,
        wall_s,
        submitted,
        shed,
        completed,
    }
}

fn run_open(o: &Opts) -> ExitCode {
    let mix = draw_open_mix(o);
    let fleet = fleet_config(o);
    let weights = tenant_weights(o.tenants);
    println!(
        "loadgen --open: {} jobs at {}/s, {} tenants (weights {:?}), seed {}, \
         queue {}, workers {}, devices {}, chaos {}",
        o.jobs, o.rate, o.tenants, weights, o.seed, o.queue_cap, o.workers, o.devices, o.chaos
    );
    let off = run_open_arm(o, &mix, &fleet, false);
    let on = run_open_arm(o, &mix, &fleet, true);

    // Oracle: every completed job in both arms must be bit-identical to a
    // solo virtual-clock run of the same shape — dedup fan-out and batch
    // reordering are never allowed to change a single result bit.
    let sim_cfg = SimServeConfig {
        queue_capacity: o.queue_cap,
        fleet: fleet.clone(),
        ..SimServeConfig::default()
    };
    let mut solo: BTreeMap<SoloKey, (u64, String)> = BTreeMap::new();
    let mut checked = 0usize;
    for (arm, rep) in [("off", &off), ("on", &on)] {
        for (slot, bits, summary) in &rep.completed {
            let key = solo_shape(slot, o.chaos);
            let (solo_bits, solo_summary) = solo.entry(key).or_insert_with(|| {
                let s = simulate_batch(&sim_cfg, vec![(0.0, build_request(slot))]);
                match &s.outcomes[0] {
                    SimJobOutcome::Completed { report, .. } => {
                        (report.total_s.to_bits(), report.summary())
                    }
                    other => {
                        eprintln!("FAIL: solo reference did not complete: {other:?}");
                        std::process::exit(4)
                    }
                }
            });
            if bits != solo_bits || summary != solo_summary {
                eprintln!(
                    "FAIL: [{arm}] job ({}) diverged from its solo reference\n\
                     arm: total={bits:016x} {summary}\nsolo: total={solo_bits:016x} {solo_summary}",
                    Workload::all()[slot.widx].name
                );
                return ExitCode::from(2);
            }
            checked += 1;
        }
    }
    println!(
        "isolation: {} completed jobs bit-identical to {} solo references",
        checked,
        solo.len()
    );
    // A duplicate-heavy mix must actually exercise the dedup table.
    if o.jobs >= 64 && on.stats.dedup_hits == 0 {
        eprintln!("FAIL: duplicate-heavy mix produced zero dedup hits in the ON arm");
        return ExitCode::from(4);
    }

    let rate_of = |r: &ArmReport| r.completed.len() as f64 / r.wall_s.max(1e-9);
    let (off_rate, on_rate) = (rate_of(&off), rate_of(&on));
    let speedup = on_rate / off_rate.max(1e-9);
    for (arm, rep, rate) in [("off", &off, off_rate), ("on", &on, on_rate)] {
        let (khits, kmiss) = kernel_totals(&rep.stats);
        println!(
            "open[{arm}]: {} completed / {} submitted ({} shed) in {:.3}s = {:.1} jobs/s, \
             p50 {:.6}s, p99 {:.6}s",
            rep.completed.len(),
            rep.submitted,
            rep.shed,
            rep.wall_s,
            rate,
            rep.stats.latency.quantile(0.5),
            rep.stats.latency.quantile(0.99),
        );
        println!(
            "open[{arm}]: executions {}, dedup joins {} ({} hits, {} attempts suppressed), \
             kernel cache {}/{} hit/miss, program cache {}/{} hit/miss ({} evictions)",
            rep.stats.executions,
            rep.stats.dedup_joins,
            rep.stats.dedup_hits,
            rep.stats.dedup_suppressed_attempts,
            khits,
            kmiss,
            rep.stats.program_cache_hits,
            rep.stats.program_cache_misses,
            rep.stats.cache_evictions,
        );
    }
    println!(
        "open: dedup+batching speedup {speedup:.2}x (on {on_rate:.1} / off {off_rate:.1} jobs/s)"
    );

    if let Some(path) = &o.json {
        let mut out = String::from("{\n");
        let mut kv = |k: &str, v: String| {
            let _ = writeln!(out, "  \"{}\": {},", json_escape(k), v);
        };
        kv("schema", "\"open-1\"".into());
        kv("jobs", o.jobs.to_string());
        kv("rate_per_s", json_f64(o.rate));
        kv("seed", o.seed.to_string());
        kv("queue_capacity", o.queue_cap.to_string());
        kv("workers", o.workers.to_string());
        kv("devices", o.devices.to_string());
        kv("chaos", json_f64(o.chaos));
        kv("tenants", o.tenants.to_string());
        kv(
            "tenant_weights",
            format!(
                "[{}]",
                weights
                    .iter()
                    .map(|w| w.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
        kv("isolation_checked", checked.to_string());
        kv("solo_references", solo.len().to_string());
        for (arm, rep, rate) in [("off", &off, off_rate), ("on", &on, on_rate)] {
            let (khits, kmiss) = kernel_totals(&rep.stats);
            let k = |name: &str| format!("{arm}_{name}");
            kv(&k("submitted"), rep.submitted.to_string());
            kv(&k("shed"), rep.shed.to_string());
            kv(&k("completed"), rep.completed.len().to_string());
            kv(&k("wall_s"), json_f64(rep.wall_s));
            kv(&k("jobs_per_s"), json_f64(rate));
            kv(&k("p50_s"), json_f64(rep.stats.latency.quantile(0.5)));
            kv(&k("p99_s"), json_f64(rep.stats.latency.quantile(0.99)));
            kv(&k("executions"), rep.stats.executions.to_string());
            kv(&k("attempts"), rep.stats.attempts.to_string());
            kv(&k("dedup_hits"), rep.stats.dedup_hits.to_string());
            kv(&k("dedup_joins"), rep.stats.dedup_joins.to_string());
            kv(
                &k("dedup_suppressed_attempts"),
                rep.stats.dedup_suppressed_attempts.to_string(),
            );
            kv(&k("kernel_cache_hits"), khits.to_string());
            kv(&k("kernel_cache_misses"), kmiss.to_string());
            kv(
                &k("program_cache_hits"),
                rep.stats.program_cache_hits.to_string(),
            );
            kv(
                &k("program_cache_misses"),
                rep.stats.program_cache_misses.to_string(),
            );
            kv(
                &k("program_cache_evictions"),
                rep.stats.cache_evictions.to_string(),
            );
            kv(&k("device_kernels"), device_kernels_json(&rep.stats));
        }
        let _ = writeln!(out, "  \"speedup\": {}", json_f64(speedup));
        out.push_str("}\n");
        if let Err(e) = std::fs::write(path, &out) {
            eprintln!("FAIL: could not write {path}: {e}");
            return ExitCode::from(4);
        }
        println!("wrote {path}");
    }

    if let Some(gate) = o.gate_speedup {
        if speedup < gate {
            eprintln!(
                "FAIL: dedup+batching speedup {speedup:.2}x below the --gate-speedup {gate}x floor"
            );
            return ExitCode::from(5);
        }
        println!("gate: speedup {speedup:.2}x clears the {gate}x floor");
    }
    println!("loadgen --open: all oracles passed");
    ExitCode::SUCCESS
}

fn run_closed(o: &Opts) -> ExitCode {
    let mix = draw_mix(o);
    let fleet = fleet_config(o);
    let sim_cfg = SimServeConfig {
        queue_capacity: o.queue_cap,
        fleet: fleet.clone(),
        ..SimServeConfig::default()
    };

    // Phase 1: replay determinism — the same trace twice, bit-for-bit.
    println!(
        "loadgen: {} jobs, rate {}/s, seed {}, scale {}, queue {}, devices {}, chaos {}",
        o.jobs, o.rate, o.seed, o.scale, o.queue_cap, o.devices, o.chaos
    );
    let rep = simulate_batch(&sim_cfg, trace(&mix));
    let rep2 = simulate_batch(&sim_cfg, trace(&mix));
    if rep.fingerprint() != rep2.fingerprint() {
        eprintln!("FAIL: two replays of the same trace diverged");
        eprintln!("--- first ---\n{}", rep.fingerprint());
        eprintln!("--- second ---\n{}", rep2.fingerprint());
        return ExitCode::from(2);
    }
    if !rep.stats.accounts_for_every_job() {
        eprintln!("FAIL: simulator stats lost a job: {}", rep.stats.summary());
        return ExitCode::from(3);
    }
    if let Err(code) = check_embargo(&rep.stats.devices, "sim") {
        return code;
    }
    // Chaos never loses an admitted job: the ladder's last rung is the
    // fault-free CPU-only executor, so with the default attempt budget
    // every admitted job must still complete.
    if o.chaos > 0.0 {
        for (i, outcome) in rep.outcomes.iter().enumerate() {
            match outcome {
                SimJobOutcome::Completed { .. } | SimJobOutcome::RejectedFull => {}
                other => {
                    eprintln!("FAIL: chaos lost admitted job {i}: {other:?}");
                    return ExitCode::from(4);
                }
            }
        }
        println!("chaos: {}", rep.stats.fleet_summary());
    }
    let peak = peak_concurrency(&rep);
    println!(
        "sim: {} completed, {} rejected (queue full), peak concurrency {}, \
         makespan {:.6}s, SM occupancy {:.1}%",
        rep.stats.completed,
        rep.stats.rejected_full,
        peak,
        rep.makespan_s,
        rep.stats.sm_occupancy * 100.0
    );
    if o.jobs >= 4 && peak < 2 {
        eprintln!("FAIL: the mix never ran 2 jobs concurrently (peak {peak})");
        return ExitCode::from(4);
    }

    // Phase 2: tenant isolation — every completed job must match a solo
    // run of the same program on an equal-sized slice, bit for bit. One
    // solo run per distinct (workload, slice) shape — plus the salt under
    // chaos, where the fault schedule (a pure function of the salt) decides
    // which ladder rungs the job walks.
    let solo_key = |slot: &MixSlot| solo_shape(slot, o.chaos);
    let mut solo_bits: BTreeMap<SoloKey, (u64, String)> = BTreeMap::new();
    let mut isolation_checked = 0usize;
    for (i, outcome) in rep.outcomes.iter().enumerate() {
        let SimJobOutcome::Completed { report, .. } = outcome else {
            continue;
        };
        let slot = &mix[i];
        let key = solo_key(slot);
        if !solo_bits.contains_key(&key) {
            let solo = simulate_batch(&sim_cfg, vec![(0.0, build_request(slot))]);
            let SimJobOutcome::Completed { report: solo_r, .. } = &solo.outcomes[0] else {
                eprintln!(
                    "FAIL: solo run of {} on {} SMs did not complete: {:?}",
                    Workload::all()[slot.widx].name,
                    slot.sms,
                    solo.outcomes[0]
                );
                return ExitCode::from(4);
            };
            solo_bits.insert(key, (solo_r.total_s.to_bits(), solo_r.summary()));
        }
        let (bits, summary) = &solo_bits[&key];
        if report.total_s.to_bits() != *bits || report.summary() != *summary {
            eprintln!(
                "FAIL: job {i} ({}) diverged from its solo run on an equal slice\n\
                 shared: total={:016x} {}\n  solo: total={bits:016x} {summary}",
                Workload::all()[slot.widx].name,
                report.total_s.to_bits(),
                report.summary()
            );
            return ExitCode::from(2);
        }
        isolation_checked += 1;
    }
    println!(
        "isolation: {} completed jobs bit-identical to {} solo references",
        isolation_checked,
        solo_bits.len()
    );

    // Phase 3: threaded service — same mix through real worker threads for
    // a wall-clock throughput/latency snapshot. Queue sized to the mix so
    // a synchronous submit loop never trips backpressure here.
    let serve = Serve::start(ServeConfig {
        queue_capacity: o.jobs.max(1),
        workers: o.workers,
        fleet: fleet.clone(),
        ..ServeConfig::default()
    });
    let wall_start = std::time::Instant::now();
    let handles: Vec<_> = mix
        .iter()
        .map(|slot| {
            (
                *slot,
                serve.submit(build_request(slot)).unwrap_or_else(|r| {
                    eprintln!("FAIL: threaded admission rejected a sized-to-fit mix: {r}");
                    std::process::exit(4)
                }),
            )
        })
        .collect();
    for (slot, h) in handles {
        match h.wait() {
            Ok(result) => {
                let key = solo_key(&slot);
                let (bits, summary) = &solo_bits.get(&key).cloned().unwrap_or_else(|| {
                    let solo = simulate_batch(&sim_cfg, vec![(0.0, build_request(&slot))]);
                    match &solo.outcomes[0] {
                        SimJobOutcome::Completed { report, .. } => {
                            (report.total_s.to_bits(), report.summary())
                        }
                        other => {
                            eprintln!("FAIL: solo reference did not complete: {other:?}");
                            std::process::exit(4)
                        }
                    }
                });
                if result.report.total_s.to_bits() != *bits || result.report.summary() != *summary {
                    eprintln!(
                        "FAIL: threaded job {} ({}) diverged from its solo reference\n\
                         threaded: total={:016x} {}\n    solo: total={bits:016x} {summary}",
                        result.id,
                        Workload::all()[slot.widx].name,
                        result.report.total_s.to_bits(),
                        result.report.summary()
                    );
                    std::process::exit(2)
                }
            }
            Err(e) => {
                eprintln!("FAIL: threaded job failed: {e}");
                return ExitCode::from(4);
            }
        }
    }
    let wall_s = wall_start.elapsed().as_secs_f64();
    let stats = serve.shutdown();
    if !stats.accounts_for_every_job() {
        eprintln!("FAIL: threaded stats lost a job: {}", stats.summary());
        return ExitCode::from(3);
    }
    if let Err(code) = check_embargo(&stats.devices, "threaded") {
        return code;
    }

    // Phase 4 (chaos only): fleet lockstep. Re-run the virtual clock with
    // the threaded run's admission shape (queue sized to the whole mix) so
    // both fleets process the identical job set, then require the total
    // rung walk and merged fault accounting to agree exactly. Per-job
    // report bits already agree transitively through the solo references.
    if o.chaos > 0.0 {
        let parity_cfg = SimServeConfig {
            queue_capacity: o.jobs.max(1),
            fleet: fleet.clone(),
            ..SimServeConfig::default()
        };
        let parity = simulate_batch(&parity_cfg, trace(&mix));
        if !parity.stats.accounts_for_every_job() {
            eprintln!(
                "FAIL: parity sim stats lost a job: {}",
                parity.stats.summary()
            );
            return ExitCode::from(3);
        }
        let threaded_walk = (
            stats.attempts,
            stats.retried,
            stats.migrated,
            stats.cpu_degraded,
        );
        let sim_walk = (
            parity.stats.attempts,
            parity.stats.retried,
            parity.stats.migrated,
            parity.stats.cpu_degraded,
        );
        if threaded_walk != sim_walk {
            eprintln!(
                "FAIL: threaded and virtual-clock fleets walked different ladders\n\
                 threaded: {}\n     sim: {}",
                stats.fleet_summary(),
                parity.stats.fleet_summary()
            );
            return ExitCode::from(3);
        }
        if stats.faults != parity.stats.faults {
            eprintln!(
                "FAIL: merged fault accounting diverged\nthreaded: {}\n     sim: {}",
                stats.fleet_summary(),
                parity.stats.fleet_summary()
            );
            return ExitCode::from(2);
        }
        println!(
            "lockstep: threaded and virtual-clock fleets agree on \
             {} attempts ({} retried, {} migrated, {} cpu-degraded)",
            stats.attempts, stats.retried, stats.migrated, stats.cpu_degraded
        );
    }

    let throughput = stats.completed as f64 / wall_s.max(1e-9);
    println!("threaded: {}", stats.summary());
    println!(
        "threaded: {} jobs in {:.3}s host wall = {:.1} jobs/s",
        stats.completed, wall_s, throughput
    );

    if let Some(path) = &o.json {
        let mut out = String::from("{\n");
        let mut kv = |k: &str, v: String| {
            let _ = writeln!(out, "  \"{}\": {},", json_escape(k), v);
        };
        kv("schema", "1".into());
        kv("jobs", o.jobs.to_string());
        kv("rate_per_s", json_f64(o.rate));
        kv("seed", o.seed.to_string());
        kv("scale", o.scale.to_string());
        kv("queue_capacity", o.queue_cap.to_string());
        kv("workers", o.workers.to_string());
        kv("devices", o.devices.to_string());
        kv("chaos", json_f64(o.chaos));
        kv("sim_completed", rep.stats.completed.to_string());
        kv("sim_rejected_full", rep.stats.rejected_full.to_string());
        kv("sim_peak_concurrency", peak.to_string());
        kv("sim_makespan_s", json_f64(rep.makespan_s));
        kv("sim_sm_occupancy", json_f64(rep.stats.sm_occupancy));
        kv("sim_p50_s", json_f64(rep.stats.latency.quantile(0.5)));
        kv("sim_p99_s", json_f64(rep.stats.latency.quantile(0.99)));
        kv("isolation_checked", isolation_checked.to_string());
        kv("solo_references", solo_bits.len().to_string());
        kv("threaded_completed", stats.completed.to_string());
        kv("threaded_wall_s", json_f64(wall_s));
        kv("threaded_jobs_per_s", json_f64(throughput));
        kv("threaded_p50_s", json_f64(stats.latency.quantile(0.5)));
        kv("threaded_p99_s", json_f64(stats.latency.quantile(0.99)));
        kv("threaded_max_s", json_f64(stats.latency.max()));
        kv("attempts", stats.attempts.to_string());
        kv("retried", stats.retried.to_string());
        kv("migrated", stats.migrated.to_string());
        kv("cpu_degraded", stats.cpu_degraded.to_string());
        kv("worker_panics", stats.worker_panics.to_string());
        kv("cache_evictions", stats.cache_evictions.to_string());
        kv("gpu_faults", stats.faults.gpu_faults.to_string());
        kv("transfer_faults", stats.faults.transfer_faults.to_string());
        kv(
            "quarantines",
            stats
                .devices
                .iter()
                .map(|d| d.quarantines)
                .sum::<u64>()
                .to_string(),
        );
        kv(
            "suspicions",
            stats
                .devices
                .iter()
                .map(|d| d.suspicions)
                .sum::<u64>()
                .to_string(),
        );
        kv(
            "program_cache_hits",
            (rep.stats.program_cache_hits + stats.program_cache_hits).to_string(),
        );
        kv(
            "program_cache_misses",
            (rep.stats.program_cache_misses + stats.program_cache_misses).to_string(),
        );
        kv("program_cache_evictions", stats.cache_evictions.to_string());
        let (sim_kh, sim_km) = kernel_totals(&rep.stats);
        let (thr_kh, thr_km) = kernel_totals(&stats);
        kv("kernel_cache_hits", (sim_kh + thr_kh).to_string());
        kv("kernel_cache_misses", (sim_km + thr_km).to_string());
        kv("executions", stats.executions.to_string());
        kv("dedup_hits", stats.dedup_hits.to_string());
        kv("dedup_joins", stats.dedup_joins.to_string());
        let _ = writeln!(out, "  \"device_kernels\": {}", device_kernels_json(&stats));
        out.push_str("}\n");
        if let Err(e) = std::fs::write(path, &out) {
            eprintln!("FAIL: could not write {path}: {e}");
            return ExitCode::from(4);
        }
        println!("wrote {path}");
    }
    println!("loadgen: all oracles passed");
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Session lockstep mode (--sessions K --edits P)
// ---------------------------------------------------------------------------

/// One step of a seeded session script (generated up front, replayed
/// identically against both backends).
#[derive(Debug, Clone, PartialEq)]
enum SessionOp {
    Open { k: usize, tenant: u32 },
    Load { k: usize, variant: u32 },
    Run { k: usize, n: usize },
    Close { k: usize },
}

/// A two-stage program family: `warm` never changes across variants, so
/// every edit's LOAD must transplant it (`reused >= 1`); `stage` carries
/// the variant constant, so every edit recompiles exactly one kernel.
fn session_source(variant: u32) -> String {
    format!(
        "static void warm(double[] a, int n) {{\n\
         \x20   /* acc parallel */\n\
         \x20   for (int i = 0; i < n; i++) {{ a[i] = a[i] + 1.0; }}\n\
         }}\n\
         static void stage(double[] a, int n) {{\n\
         \x20   /* acc parallel */\n\
         \x20   for (int i = 0; i < n; i++) {{ a[i] = a[i] * {}.0 + 0.5; }}\n\
         }}",
        2 + variant
    )
}

/// Seeded interleaved scripts for `K` sessions: each session opens, loads
/// variant 0 and runs; every later step edits its program with
/// probability `edits` (forcing an incremental reload) and runs again;
/// even-numbered sessions close at the end, the rest are left resident
/// for shutdown drain. Returns the ops and the number of edit reloads.
fn session_script(
    k_sessions: usize,
    steps: usize,
    edits: f64,
    seed: u64,
) -> (Vec<SessionOp>, usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e55_1011);
    let mut ops = Vec::new();
    let mut variants = vec![0u32; k_sessions];
    let mut edited = 0usize;
    for k in 0..k_sessions {
        ops.push(SessionOp::Open {
            k,
            tenant: (k % 3) as u32,
        });
        ops.push(SessionOp::Load { k, variant: 0 });
        ops.push(SessionOp::Run { k, n: 64 });
    }
    for _ in 1..steps {
        for k in 0..k_sessions {
            let u: f64 = rng.gen();
            if u < edits {
                variants[k] += 1;
                edited += 1;
                ops.push(SessionOp::Load {
                    k,
                    variant: variants[k],
                });
            }
            let n = [64usize, 128, 192][rng.gen_range(0..3usize)];
            ops.push(SessionOp::Run { k, n });
        }
    }
    for k in (0..k_sessions).step_by(2) {
        ops.push(SessionOp::Close { k });
    }
    (ops, edited)
}

/// Replay `ops` against one backend, fingerprinting every observable:
/// each LOAD's reuse/recompile/invalidate split and each RUN's result
/// bits. Returns the fingerprint and the final session counters.
fn run_session_arm(
    mgr: &japonica_session::SessionManager,
    ops: &[SessionOp],
) -> Result<(String, japonica_session::SessionStats), String> {
    use japonica_session::RunInput;
    let mut fp = String::new();
    let mut sids: BTreeMap<usize, u64> = BTreeMap::new();
    let mut now = 0.0f64;
    for op in ops {
        now += 1.0;
        match op {
            SessionOp::Open { k, tenant } => {
                let sid = mgr.open(*tenant, now);
                sids.insert(*k, sid);
                let _ = writeln!(fp, "O k={k} sid={sid}");
            }
            SessionOp::Load { k, variant } => {
                let sid = sids[k];
                let r = mgr
                    .load(sid, &session_source(*variant), now)
                    .map_err(|e| format!("LOAD k={k} v={variant}: {e}"))?;
                let _ = writeln!(
                    fp,
                    "L k={k} phash={:016x} resident={} reused={} recompiled={} invalidated={}",
                    r.phash, r.resident, r.reused, r.recompiled, r.invalidated
                );
            }
            SessionOp::Run { k, n } => {
                let sid = sids[k];
                let o = mgr
                    .run(sid, "stage", RunInput::Fresh(*n), now)
                    .map_err(|e| format!("RUN k={k} n={n}: {e}"))?;
                let _ = writeln!(
                    fp,
                    "R k={k} total={:016x} sum={:016x} len={}",
                    o.total_bits,
                    o.sum_bits,
                    o.out.len()
                );
            }
            SessionOp::Close { k } => {
                let sid = sids[k];
                mgr.close(sid, now)
                    .map_err(|e| format!("CLOSE k={k}: {e}"))?;
                let _ = writeln!(fp, "C k={k}");
            }
        }
        let stats = mgr.stats();
        if !stats.identities_hold() {
            return Err(format!(
                "accounting identity broken after {op:?}: {stats:?}"
            ));
        }
    }
    Ok((fp, mgr.stats()))
}

/// `--sessions K`: the same seeded session scripts replayed through the
/// threaded service and the virtual-clock backend must agree on every
/// observable byte. Exit 2 on divergence, 3 on accounting/lease failure,
/// 4 when an arm fails to run.
fn run_sessions(o: &Opts) -> ExitCode {
    use japonica_session::{SessionConfig, SessionManager};
    let k = o.sessions;
    let steps = (o.jobs / k).max(2);
    let (ops, edited) = session_script(k, steps, o.edits, o.seed);
    println!(
        "session lockstep: {k} sessions x {steps} steps, {} ops, {edited} edit reloads (p={})",
        ops.len(),
        o.edits
    );
    let scfg = SessionConfig::default();

    let virt = SessionManager::virtual_clock(SimServeConfig::default(), scfg.clone());
    let (virt_fp, virt_stats) = match run_session_arm(&virt, &ops) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL: virtual arm: {e}");
            return ExitCode::from(if e.contains("identity") { 3 } else { 4 });
        }
    };
    let (virt_final, _) = virt.shutdown();

    let serve = Serve::start(ServeConfig {
        workers: o.workers,
        ..ServeConfig::default()
    });
    let thr = SessionManager::threaded(serve, scfg);
    let (thr_fp, thr_stats) = match run_session_arm(&thr, &ops) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL: threaded arm: {e}");
            return ExitCode::from(if e.contains("identity") { 3 } else { 4 });
        }
    };
    let pool_ok = thr
        .with_serve(|s| {
            let snap = s.pool_snapshots()[0];
            snap.free_sms == snap.sm_count && snap.free_cpu_slots == snap.cpu_slots
        })
        .unwrap_or(false);
    let (thr_final, thr_serve) = thr.shutdown();

    if virt_fp != thr_fp {
        let diverged = virt_fp
            .lines()
            .zip(thr_fp.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        eprintln!("FAIL: threaded/virtual session transcripts diverged at op {diverged}");
        for (a, b) in virt_fp.lines().zip(thr_fp.lines()).skip(diverged).take(3) {
            eprintln!("  virtual:  {a}\n  threaded: {b}");
        }
        return ExitCode::from(2);
    }
    println!(
        "lockstep OK: {} fingerprint lines byte-identical across backends",
        virt_fp.lines().count()
    );
    if virt_stats != thr_stats {
        eprintln!(
            "FAIL: session counters diverged\n  virtual:  {virt_stats:?}\n  threaded: {thr_stats:?}"
        );
        return ExitCode::from(2);
    }
    if !pool_ok {
        eprintln!("FAIL: threaded arm left device leases allocated");
        return ExitCode::from(3);
    }
    let ss = thr_serve.expect("threaded backend reports serve stats");
    if !ss.accounts_for_every_job() || ss.in_flight != 0 {
        eprintln!("FAIL: serve accounting identity broken: {ss:?}");
        return ExitCode::from(3);
    }
    if !virt_final.identities_hold() || !thr_final.identities_hold() {
        eprintln!("FAIL: session accounting identity broken at shutdown");
        return ExitCode::from(3);
    }
    if edited > 0 && thr_stats.reused_kernels == 0 {
        eprintln!("FAIL: {edited} edit reloads but no kernel was ever reused: {thr_stats:?}");
        return ExitCode::from(2);
    }
    println!(
        "sessions: loads={} runs={} resident={} reused={} recompiled={} invalidations={}",
        thr_stats.loads,
        thr_stats.runs,
        thr_stats.resident_kernels,
        thr_stats.reused_kernels,
        thr_stats.recompiled_kernels,
        thr_stats.invalidations
    );
    if let Some(path) = &o.json {
        let mut out = String::from("{\n");
        let mut kv = |k: &str, v: String| {
            let _ = writeln!(out, "  \"{}\": {},", json_escape(k), v);
        };
        kv("mode", "\"sessions\"".to_string());
        kv("sessions", k.to_string());
        kv("steps", steps.to_string());
        kv("edits_p", json_f64(o.edits));
        kv("edit_reloads", edited.to_string());
        kv("ops", ops.len().to_string());
        kv("loads", thr_stats.loads.to_string());
        kv("runs", thr_stats.runs.to_string());
        kv("resident_kernels", thr_stats.resident_kernels.to_string());
        kv("reused_kernels", thr_stats.reused_kernels.to_string());
        kv(
            "recompiled_kernels",
            thr_stats.recompiled_kernels.to_string(),
        );
        kv("invalidations", thr_stats.invalidations.to_string());
        kv("opened", thr_stats.opened.to_string());
        kv("closed", thr_stats.closed.to_string());
        out.push_str("  \"lockstep\": true\n}\n");
        if let Err(e) = std::fs::write(path, &out) {
            eprintln!("FAIL: could not write {path}: {e}");
            return ExitCode::from(4);
        }
        println!("wrote {path}");
    }
    println!("loadgen: all session oracles passed");
    ExitCode::SUCCESS
}
