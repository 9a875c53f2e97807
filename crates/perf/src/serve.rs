//! `serve_closed` and `serve_open_dup`: the threaded `Serve` under a true
//! closed loop (every job executes) and under a fixed-rate, duplicate-
//! heavy open loop (most jobs coalesce). Every served job is checked
//! against the Rust reference and, bit for bit, against a solo
//! virtual-clock run of the same shape.

use crate::harness::{report_fingerprint, shuffle, timed_setup, Budget, Ledger, Measured};
use crate::inputs::{SetupCost, Shape};
use crate::pacer::{exponential_schedule, pace, Clock, HostClock};
use crate::stats::{median, Latency, Summary};
use crate::sys;
use crate::trace::Tracer;
use japonica::faults::{FaultKind, FaultPlan, FaultRule};
use japonica::gpusim::DevicePartition;
use japonica::scheduler::SchedulerConfig;
use japonica::{Runtime, RuntimeConfig};
use japonica_serve::{
    simulate_batch, BatchConfig, DedupConfig, FleetConfig, JobRequest, ProgramCache, QosConfig,
    ResourceRequest, Serve, ServeConfig, ServeStats, SimJobOutcome, SimServeConfig,
};
use japonica_workloads::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Every job leases half the device, so two workers never wait on a lease.
const SLICE: (u32, u32) = (7, 8);
/// Jobs per closed-loop block: each app twice, once per input seed.
const BLOCK: usize = 22;
/// Open loop: the reference arrival rate, half of what this mix sustains
/// on the 2-CPU host it was calibrated on (the README has the ladder's
/// readings); `perf run --workload serve_open_dup --trace 1` measures that
/// capacity again as `serve.max_ok_rate_per_s`.
pub const OPEN_RATE_PER_S: f64 = 50.0;
/// The traced run's other rates, as multiples of the reference: half, then
/// upwards in steps of a half until the service stops keeping up.
const RATE_LADDER: [f64; 5] = [0.5, 1.5, 2.0, 2.5, 3.0];
/// Open loop: latency limit on p95, from the due time.
pub const SLO_S: f64 = 1.0;
const DUP_SHARE: f64 = 0.7;
const HOT_SHAPES: usize = 8;
const TENANT_WEIGHTS: [u32; 3] = [8, 4, 2];

fn request(shape: &Shape, tenant: u32) -> JobRequest {
    JobRequest::new(
        shape.w.source,
        shape.w.entry,
        shape.inst.args.clone(),
        shape.inst.heap.clone(),
        ResourceRequest::new(SLICE.0, SLICE.1),
    )
    .with_subloops(shape.w.subloops)
    .with_tenant(tenant)
}

/// The simulated outcome a shape must have whoever serves it: a solo
/// virtual-clock run on an equal slice.
fn solo_fingerprint(shape: &Shape) -> Result<u64, String> {
    let rep = simulate_batch(&SimServeConfig::default(), vec![(0.0, request(shape, 0))]);
    match rep.outcomes.into_iter().next() {
        Some(SimJobOutcome::Completed { report, .. }) => Ok(report_fingerprint(&report)),
        other => Err(format!(
            "{} solo run did not complete: {other:?}",
            shape.w.name
        )),
    }
}

/// Solo fingerprints of `shapes`, computed on two threads after the timed
/// window (verification is never inside a measurement).
fn solo_fingerprints(shapes: &[&Shape]) -> Vec<Result<u64, String>> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Result<u64, String>>>> = Mutex::new(vec![None; shapes.len()]);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(shape) = shapes.get(i) else { break };
                let fp = solo_fingerprint(shape);
                out.lock().expect("solo workers do not panic")[i] = Some(fp);
            });
        }
    });
    out.into_inner()
        .expect("solo workers do not panic")
        .into_iter()
        .map(|r| r.expect("every index was claimed by a worker"))
        .collect()
}

/// What the harness keeps of one served job.
#[derive(Debug, Clone, Copy)]
struct JobRecord {
    shape: usize,
    /// Host seconds of the `Serve::submit` call.
    submit_s: f64,
    /// Host seconds the user waited (open loop: from the due time).
    latency_s: f64,
    queued_s: f64,
    service_s: f64,
    /// Completion, in seconds since the loop started.
    done_s: f64,
    fingerprint: u64,
}

fn serve_config(open: bool) -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: if open { 256 } else { 64 },
        qos: QosConfig {
            weights: if open {
                TENANT_WEIGHTS.to_vec()
            } else {
                Vec::new()
            },
        },
        dedup: if open {
            DedupConfig::enabled()
        } else {
            DedupConfig::default()
        },
        batch: if open {
            BatchConfig::enabled()
        } else {
            BatchConfig::default()
        },
        ..ServeConfig::default()
    }
}

// ---------------------------------------------------------------- closed

struct ClosedState {
    /// 11 apps x 2 input seeds.
    shapes: Vec<Shape>,
    serve: Serve,
    cost: SetupCost,
}

fn closed_setup(seed: u64) -> ClosedState {
    let mut cost = SetupCost::default();
    let shapes = (0..2u64)
        .flat_map(|k| Workload::all().iter().map(move |w| (w, k)))
        .map(|(w, k)| Shape::new(w, seed.wrapping_add(k * 0x9e37), &mut cost))
        .collect();
    ClosedState {
        shapes,
        serve: Serve::start(serve_config(false)),
        cost,
    }
}

/// Two clients, each submit → wait → next, over balanced blocks: as many
/// as `budget` allows and at most `max_blocks`.
fn closed_loop(
    serve: &Serve,
    shapes: &[Shape],
    rng: &mut StdRng,
    budget: Budget,
    max_blocks: usize,
    tracer: &Tracer,
    ledger: &mut Ledger,
) -> ClosedRun {
    // Each block is a fresh permutation.
    let order: Vec<usize> = (0..max_blocks)
        .flat_map(|_| {
            let mut block: Vec<usize> = (0..BLOCK).collect();
            shuffle(rng, &mut block);
            block
        })
        .collect();
    let next = AtomicUsize::new(0);
    let limit = AtomicUsize::new(order.len());
    let started = Instant::now();
    let records: Mutex<Vec<(usize, JobRecord)>> = Mutex::new(Vec::new());
    let failures: Mutex<Ledger> = Mutex::new(Ledger::default());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let j = next.fetch_add(1, Ordering::SeqCst);
                if j >= limit.load(Ordering::SeqCst) {
                    break;
                }
                if j.is_multiple_of(BLOCK) && !budget.another_pass(started, j / BLOCK) {
                    limit.fetch_min(j, Ordering::SeqCst);
                    break;
                }
                let shape = &shapes[order[j]];
                let req = request(shape, 0);
                let outcome = tracer.span("job", None, j as u64, |job| {
                    let t0 = Instant::now();
                    let handle = tracer.span("serve.submit", job, j as u64, |_| serve.submit(req));
                    let submit_s = t0.elapsed().as_secs_f64();
                    let handle = handle.map_err(|e| format!("closed-loop submit rejected: {e}"))?;
                    let result = tracer
                        .span("serve.wait", job, j as u64, |wait| {
                            let r = handle.wait();
                            if let Ok(r) = &r {
                                tracer.record("serve.queue_wait", wait, j as u64, t0, r.queued_s);
                            }
                            r
                        })
                        .map_err(|e| format!("{} job failed: {e}", shape.w.name))?;
                    let latency_s = t0.elapsed().as_secs_f64();
                    let done_s = started.elapsed().as_secs_f64();
                    tracer.span("verify", job, j as u64, |_| shape.check(&result.heap))?;
                    Ok::<JobRecord, String>(JobRecord {
                        shape: order[j],
                        submit_s,
                        latency_s,
                        queued_s: result.queued_s,
                        service_s: result.latency_s - result.queued_s,
                        done_s,
                        fingerprint: report_fingerprint(&result.report),
                    })
                });
                match outcome {
                    Ok(rec) => records.lock().expect("clients do not panic").push((j, rec)),
                    Err(e) => failures.lock().expect("clients do not panic").fail(e),
                }
            });
        }
    });
    ledger.absorb(failures.into_inner().expect("clients do not panic"));
    let mut records = records.into_inner().expect("clients do not panic");
    records.sort_by_key(|(j, _)| *j);
    // Reference outputs were checked in the clients; the simulated bits are
    // checked against the solo runs by the caller.
    ledger.attempted += records.len() as u64;
    // A client may have claimed a job of the block after the last whole one
    // just before the other closed the limit; it was served and checked,
    // but only whole blocks are measured.
    let whole = limit
        .load(Ordering::SeqCst)
        .min(next.load(Ordering::SeqCst))
        / BLOCK
        * BLOCK;
    let mut done: Vec<f64> = records
        .iter()
        .filter(|(j, _)| *j < whole)
        .map(|(_, r)| r.done_s)
        .collect();
    done.sort_by(|a, b| a.total_cmp(b));
    ClosedRun {
        block_ends: done.chunks_exact(BLOCK).map(|c| c[BLOCK - 1]).collect(),
        records,
        whole,
    }
}

/// Every served job by job number, how many of them form whole blocks, and
/// the host second each whole block's last job completed at.
struct ClosedRun {
    records: Vec<(usize, JobRecord)>,
    whole: usize,
    block_ends: Vec<f64>,
}

impl ClosedRun {
    fn measured(&self) -> impl Iterator<Item = &JobRecord> {
        self.records
            .iter()
            .filter(|(j, _)| *j < self.whole)
            .map(|(_, r)| r)
    }

    fn all(&self) -> impl Iterator<Item = JobRecord> + '_ {
        self.records.iter().map(|(_, r)| *r)
    }

    fn block_walls(&self) -> Vec<f64> {
        let mut prev = 0.0;
        self.block_ends
            .iter()
            .map(|e| {
                let w = e - prev;
                prev = *e;
                w
            })
            .collect()
    }
}

fn check_fingerprints(records: &[JobRecord], solo: &[Result<u64, String>], ledger: &mut Ledger) {
    for r in records {
        match &solo[r.shape] {
            Ok(fp) if *fp == r.fingerprint => {}
            Ok(_) => {
                ledger.failed += 1;
                ledger.reasons.push(format!(
                    "shape {}: served bits differ from the solo run",
                    r.shape
                ));
            }
            Err(e) => {
                ledger.failed += 1;
                ledger.reasons.push(e.clone());
            }
        }
    }
    ledger.reasons.truncate(8);
}

pub fn run_closed(seed: u64, budget: Budget, traced: bool) -> (Measured, Summary, Tracer) {
    let (state, setup_s) = timed_setup(budget, || closed_setup(seed));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00c1_05ed);
    let mut m = Measured {
        instantiate_s: state.cost.instantiate_s,
        reference_s: state.cost.reference_s,
        ..Measured::default()
    };
    let mut ledger = Ledger::default();
    if budget.warmup() {
        closed_loop(
            &state.serve,
            &state.shapes,
            &mut rng,
            budget,
            1,
            &Tracer::off(),
            &mut ledger,
        );
    }
    // Far more blocks than any budget reaches.
    const NO_LIMIT: usize = 2048;
    let plain = if traced { budget.share(0.4) } else { budget };
    let run = closed_loop(
        &state.serve,
        &state.shapes,
        &mut rng,
        plain,
        NO_LIMIT,
        &Tracer::off(),
        &mut ledger,
    );
    m.pass_walls = run.block_walls();
    m.latencies = run.measured().map(|r| r.latency_s).collect();
    if let Some(window_s) = run.block_ends.last() {
        m.extra.insert(
            "jobs_per_s",
            Summary::single(m.latencies.len() as f64 / window_s),
        );
    }

    let tracer = if traced { Tracer::on() } else { Tracer::off() };
    let mut all_records: Vec<JobRecord> = run.all().collect();
    if traced {
        let spanned = closed_loop(
            &state.serve,
            &state.shapes,
            &mut rng,
            budget.share(0.25),
            NO_LIMIT,
            &tracer,
            &mut ledger,
        );
        m.layer.insert(
            "trace_overhead_ratio".into(),
            median(&spanned.block_walls()) / median(&m.pass_walls),
        );
        let measured: Vec<JobRecord> = run.measured().copied().collect();
        service_layer(&mut m, &measured, &state.serve.stats());
        all_records.extend(spanned.all());
        closed_extras(&mut m, &state, budget.quick, &tracer, &mut ledger);
    }
    let shapes: Vec<&Shape> = state.shapes.iter().collect();
    check_fingerprints(&all_records, &solo_fingerprints(&shapes), &mut ledger);
    let stats = state.serve.shutdown();
    if !stats.accounts_for_every_job() {
        ledger.fail(format!(
            "serve accounting identity broken: {}",
            stats.summary()
        ));
    }
    m.ledger = ledger;
    (m, setup_s, tracer)
}

/// `serve.*` numbers every traced serve run has, from the job records and
/// the service's own counters.
fn service_layer(m: &mut Measured, records: &[JobRecord], stats: &ServeStats) {
    let of = |f: fn(&JobRecord) -> f64| records.iter().map(f).collect::<Vec<f64>>();
    if records.is_empty() {
        return;
    }
    let queue = Latency::of(&of(|r| r.queued_s));
    m.layer
        .insert("serve.submit_s".into(), median(&of(|r| r.submit_s)));
    m.layer.insert("serve.queue_wait_p50_s".into(), queue.p50);
    m.layer.insert("serve.queue_wait_p95_s".into(), queue.p95);
    m.layer
        .insert("serve.service_p50_s".into(), median(&of(|r| r.service_s)));
    let ratio = |hit: u64, miss: u64| hit as f64 / (hit + miss).max(1) as f64;
    m.layer.insert(
        "serve.program_cache_hit_ratio".into(),
        ratio(stats.program_cache_hits, stats.program_cache_misses),
    );
    let (kh, km) = stats
        .device_kernels
        .iter()
        .fold((0, 0), |(h, m), d| (h + d.hits, m + d.misses));
    m.layer
        .insert("serve.kernel_cache_hit_ratio".into(), ratio(kh, km));
    m.layer
        .insert("serve.executions".into(), stats.executions as f64);
    m.layer
        .insert("serve.sm_occupancy".into(), stats.sm_occupancy);
}

/// Traced-run extras of `serve_closed`: dispatch overhead against solo
/// runs, the program cache timed directly, the virtual-clock driver's own
/// cost, and a small chaos batch that keeps the failover ladder visible.
fn closed_extras(
    m: &mut Measured,
    state: &ClosedState,
    quick: bool,
    tracer: &Tracer,
    ledger: &mut Ledger,
) {
    // The same shapes through `Runtime::run` alone, on an equal slice.
    let solo_walls: Vec<f64> = state
        .shapes
        .iter()
        .map(|shape| {
            let compiled = shape.w.compile();
            let mut sched = SchedulerConfig::default().with_partition(
                DevicePartition {
                    sm_base: 0,
                    sm_count: SLICE.0,
                },
                SLICE.1,
            );
            sched.subloops_per_task = shape.w.subloops;
            let rt = Runtime::new(RuntimeConfig {
                sched,
                ..RuntimeConfig::default()
            });
            let mut heap = shape.inst.heap.clone();
            let t0 = Instant::now();
            let r = tracer.span("core.run", None, 0, |_| {
                rt.run(&compiled, shape.w.entry, &shape.inst.args, &mut heap)
            });
            let wall = t0.elapsed().as_secs_f64();
            ledger.check(
                r.map_err(|e| e.to_string())
                    .and_then(|_| shape.check(&heap)),
            );
            wall
        })
        .collect();
    if let Some(service) = m.layer.get("serve.service_p50_s").copied() {
        m.layer
            .insert("serve.solo_ratio".into(), service / median(&solo_walls));
    }

    let cache = ProgramCache::new();
    let mut time_all = |name: &'static str| {
        let walls: Vec<f64> = Workload::all()
            .iter()
            .map(|w| {
                let t0 = Instant::now();
                let r = tracer.span(name, None, 0, |_| cache.get_or_compile(w.source));
                let wall = t0.elapsed().as_secs_f64();
                ledger.check(r.map(|_| ()).map_err(|e| e.to_string()));
                wall
            })
            .collect();
        median(&walls)
    };
    let miss = time_all("serve.program_cache.miss");
    let hit = time_all("serve.program_cache.hit");
    m.layer.insert("serve.program_cache_miss_s".into(), miss);
    m.layer.insert("serve.program_cache_hit_s".into(), hit);

    let trace: Vec<(f64, JobRequest)> = state.shapes.iter().map(|s| (0.0, request(s, 0))).collect();
    let t0 = Instant::now();
    let rep = tracer.span("serve.simulate_batch", None, 0, |_| {
        simulate_batch(&SimServeConfig::default(), trace)
    });
    let wall = t0.elapsed().as_secs_f64();
    ledger.check(if rep.stats.completed as usize == BLOCK {
        Ok(())
    } else {
        Err(format!(
            "simulate_batch completed {} of {BLOCK} jobs",
            rep.stats.completed
        ))
    });
    m.layer
        .insert("serve.sim_jobs_per_host_s".into(), BLOCK as f64 / wall);

    chaos_batch(m, state, if quick { 12 } else { 48 }, tracer, ledger);
}

/// 48 jobs (12 in the smoke run) through a 3-device fleet whose devices
/// fault kernel launches with probability 0.2 (transfers 0.1): every job
/// must still complete.
fn chaos_batch(
    m: &mut Measured,
    state: &ClosedState,
    jobs: usize,
    tracer: &Tracer,
    ledger: &mut Ledger,
) {
    let template = FaultPlan::new(
        0xC4A0_5C4A_05C4_A05C,
        vec![
            FaultRule::persistent(FaultKind::KernelLaunch).with_probability(0.2),
            FaultRule::persistent(FaultKind::TransferH2D).with_probability(0.1),
        ],
    );
    let serve = Serve::start(ServeConfig {
        workers: 2,
        fleet: Some(FleetConfig::uniform(
            3,
            SchedulerConfig::default(),
            16,
            Some(template),
        )),
        ..ServeConfig::default()
    });
    let t0 = Instant::now();
    tracer.span("faults.chaos_batch", None, 0, |_| {
        let handles: Vec<_> = (0..jobs)
            .map(|j| {
                let shape = &state.shapes[j % state.shapes.len()];
                (
                    shape,
                    serve.submit(request(shape, 0).with_salt(j as u64 * 0x9e37_79b9)),
                )
            })
            .collect();
        for (shape, h) in handles {
            ledger.check(match h {
                Ok(h) => h
                    .wait()
                    .map_err(|e| format!("chaos lost a job: {e}"))
                    .and_then(|r| shape.check(&r.heap)),
                Err(e) => Err(format!("chaos batch submit rejected: {e}")),
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let stats = serve.shutdown();
    let done = stats.completed.max(1) as f64;
    m.layer.insert(
        "faults.chaos_jobs_per_s".into(),
        stats.completed as f64 / wall,
    );
    m.layer.insert(
        "faults.ladder_attempts_per_job".into(),
        stats.attempts as f64 / done,
    );
    m.layer.insert(
        "faults.cpu_degraded_ratio".into(),
        stats.cpu_degraded as f64 / done,
    );
}

// ------------------------------------------------------------------ open

struct Arrival {
    /// Index into `OpenState::shapes`.
    shape: usize,
    tenant: u32,
}

struct OpenState {
    /// The hot shapes first, then one shape per unique arrival.
    shapes: Vec<Shape>,
    arrivals: Vec<Arrival>,
    /// Due times at the reference rate.
    due: Vec<f64>,
    /// Arrivals per block.
    block: usize,
    /// Makes every block's order and schedule; not seeded by the run.
    rng: StdRng,
    serve: Serve,
    cost: SetupCost,
}

impl OpenState {
    /// Append one block of arrivals and its schedule. A block is the same
    /// for every seed: exactly `DUP_SHARE` of its arrivals spread evenly
    /// over the hot shapes, the rest unique inputs spread evenly over the
    /// 11 apps, tenants in equal shares, in one fixed pseudo-random order
    /// on one fixed exponential schedule. The seed makes the input data. At
    /// half of capacity a queue's latencies depend on which long jobs
    /// happen to meet, and a seeded order moved p95 between 0.16 s and
    /// 0.42 s from seed to seed; with the order fixed, seeds differ as much
    /// as two runs of one seed do.
    fn add_block(&mut self, seed: u64) {
        let apps = Workload::all();
        let unique = (self.block as f64 * (1.0 - DUP_SHARE)).round() as usize;
        let first = self.arrivals.len();
        let mut block: Vec<Arrival> = (0..self.block)
            .map(|i| {
                let shape = if i < unique {
                    let w = &apps[i % apps.len()];
                    self.shapes.push(Shape::new(
                        w,
                        seed.wrapping_add(0x1_0000 + (first + i) as u64),
                        &mut self.cost,
                    ));
                    self.shapes.len() - 1
                } else {
                    i % HOT_SHAPES
                };
                Arrival { shape, tenant: 0 }
            })
            .collect();
        shuffle(&mut self.rng, &mut block);
        for (i, a) in block.iter_mut().enumerate() {
            a.tenant = (i % TENANT_WEIGHTS.len()) as u32;
        }
        self.arrivals.extend(block);
        let offset = self.due.last().copied().unwrap_or(0.0);
        let schedule = exponential_schedule(&mut self.rng, OPEN_RATE_PER_S, self.block);
        self.due.extend(schedule.iter().map(|d| offset + d));
    }
}

/// Blocks in the reference run; the rate ladder's rungs are whole blocks
/// too, so half the rate is as long a run as the reference rate.
const REFERENCE_BLOCKS: usize = 2;

/// The hot shapes, the reference run's arrivals in blocks of `block`, and a
/// started service.
fn open_setup(seed: u64, block: usize) -> OpenState {
    let mut cost = SetupCost::default();
    let apps = Workload::all();
    let shapes = (0..HOT_SHAPES)
        .map(|h| Shape::new(&apps[h], seed.wrapping_add(h as u64 * 0x51ed), &mut cost))
        .collect();
    let mut state = OpenState {
        shapes,
        arrivals: Vec::new(),
        due: Vec::new(),
        block,
        rng: StdRng::seed_from_u64(0x0be1_100b),
        serve: Serve::start(serve_config(true)),
        cost,
    };
    for _ in 0..REFERENCE_BLOCKS {
        state.add_block(seed);
    }
    state
}

struct OpenRun {
    arrivals: usize,
    records: Vec<JobRecord>,
    lags: Vec<f64>,
    shed: u64,
    /// First due time to last completion.
    wall_s: f64,
    late: u64,
    /// Admitted jobs still in the system when the last arrival was due.
    pending_at_end: usize,
    cpu_s: f64,
}

/// One paced run of the first `n` arrivals at `rate_mult` times the
/// reference rate. Requests are built before pacing starts. Each admitted
/// job gets a thread of the harness that blocks on its handle and stamps
/// the completion on the harness's clock the moment it wakes; latency runs
/// from the arrival's due time to that stamp. The same thread then checks
/// the result, so a check never delays a stamp or the pacer.
fn open_loop(
    serve: &Serve,
    state: &OpenState,
    n: usize,
    rate_mult: f64,
    tracer: &Tracer,
    ledger: &mut Ledger,
) -> OpenRun {
    let mut requests: Vec<Option<JobRequest>> = state.arrivals[..n]
        .iter()
        .map(|a| Some(request(&state.shapes[a.shape], a.tenant)))
        .collect();
    let due: Vec<f64> = state.due[..n].iter().map(|d| d / rate_mult).collect();
    let last_due = due[n - 1];
    // Open loop: a full queue sheds the arrival, it does not slow the
    // schedule. Any rejection is a failed arrival.
    let mut rejected = 0u64;
    let in_system = AtomicUsize::new(0);
    let mut pending_at_end = 0;
    let done: Mutex<Vec<Result<JobRecord, String>>> = Mutex::new(Vec::new());
    let cpu0 = sys::cpu_seconds();
    let clock = HostClock::start();
    let lags = std::thread::scope(|s| {
        let (clock, due, done, in_system) = (&clock, &due, &done, &in_system);
        pace(clock, due, |i| {
            let req = requests[i].take().expect("each arrival is sent once");
            let arrival = &state.arrivals[i];
            tracer.span("job", None, i as u64, |job| {
                let sent_s = clock.now();
                let handle = tracer.span("serve.submit", job, i as u64, |_| serve.submit(req));
                let submit_s = clock.now() - sent_s;
                let Ok(handle) = handle else {
                    rejected += 1;
                    return;
                };
                in_system.fetch_add(1, Ordering::SeqCst);
                s.spawn(move || {
                    let result = handle.wait();
                    let done_s = clock.now();
                    in_system.fetch_sub(1, Ordering::SeqCst);
                    let shape = &state.shapes[arrival.shape];
                    let rec = result.map_err(|e| e.to_string()).and_then(|r| {
                        let (sent, unit) = (clock.instant_at(sent_s), i as u64);
                        tracer.record("serve.wait", job, unit, sent, done_s - sent_s);
                        tracer.record("serve.queue_wait", job, unit, sent, r.queued_s);
                        tracer.span("verify", job, unit, |_| shape.check(&r.heap))?;
                        Ok(JobRecord {
                            shape: arrival.shape,
                            submit_s,
                            latency_s: done_s - due[i],
                            queued_s: r.queued_s,
                            service_s: r.latency_s - r.queued_s,
                            done_s: done_s - due[0],
                            fingerprint: report_fingerprint(&r.report),
                        })
                    });
                    done.lock()
                        .expect("waiters do not panic")
                        .push(rec.map_err(|e| format!("{} job failed: {e}", shape.w.name)));
                });
            });
            if i + 1 == n {
                pending_at_end = in_system.load(Ordering::SeqCst);
            }
        })
    });
    let mut run = OpenRun {
        arrivals: n,
        records: Vec::new(),
        lags,
        shed: rejected,
        wall_s: last_due - due[0],
        late: 0,
        pending_at_end,
        cpu_s: sys::cpu_seconds() - cpu0,
    };
    for rec in done.into_inner().expect("waiters do not panic") {
        match rec {
            Ok(r) => {
                if r.latency_s > SLO_S {
                    run.late += 1;
                }
                run.wall_s = run.wall_s.max(r.done_s);
                run.records.push(r);
                ledger.ok();
            }
            Err(e) => ledger.fail(e),
        }
    }
    run
}

impl OpenRun {
    /// At a rate the service is meant to sustain, a shed arrival is a
    /// failed one.
    fn charge_shed(&self, ledger: &mut Ledger) {
        for _ in 0..self.shed {
            ledger.fail("arrival shed: the queue was full");
        }
    }

    fn latency(&self) -> Latency {
        Latency::of(&self.records.iter().map(|r| r.latency_s).collect::<Vec<_>>())
    }

    fn p95(&self) -> f64 {
        if self.records.is_empty() {
            return f64::INFINITY;
        }
        self.latency().p95
    }

    /// Meets the limit with nothing shed, nothing lost and no backlog
    /// building: when the last arrival is due, no more than a tenth of the
    /// arrivals are still in the system. A service that keeps up holds
    /// rate x latency jobs whatever the run's length; one that does not
    /// holds a share of everything sent.
    fn sustainable(&self) -> bool {
        self.shed == 0
            && self.records.len() == self.arrivals
            && self.p95() <= SLO_S
            && self.pending_at_end * 10 <= self.arrivals
    }
}

/// Arrivals per block for a budget: the reference rate times the seconds,
/// over the reference run's blocks; 30 in the smoke run.
fn open_block(budget: Budget) -> usize {
    if budget.quick {
        30
    } else {
        let arrivals = (OPEN_RATE_PER_S * budget.seconds).ceil() as usize;
        arrivals.div_ceil(REFERENCE_BLOCKS).max(30)
    }
}

/// Fill a service's program and kernel caches without touching the dedup
/// table's view of the timed shapes: warm-up inputs are their own.
fn warm(serve: &Serve, seed: u64, ledger: &mut Ledger) {
    let mut cost = SetupCost::default();
    let handles: Vec<_> = Workload::all()
        .iter()
        .map(|w| {
            let shape = Shape::new(w, seed ^ 0x3a3a, &mut cost);
            serve.submit(request(&shape, 0))
        })
        .collect();
    for h in handles {
        ledger.check(match h {
            Ok(h) => h
                .wait()
                .map(|_| ())
                .map_err(|e| format!("warm-up job failed: {e}")),
            Err(e) => Err(format!("warm-up submit rejected: {e}")),
        });
    }
}

pub fn run_open(seed: u64, budget: Budget, traced: bool) -> (Measured, Summary, Tracer) {
    // A traced run paces the reference rate for the time asked, like an
    // untraced one, then every other rate for about as long: a shorter
    // rung ends before a backlog shows and reads a higher capacity.
    let block = open_block(budget);
    let n = block * REFERENCE_BLOCKS;
    let (mut state, setup_s) = timed_setup(budget, || open_setup(seed, block));
    let mut ledger = Ledger::default();
    if budget.warmup() {
        warm(&state.serve, seed, &mut ledger);
    }
    let run = open_loop(&state.serve, &state, n, 1.0, &Tracer::off(), &mut ledger);
    run.charge_shed(&mut ledger);
    let mut m = Measured {
        instantiate_s: state.cost.instantiate_s,
        reference_s: state.cost.reference_s,
        pass_walls: vec![run.wall_s],
        latencies: run.records.iter().map(|r| r.latency_s).collect(),
        ..Measured::default()
    };
    m.extra.insert(
        "jobs_per_s",
        Summary::single(run.records.len() as f64 / run.wall_s),
    );
    m.extra.insert("cpu_s", Summary::single(run.cpu_s));
    let failed_jobs = n as u64 - run.shed - run.records.len() as u64;
    m.extra.insert(
        "slo_miss_ratio",
        Summary::single((run.shed + failed_jobs + run.late) as f64 / n as f64),
    );

    let tracer = if traced { Tracer::on() } else { Tracer::off() };
    let mut all_records = run.records.clone();
    let stats = state.serve.stats();
    if traced {
        service_layer(&mut m, &run.records, &stats);
        m.layer.insert(
            "serve.dedup_join_ratio".into(),
            stats.dedup_joins as f64 / stats.completed.max(1) as f64,
        );
        m.layer.insert("serve.shed".into(), run.shed as f64);
        m.layer
            .insert("serve.gen_lag_p95_s".into(), Latency::of(&run.lags).p95);
        // A rung paces whole blocks, so every rate sees the same mix: as
        // many as keep it at least as long as the reference run, at `mult`
        // times its rate, on a fresh service warmed the same way. The
        // extra blocks' set-up is not part of `setup_s`.
        let blocks = |mult: f64| (mult * REFERENCE_BLOCKS as f64).ceil() as usize;
        while state.arrivals.len() < block * blocks(RATE_LADDER[RATE_LADDER.len() - 1]) {
            state.add_block(seed);
        }
        let mut rung = |mult: f64, tracer: &Tracer| {
            let serve = Serve::start(serve_config(true));
            if budget.warmup() {
                warm(&serve, seed, &mut ledger);
            }
            let r = open_loop(
                &serve,
                &state,
                block * blocks(mult),
                mult,
                tracer,
                &mut ledger,
            );
            serve.shutdown();
            all_records.extend(r.records.iter().copied());
            r
        };
        // The schedule fixes the pass's wall; the spans' cost shows in the
        // CPU seconds the same arrivals take.
        let spanned = rung(1.0, &tracer);
        m.layer
            .insert("trace_overhead_ratio".into(), spanned.cpu_s / run.cpu_s);
        let low = rung(RATE_LADDER[0], &Tracer::off());
        m.layer
            .insert("serve.rate_low_latency_p95_s".into(), low.p95());
        let mut max_ok = [(RATE_LADDER[0], &low), (1.0, &run)]
            .iter()
            .filter(|(_, r)| r.sustainable())
            .map(|(mult, _)| *mult)
            .fold(0.0, f64::max);
        for mult in &RATE_LADDER[1..] {
            let r = rung(*mult, &Tracer::off());
            if *mult == RATE_LADDER[1] {
                m.layer
                    .insert("serve.rate_high_latency_p95_s".into(), r.p95());
            }
            // A rung past the knee sheds by design: that is not a failure.
            if !r.sustainable() {
                break;
            }
            max_ok = *mult;
        }
        m.layer
            .insert("serve.max_ok_rate_per_s".into(), max_ok * OPEN_RATE_PER_S);
    }
    let shapes: Vec<&Shape> = state.shapes.iter().collect();
    check_fingerprints(&all_records, &solo_fingerprints(&shapes), &mut ledger);
    let stats = state.serve.shutdown();
    if !stats.accounts_for_every_job() {
        ledger.fail(format!(
            "serve accounting identity broken: {}",
            stats.summary()
        ));
    }
    m.ledger = ledger;
    (m, setup_s, tracer)
}
