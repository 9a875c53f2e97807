//! The four `table2_*` workloads: every Table II app under one family of
//! execution variants, pass-major, each cell checked against the Rust
//! reference and against its own first simulated outcome.

use crate::harness::{report_fingerprint, shuffle, timed_setup, Budget, Fnv, Ledger, Measured};
use crate::inputs::{corpus, App, SetupCost};
use crate::probes::Probes;
use crate::stats::{geomean, median, Summary};
use crate::trace::Tracer;
use japonica::ir::{ExecEngine, Scheme};
use japonica::{run_baseline, Baseline, RunReport, Runtime, RuntimeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Cpu,
    Gpu,
    Hetero,
    Hostpar,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Serial,
    Cpu16,
    Gpu,
    Sharing,
    Stealing,
}

impl Family {
    fn variants(self) -> &'static [Variant] {
        match self {
            Family::Cpu => &[Variant::Serial, Variant::Cpu16],
            Family::Gpu | Family::Hostpar => &[Variant::Gpu],
            Family::Hetero => &[Variant::Sharing, Variant::Stealing],
        }
    }

    fn host_threads(self) -> usize {
        match self {
            Family::Hostpar => 2,
            _ => 1,
        }
    }

    /// `table2_hostpar` leaves BlackScholes out. Its blind-TLS cell makes
    /// 100 launches of two simulator threads each, and on a two-CPU host
    /// it takes anywhere from 2.2 s to 3.1 s from one pass to the next
    /// (0.65 s sequentially): three quarters of a pass that fits three
    /// times into a run, so the pass would repeat no better than that
    /// cell. The traced run times it as `tls.loop_par2_ns_per_iter`.
    fn runs(self, app: &App) -> bool {
        self != Family::Hostpar || app.shape.w.name != "BlackScholes"
    }

    fn cells(self, apps: &[App]) -> Vec<(usize, Variant)> {
        cells_of(apps, self.variants(), |a| self.runs(a))
    }
}

/// App-major `(app, variant)` cells of the apps `keep` accepts.
fn cells_of(
    apps: &[App],
    variants: &[Variant],
    keep: impl Fn(&App) -> bool,
) -> Vec<(usize, Variant)> {
    (0..apps.len())
        .filter(|a| keep(&apps[*a]))
        .flat_map(|a| variants.iter().map(move |v| (a, *v)))
        .collect()
}

/// How the simulator itself runs on the host (never what it simulates).
#[derive(Debug, Clone, Copy)]
struct Host {
    threads: usize,
    engine: ExecEngine,
}

struct State {
    apps: Vec<App>,
    /// Serial simulated seconds per app, the speedup base.
    serial_sim_s: Vec<f64>,
    cost: SetupCost,
}

/// One executed cell.
struct CellRun {
    wall_s: f64,
    report: RunReport,
}

fn run_cell(app: &App, variant: Variant, host: Host) -> Result<CellRun, String> {
    let w = app.shape.w;
    let mut heap = app.shape.inst.heap.clone();
    let mut cfg = RuntimeConfig::default();
    cfg.sched.subloops_per_task = w.subloops;
    cfg.sched.gpu.sim.host_threads = host.threads;
    cfg.sched.gpu.sim.engine = host.engine;
    cfg.sched.cpu.engine = host.engine;
    let args = &app.shape.inst.args;
    let baseline = |b: Baseline, heap: &mut japonica::ir::Heap| {
        run_baseline(&cfg, &app.compiled, w.entry, args, heap, b)
    };
    let t0 = Instant::now();
    let report = match variant {
        Variant::Serial => baseline(Baseline::Serial, &mut heap),
        Variant::Cpu16 => baseline(Baseline::CpuParallel(16), &mut heap),
        Variant::Gpu => baseline(Baseline::GpuOnly, &mut heap),
        Variant::Sharing | Variant::Stealing => Runtime::new(RuntimeConfig {
            scheme_override: Some(if variant == Variant::Sharing {
                Scheme::Sharing
            } else {
                Scheme::Stealing
            }),
            ..cfg.clone()
        })
        .run(&app.compiled, w.entry, args, &mut heap),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let report = report.map_err(|e| format!("{} {variant:?}: {e}", w.name))?;
    app.shape
        .check(&heap)
        .map_err(|e| format!("{variant:?} {e}"))?;
    Ok(CellRun { wall_s, report })
}

fn setup(seed: u64) -> State {
    let mut cost = SetupCost::default();
    let apps = corpus(seed, &mut cost);
    let host = Host {
        threads: 1,
        engine: ExecEngine::default(),
    };
    let serial_sim_s = apps
        .iter()
        .map(|a| {
            run_cell(a, Variant::Serial, host)
                .map(|c| c.report.total_s)
                .unwrap_or(f64::NAN)
        })
        .collect();
    State {
        apps,
        serial_sim_s,
        cost,
    }
}

/// The walls of one pass, cell by cell in canonical (app-major) order.
struct Pass {
    cell_walls: Vec<f64>,
}

impl Pass {
    fn total(&self) -> f64 {
        self.cell_walls.iter().sum()
    }
}

/// What the pass loop learned about each cell on first sight; every later
/// pass must reproduce it bit for bit.
#[derive(Default, Clone)]
struct Golden {
    fingerprint: Option<u64>,
    sim_s: f64,
    iters: u64,
    report: Option<RunReport>,
}

struct Runner<'a> {
    state: &'a State,
    cells: Vec<(usize, Variant)>,
    golden: Vec<Golden>,
    rng: StdRng,
    ledger: Ledger,
}

impl<'a> Runner<'a> {
    fn new(state: &'a State, cells: Vec<(usize, Variant)>, seed: u64) -> Runner<'a> {
        Runner {
            state,
            golden: vec![Golden::default(); cells.len()],
            cells,
            rng: StdRng::seed_from_u64(seed ^ 0x007a_b1e2),
            ledger: Ledger::default(),
        }
    }

    /// Visit every cell once in a freshly shuffled order.
    fn pass(&mut self, host: Host, tracer: &Tracer) -> Pass {
        let mut order: Vec<usize> = (0..self.cells.len()).collect();
        shuffle(&mut self.rng, &mut order);
        let mut cell_walls = vec![0.0; self.cells.len()];
        tracer.span("pass", None, 0, |pass| {
            for c in order {
                let (a, variant) = self.cells[c];
                let app = &self.state.apps[a];
                let run = tracer.span("cell", pass, c as u64, |cell| {
                    tracer.span("core.run", cell, c as u64, |_| run_cell(app, variant, host))
                });
                match run {
                    Ok(run) => {
                        cell_walls[c] = run.wall_s;
                        let fp = report_fingerprint(&run.report);
                        let g = &mut self.golden[c];
                        match g.fingerprint {
                            None => {
                                g.fingerprint = Some(fp);
                                g.sim_s = run.report.total_s;
                                g.iters = report_iters(&run.report);
                                g.report = Some(run.report);
                                self.ledger.ok();
                            }
                            Some(first) if first == fp => self.ledger.ok(),
                            Some(_) => self.ledger.fail(format!(
                                "{} {variant:?}: simulated outcome changed between passes",
                                app.shape.w.name
                            )),
                        }
                    }
                    Err(e) => self.ledger.fail(e),
                }
            }
        });
        Pass { cell_walls }
    }

    /// An untimed warm-up pass if asked, then timed passes until the
    /// budget is spent.
    fn passes(&mut self, budget: Budget, warmup: bool, host: Host, tracer: &Tracer) -> Vec<Pass> {
        if warmup {
            self.pass(host, &Tracer::off());
        }
        let started = Instant::now();
        let mut out = Vec::new();
        while budget.another_pass(started, out.len()) {
            out.push(self.pass(host, tracer));
        }
        out
    }
}

fn report_iters(r: &RunReport) -> u64 {
    r.loops.iter().map(|l| l.iterations).sum::<u64>()
        + r.stealing
            .iter()
            .map(|s| s.gpu_iters + s.cpu_iters)
            .sum::<u64>()
}

/// Per-app rows of the median pass (the mean of the two middle passes when
/// their count is even), so that the rows sum to `pass_wall_s` exactly.
fn median_pass_rows(passes: &[Pass], cells: &[(usize, Variant)], apps: usize) -> Vec<f64> {
    let mut by_total: Vec<&Pass> = passes.iter().collect();
    by_total.sort_by(|a, b| a.total().total_cmp(&b.total()));
    let mid = by_total.len() / 2;
    let middles: &[&Pass] = if by_total.len() % 2 == 1 {
        &by_total[mid..=mid]
    } else {
        &by_total[mid - 1..=mid]
    };
    let mut rows = vec![0.0; apps];
    for p in middles {
        for (c, (a, _)) in cells.iter().enumerate() {
            rows[*a] += p.cell_walls[c] / middles.len() as f64;
        }
    }
    rows
}

pub fn run(family: Family, seed: u64, budget: Budget, traced: bool) -> (Measured, Summary, Tracer) {
    let (state, setup_s) = timed_setup(budget, || setup(seed));
    let host = Host {
        threads: family.host_threads(),
        engine: ExecEngine::default(),
    };
    let mut runner = Runner::new(&state, family.cells(&state.apps), seed);
    let plain_budget = if traced { budget.share(0.4) } else { budget };
    let passes = runner.passes(plain_budget, budget.warmup(), host, &Tracer::off());

    let mut m = Measured {
        instantiate_s: state.cost.instantiate_s,
        reference_s: state.cost.reference_s,
        ..Measured::default()
    };
    m.pass_walls = passes.iter().map(Pass::total).collect();
    m.latencies = passes
        .iter()
        .flat_map(|p| p.cell_walls.iter().copied())
        .collect();

    // Simulated results: exact, so one value each and a fingerprint.
    let mut fp = Fnv::default();
    let mut speedups = Vec::new();
    let mut sim_time = 0.0;
    for (g, (a, variant)) in runner.golden.iter().zip(&runner.cells) {
        fp.u64(g.fingerprint.unwrap_or(0));
        sim_time += g.sim_s;
        if *variant != Variant::Serial {
            speedups.push(state.serial_sim_s[*a] / g.sim_s);
        }
    }
    m.extra.insert("sim_time_s", Summary::single(sim_time));
    m.extra
        .insert("sim_speedup_geomean", Summary::single(geomean(&speedups)));
    m.sim_fingerprint = Some(format!("{:016x}", fp.0));

    let tracer = if traced { Tracer::on() } else { Tracer::off() };
    if traced {
        let traced_passes = runner.passes(budget.share(0.25), false, host, &tracer);
        let traced_wall = median(&traced_passes.iter().map(Pass::total).collect::<Vec<_>>());
        let plain_wall = median(&m.pass_walls);
        m.layer
            .insert("trace_overhead_ratio".into(), traced_wall / plain_wall);

        let rows = median_pass_rows(&passes, &runner.cells, state.apps.len());
        for (app, row) in state.apps.iter().zip(rows) {
            m.layer
                .insert(format!("app.{}.wall_s", app.shape.w.name), row);
        }
        let iters: u64 = runner.golden.iter().map(|g| g.iters).sum();
        m.layer.insert(
            "core.sim_iters_per_host_s".into(),
            iters as f64 / plain_wall,
        );

        // One extra untimed-loop pass of a sibling family or engine, for
        // the ratios that compare this workload with another.
        let mut side_ledger = Ledger::default();
        let mut side_pass = |variants: &[Variant], host: Host| {
            let cells = cells_of(&state.apps, variants, |a| family.runs(a));
            let mut side = Runner::new(&state, cells, seed);
            let p = side.pass(host, &Tracer::off());
            side_ledger.absorb(std::mem::take(&mut side.ledger));
            (p, side.cells)
        };
        let mut probes = Probes {
            apps: &state.apps,
            tracer: &tracer,
            parent: None,
            ledger: Ledger::default(),
            quick: budget.quick,
        };
        match family {
            Family::Cpu => {
                for (name, span, engine) in [
                    (
                        "cpuexec.seq_walker_ns_per_iter",
                        "cpuexec.run_sequential.walker",
                        ExecEngine::TreeWalker,
                    ),
                    (
                        "cpuexec.seq_bytecode_ns_per_iter",
                        "cpuexec.run_sequential.bytecode",
                        ExecEngine::Bytecode,
                    ),
                    (
                        "cpuexec.seq_native_ns_per_iter",
                        "cpuexec.run_sequential.native",
                        ExecEngine::Native,
                    ),
                ] {
                    m.layer.insert(name.into(), probes.cpu_seq(span, engine));
                }
                m.layer
                    .insert("cpuexec.par16_ns_per_iter".into(), probes.cpu_par16());
            }
            Family::Gpu => {
                for (name, span, engine) in [
                    (
                        "gpusim.launch_walker_ns_per_iter",
                        "gpusim.launch_loop.walker",
                        ExecEngine::TreeWalker,
                    ),
                    (
                        "gpusim.launch_bytecode_ns_per_iter",
                        "gpusim.launch_loop.bytecode",
                        ExecEngine::Bytecode,
                    ),
                    (
                        "gpusim.launch_native_ns_per_iter",
                        "gpusim.launch_loop.native",
                        ExecEngine::Native,
                    ),
                ] {
                    let (ns, kr, bytes) = probes.gpu_launch(span, engine, 1);
                    m.layer.insert(name.into(), ns);
                    if engine == ExecEngine::Bytecode {
                        m.layer
                            .insert("gpusim.sim_cycles".into(), kr.critical_cycles);
                        m.layer.insert("gpusim.warps".into(), kr.warps as f64);
                        m.layer.insert("gpusim.bytes_moved".into(), bytes as f64);
                    }
                }
                m.layer.insert("gpusim.stage_s".into(), probes.gpu_stage());
                let (profile_s, pairs) = probes.profiler();
                m.layer.insert("profiler.profile_s".into(), profile_s);
                m.layer.insert("profiler.entries".into(), pairs as f64);
                let (tls_ns, counts) = probes.tls_loop(1);
                m.layer.insert("tls.loop_ns_per_iter".into(), tls_ns);
                for (k, v) in counts {
                    m.layer.insert(k.into(), v);
                }
                m.layer
                    .insert("tls.privatized_ns_per_iter".into(), probes.tls_privatized());
                m.layer
                    .insert("tls.specmem_ns_per_access".into(), probes.specmem(seed));
                let mut engine_pass = |engine| {
                    side_pass(&[Variant::Gpu], Host { threads: 1, engine })
                        .0
                        .total()
                };
                let walker = engine_pass(ExecEngine::TreeWalker);
                let native = engine_pass(ExecEngine::Native);
                m.layer
                    .insert("core.engine_speedup_bytecode".into(), walker / plain_wall);
                m.layer
                    .insert("core.engine_speedup_native".into(), plain_wall / native);
            }
            Family::Hostpar => {
                let (ns, _, _) =
                    probes.gpu_launch("gpusim.launch_loop_par", ExecEngine::Bytecode, 2);
                m.layer.insert("gpusim.launch_par2_ns_per_iter".into(), ns);
                m.layer
                    .insert("tls.loop_par2_ns_per_iter".into(), probes.tls_loop(2).0);
                let (seq, _) = side_pass(
                    &[Variant::Gpu],
                    Host {
                        threads: 1,
                        engine: ExecEngine::default(),
                    },
                );
                m.layer
                    .insert("core.hostpar_speedup".into(), seq.total() / plain_wall);
            }
            Family::Hetero => {
                let one = Host {
                    threads: 1,
                    engine: ExecEngine::default(),
                };
                let (base, base_cells) = side_pass(&[Variant::Cpu16, Variant::Gpu], one);
                hetero_layer(&mut m, &state, &runner, &passes, &base, &base_cells);
            }
        }
        runner.ledger.absorb(probes.ledger);
        runner.ledger.absorb(side_ledger);
    }
    m.ledger = runner.ledger;
    (m, setup_s, tracer)
}

/// `scheduler.*`: each scheme's cell wall over the faster of the app's
/// GPU-only and 16-thread cells, and the exact counts of the schedules.
fn hetero_layer(
    m: &mut Measured,
    state: &State,
    runner: &Runner,
    passes: &[Pass],
    base: &Pass,
    base_cells: &[(usize, Variant)],
) {
    let cell_median =
        |c: usize| median(&passes.iter().map(|p| p.cell_walls[c]).collect::<Vec<_>>());
    let mut ratios = [Vec::new(), Vec::new()];
    for a in 0..state.apps.len() {
        let best_single = base_cells
            .iter()
            .enumerate()
            .filter(|(_, (app, _))| *app == a)
            .map(|(c, _)| base.cell_walls[c])
            .fold(f64::INFINITY, f64::min);
        for (c, (app, variant)) in runner.cells.iter().enumerate() {
            if *app == a {
                ratios[(*variant == Variant::Stealing) as usize].push(cell_median(c) / best_single);
            }
        }
    }
    m.layer.insert(
        "scheduler.sharing_overhead_ratio".into(),
        geomean(&ratios[0]),
    );
    m.layer.insert(
        "scheduler.stealing_overhead_ratio".into(),
        geomean(&ratios[1]),
    );
    m.layer.insert(
        "scheduler.sharing_worst_ratio".into(),
        ratios[0].iter().copied().fold(0.0, f64::max),
    );
    let (mut gpu_iters, mut iters, mut steals, mut bytes) = (0u64, 0u64, 0u64, 0u64);
    for g in &runner.golden {
        let Some(r) = &g.report else { continue };
        for l in &r.loops {
            gpu_iters += l.gpu_iters;
            iters += l.iterations;
            bytes += (l.bytes_in + l.bytes_out) as u64;
        }
        for s in &r.stealing {
            gpu_iters += s.gpu_iters;
            iters += s.gpu_iters + s.cpu_iters;
            steals += (s.stolen_by_gpu + s.stolen_by_cpu) as u64;
        }
    }
    m.layer.insert(
        "scheduler.gpu_iter_share".into(),
        gpu_iters as f64 / iters.max(1) as f64,
    );
    m.layer.insert("scheduler.steals".into(), steals as f64);
    m.layer.insert("scheduler.bytes_moved".into(), bytes as f64);
}
