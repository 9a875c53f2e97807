//! Per-layer probes: the harness calls one layer's public functions
//! directly on the *probe loops* — the first annotated loop of GEMM (mode
//! A, compute-bound), VectorAdd (mode A, memory-bound), Sepia (mode D,
//! privatized), BlackScholes (mode B, TLS) and Gauss-Seidel (mode C) —
//! with an `Env` built from the entry's parameters, and checks what comes
//! back against the Rust reference. Each probe is one span.

use crate::harness::Ledger;
use crate::inputs::App;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use japonica::cpuexec::{run_parallel_with, run_sequential_with, CpuConfig};
use japonica::gpusim::{
    launch_loop_guarded_with, launch_loop_par_with, AccessCtx, DeviceConfig, DeviceMemory,
    KernelReport, LaneMemory,
};
use japonica::ir::{
    Env, ExecEngine, ForLoop, Heap, KernelCache, LoopBounds, ParamTy, Value, NATIVE_PROMOTE_USES,
};
use japonica::profiler::profile_loop;
use japonica::scheduler::sharing::{eval_bounds, stage_device};
use japonica::scheduler::{DataPlan, SchedulerConfig};
use japonica::tls::{run_privatized, run_tls_loop, SpeculativeMemory, TlsConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Timed repetitions of each probe after one warm-up (`--quick`: one
/// repetition, no warm-up).
const REPS: usize = 3;

/// The two mode-A probe loops, the ones a plain launch or a parallel CPU
/// run computes correctly.
const DOALL: [&str; 2] = ["GEMM", "VectorAdd"];

/// An app's first annotated loop, ready to hand to a layer.
pub struct ProbeLoop<'a> {
    pub app: &'a App,
    pub loop_: &'a ForLoop,
    pub env: Env,
    pub bounds: LoopBounds,
    pub trip: u64,
}

impl<'a> ProbeLoop<'a> {
    pub fn of(app: &'a App) -> ProbeLoop<'a> {
        let program = &app.compiled.program;
        let (_, f) = program
            .function_by_name(app.shape.w.entry)
            .expect("bundled entry exists");
        let loop_ = f
            .all_loops()
            .into_iter()
            .find(|l| l.is_annotated())
            .expect("every Table II entry has an annotated loop");
        let mut env = Env::with_slots(f.num_vars);
        for (p, &a) in f.params.iter().zip(&app.shape.inst.args) {
            let bound = match p.ty {
                ParamTy::Scalar(t) => a.cast(t).expect("generated args match the signature"),
                ParamTy::Array(_) => a,
            };
            env.set(p.var, bound);
        }
        let mut heap = app.shape.inst.heap.clone();
        let bounds =
            eval_bounds(program, loop_, &env, &mut heap).expect("probe loop bounds evaluate");
        ProbeLoop {
            app,
            loop_,
            env,
            trip: bounds.trip(),
            bounds,
        }
    }

    fn plan(&self, heap: &mut Heap) -> DataPlan {
        let classes = &self.app.compiled.analyses[&self.loop_.id].classes;
        DataPlan::derive(
            &self.app.compiled.program,
            self.loop_,
            classes,
            &self.env,
            heap,
        )
        .expect("probe loop data plan derives")
    }

    /// A kernel cache past the native-promotion threshold: the steady
    /// state, compile cost amortised.
    fn warmed_cache(&self) -> KernelCache {
        let cache = KernelCache::new();
        for _ in 0..NATIVE_PROMOTE_USES {
            cache.get_or_compile(&self.app.compiled.program, self.loop_);
        }
        cache
    }

    /// Stage the loop's arrays on a fresh device.
    fn staged(&self, heap: &mut Heap) -> (DeviceMemory, DataPlan) {
        let plan = self.plan(heap);
        let mut dev = DeviceMemory::new();
        stage_device(&plan, heap, &mut dev, &SchedulerConfig::default()).expect("staging succeeds");
        (dev, plan)
    }

    fn copy_out(&self, plan: &DataPlan, dev: &mut DeviceMemory, heap: &mut Heap) {
        for e in &plan.copyout {
            dev.copy_out(heap, e.array, e.lo, e.hi, &DeviceConfig::default())
                .expect("copy-out of a staged array succeeds");
        }
    }
}

fn find<'a>(apps: &'a [App], name: &str) -> &'a App {
    apps.iter()
        .find(|a| a.shape.w.name == name)
        .expect("probe app is in the corpus")
}

fn probe_loops<'a>(apps: &'a [App], names: &[&str]) -> Vec<ProbeLoop<'a>> {
    names.iter().map(|n| ProbeLoop::of(find(apps, n))).collect()
}

/// The probe context: apps, span sink and the output checks' ledger.
pub struct Probes<'a> {
    pub apps: &'a [App],
    pub tracer: &'a Tracer,
    pub parent: Option<SpanId>,
    pub ledger: Ledger,
    pub quick: bool,
}

impl Probes<'_> {
    fn reps(&self) -> usize {
        if self.quick {
            1
        } else {
            REPS
        }
    }

    /// Warm up once, then the median host seconds of `REPS` spans.
    fn timed(&mut self, name: &'static str, mut f: impl FnMut(&mut Ledger)) -> f64 {
        if !self.quick {
            f(&mut self.ledger);
        }
        let walls: Vec<f64> = (0..self.reps())
            .map(|_| {
                let mut ledger = Ledger::default();
                let t0 = Instant::now();
                self.tracer.span(name, self.parent, 0, |_| f(&mut ledger));
                let wall = t0.elapsed().as_secs_f64();
                self.ledger.absorb(ledger);
                wall
            })
            .collect();
        median(&walls)
    }

    /// Run `exec` over each named probe loop's whole range against a fresh
    /// heap and a warmed kernel cache, check the heaps against the
    /// reference, and return host ns per simulated iteration.
    fn cpu_probe(
        &mut self,
        span: &'static str,
        names: &[&str],
        exec: impl Fn(&ProbeLoop, &KernelCache, &mut Heap) -> Result<(), String>,
    ) -> f64 {
        let loops = probe_loops(self.apps, names);
        let caches: Vec<KernelCache> = loops.iter().map(|l| l.warmed_cache()).collect();
        let iters: u64 = loops.iter().map(|l| l.trip).sum();
        let mut heaps: Vec<Heap> = Vec::new();
        let wall = self.timed(span, |ledger| {
            heaps = loops
                .iter()
                .map(|l| l.app.shape.inst.heap.clone())
                .collect();
            for ((l, cache), heap) in loops.iter().zip(&caches).zip(&mut heaps) {
                ledger.check(exec(l, cache, heap).map_err(|e| format!("{span}: {e}")));
            }
        });
        for (l, heap) in loops.iter().zip(&heaps) {
            self.ledger.check(l.app.shape.check(heap));
        }
        wall / iters as f64 * 1e9
    }

    /// `run_sequential_with` over the five probe loops under `engine`.
    pub fn cpu_seq(&mut self, span: &'static str, engine: ExecEngine) -> f64 {
        let cfg = CpuConfig {
            engine,
            ..CpuConfig::default()
        };
        self.cpu_probe(
            span,
            &["GEMM", "VectorAdd", "Sepia", "BlackScholes", "Gauss-Seidel"],
            |l, cache, heap| {
                let kernels = (engine != ExecEngine::TreeWalker).then_some(cache);
                run_sequential_with(
                    &l.app.compiled.program,
                    &cfg,
                    l.loop_,
                    &l.bounds,
                    0..l.trip,
                    &mut l.env.clone(),
                    heap,
                    kernels,
                )
                .map(|_| ())
                .map_err(|e| e.to_string())
            },
        )
    }

    /// `run_parallel` with 16 threads over the two DOALL probe loops.
    pub fn cpu_par16(&mut self) -> f64 {
        let cfg = CpuConfig::default();
        self.cpu_probe("cpuexec.run_parallel", &DOALL, |l, cache, heap| {
            run_parallel_with(
                &l.app.compiled.program,
                &cfg,
                l.loop_,
                &l.bounds,
                0..l.trip,
                &l.env,
                heap,
                16,
                Some(cache),
            )
            .map(|_| ())
            .map_err(|e| e.to_string())
        })
    }

    /// One launch of each DOALL probe loop over its whole range: host ns
    /// per simulated iteration, plus the launches' exact counts.
    /// `host_threads > 1` goes through `launch_loop_par`.
    pub fn gpu_launch(
        &mut self,
        name: &'static str,
        engine: ExecEngine,
        host_threads: usize,
    ) -> (f64, KernelReport, usize) {
        let loops = probe_loops(self.apps, &DOALL);
        let caches: Vec<KernelCache> = loops.iter().map(|l| l.warmed_cache()).collect();
        let iters: u64 = loops.iter().map(|l| l.trip).sum();
        let mut cfg = DeviceConfig::default();
        cfg.sim.engine = engine;
        cfg.sim.host_threads = host_threads;
        let mut total = KernelReport::empty();
        let mut bytes = 0usize;
        let mut walls = Vec::new();
        // Staging and copy-out sit outside the span: one launch is timed.
        // Repetition 0 is the warm-up and the one whose counts are kept.
        let first_timed = if self.quick { 0 } else { 1 };
        for rep in 0..first_timed + self.reps() {
            let mut wall = 0.0;
            for (l, cache) in loops.iter().zip(&caches) {
                let mut heap = l.app.shape.inst.heap.clone();
                let (mut dev, plan) = l.staged(&mut heap);
                let kernels = (engine != ExecEngine::TreeWalker).then_some(cache);
                let program = &l.app.compiled.program;
                let t0 = Instant::now();
                let kr = self.tracer.span(name, self.parent, 0, |_| {
                    if host_threads > 1 {
                        launch_loop_par_with(
                            program,
                            &cfg,
                            l.loop_,
                            &l.bounds,
                            0..l.trip,
                            &l.env,
                            &mut dev,
                            None,
                            None,
                            kernels,
                        )
                    } else {
                        launch_loop_guarded_with(
                            program,
                            &cfg,
                            l.loop_,
                            &l.bounds,
                            0..l.trip,
                            &l.env,
                            &mut dev,
                            None,
                            None,
                            kernels,
                        )
                    }
                });
                wall += t0.elapsed().as_secs_f64();
                match kr {
                    Ok(kr) => {
                        l.copy_out(&plan, &mut dev, &mut heap);
                        self.ledger.check(l.app.shape.check(&heap));
                        if rep == 0 {
                            total.chain(&kr);
                            bytes += dev.bytes_transferred(true) + dev.bytes_transferred(false);
                        }
                    }
                    Err(e) => self.ledger.fail(format!("{name}: {e}")),
                }
            }
            if rep >= first_timed {
                walls.push(wall);
            }
        }
        (median(&walls) / iters as f64 * 1e9, total, bytes)
    }

    /// `stage_device` of the two DOALL probe loops' arrays.
    pub fn gpu_stage(&mut self) -> f64 {
        let loops = probe_loops(self.apps, &DOALL);
        let mut heaps: Vec<Heap> = loops
            .iter()
            .map(|l| l.app.shape.inst.heap.clone())
            .collect();
        let plans: Vec<DataPlan> = loops
            .iter()
            .zip(&mut heaps)
            .map(|(l, h)| l.plan(h))
            .collect();
        let cfg = SchedulerConfig::default();
        self.timed("gpusim.stage_device", |ledger| {
            for (plan, heap) in plans.iter().zip(&heaps) {
                let mut dev = DeviceMemory::new();
                ledger.check(
                    stage_device(plan, heap, &mut dev, &cfg).map_err(|e| format!("stage: {e}")),
                );
            }
        })
    }

    /// `profile_loop` over Sepia and BlackScholes: host seconds and the
    /// dependence pairs the two profiles recorded.
    pub fn profiler(&mut self) -> (f64, u64) {
        let loops = probe_loops(self.apps, &["Sepia", "BlackScholes"]);
        let cfg = DeviceConfig::default();
        let mut pairs = 0u64;
        let wall = self.timed("profiler.profile_loop", |ledger| {
            pairs = 0;
            for l in &loops {
                let mut heap = l.app.shape.inst.heap.clone();
                let (mut dev, _) = l.staged(&mut heap);
                match profile_loop(
                    &l.app.compiled.program,
                    &cfg,
                    l.loop_,
                    &l.bounds,
                    0..l.trip,
                    &l.env,
                    &mut dev,
                ) {
                    Ok(p) => {
                        pairs += p.raw_pairs + p.war_pairs + p.waw_pairs;
                        ledger.ok();
                    }
                    Err(e) => ledger.fail(format!("profile_loop: {e}")),
                }
            }
        });
        (wall, pairs)
    }

    /// Blind `run_tls_loop` over BlackScholes with `host_threads`
    /// simulator threads: host ns per iteration and the engine's own
    /// counts.
    pub fn tls_loop(&mut self, host_threads: usize) -> (f64, BTreeMap<&'static str, f64>) {
        let l = ProbeLoop::of(find(self.apps, "BlackScholes"));
        let mut sched = SchedulerConfig::default();
        sched.gpu.sim.host_threads = host_threads;
        let mut counts = BTreeMap::new();
        let wall = self.timed("tls.run_tls_loop", |ledger| {
            let mut heap = l.app.shape.inst.heap.clone();
            let (mut dev, plan) = l.staged(&mut heap);
            match run_tls_loop(
                &l.app.compiled.program,
                &sched.gpu,
                &sched.cpu,
                &sched.tls,
                l.loop_,
                &l.bounds,
                0..l.trip,
                &l.env,
                &mut dev,
                None,
            ) {
                Ok(r) => {
                    l.copy_out(&plan, &mut dev, &mut heap);
                    ledger.check(l.app.shape.check(&heap));
                    counts.insert("tls.rounds", r.kernels as f64);
                    counts.insert("tls.violations", r.violations as f64);
                    // Useful outcomes over attempts at the granularity the
                    // public report has: sub-loops that committed whole.
                    counts.insert(
                        "tls.commit_ratio",
                        r.clean_subloops as f64 / (r.kernels.max(1)) as f64,
                    );
                }
                Err(e) => ledger.fail(format!("run_tls_loop: {e}")),
            }
        });
        (wall / l.trip as f64 * 1e9, counts)
    }

    /// `run_privatized` over Sepia: host ns per iteration.
    pub fn tls_privatized(&mut self) -> f64 {
        let l = ProbeLoop::of(find(self.apps, "Sepia"));
        let cfg = DeviceConfig::default();
        let wall = self.timed("tls.run_privatized", |ledger| {
            let mut heap = l.app.shape.inst.heap.clone();
            let (mut dev, plan) = l.staged(&mut heap);
            match run_privatized(
                &l.app.compiled.program,
                &cfg,
                &TlsConfig::default(),
                l.loop_,
                &l.bounds,
                0..l.trip,
                &l.env,
                &mut dev,
            ) {
                Ok(_) => {
                    l.copy_out(&plan, &mut dev, &mut heap);
                    ledger.check(l.app.shape.check(&heap));
                }
                Err(e) => ledger.fail(format!("run_privatized: {e}")),
            }
        });
        wall / l.trip as f64 * 1e9
    }

    /// `SpeculativeMemory` store → check → `commit_all_collect` over a
    /// seeded stream of 32768 accesses with one cross-iteration read in
    /// sixteen: host ns per access.
    pub fn specmem(&mut self, seed: u64) -> f64 {
        const N: u64 = 16_384;
        let mut heap = Heap::new();
        let a = heap.alloc_doubles(&vec![1.0; N as usize]);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5bec_3e30);
        let stream: Vec<(u64, i64)> = (0..N)
            .map(|i| {
                let back = if rng.gen_range(0..16u32) == 0 {
                    rng.gen_range(0..i.max(1))
                } else {
                    i
                };
                (i, back as i64)
            })
            .collect();
        let wall = self.timed("tls.spec_mem", |ledger| {
            let mut dev = DeviceMemory::new();
            dev.copy_in(&heap, a, 0, N as usize, &DeviceConfig::default())
                .expect("copy-in of a fresh array succeeds");
            let mut sm = SpeculativeMemory::new(&mut dev, 8.0);
            for &(iter, read_idx) in &stream {
                let ctx = AccessCtx {
                    lane: (iter % 32) as u32,
                    warp: (iter / 32) as u32,
                    iter,
                };
                let ok = sm.load(ctx, a, read_idx).is_ok()
                    && sm
                        .store(ctx, a, iter as i64, Value::Double(iter as f64))
                        .is_ok();
                if !ok {
                    ledger.fail("spec_mem access failed");
                    return;
                }
            }
            let violations = sm.check().violating_iters.len();
            match sm.commit_all_collect() {
                // Every iteration buffered exactly one write.
                Ok(w) if w.len() == N as usize => ledger.ok(),
                Ok(w) => ledger.fail(format!("spec_mem committed {} of {N} writes", w.len())),
                Err(e) => ledger.fail(format!("spec_mem commit: {e}")),
            }
            std::hint::black_box(violations);
        });
        wall / (2 * N) as f64 * 1e9
    }
}
