//! Differential property tests for the three kernel execution engines.
//!
//! Random kernels — generated from a proptest byte genome covering nested
//! control flow, short-circuit conditions, intrinsics, helper calls, and
//! mixed int/double arithmetic — must produce *bit-identical* results under
//! the reference tree walker, the register bytecode VM, and the threaded-code
//! native tier:
//!
//! * GPU path: device memory, `GpuStats`, and every simulated cycle count,
//!   at `host_threads ∈ {1, 4}`, both with an up-front native compile and
//!   through the `KernelCache` hit-counter promotion path;
//! * CPU path: heap memory, op counts, and modeled time for both the
//!   sequential executor and the chunked parallel executor — and, for the
//!   kernels static analysis proves independent, the same plus the
//!   written-back `Env` between unchecked lane batches, conflict-checked
//!   ones and the walker (the scalar oracle: the compiled engines batch
//!   every range the lane VM accepts), and likewise for the four Table II
//!   loops it cannot prove independent;
//! * TLS path: identical rollback decisions (violations, recovery windows,
//!   kernels launched) and committed memory on a loop with a seeded
//!   cross-iteration dependence;
//! * fault-retry path: identical injected-fault surfacing and identical
//!   post-retry results on both the GPU and CPU guarded executors.
//!
//! The same corpus pins the scheduler's chunk memories against each other:
//! a proven-DOALL loop's write-through journaled chunks against fully
//! tracked speculative ones (under sharing, stealing and the fixed split),
//! and privatization's buffer-only memory against the tracked one.

use japonica_analysis::{analyze_program, build_pdg, LoopAnalysis};
use japonica_cpuexec::{CpuConfig, CpuCtx, CpuExecError, CpuReport, Independence};
use japonica_faults::{FaultKind, FaultPlan, FaultRule, ResilienceConfig};
use japonica_frontend::compile_source;
use japonica_gpusim::{
    launch_loop_guarded, launch_loop_par, launch_loop_par_with, DeviceConfig, DeviceMemory,
    KernelReport,
};
use japonica_ir::{
    compile_kernel, ArrayId, Env, ExecEngine, ForLoop, Heap, KernelCache, LoopBounds, Program,
    Value, VarId, NATIVE_PROMOTE_USES,
};
use japonica_scheduler::sharing::{eval_bounds, stage_device};
use japonica_scheduler::{run_sharing, run_stealing, DataPlan, LoopTask, SchedulerConfig};
use japonica_tls::{
    run_privatized_with, run_tls_loop_guarded_with, SpecArena, SpeculativeMemory, TlsConfig,
    TlsReport,
};
use proptest::prelude::*;

/// The two compiled engines, each diffed against the tree walker.
const COMPILED_ENGINES: [ExecEngine; 2] = [ExecEngine::Bytecode, ExecEngine::Native];

// ---------------------------------------------------------------------------
// Random kernel generator
// ---------------------------------------------------------------------------

/// Deterministic gene reader: statements/expressions are picked by consuming
/// bytes from a proptest-generated genome (wrapping when exhausted), so every
/// failure shrinks to a small reproducible byte vector.
struct Genes<'a> {
    bytes: &'a [u8],
    pos: usize,
    temps: u32,
}

impl<'a> Genes<'a> {
    fn new(bytes: &'a [u8]) -> Genes<'a> {
        Genes {
            bytes,
            pos: 0,
            temps: 0,
        }
    }

    fn next(&mut self) -> u8 {
        let b = self.bytes[self.pos % self.bytes.len()];
        self.pos = self.pos.wrapping_add(1);
        b
    }

    fn pick(&mut self, n: u8) -> u8 {
        self.next() % n
    }

    fn fresh(&mut self) -> u32 {
        self.temps += 1;
        self.temps
    }
}

/// A double-typed expression over `a[i]`, `b[i]`, the induction variable,
/// literals, arithmetic, intrinsics, ternaries, and a helper-function call.
fn gen_expr(g: &mut Genes, depth: u32) -> String {
    const LITS: [&str; 5] = ["0.5", "1.5", "2.0", "3.25", "0.125"];
    if depth == 0 {
        return match g.pick(4) {
            0 => "a[i]".into(),
            1 => "b[i]".into(),
            2 => LITS[g.pick(5) as usize].into(),
            _ => "(double) i".into(),
        };
    }
    match g.pick(10) {
        0..=2 => {
            let op = ["+", "-", "*", "/"][g.pick(4) as usize];
            let l = gen_expr(g, depth - 1);
            let r = gen_expr(g, depth - 1);
            format!("({l} {op} {r})")
        }
        3 => format!("Math.sqrt(Math.abs({}))", gen_expr(g, depth - 1)),
        4 => format!(
            "Math.min({}, {})",
            gen_expr(g, depth - 1),
            gen_expr(g, depth - 1)
        ),
        5 => format!(
            "Math.max({}, {})",
            gen_expr(g, depth - 1),
            gen_expr(g, depth - 1)
        ),
        6 => format!("Math.sin({})", gen_expr(g, depth - 1)),
        7 => {
            let c = gen_cond(g, depth - 1);
            let t = gen_expr(g, depth - 1);
            let f = gen_expr(g, depth - 1);
            format!("({c} ? {t} : {f})")
        }
        8 => format!("h({}, {})", gen_expr(g, depth - 1), gen_expr(g, depth - 1)),
        _ => gen_expr(g, 0),
    }
}

/// A boolean condition, including short-circuit combinations.
fn gen_cond(g: &mut Genes, depth: u32) -> String {
    match g.pick(if depth == 0 { 3 } else { 5 }) {
        0 => {
            let k = 2 + g.pick(4);
            let c = g.pick(k);
            format!("i % {k} == {c}")
        }
        1 => format!("{} < {}", gen_expr(g, 0), gen_expr(g, 0)),
        2 => "i < n / 2".into(),
        3 => format!("({} && {})", gen_cond(g, depth - 1), gen_cond(g, depth - 1)),
        _ => format!("({} || {})", gen_cond(g, depth - 1), gen_cond(g, depth - 1)),
    }
}

/// A statement list writing only `a[i]` and locals (the DOALL contract).
fn gen_stmts(g: &mut Genes, depth: u32) -> String {
    let n = 1 + g.pick(3);
    let mut out = String::new();
    for _ in 0..n {
        let choice = if depth == 0 { g.pick(2) } else { g.pick(5) };
        match choice {
            0 => out.push_str(&format!("a[i] = {};\n", gen_expr(g, 2))),
            1 => {
                let t = g.fresh();
                let op = ["+", "-", "*"][g.pick(3) as usize];
                out.push_str(&format!(
                    "double t{t} = {};\na[i] = (t{t} {op} {});\n",
                    gen_expr(g, 2),
                    gen_expr(g, 1)
                ));
            }
            2 => {
                let c = gen_cond(g, 1);
                let then = gen_stmts(g, depth - 1);
                if g.pick(2) == 0 {
                    out.push_str(&format!("if ({c}) {{\n{then}}}\n"));
                } else {
                    let els = gen_stmts(g, depth - 1);
                    out.push_str(&format!("if ({c}) {{\n{then}}} else {{\n{els}}}\n"));
                }
            }
            3 => {
                let j = g.fresh();
                let k = 1 + g.pick(4);
                out.push_str(&format!(
                    "for (int j{j} = 0; j{j} < {k}; j{j}++) {{\na[i] = (a[i] + ({} * 0.0625));\n}}\n",
                    gen_expr(g, 1)
                ));
            }
            _ => {
                let c = g.fresh();
                let k = 1 + g.pick(3);
                out.push_str(&format!(
                    "int c{c} = 0;\nwhile (c{c} < {k}) {{\na[i] = (a[i] * 1.015625 + {});\nc{c} = c{c} + 1;\n}}\n",
                    gen_expr(g, 0)
                ));
            }
        }
    }
    out
}

/// Assemble a full compilation unit: a helper with divergent control flow
/// plus the DOALL kernel loop whose body comes from the genome.
fn gen_kernel(genes: &[u8]) -> String {
    let mut g = Genes::new(genes);
    let body = gen_stmts(&mut g, 2);
    format!(
        "static double h(double x, double y) {{
            if (x > y) {{ return x - y; }}
            return y - x + 1.0;
        }}
        static void k(double[] a, double[] b, int n) {{
            /* acc parallel */
            for (int i = 0; i < n; i++) {{
{body}            }}
        }}"
    )
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

struct Fx {
    program: Program,
    loop_: ForLoop,
    num_vars: u32,
    env: Env,
    heap: Heap,
    a: ArrayId,
    b: ArrayId,
    bounds: LoopBounds,
    n: usize,
}

fn fx(src: &str, n: usize) -> Fx {
    let program = compile_source(src).unwrap();
    let (_, f) = program.function_by_name("k").unwrap();
    let loop_ = f.all_loops()[0].clone();
    let mut heap = Heap::new();
    let a = heap.alloc_doubles(
        &(0..n)
            .map(|i| (i as f64 * 0.7).sin() + 0.5)
            .collect::<Vec<_>>(),
    );
    let b = heap.alloc_doubles(
        &(0..n)
            .map(|i| (i as f64 * 1.3).cos() * 2.0)
            .collect::<Vec<_>>(),
    );
    let mut env = Env::with_slots(f.num_vars);
    env.set(f.params[0].var, Value::Array(a));
    env.set(f.params[1].var, Value::Array(b));
    env.set(f.params[2].var, Value::Int(n as i32));
    let bounds = LoopBounds {
        start: 0,
        end: n as i64,
        step: 1,
    };
    Fx {
        num_vars: f.num_vars,
        program: program.clone(),
        loop_,
        env,
        heap,
        a,
        b,
        bounds,
        n,
    }
}

fn mem_bits(dev: &DeviceMemory, a: ArrayId) -> Vec<u64> {
    let arr = dev.array(a).unwrap();
    (0..arr.len())
        .map(|i| match arr.get(i) {
            Value::Double(d) => d.to_bits(),
            v => panic!("unexpected value {v:?}"),
        })
        .collect()
}

fn heap_bits(heap: &Heap, a: ArrayId) -> Vec<u64> {
    heap.read_doubles(a)
        .unwrap()
        .iter()
        .map(|d| d.to_bits())
        .collect()
}

/// Everything a [`CpuReport`] carries, f64s as raw bits.
#[derive(Debug, PartialEq, Eq)]
struct CpuFingerprint {
    time_bits: u64,
    counts: japonica_ir::OpCounts,
    threads_used: u32,
    per_thread_bits: Vec<u64>,
}

impl CpuFingerprint {
    fn of(r: &CpuReport) -> CpuFingerprint {
        CpuFingerprint {
            time_bits: r.time_s.to_bits(),
            counts: r.counts.clone(),
            threads_used: r.threads_used,
            per_thread_bits: r.per_thread_seconds.iter().map(|t| t.to_bits()).collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// GPU path
// ---------------------------------------------------------------------------

fn run_gpu(fx: &Fx, engine: ExecEngine, threads: usize) -> (KernelReport, Vec<u64>) {
    let mut cfg = DeviceConfig::default();
    cfg.sim.engine = engine;
    cfg.sim.host_threads = threads;
    let mut dev = DeviceMemory::new();
    dev.copy_in(&fx.heap, fx.a, 0, fx.n, &cfg).unwrap();
    dev.copy_in(&fx.heap, fx.b, 0, fx.n, &cfg).unwrap();
    let r = launch_loop_par(
        &fx.program,
        &cfg,
        &fx.loop_,
        &fx.bounds,
        0..fx.n as u64,
        &fx.env,
        &mut dev,
        None,
        None,
    )
    .unwrap();
    let mem = mem_bits(&dev, fx.a);
    (r, mem)
}

/// [`run_gpu`] through a shared [`KernelCache`], exercising the demand-driven
/// tier-promotion path rather than the uncached up-front native compile.
fn run_gpu_cached(
    fx: &Fx,
    engine: ExecEngine,
    threads: usize,
    kernels: &KernelCache,
) -> (KernelReport, Vec<u64>) {
    let mut cfg = DeviceConfig::default();
    cfg.sim.engine = engine;
    cfg.sim.host_threads = threads;
    let mut dev = DeviceMemory::new();
    dev.copy_in(&fx.heap, fx.a, 0, fx.n, &cfg).unwrap();
    dev.copy_in(&fx.heap, fx.b, 0, fx.n, &cfg).unwrap();
    let r = launch_loop_par_with(
        &fx.program,
        &cfg,
        &fx.loop_,
        &fx.bounds,
        0..fx.n as u64,
        &fx.env,
        &mut dev,
        None,
        None,
        Some(kernels),
    )
    .unwrap();
    let mem = mem_bits(&dev, fx.a);
    (r, mem)
}

// ---------------------------------------------------------------------------
// CPU path
// ---------------------------------------------------------------------------

fn cpu_ctx<'a>(fx: &'a Fx, cfg: &'a CpuConfig, independence: Independence) -> CpuCtx<'a> {
    CpuCtx {
        independence,
        ..CpuCtx::new(&fx.program, cfg)
    }
}

/// Sequential run: report, heap bits of `a`, and the written-back `Env`.
fn run_cpu_seq(
    fx: &Fx,
    engine: ExecEngine,
    independence: Independence,
) -> (CpuFingerprint, Vec<u64>, Vec<Option<String>>) {
    let mut cfg = CpuConfig::default();
    cfg.engine = engine;
    let mut heap = fx.heap.clone();
    let mut env = fx.env.clone();
    let r = cpu_ctx(fx, &cfg, independence)
        .run_sequential(&fx.loop_, &fx.bounds, 0..fx.n as u64, &mut env, &mut heap)
        .unwrap();
    // NaN-proof: doubles compare by bit pattern.
    let env = (0..fx.num_vars)
        .map(|v| match env.get(VarId(v)).ok()? {
            Value::Double(d) => Some(format!("double {:#x}", d.to_bits())),
            other => Some(format!("{other:?}")),
        })
        .collect();
    (CpuFingerprint::of(&r), heap_bits(&heap, fx.a), env)
}

fn run_cpu_par(
    fx: &Fx,
    engine: ExecEngine,
    threads: u32,
    independence: Independence,
) -> (CpuFingerprint, Vec<u64>) {
    let mut cfg = CpuConfig::default();
    cfg.engine = engine;
    let mut heap = fx.heap.clone();
    let r = cpu_ctx(fx, &cfg, independence)
        .run_parallel(
            &fx.loop_,
            &fx.bounds,
            0..fx.n as u64,
            &fx.env,
            &mut heap,
            threads,
        )
        .unwrap();
    (CpuFingerprint::of(&r), heap_bits(&heap, fx.a))
}

/// The four Table II loops static analysis cannot prove independent — a
/// rotating scratch slot (CFD, Sepia), a sparse true dependence 41
/// iterations back (BlackScholes), a dense one (Gauss-Seidel) — through
/// every CPU executor: the compiled engines run them in conflict-checked
/// lane batches, the tree walker one iteration at a time, and nothing
/// observable may differ.
#[test]
fn checked_lanes_equal_the_walker_on_the_uncertain_table2_loops() {
    /// NaN-proof: doubles by bit pattern.
    fn key(v: Value) -> String {
        match v {
            Value::Double(d) => format!("double {:#x}", d.to_bits()),
            other => format!("{other:?}"),
        }
    }
    for name in ["CFD", "Sepia", "BlackScholes", "Gauss-Seidel"] {
        let w = japonica_workloads::Workload::by_name(name).unwrap();
        let inst = w.instantiate(1);
        let program = w.compile().program;
        let (_, f) = program.function_by_name(w.entry).unwrap();
        let loop_ = f
            .all_loops()
            .into_iter()
            .find(|l| l.is_annotated())
            .unwrap()
            .clone();
        assert!(!analyze_program(&program)[&loop_.id].proven_independent());
        let mut env = Env::with_slots(f.num_vars);
        for (p, a) in f.params.iter().zip(&inst.args) {
            env.set(p.var, *a);
        }
        let bounds = eval_bounds(&program, &loop_, &env, &mut inst.heap.clone()).unwrap();
        let trip = bounds.trip();
        let heap_key = |heap: &Heap| -> Vec<Vec<String>> {
            (0..heap.array_count() as u32)
                .map(|a| {
                    let len = heap.len_of(ArrayId(a)).unwrap() as i64;
                    (0..len)
                        .map(|i| key(heap.load(ArrayId(a), i).unwrap()))
                        .collect()
                })
                .collect()
        };
        let cfg_of = |engine| CpuConfig {
            engine,
            ..CpuConfig::default()
        };
        let seq = |engine, range: std::ops::Range<u64>| {
            let (mut env, mut heap) = (env.clone(), inst.heap.clone());
            let r = CpuCtx::new(&program, &cfg_of(engine))
                .run_sequential(&loop_, &bounds, range, &mut env, &mut heap)
                .unwrap();
            let env: Vec<_> = (0..f.num_vars)
                .map(|v| env.get(VarId(v)).ok().map(key))
                .collect();
            (CpuFingerprint::of(&r), heap_key(&heap), env)
        };
        let deferred = |engine, range: std::ops::Range<u64>| {
            let (r, writes) = CpuCtx::new(&program, &cfg_of(engine))
                .run_deferred(&loop_, &bounds, range, &env, &inst.heap)
                .unwrap();
            let writes: Vec<_> = writes.into_iter().map(|(at, v)| (at, key(v))).collect();
            (CpuFingerprint::of(&r), writes)
        };
        let par = |engine, range: std::ops::Range<u64>, threads| {
            let mut heap = inst.heap.clone();
            let r = CpuCtx::new(&program, &cfg_of(engine))
                .run_parallel(&loop_, &bounds, range, &env, &mut heap, threads)
                .unwrap();
            (CpuFingerprint::of(&r), heap_key(&heap))
        };
        for range in [0..trip, 7..trip - 5, 40..41] {
            let scalar = seq(ExecEngine::TreeWalker, range.clone());
            let scalar_deferred = deferred(ExecEngine::TreeWalker, range.clone());
            for engine in COMPILED_ENGINES {
                assert_eq!(
                    seq(engine, range.clone()),
                    scalar,
                    "{name} {engine:?} sequential"
                );
                assert_eq!(
                    deferred(engine, range.clone()),
                    scalar_deferred,
                    "{name} {engine:?} deferred"
                );
            }
            for threads in [1u32, 16] {
                let (report, heap) = par(ExecEngine::TreeWalker, range.clone(), threads);
                // No batch of BlackScholes conflicts, so its range commits
                // whole and sequentially; the walker's buffered chunks
                // read across the dependence. The other three either hold
                // false dependences only or fall back to those chunks.
                let heap = if name == "BlackScholes" {
                    scalar.1.clone()
                } else {
                    heap
                };
                for engine in COMPILED_ENGINES {
                    let got = par(engine, range.clone(), threads);
                    assert_eq!(
                        got.0, report,
                        "{name} {engine:?} report on {threads} threads"
                    );
                    assert_eq!(got.1, heap, "{name} {engine:?} heap on {threads} threads");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// TLS path (seeded RAW dependence so rollbacks actually happen)
// ---------------------------------------------------------------------------

/// Scheduler-visible rollback decisions from a [`TlsReport`], bit-exact.
#[derive(Debug, PartialEq, Eq)]
struct TlsFingerprint {
    kernels: u32,
    clean_subloops: u32,
    violations: u32,
    intra_warp: u32,
    inter_warp: u32,
    recovered_iters: u64,
    gpu_time_bits: u64,
    cpu_time_bits: u64,
    time_bits: u64,
}

impl TlsFingerprint {
    fn of(r: &TlsReport) -> TlsFingerprint {
        TlsFingerprint {
            kernels: r.kernels,
            clean_subloops: r.clean_subloops,
            violations: r.violations,
            intra_warp: r.intra_warp_violations,
            inter_warp: r.inter_warp_violations,
            recovered_iters: r.recovered_iters,
            gpu_time_bits: r.gpu_time_s.to_bits(),
            cpu_time_bits: r.cpu_time_s.to_bits(),
            time_bits: r.time_s.to_bits(),
        }
    }
}

fn run_tls(n: i64, dist: i64, subloop: u64, engine: ExecEngine) -> (TlsFingerprint, Vec<i64>) {
    let src = format!(
        "static void f(long[] a, int n) {{
            /* acc parallel */
            for (int i = 0; i < n; i++) {{
                if (i >= {dist}) {{ a[i] = a[i - {dist}] + 1; }} else {{ a[i] = 1; }}
            }}
        }}"
    );
    let program = compile_source(&src).unwrap();
    let f = &program.functions[0];
    let loop_ = f.all_loops()[0].clone();
    let mut heap = Heap::new();
    let a = heap.alloc_longs(&(0..n).collect::<Vec<_>>());
    let mut dcfg = DeviceConfig::default();
    dcfg.sim.engine = engine;
    let mut dev = DeviceMemory::new();
    dev.copy_in(&heap, a, 0, n as usize, &dcfg).unwrap();
    let mut env = Env::with_slots(f.num_vars);
    env.set(f.params[0].var, Value::Array(a));
    env.set(f.params[1].var, Value::Int(n as i32));
    let bounds = LoopBounds {
        start: 0,
        end: n,
        step: 1,
    };
    let tls = TlsConfig {
        subloop_iters: subloop,
        ..TlsConfig::default()
    };
    // Recovery windows replay on the CPU model's engine, through the cache.
    let ccfg = CpuConfig {
        engine,
        ..CpuConfig::default()
    };
    let r = run_tls_loop_guarded_with(
        &program,
        &dcfg,
        &ccfg,
        &tls,
        &loop_,
        &bounds,
        0..n as u64,
        &env,
        &mut dev,
        None,
        None,
        &ResilienceConfig::default(),
        Some(&KernelCache::new()),
    )
    .unwrap();
    let mem: Vec<i64> = {
        let arr = dev.array(a).unwrap();
        (0..arr.len())
            .map(|i| arr.get(i).as_i64().unwrap())
            .collect()
    };
    (TlsFingerprint::of(&r), mem)
}

// ---------------------------------------------------------------------------
// Chunk memories (journaled ≡ tracked, buffer-only ≡ tracked)
// ---------------------------------------------------------------------------

/// Stores `a[i]` twice when the data says so: the journal must list the
/// element once, as a per-iteration buffer does.
const STORES_TWICE: &str = "static void k(double[] a, double[] b, int n) {
    /* acc parallel */
    for (int i = 0; i < n; i++) {
        a[i] = b[i] * 2.0;
        if (b[i] > 0.5) { a[i] = a[i] + 1.0; }
    }
}";

/// Re-stores `a[i]` from an inner loop.
const INNER_LOOP: &str = "static void k(double[] a, double[] b, int n) {
    /* acc parallel */
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < 5; j++) { a[i] = a[i] * 0.5 + b[i]; }
    }
}";

const ENGINES: [ExecEngine; 3] = [
    ExecEngine::TreeWalker,
    ExecEngine::Bytecode,
    ExecEngine::Native,
];

/// `analysis` with a scalar named live-out: still DOALL (mode A), no longer
/// proven — the shape a trusted `private(..)` clause leaves — so the
/// scheduler keeps the loop on its fully tracked chunk memory. The data
/// plan only reads the array classes and does not move.
fn unproven_twin(analysis: &LoopAnalysis) -> LoopAnalysis {
    let mut twin = analysis.clone();
    let scalar = twin
        .classes
        .uses
        .iter()
        .find(|(_, u)| !u.is_array)
        .map(|(v, _)| *v)
        .expect("the kernels read the scalar `n`");
    twin.classes.live_out.push(scalar);
    assert!(twin.determination.is_doall() && !twin.proven_independent());
    twin
}

fn sched_cfg(engine: ExecEngine, threads: usize) -> SchedulerConfig {
    let mut cfg = SchedulerConfig::default().with_host_threads(threads);
    cfg.gpu.sim.engine = engine;
    cfg.cpu.engine = engine;
    // Several chunks and several sub-loops even at a few hundred iterations.
    cfg.max_chunks = 8;
    cfg
}

#[derive(Debug, Clone, Copy)]
enum Entry {
    Sharing,
    Stealing,
    FixedSplit,
}

/// One scheduler run over `fx`'s loop: the whole report — `{:?}` prints an
/// f64 as the shortest decimal that round-trips, so equal text is equal
/// bits — and the heap bits of both arrays.
fn run_scheduled(
    fx: &Fx,
    analysis: &LoopAnalysis,
    entry: Entry,
    cfg: &SchedulerConfig,
) -> (String, Vec<u64>, Vec<u64>) {
    let task = LoopTask {
        loop_: &fx.loop_,
        analysis,
        profile: None,
    };
    let mut heap = fx.heap.clone();
    let report = match entry {
        Entry::Sharing => format!(
            "{:?}",
            run_sharing(&fx.program, cfg, &task, &mut fx.env.clone(), &mut heap).unwrap()
        ),
        Entry::Stealing => {
            let (_, f) = fx.program.function_by_name("k").unwrap();
            let pdg = build_pdg(f);
            format!(
                "{:?}",
                run_stealing(&fx.program, cfg, &[task], &pdg, &fx.env, &mut heap).unwrap()
            )
        }
        Entry::FixedSplit => format!(
            "{:?}",
            task.prepare(&fx.program, cfg, &fx.env, &mut heap)
                .and_then(|run| run.fixed_split(&fx.env, &mut heap, 0.5))
                .unwrap()
        ),
    };
    (report, heap_bits(&heap, fx.a), heap_bits(&heap, fx.b))
}

/// One chunk through `LoopRun::launch_chunk`: the kernel report, the
/// writes sorted by location (the journal lists them in store order, the
/// buffers in iteration order) and the device bits of `a`.
fn run_chunk(
    fx: &Fx,
    analysis: &LoopAnalysis,
    cfg: &SchedulerConfig,
) -> (KernelReport, Vec<(ArrayId, i64, u64)>, Vec<u64>) {
    let task = LoopTask {
        loop_: &fx.loop_,
        analysis,
        profile: None,
    };
    let mut heap = fx.heap.clone();
    let run = task.prepare(&fx.program, cfg, &fx.env, &mut heap).unwrap();
    assert_eq!(run.bounds, fx.bounds);
    let stats = &mut Default::default();
    let mut dev = run.stage(&heap, run.origin, stats).unwrap();
    let (kr, writes) = run
        .launch_chunk(
            0..fx.n as u64,
            &fx.env,
            &mut dev,
            &mut SpecArena::default(),
            stats,
        )
        .unwrap()
        .outcome
        .unwrap();
    let mut writes: Vec<_> = writes
        .into_iter()
        .map(|((arr, idx), v)| (arr, idx, v.as_f64().unwrap().to_bits()))
        .collect();
    writes.sort();
    (kr, writes, mem_bits(&dev, fx.a))
}

/// Journaled ≡ tracked on `src` at `n` iterations, everywhere a GPU chunk
/// is launched from.
fn assert_journaled_equals_tracked(src: &str, n: usize) -> Result<(), TestCaseError> {
    let fx = fx(src, n);
    let proven = analyze_program(&fx.program)[&fx.loop_.id].clone();
    prop_assert!(
        proven.proven_independent(),
        "the DOALL contract must be provable:\n{}",
        src
    );
    let tracked = unproven_twin(&proven);
    for engine in ENGINES {
        for threads in [1usize, 2] {
            let cfg = sched_cfg(engine, threads);
            prop_assert_eq!(
                run_chunk(&fx, &proven, &cfg),
                run_chunk(&fx, &tracked, &cfg),
                "{:?} chunk diverged at {} threads:\n{}",
                engine,
                threads,
                src
            );
            for entry in [Entry::Sharing, Entry::Stealing, Entry::FixedSplit] {
                prop_assert_eq!(
                    run_scheduled(&fx, &proven, entry, &cfg),
                    run_scheduled(&fx, &tracked, entry, &cfg),
                    "{:?} {:?} diverged at {} threads:\n{}",
                    engine,
                    entry,
                    threads,
                    src
                );
            }
        }
    }
    Ok(())
}

/// A staged privatization fixture: some loop with false dependences only.
struct Privatized {
    program: Program,
    loop_: ForLoop,
    env: Env,
    bounds: LoopBounds,
    dev: DeviceMemory,
}

impl Privatized {
    /// `function`'s first annotated loop over `heap`, parameters bound to
    /// `args`, its data plan staged.
    fn stage(program: &Program, function: &str, args: &[Value], heap: &mut Heap) -> Privatized {
        let (_, f) = program.function_by_name(function).unwrap();
        let loop_ = f
            .all_loops()
            .into_iter()
            .find(|l| l.is_annotated())
            .unwrap()
            .clone();
        let mut env = Env::with_slots(f.num_vars);
        for (p, a) in f.params.iter().zip(args) {
            env.set(p.var, *a);
        }
        let analysis = &analyze_program(program)[&loop_.id];
        let bounds = eval_bounds(program, &loop_, &env, heap).unwrap();
        let plan = DataPlan::derive(program, &loop_, &analysis.classes, &env, heap).unwrap();
        let mut dev = DeviceMemory::new();
        stage_device(&plan, heap, &mut dev, &SchedulerConfig::default()).unwrap();
        Privatized {
            program: program.clone(),
            loop_,
            env,
            bounds,
            dev,
        }
    }

    /// `run_privatized_with` (buffer-only) against the same launch over a
    /// fully tracked memory: same write list, same report, same device.
    fn assert_buffer_only_equals_tracked(&self) -> Result<(), TestCaseError> {
        let tls = TlsConfig::default();
        let range = 0..self.bounds.trip();
        for engine in ENGINES {
            for threads in [1usize, 2] {
                let mut dcfg = DeviceConfig::default();
                dcfg.sim.engine = engine;
                dcfg.sim.host_threads = threads;
                let kernels = KernelCache::new();
                let mut dev = self.dev.clone();
                let r = run_privatized_with(
                    &self.program,
                    &dcfg,
                    &tls,
                    &self.loop_,
                    &self.bounds,
                    range.clone(),
                    &self.env,
                    &mut dev,
                    Some(&kernels),
                )
                .unwrap();

                let mut tracked_dev = self.dev.clone();
                let mut spec =
                    SpeculativeMemory::new(&mut tracked_dev, tls.se_overhead_cycles / 2.0);
                let kr = launch_loop_par_with(
                    &self.program,
                    &dcfg,
                    &self.loop_,
                    &self.bounds,
                    range.clone(),
                    &self.env,
                    &mut spec,
                    None,
                    None,
                    Some(&kernels),
                )
                .unwrap();
                prop_assert!(spec.entries() > 0, "the tracked memory did track");
                let writes = spec.commit_all_collect().unwrap();
                let gpu_time_s = kr.time_s
                    + dcfg.cycles_to_seconds(writes.len() as f64 * tls.commit_cycles_per_write);

                prop_assert!(!writes.is_empty());
                prop_assert_eq!(&r.writes, &writes, "{:?}/{} write list", engine, threads);
                prop_assert_eq!(
                    (
                        r.gpu_time_s.to_bits(),
                        r.time_s.to_bits(),
                        r.cpu_time_s.to_bits()
                    ),
                    (gpu_time_s.to_bits(), gpu_time_s.to_bits(), 0f64.to_bits()),
                    "{:?}/{} time",
                    engine,
                    threads
                );
                prop_assert_eq!(
                    (r.kernels, r.clean_subloops, r.violations, r.recovered_iters),
                    (1, 1, 0, 0)
                );
                for slot in 0..8 {
                    let arr = ArrayId(slot);
                    prop_assert_eq!(dev.array(arr).ok(), tracked_dev.array(arr).ok());
                }
            }
        }
        Ok(())
    }
}

#[test]
fn journaled_chunks_equal_tracked_on_the_repeated_store_kernels() {
    for src in [STORES_TWICE, INNER_LOOP] {
        for n in [33usize, 96, 500] {
            assert_journaled_equals_tracked(src, n).unwrap();
        }
    }
}

#[test]
fn buffer_only_privatization_equals_tracked_on_cfd_and_sepia() {
    for name in ["CFD", "Sepia"] {
        let w = japonica_workloads::Workload::by_name(name).unwrap();
        let mut inst = w.instantiate(1);
        let program = w.compile().program;
        Privatized::stage(&program, w.entry, &inst.args, &mut inst.heap)
            .assert_buffer_only_equals_tracked()
            .unwrap();
    }
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// GPU path: for random kernels the bytecode SIMT VM, the native tier,
    /// and the tree walker agree on memory bits, `GpuStats`, and cycle bit
    /// patterns at `host_threads ∈ {1, 4}`.
    #[test]
    fn gpu_engines_bit_identical(
        genes in proptest::collection::vec(any::<u8>(), 8..64),
        n in 33usize..700,
    ) {
        let src = gen_kernel(&genes);
        let fx = fx(&src, n);
        // The generated grammar stays inside the compilable subset: assert
        // it so the compiled legs genuinely exercise the VM and native tier
        // (an uncompilable kernel would silently fall back to the walker).
        prop_assert!(
            compile_kernel(&fx.program, &fx.loop_).is_ok(),
            "generated kernel must compile to bytecode:\n{}", src
        );
        for threads in [1usize, 4] {
            let (rw, mw) = run_gpu(&fx, ExecEngine::TreeWalker, threads);
            for engine in COMPILED_ENGINES {
                let (rb, mb) = run_gpu(&fx, engine, threads);
                prop_assert_eq!(
                    &rw.stats, &rb.stats,
                    "{:?} GpuStats diverged at {} threads:\n{}", engine, threads, &src
                );
                prop_assert_eq!(
                    rw.critical_cycles.to_bits(), rb.critical_cycles.to_bits(),
                    "{:?} critical cycles diverged at {} threads:\n{}", engine, threads, &src
                );
                prop_assert_eq!(
                    rw.time_s.to_bits(), rb.time_s.to_bits(),
                    "{:?} kernel time diverged at {} threads:\n{}", engine, threads, &src
                );
                prop_assert_eq!(&rw, &rb, "{:?} report diverged at {} threads:\n{}", engine, threads, &src);
                prop_assert_eq!(&mw, &mb, "{:?} memory diverged at {} threads:\n{}", engine, threads, &src);
            }
            // Demand-driven promotion: warm a shared cache past the
            // threshold so this launch resolves native via the hit counter.
            let cache = KernelCache::new();
            for _ in 0..NATIVE_PROMOTE_USES {
                cache.get_or_compile(&fx.program, &fx.loop_);
            }
            let (rn, mn) = run_gpu_cached(&fx, ExecEngine::Native, threads, &cache);
            prop_assert_eq!(&rw, &rn, "promoted-native report diverged at {} threads:\n{}", threads, &src);
            prop_assert_eq!(&mw, &mn, "promoted-native memory diverged at {} threads:\n{}", threads, &src);
        }
    }

    /// CPU path: sequential and chunked-parallel execution agree between
    /// engines on heap bits, op counts, and modeled time.
    #[test]
    fn cpu_engines_bit_identical(
        genes in proptest::collection::vec(any::<u8>(), 8..64),
        n in 33usize..700,
    ) {
        let src = gen_kernel(&genes);
        let fx = fx(&src, n);
        prop_assert!(
            compile_kernel(&fx.program, &fx.loop_).is_ok(),
            "generated kernel must compile to bytecode:\n{}", src
        );
        let (fw, mw, _) = run_cpu_seq(&fx, ExecEngine::TreeWalker, Independence::Unproven);
        for engine in COMPILED_ENGINES {
            let (fb, mb, _) = run_cpu_seq(&fx, engine, Independence::Unproven);
            prop_assert_eq!(&fw, &fb, "{:?} sequential report diverged:\n{}", engine, &src);
            prop_assert_eq!(&mw, &mb, "{:?} sequential memory diverged:\n{}", engine, &src);
        }
        for threads in [1u32, 4] {
            let (fw, mw) = run_cpu_par(&fx, ExecEngine::TreeWalker, threads, Independence::Unproven);
            for engine in COMPILED_ENGINES {
                let (fb, mb) = run_cpu_par(&fx, engine, threads, Independence::Unproven);
                prop_assert_eq!(&fw, &fb, "{:?} parallel report diverged at {} threads:\n{}", engine, threads, &src);
                prop_assert_eq!(&mw, &mb, "{:?} parallel memory diverged at {} threads:\n{}", engine, threads, &src);
            }
        }
    }

    /// Lane-batched CPU path: on every generated kernel static analysis
    /// proves independent, running 32 iterations at a time through the warp
    /// sweeps — trusting the proof or checking every access instead — is
    /// indistinguishable from the walker's scalar execution: heap bits,
    /// per-simulated-thread op counts and seconds, modeled time, and the
    /// `Env` a sequential run writes back, around every batch-size edge.
    #[test]
    fn cpu_lanes_bit_identical_to_scalar(
        genes in proptest::collection::vec(any::<u8>(), 8..64),
    ) {
        let src = gen_kernel(&genes);
        for trip in [1usize, 31, 32, 33, 100] {
            let fx = fx(&src, trip);
            prop_assert!(
                analyze_program(&fx.program)[&fx.loop_.id].proven_independent(),
                "the generator's DOALL contract must be provable:\n{}", src
            );
            let scalar = run_cpu_seq(&fx, ExecEngine::TreeWalker, Independence::Unproven);
            for engine in COMPILED_ENGINES {
                for independence in [Independence::Proven, Independence::Unproven] {
                    let lanes = run_cpu_seq(&fx, engine, independence);
                    prop_assert_eq!(
                        &scalar, &lanes,
                        "{:?} {:?} sequential diverged at trip {}:\n{}", engine, independence, trip, &src
                    );
                }
            }
            for threads in [1u32, 3, 16] {
                let scalar = run_cpu_par(&fx, ExecEngine::TreeWalker, threads, Independence::Unproven);
                for engine in COMPILED_ENGINES {
                    for independence in [Independence::Proven, Independence::Unproven] {
                        let lanes = run_cpu_par(&fx, engine, threads, independence);
                        prop_assert_eq!(
                            &scalar, &lanes,
                            "{:?} {:?} parallel diverged at trip {} on {} threads:\n{}",
                            engine, independence, trip, threads, &src
                        );
                    }
                }
            }
        }
    }

    /// TLS path: on loops with true cross-iteration dependences all three
    /// engines make identical rollback decisions and commit identical
    /// memory.
    #[test]
    fn tls_rollback_decisions_engine_invariant(
        n in 200i64..900,
        dist in 1i64..250,
        subloop in prop_oneof![Just(64u64), Just(256u64)],
    ) {
        let (fw, mw) = run_tls(n, dist, subloop, ExecEngine::TreeWalker);
        for engine in COMPILED_ENGINES {
            let (fb, mb) = run_tls(n, dist, subloop, engine);
            prop_assert_eq!(&fw, &fb, "{:?} rollback decisions diverged (n={}, dist={})", engine, n, dist);
            prop_assert_eq!(&mw, &mb, "{:?} committed memory diverged (n={}, dist={})", engine, n, dist);
        }
    }

    /// Fault-retry path: a transient injected fault surfaces identically
    /// under every engine, and the retry that follows produces identical
    /// results — on both the guarded GPU launch and the guarded CPU
    /// executor.
    #[test]
    fn fault_retry_paths_engine_invariant(
        genes in proptest::collection::vec(any::<u8>(), 8..48),
        n in 33usize..300,
    ) {
        let src = gen_kernel(&genes);
        let fx = fx(&src, n);
        prop_assert!(
            compile_kernel(&fx.program, &fx.loop_).is_ok(),
            "generated kernel must compile to bytecode:\n{}", src
        );

        // GPU: transient launch fault fires once, retry succeeds.
        let mut gpu_runs = Vec::new();
        for engine in [ExecEngine::TreeWalker, ExecEngine::Bytecode, ExecEngine::Native] {
            let mut cfg = DeviceConfig::default();
            cfg.sim.engine = engine;
            let mut dev = DeviceMemory::new();
            dev.copy_in(&fx.heap, fx.a, 0, fx.n, &cfg).unwrap();
            dev.copy_in(&fx.heap, fx.b, 0, fx.n, &cfg).unwrap();
            let plan = FaultPlan::new(9, vec![FaultRule::transient(FaultKind::KernelLaunch, 1)]);
            let launch = |dev: &mut DeviceMemory| {
                launch_loop_guarded(
                    &fx.program, &cfg, &fx.loop_, &fx.bounds, 0..fx.n as u64,
                    &fx.env, dev, Some(&plan), None,
                )
            };
            let first = launch(&mut dev);
            prop_assert!(first.is_err(), "{:?}: injected launch fault did not surface", engine);
            let retry = launch(&mut dev);
            prop_assert!(retry.is_ok(), "{:?}: retry after transient fault failed", engine);
            gpu_runs.push((
                format!("{:?}", first.err()),
                retry.ok(),
                mem_bits(&dev, fx.a),
            ));
        }
        for (engine, run) in COMPILED_ENGINES.iter().zip(&gpu_runs[1..]) {
            prop_assert_eq!(&gpu_runs[0].0, &run.0, "{:?} fault surfaced differently:\n{}", engine, &src);
            prop_assert_eq!(&gpu_runs[0].1, &run.1, "{:?} post-retry report diverged:\n{}", engine, &src);
            prop_assert_eq!(&gpu_runs[0].2, &run.2, "{:?} post-retry memory diverged:\n{}", engine, &src);
        }

        // CPU: transient worker-chunk fault fires once, retry succeeds.
        let mut cpu_runs = Vec::new();
        for engine in [ExecEngine::TreeWalker, ExecEngine::Bytecode, ExecEngine::Native] {
            let mut cfg = CpuConfig::default();
            cfg.engine = engine;
            let mut heap = fx.heap.clone();
            let plan = FaultPlan::new(9, vec![FaultRule::transient(FaultKind::CpuChunk, 1)]);
            let guarded = CpuCtx {
                faults: Some(&plan),
                ..CpuCtx::new(&fx.program, &cfg)
            };
            let run = |heap: &mut Heap| {
                guarded.run_parallel(&fx.loop_, &fx.bounds, 0..fx.n as u64, &fx.env, heap, 4)
            };
            let first = run(&mut heap);
            prop_assert!(
                matches!(&first, Err(CpuExecError::Fault(f)) if f.kind == FaultKind::CpuChunk),
                "{:?}: injected chunk fault did not surface", engine
            );
            let retry = run(&mut heap);
            prop_assert!(retry.is_ok(), "{:?}: retry after transient fault failed", engine);
            cpu_runs.push((
                format!("{:?}", first.err()),
                retry.ok().map(|r| CpuFingerprint::of(&r)),
                heap_bits(&heap, fx.a),
            ));
        }
        for (engine, run) in COMPILED_ENGINES.iter().zip(&cpu_runs[1..]) {
            prop_assert_eq!(&cpu_runs[0].0, &run.0, "{:?} fault surfaced differently:\n{}", engine, &src);
            prop_assert_eq!(&cpu_runs[0].1, &run.1, "{:?} post-retry report diverged:\n{}", engine, &src);
            prop_assert_eq!(&cpu_runs[0].2, &run.2, "{:?} post-retry memory diverged:\n{}", engine, &src);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Chunk memories, proven loops: on every generated kernel the
    /// write-through journaled launch is indistinguishable from the fully
    /// tracked speculative one — kernel report, write list and device bits
    /// of one chunk; report and heap bits under sharing, stealing and the
    /// fixed split — for every engine at `host_threads ∈ {1, 2}`.
    #[test]
    fn journaled_chunks_equal_tracked(
        genes in proptest::collection::vec(any::<u8>(), 8..64),
        n in 33usize..400,
    ) {
        assert_journaled_equals_tracked(&gen_kernel(&genes), n)?;
    }

    /// Chunk memories, false dependences only: every iteration overwrites
    /// one of `k` shared cells (WAW, and WAR against the read that follows),
    /// so only iteration-ordered commits are sequentially equivalent.
    #[test]
    fn buffer_only_privatization_equals_tracked(k in 2i64..70, n in 40i32..600) {
        let src = format!(
            "static void f(long[] a, long[] o, int n) {{
                /* acc parallel */
                for (int i = 0; i < n; i++) {{
                    a[i % {k}] = i;
                    o[i] = a[i % {k}] * 2;
                }}
            }}"
        );
        let program = compile_source(&src).unwrap();
        let mut heap = Heap::new();
        let a = heap.alloc_longs(&vec![0; 70]);
        let o = heap.alloc_longs(&vec![0; n as usize]);
        let args = [Value::Array(a), Value::Array(o), Value::Int(n)];
        Privatized::stage(&program, "f", &args, &mut heap).assert_buffer_only_equals_tracked()?;
    }
}
