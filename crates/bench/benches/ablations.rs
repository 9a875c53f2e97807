//! Ablation studies over the design choices DESIGN.md calls out:
//!
//! 1. the boundary/steal-back split vs naive fixed fractions;
//! 2. the sharing chunk count (transfer-overlap granularity);
//! 3. TLS sub-loop size under blind speculation;
//! 4. profile-guided vs blind speculation for the low-density loop;
//! 5. kernel execution engine: reference tree walker vs register bytecode
//!    VM vs threaded-code native tier (real host wall-clock per simulated
//!    iteration, with each tier's one-time compile cost measured
//!    separately);
//! 6. TLS speculative bookkeeping: the per-cell map-based reference vs the
//!    struct-of-arrays `SpecView` fast path, on no-conflict and
//!    high-conflict access patterns.
//!
//! Each ablation prints a small table; criterion measures one
//! representative configuration pair.

use criterion::{criterion_group, criterion_main, Criterion};
use japonica::cpuexec::{CpuConfig, CpuCtx, Independence};
use japonica::gpusim::{AccessCtx, DeviceConfig, DeviceMemory, LaneMemory};
use japonica::ir::{
    compile_kernel, compile_native, ArrayId, CountingBackend, Env, ExecEngine, ForLoop, Heap,
    HeapBackend, Interp, KernelCache, LoopBounds, NativeKernel, NativeVm, Program, ScalarVm, Value,
    NATIVE_PROMOTE_USES,
};
use japonica::tls::SpeculativeMemory;
use japonica::{run_baseline, Baseline, Runtime, RuntimeConfig};
use japonica_bench::{run_variant, Variant};
use japonica_workloads::Workload;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn wall_with(w: &Workload, n: u64, tweak: impl FnOnce(&mut RuntimeConfig)) -> f64 {
    let compiled = w.compile();
    let inst = w.instantiate(n);
    let mut heap = inst.heap.clone();
    let mut cfg = RuntimeConfig::default();
    cfg.sched.subloops_per_task = w.subloops;
    tweak(&mut cfg);
    let r = Runtime::new(cfg)
        .run(&compiled, w.entry, &inst.args, &mut heap)
        .unwrap();
    let mut expected = inst.heap.clone();
    w.run_reference(&mut expected, &inst.args);
    japonica_workloads::outputs_match(&heap, &expected, &inst).unwrap();
    r.total_s
}

fn ablate_split_policy() {
    println!("== Ablation: split policy (VectorAdd, n=2, ms) ==");
    let w = Workload::by_name("VectorAdd").unwrap();
    let compiled = w.compile();
    let row = |label: &str, frac: Option<f64>| {
        let inst = w.instantiate(2);
        let mut heap = inst.heap.clone();
        let t = match frac {
            Some(f) => {
                run_baseline(
                    &RuntimeConfig::default(),
                    &compiled,
                    w.entry,
                    &inst.args,
                    &mut heap,
                    Baseline::FixedSplit(f),
                )
                .unwrap()
                .total_s
            }
            None => {
                let r = Runtime::default()
                    .run(&compiled, w.entry, &inst.args, &mut heap)
                    .unwrap();
                r.total_s
            }
        };
        println!("  {label:<28} {:>8.3}", t * 1e3);
    };
    row("boundary + steal-back", None);
    for f in [0.25, 0.5, 0.75, 0.94] {
        row(&format!("fixed {:.0}% GPU", f * 100.0), Some(f));
    }
}

fn ablate_chunk_count() {
    println!("== Ablation: sharing chunk size (VectorAdd, n=2, ms) ==");
    let w = Workload::by_name("VectorAdd").unwrap();
    for chunk_iters in [128u64, 512, 2048, 8192, 32768] {
        let t = wall_with(w, 2, |cfg| cfg.sched.chunk_iters = chunk_iters);
        println!("  chunk_iters = {chunk_iters:<6} {:>8.3}", t * 1e3);
    }
}

fn ablate_tls_subloop() {
    println!("== Ablation: blind-TLS sub-loop size (BlackScholes GPU-only, n=1, ms) ==");
    let w = Workload::by_name("BlackScholes").unwrap();
    let compiled = w.compile();
    for sub in [256u64, 896, 1792, 7168] {
        let inst = w.instantiate(1);
        let mut heap = inst.heap.clone();
        let mut cfg = RuntimeConfig::default();
        cfg.sched.tls.subloop_iters = sub;
        let t = run_baseline(
            &cfg,
            &compiled,
            w.entry,
            &inst.args,
            &mut heap,
            Baseline::GpuOnly,
        )
        .unwrap()
        .total_s;
        println!("  subloop = {sub:<5} {:>8.3}", t * 1e3);
    }
}

fn ablate_profile_guidance() {
    println!("== Ablation: profile guidance for mode B (BlackScholes, n=1, ms) ==");
    let w = Workload::by_name("BlackScholes").unwrap();
    // Guided: the runtime profiles and feeds td_iters to the TLS engine.
    let guided = wall_with(w, 1, |_| {});
    // Blind: the GPU-only baseline speculates without a profile.
    let compiled = w.compile();
    let inst = w.instantiate(1);
    let mut heap = inst.heap.clone();
    let blind = run_baseline(
        &RuntimeConfig::default(),
        &compiled,
        w.entry,
        &inst.args,
        &mut heap,
        Baseline::GpuOnly,
    )
    .unwrap()
    .total_s;
    println!("  profile-guided {:>8.3}", guided * 1e3);
    println!("  blind          {:>8.3}", blind * 1e3);
}

/// The three engine-ablation kernels: uniform streaming arithmetic, a
/// divergent branch with intrinsics, and an inner loop plus helper call —
/// the three per-iteration cost profiles the interpreter pays for
/// differently.
const ENGINE_KERNELS: [(&str, &str); 3] = [
    (
        "saxpy",
        "static void k(double[] x, double[] y, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) { y[i] = 2.5 * x[i] + y[i]; }
        }",
    ),
    (
        "divergent",
        "static void k(double[] x, double[] y, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) {
                if (i % 3 == 0) { y[i] = Math.sqrt(Math.abs(x[i])) + 1.0; }
                else { y[i] = x[i] * x[i] - 0.5; }
            }
        }",
    ),
    (
        "inner_call",
        "static double mix(double a, double b) { return a * 0.75 + b * 0.25; }
        static void k(double[] x, double[] y, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) {
                for (int j = 0; j < 4; j++) { y[i] = mix(y[i], x[i] + (double) j); }
            }
        }",
    ),
];

struct EngineFx {
    program: Program,
    loop_: ForLoop,
    env: Env,
    heap: Heap,
    bounds: LoopBounds,
    n: u64,
}

fn engine_fx(src: &str, n: usize) -> EngineFx {
    let program = japonica::frontend::compile_source(src).unwrap();
    let (_, f) = program.function_by_name("k").unwrap();
    let loop_ = f.all_loops()[0].clone();
    let mut heap = Heap::new();
    let x = heap.alloc_doubles(&(0..n).map(|i| (i as f64 * 0.37).sin()).collect::<Vec<_>>());
    let y = heap.alloc_doubles(&vec![1.0; n]);
    let mut env = Env::with_slots(f.num_vars);
    env.set(f.params[0].var, Value::Array(x));
    env.set(f.params[1].var, Value::Array(y));
    env.set(f.params[2].var, Value::Int(n as i32));
    EngineFx {
        program,
        loop_,
        env,
        heap,
        bounds: LoopBounds {
            start: 0,
            end: n as i64,
            step: 1,
        },
        n: n as u64,
    }
}

/// A kernel cache warmed past the native-promotion threshold, so
/// `ExecEngine::Native` runs resolve the memoized closure-array tier
/// (steady state, compile amortized) instead of recompiling per run.
fn warmed_cache(fx: &EngineFx) -> KernelCache {
    let cache = KernelCache::new();
    for _ in 0..NATIVE_PROMOTE_USES {
        cache.get_or_compile(&fx.program, &fx.loop_);
    }
    cache
}

/// One sequential pass over the kernel on `engine`'s *scalar* executor,
/// one iteration at a time — driven directly, because the CPU executor
/// itself batches every range the lane VM accepts.
fn engine_run(fx: &EngineFx, engine: ExecEngine, kernels: Option<&KernelCache>) {
    let mut heap = fx.heap.clone();
    let mut be = CountingBackend::new(HeapBackend::new(&mut heap));
    let (var, env) = (fx.loop_.var, &mut fx.env.clone());
    let kernel = || match kernels {
        Some(cache) => cache.get_or_compile(&fx.program, &fx.loop_).unwrap(),
        None => Arc::new(compile_kernel(&fx.program, &fx.loop_).unwrap()),
    };
    match engine {
        ExecEngine::TreeWalker => {
            Interp::new(&fx.program).exec_range(&fx.loop_, &fx.bounds, 0, fx.n, env, &mut be)
        }
        ExecEngine::Bytecode => {
            ScalarVm::new().exec_range(&kernel(), var, &fx.bounds, 0, fx.n, env, &mut be)
        }
        ExecEngine::Native => {
            let k = kernel();
            let native = kernels
                .and_then(|c| c.native_tier::<NativeKernel, _>(fx.loop_.id.0, compile_native))
                .unwrap_or_else(|| Arc::new(compile_native(&k)));
            NativeVm::new().exec_range(&native, var, &fx.bounds, 0, fx.n, env, &mut be)
        }
    }
    .unwrap();
}

/// One sequential pass through the CPU executor: lane batches of 32 over
/// the bytecode kernel, unchecked under [`Independence::Proven`] (every
/// engine kernel is DOALL), conflict-checked otherwise.
fn cpu_run(fx: &EngineFx, independence: Independence) {
    let cfg = CpuConfig::default();
    let mut heap = fx.heap.clone();
    let ctx = CpuCtx {
        independence,
        ..CpuCtx::new(&fx.program, &cfg)
    };
    ctx.run_sequential(
        &fx.loop_,
        &fx.bounds,
        0..fx.n,
        &mut fx.env.clone(),
        &mut heap,
    )
    .unwrap();
}

fn ablate_engine() {
    println!("== Ablation: kernel engine, host ns per simulated iteration (n=8192) ==");
    println!(
        "  {:<12} {:>10} {:>10} {:>10} {:>8} {:>8} {:>12} {:>12}",
        "kernel",
        "walker",
        "bytecode",
        "native",
        "bc spd",
        "nat spd",
        "bc comp(µs)",
        "nat comp(µs)"
    );
    for (name, src) in ENGINE_KERNELS {
        let fx = engine_fx(src, 8192);
        let cache = warmed_cache(&fx);
        let time = |engine: ExecEngine, kernels: Option<&KernelCache>| {
            // One warm-up, then the median of 5 timed runs.
            engine_run(&fx, engine, kernels);
            let mut runs: Vec<f64> = (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    engine_run(&fx, engine, kernels);
                    t0.elapsed().as_secs_f64()
                })
                .collect();
            runs.sort_by(|a, b| a.total_cmp(b));
            runs[2] / fx.n as f64 * 1e9
        };
        let walker = time(ExecEngine::TreeWalker, None);
        let bytecode = time(ExecEngine::Bytecode, None);
        let native = time(ExecEngine::Native, Some(&cache));
        let compiled = compile_kernel(&fx.program, &fx.loop_).unwrap();
        let reps = 100;
        let t0 = Instant::now();
        for _ in 0..reps {
            compile_kernel(&fx.program, &fx.loop_).unwrap();
        }
        let compile_us = t0.elapsed().as_secs_f64() / reps as f64 * 1e6;
        let t0 = Instant::now();
        for _ in 0..reps {
            compile_native(&compiled);
        }
        let native_compile_us = t0.elapsed().as_secs_f64() / reps as f64 * 1e6;
        println!(
            "  {name:<12} {walker:>10.1} {bytecode:>10.1} {native:>10.1} {:>7.2}x {:>7.2}x \
             {compile_us:>12.2} {native_compile_us:>12.2}",
            walker / bytecode,
            walker / native,
        );
    }
}

/// Access-pattern driver for the spec-mem ablation: `(iter, idx, is_write)`
/// streams for a no-conflict DOALL (each iteration touches only its own
/// element) and a high-conflict Gauss-Seidel stencil (each iteration reads
/// both neighbours, so nearly every read has an earlier cross-iteration
/// writer).
fn spec_stream(n: u64, conflict: bool) -> Vec<(u64, i64, bool)> {
    let mut out = Vec::new();
    for i in 0..n {
        if conflict {
            if i > 0 {
                out.push((i, i as i64 - 1, false));
            }
            if i + 1 < n {
                out.push((i, i as i64 + 1, false));
            }
            out.push((i, i as i64, true));
        } else {
            out.push((i, i as i64, false));
            out.push((i, i as i64, true));
        }
    }
    out
}

/// The per-cell map-based bookkeeping the SoA core replaced: one global
/// `(array, index)`-keyed writer set / reader list pair. Re-implemented
/// here as the ablation baseline.
#[derive(Default)]
struct MapSpec {
    writes: BTreeMap<u64, BTreeMap<(ArrayId, i64), Value>>,
    writers: BTreeMap<(ArrayId, i64), BTreeSet<(u64, u32)>>,
    readers: BTreeMap<(ArrayId, i64), Vec<(u64, u32)>>,
}

impl MapSpec {
    fn load(&mut self, iter: u64, arr: ArrayId, idx: i64) {
        if let Some(buf) = self.writes.get(&iter) {
            if buf.contains_key(&(arr, idx)) {
                return;
            }
        }
        self.readers.entry((arr, idx)).or_default().push((iter, 0));
    }

    fn store(&mut self, iter: u64, arr: ArrayId, idx: i64, v: Value) {
        self.writers
            .entry((arr, idx))
            .or_default()
            .insert((iter, 0));
        self.writes.entry(iter).or_default().insert((arr, idx), v);
    }

    fn check(&self) -> usize {
        let mut violators: BTreeSet<u64> = BTreeSet::new();
        for (loc, readers) in &self.readers {
            if let Some(ws) = self.writers.get(loc) {
                for &(r_iter, _) in readers {
                    if ws.range(..(r_iter, 0u32)).next_back().is_some() {
                        violators.insert(r_iter);
                    }
                }
            }
        }
        violators.len()
    }
}

fn spec_device(n: u64) -> (DeviceMemory, ArrayId) {
    let mut heap = Heap::new();
    let a = heap.alloc_doubles(&vec![1.0; n as usize]);
    let mut dev = DeviceMemory::new();
    dev.copy_in(&heap, a, 0, n as usize, &DeviceConfig::default())
        .unwrap();
    (dev, a)
}

fn spec_soa_run(dev: &mut DeviceMemory, a: ArrayId, stream: &[(u64, i64, bool)]) -> usize {
    let mut sm = SpeculativeMemory::new(dev, 8.0);
    for &(iter, idx, is_write) in stream {
        let ctx = AccessCtx {
            lane: 0,
            warp: (iter / 32) as u32,
            iter,
        };
        if is_write {
            sm.store(ctx, a, idx, Value::Double(iter as f64)).unwrap();
        } else {
            sm.load(ctx, a, idx).unwrap();
        }
    }
    sm.check().violating_iters.len()
}

fn spec_map_run(a: ArrayId, stream: &[(u64, i64, bool)]) -> usize {
    let mut m = MapSpec::default();
    for &(iter, idx, is_write) in stream {
        if is_write {
            m.store(iter, a, idx, Value::Double(iter as f64));
        } else {
            m.load(iter, a, idx);
        }
    }
    m.check()
}

fn ablate_spec_mem() {
    let n = 16_384u64;
    println!("== Ablation: TLS bookkeeping, host µs per SE+DC pass (n={n}) ==");
    println!(
        "  {:<14} {:>12} {:>12} {:>9}",
        "workload", "per-cell map", "SoA", "speedup"
    );
    for (name, conflict) in [("no_conflict", false), ("high_conflict", true)] {
        let stream = spec_stream(n, conflict);
        let (mut dev, a) = spec_device(n);
        // Both sides must agree on the violation count before being timed.
        assert_eq!(spec_soa_run(&mut dev, a, &stream), spec_map_run(a, &stream));
        let median5 = |f: &mut dyn FnMut() -> usize| {
            let mut runs: Vec<f64> = (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(f());
                    t0.elapsed().as_secs_f64()
                })
                .collect();
            runs.sort_by(|x, y| x.total_cmp(y));
            runs[2] * 1e6
        };
        let map_us = median5(&mut || spec_map_run(a, &stream));
        let soa_us = median5(&mut || spec_soa_run(&mut dev, a, &stream));
        println!(
            "  {name:<14} {map_us:>12.1} {soa_us:>12.1} {:>8.2}x",
            map_us / soa_us
        );
    }
}

fn bench(c: &mut Criterion) {
    ablate_split_policy();
    ablate_chunk_count();
    ablate_tls_subloop();
    ablate_profile_guidance();
    ablate_engine();
    ablate_spec_mem();

    let mut g = c.benchmark_group("ablation_split");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let w = Workload::by_name("VectorAdd").unwrap();
    g.bench_function("boundary_steal_back", |b| {
        b.iter(|| run_variant(w, 1, Variant::Japonica));
    });
    g.bench_function("fixed_fifty", |b| {
        b.iter(|| run_variant(w, 1, Variant::Fifty));
    });
    g.finish();

    // Engine ablation: per-iteration interpreter cost under each engine on
    // the three kernel profiles, plus the one-time bytecode compile.
    let mut g = c.benchmark_group("ablation_engine");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for (name, src) in ENGINE_KERNELS {
        let fx = engine_fx(src, 8192);
        let cache = warmed_cache(&fx);
        g.bench_function(&format!("{name}_walker"), |b| {
            b.iter(|| engine_run(&fx, ExecEngine::TreeWalker, None));
        });
        g.bench_function(&format!("{name}_bytecode"), |b| {
            b.iter(|| engine_run(&fx, ExecEngine::Bytecode, None));
        });
        // Steady state: the warmed cache serves the memoized closure array.
        g.bench_function(&format!("{name}_native"), |b| {
            b.iter(|| engine_run(&fx, ExecEngine::Native, Some(&cache)));
        });
        // The same bytecode kernel, 32 iterations at a time: on the proof,
        // and on the run-time conflict check instead.
        g.bench_function(&format!("{name}_cpu_lanes"), |b| {
            b.iter(|| cpu_run(&fx, Independence::Proven));
        });
        g.bench_function(&format!("{name}_cpu_lanes_checked"), |b| {
            b.iter(|| cpu_run(&fx, Independence::Unproven));
        });
        g.bench_function(&format!("{name}_compile"), |b| {
            b.iter(|| compile_kernel(&fx.program, &fx.loop_).unwrap());
        });
        // Native lowering cost on top of an already-compiled kernel.
        let compiled = compile_kernel(&fx.program, &fx.loop_).unwrap();
        g.bench_function(&format!("{name}_native_compile"), |b| {
            b.iter(|| compile_native(&compiled));
        });
    }
    g.finish();

    // TLS bookkeeping: per-cell map baseline vs SoA SpecView, both access
    // profiles.
    let mut g = c.benchmark_group("spec_mem");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for (name, conflict) in [("no_conflict", false), ("high_conflict", true)] {
        let stream = spec_stream(16_384, conflict);
        let (mut dev, a) = spec_device(16_384);
        g.bench_function(&format!("{name}_map"), |b| {
            b.iter(|| spec_map_run(a, &stream));
        });
        g.bench_function(&format!("{name}_soa"), |b| {
            b.iter(|| spec_soa_run(&mut dev, a, &stream));
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
