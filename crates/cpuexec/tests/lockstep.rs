//! Lane-batched execution of proven-independent ranges must be
//! indistinguishable from the scalar VM: heap bits, per-simulated-thread
//! accounting, modeled time bits, the written-back `Env`, and — through
//! rollback + scalar replay — every error and the heap it leaves behind.

use japonica_cpuexec::{CpuConfig, CpuCtx, CpuExecError, CpuReport, Independence};
use japonica_frontend::compile_source;
use japonica_gpusim::LanePlan;
use japonica_ir::{
    compile_kernel, ArrayId, Env, ExecError, ForLoop, Heap, LoopBounds, OpCounts, ParamTy, Program,
    Ty, Value, VarId,
};
use std::ops::Range;

struct Fx {
    program: Program,
    loop_: ForLoop,
    num_vars: u32,
    env: Env,
    heap: Heap,
    arrays: Vec<ArrayId>,
    bounds: LoopBounds,
}

/// Compile `src`, take `f`'s first annotated loop (trip count `n`), bind
/// every array parameter to `len` varied elements and every scalar to `n`.
fn fx(src: &str, n: usize, len: usize) -> Fx {
    let program = compile_source(src).unwrap();
    let (_, f) = program.function_by_name("f").unwrap();
    let loop_ = f
        .all_loops()
        .into_iter()
        .find(|l| l.is_annotated())
        .unwrap()
        .clone();
    let mut heap = Heap::new();
    let mut env = Env::with_slots(f.num_vars);
    let mut arrays = Vec::new();
    for p in &f.params {
        match p.ty {
            ParamTy::Array(Ty::Int) => {
                let vals: Vec<i32> = (0..len as i32).map(|i| (i * 7) % 13 - 4).collect();
                let a = heap.alloc_ints(&vals);
                env.set(p.var, Value::Array(a));
                arrays.push(a);
            }
            ParamTy::Array(_) => {
                let vals: Vec<f64> = (0..len).map(|i| i as f64 * 0.37 - 3.0).collect();
                let a = heap.alloc_doubles(&vals);
                env.set(p.var, Value::Array(a));
                arrays.push(a);
            }
            ParamTy::Scalar(_) => env.set(p.var, Value::Int(n as i32)),
        }
    }
    Fx {
        num_vars: f.num_vars,
        program: program.clone(),
        loop_,
        env,
        heap,
        arrays,
        bounds: LoopBounds {
            start: 0,
            end: n as i64,
            step: 1,
        },
    }
}

/// NaN-proof, sign-of-zero-proof comparison key.
fn bits(v: Value) -> (u8, u64) {
    match v {
        Value::Bool(b) => (0, b as u64),
        Value::Int(x) => (1, x as u32 as u64),
        Value::Long(x) => (2, x as u64),
        Value::Float(x) => (3, x.to_bits() as u64),
        Value::Double(x) => (4, x.to_bits()),
        Value::Array(a) => (5, a.0 as u64),
    }
}

type Bits = Vec<Option<(u8, u64)>>;

fn heap_bits(fx: &Fx, heap: &Heap) -> Vec<Bits> {
    fx.arrays
        .iter()
        .map(|&a| {
            let len = heap.len_of(a).unwrap();
            (0..len as i64)
                .map(|i| Some(bits(heap.load(a, i).unwrap())))
                .collect()
        })
        .collect()
}

fn env_bits(fx: &Fx, env: &Env) -> Bits {
    (0..fx.num_vars)
        .map(|v| env.get(VarId(v)).ok().map(bits))
        .collect()
}

/// Everything simulated a report carries, floats as bits.
fn report_bits(r: &CpuReport) -> (OpCounts, u64, u32, Vec<u64>) {
    (
        r.counts.clone(),
        r.time_s.to_bits(),
        r.threads_used,
        r.per_thread_seconds.iter().map(|s| s.to_bits()).collect(),
    )
}

fn ctx<'a>(fx: &'a Fx, cfg: &'a CpuConfig, independence: Independence) -> CpuCtx<'a> {
    CpuCtx {
        independence,
        ..CpuCtx::new(&fx.program, cfg)
    }
}

/// Run `range` sequentially and with each of `threads` under both
/// `Independence` values; everything observable must agree.
fn assert_lockstep_is_scalar(fx: &Fx, range: Range<u64>, threads: &[u32]) {
    let cfg = CpuConfig::default();
    let seq = |independence| {
        let (mut env, mut heap) = (fx.env.clone(), fx.heap.clone());
        let r = ctx(fx, &cfg, independence)
            .run_sequential(&fx.loop_, &fx.bounds, range.clone(), &mut env, &mut heap)
            .map(|r| report_bits(&r));
        (r, heap_bits(fx, &heap), env_bits(fx, &env))
    };
    assert_eq!(
        seq(Independence::Proven),
        seq(Independence::Unproven),
        "run_sequential over {range:?}"
    );
    for &t in threads {
        let par = |independence| {
            let mut heap = fx.heap.clone();
            let r = ctx(fx, &cfg, independence)
                .run_parallel(&fx.loop_, &fx.bounds, range.clone(), &fx.env, &mut heap, t)
                .map(|r| report_bits(&r));
            (r, heap_bits(fx, &heap))
        };
        assert_eq!(
            par(Independence::Proven),
            par(Independence::Unproven),
            "run_parallel over {range:?} on {t} threads"
        );
    }
}

fn lane_plan(fx: &Fx) -> Option<LanePlan> {
    LanePlan::of(&compile_kernel(&fx.program, &fx.loop_).unwrap())
}

/// Lane-dependent `if`, `while`, inner `for` trip and a helper with an
/// early `return`: every flavour of divergence the lane VM serializes.
const DIVERGENT: &str = "static double h(double x, int k) {
        if (k % 3 == 0) { return x * 0.5; }
        double y = x;
        for (int j = 0; j < k % 4; j++) { y = y + 1.25; }
        return y;
    }
    static void f(double[] a, int[] c, int n) {
        /* acc parallel */
        for (int i = 0; i < n; i++) {
            double s = a[i];
            if (i % 5 < 2) { s = s * 3.0; } else { s = s - (double) i; }
            int k = i;
            while (k > 2 && k < 60) {
                if (k % 2 == 0) { k = k / 2; } else { k = 3 * k + 1; }
            }
            for (int j = 0; j < i % 7; j++) { s = s + (double) (j * k); }
            a[i] = h(s, i) + Math.sqrt(Math.abs(s));
            c[i] = k + c[i] % 5;
        }
    }";

#[test]
fn divergent_batches_charge_exactly_what_the_scalar_vm_charges() {
    for n in [1usize, 31, 32, 33, 100] {
        let fx = fx(DIVERGENT, n, n);
        assert!(lane_plan(&fx).is_some(), "the lane VM accepts this kernel");
        assert_lockstep_is_scalar(&fx, 0..n as u64, &[1, 3, 16]);
    }
    // A sub-range whose batches straddle simulated-thread boundaries.
    let fx = fx(DIVERGENT, 100, 100);
    assert_lockstep_is_scalar(&fx, 7..93, &[3, 5]);
}

/// Loop-local temps bound only on some iterations: the written-back
/// `Env` holds each one's value from the last iteration that bound it,
/// which may sit in an earlier batch than the last.
#[test]
fn env_write_back_takes_each_variable_from_the_last_iteration_that_bound_it() {
    let fx = fx(
        "static void f(double[] a, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) {
                if (i % 40 == 3) { double rare = a[i] * 2.0; a[i] = rare; }
                if (i < 50) { int early = i * 3; a[i] = a[i] + (double) early; }
            }
        }",
        100,
        100,
    );
    assert_lockstep_is_scalar(&fx, 0..100, &[4]);
    assert_lockstep_is_scalar(&fx, 0..70, &[]);
}

#[test]
fn the_lowest_failing_iteration_owns_the_error_whatever_instruction_it_fails_at() {
    // Iteration 20 fails at the load, an *earlier* instruction than the
    // store iteration 5 fails at: lockstep meets 20's error first, the
    // scalar order (and so the replay) reports 5's.
    let fx = fx(
        "static void f(double[] a, double[] b, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) {
                double t = a[i == 20 ? 9000 : i];
                b[i == 5 ? 7000 : i] = t + 1.0;
            }
        }",
        64,
        64,
    );
    let cfg = CpuConfig::default();
    let (mut env, mut heap) = (fx.env.clone(), fx.heap.clone());
    let err = ctx(&fx, &cfg, Independence::Proven)
        .run_sequential(&fx.loop_, &fx.bounds, 0..64, &mut env, &mut heap)
        .unwrap_err();
    assert_eq!(
        err,
        ExecError::IndexOutOfBounds {
            array: fx.arrays[1],
            index: 7000,
            len: 64
        }
    );
    // Iterations 0..5 are committed, nothing after them.
    let b = heap.read_doubles(fx.arrays[1]).unwrap();
    let b0 = fx.heap.read_doubles(fx.arrays[1]).unwrap();
    let a0 = fx.heap.read_doubles(fx.arrays[0]).unwrap();
    for i in 0..64 {
        assert_eq!(b[i], if i < 5 { a0[i] + 1.0 } else { b0[i] }, "b[{i}]");
    }
    assert_lockstep_is_scalar(&fx, 0..64, &[1, 3, 16]);
    // The failing batch need not be the first one.
    assert_lockstep_is_scalar(&fx, 0..4, &[2]);
    let late = Fx {
        bounds: LoopBounds {
            start: 3,
            ..fx.bounds
        },
        ..fx
    };
    assert_lockstep_is_scalar(&late, 0..61, &[4]);
}

#[test]
fn integer_division_by_zero_is_reported_and_rolled_back_like_scalar() {
    let fx = fx(
        "static void f(int[] c, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) { c[i] = 1000 / (i - 45) + c[i]; }
        }",
        80,
        80,
    );
    let cfg = CpuConfig::default();
    let mut heap = fx.heap.clone();
    let err = ctx(&fx, &cfg, Independence::Proven)
        .run_parallel(&fx.loop_, &fx.bounds, 0..80, &fx.env, &mut heap, 16)
        .unwrap_err();
    assert_eq!(err, CpuExecError::Exec(ExecError::DivisionByZero));
    // Batch 0 (iterations 0..32) had committed before batch 1 failed: a
    // failing `run_parallel` still leaves the heap untouched.
    assert_eq!(heap_bits(&fx, &heap), heap_bits(&fx, &fx.heap));
    assert_lockstep_is_scalar(&fx, 0..80, &[1, 3, 16]);
    assert_lockstep_is_scalar(&fx, 0..45, &[3]);
}

#[test]
fn kernels_the_lane_vm_rejects_silently_take_the_scalar_path() {
    let temp_array = fx(
        "static void f(double[] a, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) {
                double[] t = new double[2];
                t[1] = a[i] * 2.0;
                a[i] = t[1] + t[0];
            }
        }",
        70,
        70,
    );
    let breaks = fx(
        "static void f(double[] a, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) {
                double s = 0.0;
                for (int j = 0; j < 9; j++) {
                    if (j > i % 6) { break; }
                    s = s + a[i];
                }
                a[i] = s;
            }
        }",
        70,
        70,
    );
    for fx in [&temp_array, &breaks] {
        assert!(lane_plan(fx).is_none());
        assert_lockstep_is_scalar(fx, 0..70, &[1, 16]);
    }
}

#[test]
fn tree_walker_engine_ignores_the_proof() {
    // The oracle engine stays purely scalar; with the proof it must still
    // agree with the compiled engines' lane path bit for bit.
    let fx = fx(DIVERGENT, 50, 50);
    let walker = CpuConfig {
        engine: japonica_ir::ExecEngine::TreeWalker,
        ..CpuConfig::default()
    };
    let compiled = CpuConfig::default();
    let run = |cfg: &CpuConfig| {
        let mut heap = fx.heap.clone();
        let r = ctx(&fx, cfg, Independence::Proven)
            .run_parallel(&fx.loop_, &fx.bounds, 0..50, &fx.env, &mut heap, 3)
            .unwrap();
        (report_bits(&r), heap_bits(&fx, &heap))
    };
    assert_eq!(run(&walker), run(&compiled));
}

#[test]
fn huge_trip_counts_clamp_threads_without_truncation() {
    // `threads.min(total as u32)` used to truncate a trip count of 2^32 to
    // zero threads and divide by it.
    let fx = fx(
        "static void f(double[] a, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) { a[0] = 1.0; }
        }",
        0,
        4,
    );
    let cfg = CpuConfig::default();
    let mut heap = fx.heap.clone();
    // Nobody waits for 2^32 iterations: with `a` unbound every chunk
    // fails at its first one.
    let err = ctx(&fx, &cfg, Independence::Unproven).run_parallel(
        &fx.loop_,
        &fx.bounds,
        0..1u64 << 32,
        &Env::with_slots(fx.num_vars),
        &mut heap,
        16,
    );
    assert!(matches!(err, Err(CpuExecError::Exec(_))), "{err:?}");
}
