//! Lane-batched execution must be indistinguishable from the scalar VM:
//! heap bits, per-simulated-thread accounting, modeled time bits, the
//! written-back `Env`, and — through rollback + scalar replay — every error
//! and the heap it leaves behind. Unchecked for ranges proven independent,
//! conflict-checked for every other one, dependent iterations included.
//! The oracle is the tree-walker engine, which never batches.

use japonica_cpuexec::{CpuConfig, CpuCtx, CpuExecError, CpuReport, Independence};
use japonica_frontend::compile_source;
use japonica_gpusim::LanePlan;
use japonica_ir::{
    compile_kernel, ArrayId, Env, ExecEngine, ExecError, ForLoop, Heap, LoopBounds, OpCounts,
    ParamTy, Program, Ty, Value, VarId,
};
use proptest::prelude::*;
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

/// The purely scalar oracle.
fn walker() -> CpuConfig {
    CpuConfig {
        engine: ExecEngine::TreeWalker,
        ..CpuConfig::default()
    }
}

type ReportBits = (OpCounts, u64, u32, Vec<u64>);

/// What `run_sequential` leaves behind: report or error, heap, `Env`.
fn seq(
    fx: &Fx,
    cfg: &CpuConfig,
    independence: Independence,
    range: Range<u64>,
) -> (Result<ReportBits, ExecError>, Vec<Bits>, Bits) {
    let (mut env, mut heap) = (fx.env.clone(), fx.heap.clone());
    let r = ctx(fx, cfg, independence)
        .run_sequential(&fx.loop_, &fx.bounds, range, &mut env, &mut heap)
        .map(|r| report_bits(&r));
    (r, heap_bits(fx, &heap), env_bits(fx, &env))
}

/// What `run_parallel` leaves behind: report or error, heap.
fn par(
    fx: &Fx,
    cfg: &CpuConfig,
    independence: Independence,
    range: Range<u64>,
    threads: u32,
) -> (Result<ReportBits, CpuExecError>, Vec<Bits>) {
    let mut heap = fx.heap.clone();
    let r = ctx(fx, cfg, independence)
        .run_parallel(&fx.loop_, &fx.bounds, range, &fx.env, &mut heap, threads)
        .map(|r| report_bits(&r));
    (r, heap_bits(fx, &heap))
}

/// What `run_deferred` hands back: report and deferred writes, or error.
#[allow(clippy::type_complexity)]
fn deferred(
    fx: &Fx,
    cfg: &CpuConfig,
    independence: Independence,
    range: Range<u64>,
) -> Result<(ReportBits, Vec<((ArrayId, i64), (u8, u64))>), ExecError> {
    ctx(fx, cfg, independence)
        .run_deferred(&fx.loop_, &fx.bounds, range, &fx.env, &fx.heap)
        .map(|(r, writes)| {
            let writes = writes.into_iter().map(|(at, v)| (at, bits(v))).collect();
            (report_bits(&r), writes)
        })
}

/// Run `range` — whose iterations are independent — through every
/// executor, sequentially and with each of `threads`, unchecked and
/// checked; everything observable must agree with the scalar oracle.
fn assert_lockstep_is_scalar(fx: &Fx, range: Range<u64>, threads: &[u32]) {
    let (cfg, oracle) = (CpuConfig::default(), walker());
    for independence in [Independence::Proven, Independence::Unproven] {
        assert_eq!(
            seq(fx, &cfg, independence, range.clone()),
            seq(fx, &oracle, independence, range.clone()),
            "run_sequential over {range:?}, {independence:?}"
        );
        assert_eq!(
            deferred(fx, &cfg, independence, range.clone()),
            deferred(fx, &oracle, independence, range.clone()),
            "run_deferred over {range:?}, {independence:?}"
        );
        for &t in threads {
            assert_eq!(
                par(fx, &cfg, independence, range.clone(), t),
                par(fx, &oracle, independence, range.clone(), t),
                "run_parallel over {range:?} on {t} threads, {independence:?}"
            );
        }
    }
}

/// Run `range` — whose iterations may depend on each other — through every
/// executor with nothing proven. The sequential executors must match the
/// scalar oracle whatever the dependences. `run_parallel` commits whole
/// when every batch gets through (`commits`), leaving the sequential heap,
/// and otherwise is the oracle's buffered chunks; its accounting is the
/// oracle's either way (none of these loops branches on data).
fn assert_checked_is_scalar(fx: &Fx, range: Range<u64>, threads: &[u32], commits: bool) {
    let (cfg, oracle, unproven) = (CpuConfig::default(), walker(), Independence::Unproven);
    let scalar = seq(fx, &oracle, unproven, range.clone());
    assert_eq!(
        seq(fx, &cfg, unproven, range.clone()),
        scalar,
        "run_sequential over {range:?}"
    );
    assert_eq!(
        deferred(fx, &cfg, unproven, range.clone()),
        deferred(fx, &oracle, unproven, range.clone()),
        "run_deferred over {range:?}"
    );
    for &t in threads {
        let (report, heap) = par(fx, &cfg, unproven, range.clone(), t);
        let buffered = par(fx, &oracle, unproven, range.clone(), t);
        assert_eq!(report, buffered.0, "run_parallel report, {t} threads");
        let want = if commits { &scalar.1 } else { &buffered.1 };
        assert_eq!(&heap, want, "run_parallel heap over {range:?}, {t} threads");
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

/// Overwrite an `int[]` parameter's elements.
fn set_ints(fx: &mut Fx, array: ArrayId, vals: &[i32]) {
    for (i, &v) in vals.iter().enumerate() {
        fx.heap.store(array, i as i64, Value::Int(v)).unwrap();
    }
}

#[test]
fn a_batch_footprint_larger_than_the_conflict_table_grows_it() {
    // 32 lanes x 48 distinct elements: three doublings past the table's
    // first size, all inside one batch.
    let fx = fx(
        "static void f(double[] a, double[] o, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) {
                double s = 0.0;
                for (int j = 0; j < 48; j++) { s = s + a[i * 48 + j]; }
                o[i] = s;
            }
        }",
        70,
        70 * 48,
    );
    assert_lockstep_is_scalar(&fx, 0..70, &[1, 16]);
}

/// One loop per dependence kind, `D` iterations apart; control flow
/// depends on `i` alone.
fn dependent(kind: &str, d: usize) -> String {
    let body = match kind {
        // Reads what iteration `i - D` wrote.
        "raw" => format!(
            "if (i >= {d}) {{ a[i] = a[i - {d}] * 0.5 + 1.0; }} else {{ a[i] = a[i] + 2.0; }}"
        ),
        // Reads what iteration `i + D` will overwrite.
        "war" => format!("if (i + {d} < n) {{ a[i] = a[i + {d}] + 1.0; }} else {{ a[i] = 0.25; }}"),
        // Writes ahead what iteration `i + D` then overwrites.
        "waw" => format!("b[i] = a[i]; if (i + {d} < n) {{ b[i + {d}] = a[i] * 3.0; }}"),
        _ => unreachable!(),
    };
    format!(
        "static void f(double[] a, double[] b, int n) {{
            /* acc parallel */
            for (int i = 0; i < n; i++) {{ {body} }}
        }}"
    )
}

#[test]
fn true_anti_and_output_dependences_at_every_batch_relevant_distance() {
    for kind in ["raw", "war", "waw"] {
        for d in [1usize, 31, 32, 41] {
            let fx = fx(&dependent(kind, d), 100, 100);
            assert!(lane_plan(&fx).is_some());
            // A dependence reaches into its own batch iff it spans fewer
            // than 32 iterations; only then does `run_parallel` fall back
            // to buffered chunks, which a *true* dependence shows.
            let commits = d >= 32;
            assert_checked_is_scalar(&fx, 0..100, &[1, 3, 16], commits || kind != "raw");
            // Batches are aligned to the range, not to iteration 0.
            assert_checked_is_scalar(&fx, 5..97, &[4], commits || kind != "raw");
        }
    }
}

#[test]
fn a_rotating_scratch_slot_conflicts_only_when_it_rotates_inside_a_batch() {
    for b in [8usize, 32, 64] {
        let fx = fx(
            &format!(
                "static void f(double[] a, double[] o, double[] tmp, int n) {{
                    /* acc parallel */
                    for (int i = 0; i < n; i++) {{
                        tmp[i % {b}] = a[i] * 0.5;
                        o[i] = tmp[i % {b}] * 1.5;
                    }}
                }}"
            ),
            150,
            150,
        );
        // False dependences only: buffered chunks are sequential too.
        assert_checked_is_scalar(&fx, 0..150, &[1, 5, 16], true);
        assert_checked_is_scalar(&fx, 3..131, &[3], true);
    }
}

#[test]
fn carried_and_conditionally_written_scalars_fault_their_batches_into_order() {
    // `c` is a parameter the body writes: every lane starts with it
    // unbound, so the read faults and the iterations run in order.
    let carried = fx(
        "static void f(double[] a, int n, int c) {
            /* acc parallel */
            for (int i = 0; i < n; i++) { a[i] = a[i] + (double) c; c = c + 1; }
        }",
        100,
        100,
    );
    let conditional = fx(
        "static void f(double[] a, int n, int c) {
            /* acc parallel */
            for (int i = 0; i < n; i++) {
                if (i % 7 == 3) { c = i; }
                a[i] = a[i] * (double) c;
            }
        }",
        100,
        100,
    );
    for fx in [&carried, &conditional] {
        assert!(lane_plan(fx).is_some());
        assert_checked_is_scalar(fx, 0..100, &[1, 3, 16], false);
        assert_checked_is_scalar(fx, 9..77, &[], false);
    }
}

#[test]
fn an_erroring_iteration_of_a_dependent_loop_leaves_what_the_scalar_vm_leaves() {
    // A distance-3 recurrence (every batch conflicts) that runs off the
    // array at iteration 70; a distance-40 one (no batch conflicts) too.
    for d in [3usize, 40] {
        let fx = fx(
            &format!(
                "static void f(double[] a, int n) {{
                    /* acc parallel */
                    for (int i = 0; i < n; i++) {{
                        a[i == 70 ? 5000 : i + {d}] = a[i] * 0.5 + 1.0;
                    }}
                }}"
            ),
            100,
            100 + d,
        );
        let cfg = CpuConfig::default();
        let (r, ..) = seq(&fx, &cfg, Independence::Unproven, 0..100);
        assert_eq!(
            r,
            Err(ExecError::IndexOutOfBounds {
                array: fx.arrays[0],
                index: 5000,
                len: 100 + d
            })
        );
        assert_checked_is_scalar(&fx, 0..100, &[1, 3, 16], false);
        assert_checked_is_scalar(&fx, 0..70, &[4], d >= 32);
    }
}

#[test]
fn a_stale_index_cannot_spin_a_checked_batch() {
    // In order, iteration `i` reads the small bound iteration `i - 1`
    // stored. In lockstep every lane but the first reads the huge one that
    // store replaces, and only the store — an inner loop of 2^31 rounds
    // later — would fail the check. The sweep budget fails the batch
    // first; the scalar replay never sees the stale value.
    let mut fx = fx(
        "static void f(int[] c, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) {
                int s = 0;
                for (int j = 0; j < c[i]; j++) { s = s + 1; }
                c[i + 1] = s;
            }
        }",
        33,
        34,
    );
    let mut bound = vec![i32::MAX; 34];
    bound[0] = 3;
    let c = fx.arrays[0];
    set_ints(&mut fx, c, &bound);
    // Not `run_parallel`: its buffered chunks read the stale bound
    // themselves, on every engine.
    assert_checked_is_scalar(&fx, 0..33, &[], false);
    let (r, heap, _) = seq(&fx, &CpuConfig::default(), Independence::Unproven, 0..33);
    assert!(r.is_ok());
    assert!(heap[0].iter().all(|&v| v == Some(bits(Value::Int(3)))));
}

/// `a[w[i]] = a[r[i]] * 0.5 + i`: the index arrays decide the dependences.
const INDIRECT: &str = "static void f(double[] a, int[] r, int[] w, int n) {
        /* acc parallel */
        for (int i = 0; i < n; i++) { a[w[i]] = a[r[i]] * 0.5 + (double) i; }
    }";

/// Does any batch of `range` hold two iterations of which one writes what
/// the other reads or writes? (The index arrays are only ever read.)
fn batches_conflict(r: &[i32], w: &[i32], range: Range<u64>) -> bool {
    let iters: Vec<usize> = range.map(|k| k as usize).collect();
    iters.chunks(32).any(|batch| {
        batch.iter().any(|&x| {
            batch
                .iter()
                .any(|&y| x != y && (w[x] == r[y] || w[x] == w[y]))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random index arrays — identity (no conflict), identity with a few
    /// strays (sparse) and uniformly random (dense): the sequential
    /// executors are the scalar VM whatever the arrays hold, and
    /// `run_parallel` commits whole exactly when no batch conflicts.
    #[test]
    fn random_index_arrays_never_show_through_checked_lanes(
        n in 1usize..140,
        strays in prop_oneof![Just(0usize), 1usize..5, Just(1000usize)],
        picks in proptest::collection::vec((any::<u16>(), any::<u16>(), any::<u16>()), 140),
        lo in 0u64..40,
        threads in prop_oneof![Just(1u32), Just(3u32), Just(16u32)],
    ) {
        let mut fx = fx(INDIRECT, n, n);
        let (mut r, mut w): (Vec<i32>, Vec<i32>) = ((0..n as i32).collect(), (0..n as i32).collect());
        for (k, &(at, ri, wi)) in picks.iter().enumerate().take(strays) {
            let at = if strays > n { k % n } else { at as usize % n };
            r[at] = (ri as usize % n) as i32;
            w[at] = (wi as usize % n) as i32;
        }
        let (ra, wa) = (fx.arrays[1], fx.arrays[2]);
        set_ints(&mut fx, ra, &r);
        set_ints(&mut fx, wa, &w);
        let range = lo.min(n as u64 - 1)..n as u64;
        let commits = !batches_conflict(&r, &w, range.clone());
        assert_checked_is_scalar(&fx, range, &[threads], commits);
    }
}
