//! Fault-injection resilience tests: under any seeded [`FaultPlan`] the
//! hardened runtime must still produce exactly the sequential-interpretation
//! result, while the retry/fallback/degradation machinery reports what it
//! did through [`FaultStats`].
//!
//! Three layers of evidence:
//!
//! * unit tests per fault kind (kernel launch, SIMT, H2D, D2H, watchdog
//!   deadline, CPU chunk) and per degradation-ladder rung;
//! * chunk atomicity: a GPU chunk killed at launch, between warps or by the
//!   watchdog leaves device memory exactly as it found it;
//! * an acceptance run over Table II workloads (the Fig. 3 sharing and
//!   Fig. 4 stealing benchmarks) with a mixed seeded plan;
//! * a property test over arbitrary generated loops × arbitrary seeded
//!   fault plans.

use japonica::faults::{
    DegradationLevel, FaultKind, FaultPlan, FaultRule, FaultStats, ResilienceConfig,
};
use japonica::gpusim::DeviceMemory;
use japonica::ir::{Heap, HeapBackend, Interp, Scheme, Value};
use japonica::scheduler::sharing::stage_device;
use japonica::scheduler::{LoopTask, SchedulerConfig};
use japonica::tls::SpecArena;
use japonica::{compile, RunReport, Runtime, RuntimeConfig};
use japonica_workloads::{outputs_match, Workload};
use proptest::prelude::*;

/// A DOALL loop big enough to split into several sharing chunks / stealing
/// tasks, so every device sees work and every injection point is exercised.
const SCALE_SRC: &str = "static void scale(double[] a, double[] b, int n) {
    /* acc parallel */
    for (int i = 0; i < n; i++) { b[i] = a[i] * 3.0 + 1.0; }
}";

const N: usize = 20_000;

fn runtime_with(plan: Option<FaultPlan>, res: ResilienceConfig, scheme: Option<Scheme>) -> Runtime {
    let mut cfg = RuntimeConfig::default();
    cfg.sched.faults = plan;
    cfg.sched.resilience = res;
    cfg.scheme_override = scheme;
    Runtime::new(cfg)
}

/// Run [`SCALE_SRC`] under `plan`, assert the output is exactly the
/// sequential result, and hand back the aggregated fault stats.
fn run_scale(
    plan: Option<FaultPlan>,
    res: ResilienceConfig,
    scheme: Option<Scheme>,
) -> (RunReport, FaultStats) {
    let compiled = compile(SCALE_SRC).expect("scale source compiles");
    let mut heap = Heap::new();
    let a = heap.alloc_doubles(&(0..N).map(|i| i as f64).collect::<Vec<_>>());
    let b = heap.alloc_doubles(&vec![0.0; N]);
    let args = [Value::Array(a), Value::Array(b), Value::Int(N as i32)];
    let report = runtime_with(plan, res, scheme)
        .run(&compiled, "scale", &args, &mut heap)
        .expect("hardened runtime completes under injected faults");
    let out = heap.read_doubles(b).expect("output array");
    for (i, &v) in out.iter().enumerate() {
        assert_eq!(v, i as f64 * 3.0 + 1.0, "b[{i}] wrong under faults");
    }
    let stats = report.fault_stats();
    (report, stats)
}

fn default_res() -> ResilienceConfig {
    ResilienceConfig::default()
}

// ---------------------------------------------------------------------------
// Per-fault-kind unit tests.
// ---------------------------------------------------------------------------

#[test]
fn transient_kernel_launch_is_absorbed_by_retry() {
    let plan = FaultPlan::new(1, vec![FaultRule::transient(FaultKind::KernelLaunch, 1)]);
    let (_, s) = run_scale(Some(plan), default_res(), None);
    assert!(s.retries >= 1, "retry must engage: {s:?}");
    assert_eq!(
        s.fallbacks, 0,
        "one transient fault needs no fallback: {s:?}"
    );
    assert_eq!(s.level, DegradationLevel::Full);
    assert!(
        s.backoff_s > 0.0,
        "retry backoff must be charged to the clock"
    );
}

#[test]
fn persistent_kernel_launch_retires_the_gpu() {
    let plan = FaultPlan::new(2, vec![FaultRule::persistent(FaultKind::KernelLaunch)]);
    let (_, s) = run_scale(Some(plan), default_res(), None);
    assert!(s.fallbacks >= 1, "failed chunks must be resubmitted: {s:?}");
    assert!(
        s.gpu_faults >= default_res().device_fault_tolerance,
        "{s:?}"
    );
    assert!(
        s.level >= DegradationLevel::CpuOnly,
        "GPU must be retired: {s:?}"
    );
}

#[test]
fn simt_fault_on_one_warp_is_retried() {
    let plan = FaultPlan::new(3, vec![FaultRule::transient(FaultKind::Simt, 1).on_warp(0)]);
    let (_, s) = run_scale(Some(plan), default_res(), None);
    assert!(s.gpu_faults >= 1, "SIMT fault must be observed: {s:?}");
    assert!(s.retries >= 1, "SIMT fault must be retried: {s:?}");
    assert_eq!(s.level, DegradationLevel::Full);
}

#[test]
fn persistent_h2d_failure_falls_back_to_sequential() {
    // Staging can never succeed, so the sharing scheme must run the whole
    // loop sequentially — and still produce the right answer.
    let plan = FaultPlan::new(4, vec![FaultRule::persistent(FaultKind::TransferH2D)]);
    let (_, s) = run_scale(Some(plan), default_res(), None);
    assert!(s.transfer_faults >= 1, "{s:?}");
    assert!(s.fallbacks >= 1, "{s:?}");
    assert_eq!(s.level, DegradationLevel::Sequential, "{s:?}");
}

#[test]
fn persistent_d2h_failure_resubmits_gpu_tasks_on_cpu() {
    // Under stealing, every GPU task computes but cannot copy results back;
    // the task must be re-run on the CPU with nothing committed.
    let plan = FaultPlan::new(5, vec![FaultRule::persistent(FaultKind::TransferD2H)]);
    let (_, s) = run_scale(Some(plan), default_res(), Some(Scheme::Stealing));
    assert!(s.transfer_faults >= 1, "{s:?}");
    assert!(s.fallbacks >= 1, "{s:?}");
    assert!(s.level >= DegradationLevel::GpuDegraded, "{s:?}");
}

#[test]
fn deadline_overrun_trips_the_watchdog() {
    let plan = FaultPlan::new(
        6,
        vec![FaultRule::persistent(FaultKind::DeadlineOverrun).stalling(1e12)],
    );
    let (_, s) = run_scale(Some(plan), default_res(), None);
    assert!(s.deadline_overruns >= 1, "watchdog must fire: {s:?}");
    assert!(s.fallbacks >= 1, "{s:?}");
    assert!(s.level >= DegradationLevel::GpuDegraded, "{s:?}");
}

#[test]
fn watchdog_can_be_disabled_by_slack() {
    // With the watchdog off, deadline rules never fire (the stall hook is
    // only consulted by an armed watchdog).
    let plan = FaultPlan::new(
        7,
        vec![FaultRule::persistent(FaultKind::DeadlineOverrun).stalling(1e12)],
    );
    let res = ResilienceConfig {
        watchdog_slack: 0.0,
        ..ResilienceConfig::default()
    };
    let (_, s) = run_scale(Some(plan), res, None);
    assert_eq!(s.deadline_overruns, 0, "{s:?}");
    assert_eq!(s.level, DegradationLevel::Full);
}

#[test]
fn transient_cpu_chunk_fault_is_retried() {
    let plan = FaultPlan::new(8, vec![FaultRule::transient(FaultKind::CpuChunk, 1)]);
    let (_, s) = run_scale(Some(plan), default_res(), None);
    assert!(s.cpu_faults >= 1, "{s:?}");
    assert!(s.retries >= 1, "{s:?}");
    assert_eq!(s.level, DegradationLevel::Full);
}

#[test]
fn persistent_cpu_chunk_fault_degrades_the_worker_pool() {
    let plan = FaultPlan::new(9, vec![FaultRule::persistent(FaultKind::CpuChunk)]);
    let (_, s) = run_scale(Some(plan), default_res(), None);
    assert!(
        s.cpu_faults >= default_res().device_fault_tolerance,
        "{s:?}"
    );
    assert!(s.fallbacks >= 1, "{s:?}");
    assert!(s.level >= DegradationLevel::Sequential, "{s:?}");
}

/// Both devices fault persistently, so every chunk and sub-task ends up on
/// the host. The pool is retired after `device_fault_tolerance` faults and
/// every later batch runs sequentially without consulting it — under task
/// stealing too, which used to keep dispatching to the faulted pool.
#[test]
fn a_retired_worker_pool_is_not_dispatched_to_again() {
    for scheme in [Scheme::Sharing, Scheme::Stealing] {
        let rules = vec![
            FaultRule::persistent(FaultKind::KernelLaunch),
            FaultRule::persistent(FaultKind::CpuChunk),
        ];
        let (_, s) = run_scale(Some(FaultPlan::new(9, rules)), default_res(), Some(scheme));
        assert_eq!(
            s.cpu_faults,
            default_res().device_fault_tolerance,
            "{scheme:?}: {s:?}"
        );
        assert_eq!(s.level, DegradationLevel::Sequential, "{scheme:?}: {s:?}");
    }
}

// ---------------------------------------------------------------------------
// Degradation-ladder transitions.
// ---------------------------------------------------------------------------

#[test]
fn ladder_stops_at_gpu_degraded_when_tolerance_is_high() {
    // Three consecutive launch faults exhaust the retry budget (2) and force
    // one chunk onto the CPU, but a high tolerance keeps the GPU alive.
    let plan = FaultPlan::new(10, vec![FaultRule::transient(FaultKind::KernelLaunch, 3)]);
    let res = ResilienceConfig {
        device_fault_tolerance: 100,
        ..ResilienceConfig::default()
    };
    let (_, s) = run_scale(Some(plan), res, None);
    assert_eq!(s.level, DegradationLevel::GpuDegraded, "{s:?}");
    assert!(s.fallbacks >= 1, "{s:?}");
}

#[test]
fn ladder_reaches_cpu_only_under_default_tolerance() {
    let plan = FaultPlan::new(11, vec![FaultRule::persistent(FaultKind::KernelLaunch)]);
    let (_, s) = run_scale(Some(plan), default_res(), None);
    assert!(s.level >= DegradationLevel::CpuOnly, "{s:?}");
    assert!(s.degradations >= 2, "Full→GpuDegraded→CpuOnly: {s:?}");
}

#[test]
fn ladder_reaches_sequential_when_both_devices_fail() {
    let plan = FaultPlan::new(
        12,
        vec![
            FaultRule::persistent(FaultKind::KernelLaunch),
            FaultRule::persistent(FaultKind::CpuChunk),
        ],
    );
    let (_, s) = run_scale(Some(plan), default_res(), None);
    assert_eq!(s.level, DegradationLevel::Sequential, "{s:?}");
    assert!(s.gpu_faults >= 1 && s.cpu_faults >= 1, "{s:?}");
}

#[test]
fn ladder_transitions_under_stealing_too() {
    let plan = FaultPlan::new(13, vec![FaultRule::persistent(FaultKind::KernelLaunch)]);
    let (r, s) = run_scale(Some(plan), default_res(), Some(Scheme::Stealing));
    assert_eq!(r.stealing.len(), 1);
    assert!(s.level >= DegradationLevel::CpuOnly, "{s:?}");
    assert!(s.fallbacks >= 1, "{s:?}");
}

// ---------------------------------------------------------------------------
// Chunk atomicity: a faulted GPU chunk leaves nothing behind.
// ---------------------------------------------------------------------------

/// Launch [`SCALE_SRC`] — statically proven DOALL, so its chunks write
/// through to device memory behind an undo journal — as one 3-warp chunk
/// under `rules`. Returns the fault stats, whether the chunk completed,
/// and the device's `b` before and after.
fn launch_one_chunk(
    rules: Vec<FaultRule>,
    host_threads: usize,
) -> (FaultStats, bool, Vec<f64>, Vec<f64>) {
    const WARPS: usize = 3;
    let n = 32 * WARPS;
    let compiled = compile(SCALE_SRC).expect("scale source compiles");
    let (_, f) = compiled.program.function_by_name("scale").expect("entry");
    let loop_ = f.all_loops()[0];
    let analysis = &compiled.analyses[&loop_.id];
    assert!(analysis.proven_independent());
    let mut heap = Heap::new();
    let a = heap.alloc_doubles(&(0..n).map(|i| i as f64).collect::<Vec<_>>());
    let b = heap.alloc_doubles(&vec![-1.0; n]);
    let mut env = japonica::ir::Env::with_slots(f.num_vars);
    for (p, v) in f
        .params
        .iter()
        .zip([Value::Array(a), Value::Array(b), Value::Int(n as i32)])
    {
        env.set(p.var, v);
    }
    let mut cfg = SchedulerConfig::default().with_host_threads(host_threads);
    cfg.faults = Some(FaultPlan::new(31, rules));
    let task = LoopTask {
        loop_,
        analysis,
        profile: None,
    };
    let prepared = task
        .prepare(&compiled.program, &cfg, &env, &mut heap)
        .expect("bounds and data plan");
    let mut dev = DeviceMemory::new();
    stage_device(&prepared.plan, &heap, &mut dev, &cfg).expect("staging");
    let device_b = |dev: &DeviceMemory| -> Vec<f64> {
        let arr = dev.array(b).expect("b is resident");
        (0..n)
            .map(|i| arr.get(i).as_f64().expect("double"))
            .collect()
    };
    let before = device_b(&dev);
    let mut stats = FaultStats::default();
    let run = prepared
        .launch_chunk(
            0..n as u64,
            &env,
            &mut dev,
            &mut SpecArena::default(),
            &mut stats,
        )
        .expect("faults are not errors");
    if let Ok((kr, writes)) = &run.outcome {
        assert_eq!(kr.warps as usize, WARPS);
        assert_eq!(writes.len(), n, "every element of b, once");
    }
    (stats, run.outcome.is_ok(), before, device_b(&dev))
}

#[test]
fn a_faulted_chunk_leaves_device_memory_as_it_found_it() {
    let scenarios = [
        ("at launch", FaultRule::persistent(FaultKind::KernelLaunch)),
        // Warp 0 has executed and stored by the time warp 1 is refused.
        (
            "at warp 1",
            FaultRule::persistent(FaultKind::Simt).on_warp(1),
        ),
        // The watchdog fires only once the whole chunk has executed.
        (
            "by the watchdog",
            FaultRule::persistent(FaultKind::DeadlineOverrun).stalling(1e12),
        ),
    ];
    for (what, rule) in scenarios {
        for host_threads in [1, 2] {
            let (stats, completed, before, after) =
                launch_one_chunk(vec![rule.clone()], host_threads);
            assert!(!completed, "{what}: a persistent fault is not absorbed");
            assert_eq!(stats.gpu_faults, 1, "{what}: {stats:?}");
            assert_eq!(stats.retries, 0, "{what}: {stats:?}");
            assert_eq!(
                before, after,
                "{what}, {host_threads} host threads: partial stores survived"
            );
        }
    }
}

#[test]
fn a_chunk_that_rides_out_two_transient_faults_commits_whole() {
    for host_threads in [1, 2] {
        let rule = FaultRule::transient(FaultKind::Simt, 2).on_warp(2);
        let (stats, completed, before, after) = launch_one_chunk(vec![rule], host_threads);
        assert!(completed, "two transient faults fit the retry budget");
        assert_eq!((stats.retries, stats.gpu_faults), (2, 2), "{stats:?}");
        assert!(before.iter().all(|&v| v == -1.0));
        let expect: Vec<f64> = (0..before.len()).map(|i| i as f64 * 3.0 + 1.0).collect();
        assert_eq!(after, expect, "the third attempt's stores, all of them");
    }
}

/// Whole runs under the same four fault shapes: the resubmitted CPU batch
/// (or the retried chunk) yields the reference result — [`run_scale`]
/// checks every element — with the ladder's bookkeeping exactly what the
/// fully buffered chunks recorded for these plans.
#[test]
fn faulted_chunks_resubmit_with_unchanged_fault_stats() {
    let gave_up_once = FaultStats {
        retries: 2,
        fallbacks: 1,
        degradations: 2,
        gpu_faults: 3,
        backoff_s: 0.00015,
        level: DegradationLevel::CpuOnly,
        ..FaultStats::default()
    };
    let scenarios = [
        (
            FaultRule::transient(FaultKind::KernelLaunch, 3),
            gave_up_once,
        ),
        (
            FaultRule::transient(FaultKind::Simt, 3).on_warp(1),
            gave_up_once,
        ),
        (
            FaultRule::transient(FaultKind::DeadlineOverrun, 3).stalling(1e12),
            FaultStats {
                deadline_overruns: 3,
                ..gave_up_once
            },
        ),
        (
            FaultRule::transient(FaultKind::KernelLaunch, 2),
            FaultStats {
                retries: 2,
                gpu_faults: 2,
                backoff_s: 0.00015,
                ..FaultStats::default()
            },
        ),
    ];
    for (rule, expect) in scenarios {
        for scheme in [Scheme::Sharing, Scheme::Stealing] {
            let plan = FaultPlan::new(31, vec![rule.clone()]);
            let (_, stats) = run_scale(Some(plan), default_res(), Some(scheme));
            assert_eq!(stats, expect, "{rule:?} under {scheme:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Zero-perturbation: no plan (or an empty plan) must not change timing.
// ---------------------------------------------------------------------------

#[test]
fn no_plan_runs_are_deterministic_and_quiet_plans_change_nothing() {
    let (r_none_a, s_none) = run_scale(None, default_res(), None);
    let (r_none_b, _) = run_scale(None, default_res(), None);
    let (r_quiet, s_quiet) = run_scale(Some(FaultPlan::quiet(99)), default_res(), None);
    assert!(!s_none.any(), "no plan, no recovery activity: {s_none:?}");
    assert!(
        !s_quiet.any(),
        "quiet plan, no recovery activity: {s_quiet:?}"
    );
    assert_eq!(
        r_none_a.total_s, r_none_b.total_s,
        "simulation is deterministic"
    );
    assert_eq!(
        r_none_a.total_s, r_quiet.total_s,
        "an installed-but-silent plan must be timing-invisible"
    );
}

// ---------------------------------------------------------------------------
// Reporting plumbing.
// ---------------------------------------------------------------------------

#[test]
fn fault_stats_surface_in_the_run_summary() {
    let plan = FaultPlan::new(14, vec![FaultRule::transient(FaultKind::KernelLaunch, 1)]);
    let (r, s) = run_scale(Some(plan), default_res(), None);
    assert!(s.any());
    let text = r.summary();
    assert!(
        text.contains("faults:"),
        "summary must report faults:\n{text}"
    );
    assert!(
        text.contains("retries"),
        "summary must report retries:\n{text}"
    );
    // And without faults the line is absent.
    let (r2, _) = run_scale(None, default_res(), None);
    assert!(!r2.summary().contains("faults:"));
}

// ---------------------------------------------------------------------------
// Acceptance: Table II workloads (the Fig. 3 sharing set and the Fig. 4
// stealing set) under a mixed seeded plan.
// ---------------------------------------------------------------------------

/// Three consecutive launch faults (retry, retry, fallback) plus a transient
/// H2D hiccup and a transient CPU-chunk hiccup: every counter class engages.
fn mixed_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(
        seed,
        vec![
            FaultRule::transient(FaultKind::KernelLaunch, 3),
            FaultRule::transient(FaultKind::TransferH2D, 1).after(1),
            FaultRule::transient(FaultKind::CpuChunk, 1),
        ],
    )
}

#[test]
fn seeded_faults_on_benchmark_workloads_still_match_the_reference() {
    // VectorAdd/MVT run under sharing (Fig. 3), BICG/Crypt under stealing
    // (Fig. 4) — all DOALL, so both devices participate.
    for name in ["VectorAdd", "MVT", "BICG", "Crypt"] {
        let w = Workload::by_name(name).expect("Table II workload");
        let compiled = w.compile();
        let inst = w.instantiate(1);
        let mut expected = inst.heap.clone();
        w.run_reference(&mut expected, &inst.args);

        let mut heap = inst.heap.clone();
        let mut cfg = RuntimeConfig::default();
        cfg.sched.faults = Some(mixed_plan(2024));
        let r = Runtime::new(cfg)
            .run(&compiled, w.entry, &inst.args, &mut heap)
            .unwrap_or_else(|e| panic!("{name} must survive the fault plan: {e}"));
        outputs_match(&heap, &expected, &inst)
            .unwrap_or_else(|e| panic!("{name} output diverged under faults: {e}"));

        let s = r.fault_stats();
        assert!(s.retries > 0, "{name}: retries must be nonzero: {s:?}");
        assert!(s.fallbacks > 0, "{name}: fallbacks must be nonzero: {s:?}");
        assert!(s.degradations > 0, "{name}: ladder must move: {s:?}");
    }
}

#[test]
fn identical_seeds_give_identical_fault_histories() {
    let run = |seed| {
        let plan = FaultPlan::new(seed, vec![FaultRule::persistent(FaultKind::KernelLaunch)]);
        let (r, s) = run_scale(Some(plan), default_res(), None);
        (r.total_s, s)
    };
    assert_eq!(run(7), run(7), "same seed, same schedule, same stats");
}

// ---------------------------------------------------------------------------
// Property: arbitrary loops × arbitrary seeded plans ⇒ sequential result.
// ---------------------------------------------------------------------------

/// Loop-body statements over `data[i + off]` with offsets inside the margin,
/// covering DOALL bodies, forward/backward true dependences, and
/// data-dependent control flow.
#[derive(Debug, Clone)]
enum BodyStmt {
    Combine { w: i32, r: i32, m: i32, c: i32 },
    Guarded { w: i32, r: i32, cut: i32, c: i32 },
}

const MARGIN: i32 = 6;

fn body_stmt() -> impl Strategy<Value = BodyStmt> {
    let off = -MARGIN..=MARGIN;
    prop_oneof![
        (off.clone(), off.clone(), 1..4i32, -9..9i32).prop_map(|(w, r, m, c)| BodyStmt::Combine {
            w,
            r,
            m,
            c
        }),
        (off.clone(), off, -40..40i32, -9..9i32).prop_map(|(w, r, cut, c)| BodyStmt::Guarded {
            w,
            r,
            cut,
            c
        }),
    ]
}

fn render(stmts: &[BodyStmt]) -> String {
    let idx = |o: i32| {
        if o >= 0 {
            format!("i + {o}")
        } else {
            format!("i - {}", -o)
        }
    };
    let mut body = String::new();
    for s in stmts {
        let line = match s {
            BodyStmt::Combine { w, r, m, c } => {
                format!("data[{}] = data[{}] * {m} + {c};", idx(*w), idx(*r))
            }
            BodyStmt::Guarded { w, r, cut, c } => format!(
                "if (data[{}] > {cut}) {{ data[{}] = {c}; }}",
                idx(*r),
                idx(*w)
            ),
        };
        body.push_str(&line);
        body.push('\n');
    }
    format!(
        "static void gen(long[] data, int n) {{
            /* acc parallel */
            for (int i = {MARGIN}; i < n - {MARGIN}; i++) {{
                {body}
            }}
        }}"
    )
}

fn fault_rule() -> impl Strategy<Value = FaultRule> {
    let kind = prop_oneof![
        Just(FaultKind::KernelLaunch),
        Just(FaultKind::Simt),
        Just(FaultKind::TransferH2D),
        Just(FaultKind::TransferD2H),
        Just(FaultKind::DeadlineOverrun),
        Just(FaultKind::CpuChunk),
    ];
    (kind, 0u64..3, 1u64..4, any::<bool>(), 0u64..100).prop_map(
        |(k, after, count, persistent, pct)| {
            let rule = if persistent {
                FaultRule::persistent(k)
            } else {
                FaultRule::transient(k, count)
            };
            let rule = rule
                .after(after)
                .with_probability(0.25 + pct as f64 / 133.0);
            if k == FaultKind::DeadlineOverrun {
                rule.stalling(1e12)
            } else {
                rule
            }
        },
    )
}

fn prop_case(
    stmts: &[BodyStmt],
    seed: u64,
    rules: Vec<FaultRule>,
    stealing: bool,
) -> Result<(), TestCaseError> {
    let n = 600usize;
    let src = render(stmts);
    let init: Vec<i64> = (0..n as i64)
        .map(|i| (i * 37 + seed as i64) % 97 - 48)
        .collect();

    // Ground truth: plain sequential interpretation.
    let program = japonica::frontend::compile_source(&src)
        .map_err(|e| TestCaseError::fail(format!("generated source must compile: {e}\n{src}")))?;
    let mut seq_heap = Heap::new();
    let data = seq_heap.alloc_longs(&init);
    let args = vec![Value::Array(data), Value::Int(n as i32)];
    {
        let mut be = HeapBackend::new(&mut seq_heap);
        Interp::new(&program)
            .call_by_name("gen", &args, &mut be)
            .map_err(|e| TestCaseError::fail(format!("sequential run failed: {e}")))?;
    }
    let expect = seq_heap.read_ints(data).expect("reference output");

    // Hardened pipeline under the generated fault plan.
    let compiled = compile(&src).expect("already compiled once");
    let mut heap = Heap::new();
    let data2 = heap.alloc_longs(&init);
    let args2 = vec![Value::Array(data2), Value::Int(n as i32)];
    let mut cfg = RuntimeConfig::default();
    cfg.sched.faults = Some(FaultPlan::new(seed, rules));
    if stealing {
        cfg.scheme_override = Some(Scheme::Stealing);
    }
    Runtime::new(cfg)
        .run(&compiled, "gen", &args2, &mut heap)
        .map_err(|e| TestCaseError::fail(format!("runtime failed under faults: {e}\n{src}")))?;

    prop_assert_eq!(
        heap.read_ints(data2).expect("pipeline output"),
        expect,
        "fault-injected run diverged\n{}",
        src
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 20, // each case compiles + interprets + runs the full pipeline
        ..ProptestConfig::default()
    })]

    /// For arbitrary loops and arbitrary seeded fault plans, the hardened
    /// runtime completes and matches the sequential interpretation exactly.
    #[test]
    fn hardened_runtime_is_sequentially_correct_under_arbitrary_faults(
        stmts in proptest::collection::vec(body_stmt(), 1..4),
        seed in 0u64..10_000,
        rules in proptest::collection::vec(fault_rule(), 0..4),
        stealing in any::<bool>(),
    ) {
        prop_case(&stmts, seed, rules, stealing)?;
    }
}

/// Distilled deterministic corners of the property above.
#[test]
fn regression_dependent_loop_with_persistent_launch_faults() {
    prop_case(
        &[BodyStmt::Combine {
            w: 2,
            r: 0,
            m: 2,
            c: 1,
        }],
        17,
        vec![FaultRule::persistent(FaultKind::KernelLaunch)],
        false,
    )
    .unwrap();
}

#[test]
fn regression_guarded_loop_with_mixed_faults_under_stealing() {
    prop_case(
        &[
            BodyStmt::Guarded {
                w: -2,
                r: 3,
                cut: 0,
                c: 5,
            },
            BodyStmt::Combine {
                w: 0,
                r: -4,
                m: 3,
                c: -2,
            },
        ],
        23,
        vec![
            FaultRule::transient(FaultKind::TransferD2H, 2),
            FaultRule::persistent(FaultKind::CpuChunk).with_probability(0.5),
        ],
        true,
    )
    .unwrap();
}
