//! Golden record of what the schedulers *decide*: one small loop per
//! execution mode (A, B, C, D, D′) under every scheme and baseline — task
//! sharing, paper-literal sharing (`cpu_steals_back = false`), task stealing
//! over a two-batch PDG, the fixed 50/50 split, GPU-only, CPU-only, serial —
//! with no fault plan and under each fault shape the degradation ladder
//! distinguishes, plus the `fail_fast` escapes. The baselines consult no
//! plan: they are recorded once per mode and asserted equal under the rest.
//!
//! `tests/sim_golden.txt` at the root pins fault-free default-config cells
//! only; this table pins the rest: every report `f64` by its bit pattern,
//! the iteration split, bytes over PCIe, the whole `FaultStats` (ladder
//! level included), how many faults the plan injected, `batch_ends`, every
//! `TaskRecord` and a hash of the heap the run left behind. It was recorded
//! before the scheduling core was split into executor / ladder / pure
//! schedules and must only change in a commit that says so on purpose: on a
//! mismatch the test writes the table it computed next to the build
//! (`CARGO_TARGET_TMPDIR/schedule_golden.actual.txt`) and prints the first
//! differing row.

use japonica_analysis::{analyze_loop, build_pdg, LoopAnalysis, Pdg};
use japonica_faults::{FaultKind, FaultPlan, FaultRule, FaultStats, ResilienceConfig};
use japonica_frontend::compile_source;
use japonica_gpusim::DeviceMemory;
use japonica_ir::{ArrayId, Env, ForLoop, Heap, ParamTy, Program, Value};
use japonica_profiler::{profile_loop, LoopProfile};
use japonica_scheduler::sharing::{eval_bounds, stage_device};
use japonica_scheduler::{
    run_sharing, run_stealing, DataPlan, ExecutionMode, LoopExecReport, LoopTask, SchedError,
    SchedulerConfig, StealingReport,
};
use std::fmt::Write;

const GOLDEN: &str = include_str!("schedule_golden.txt");

/// The DOALL consumer every fixture ends with: it reads what the first loop
/// wrote, so the function's PDG has two batches.
macro_rules! with_consumer {
    ($params:literal, $first:literal, $out:literal) => {
        concat!(
            "static void f(",
            $params,
            ", long[] c, int n) {\n/* acc parallel */\n",
            $first,
            "\n/* acc parallel */\nfor (int i = 0; i < n; i++) { c[i] = ",
            $out,
            "[i] + 1; }\n}"
        )
    };
}

/// `(label, expected mode of the first loop, source, n)`. All arrays are
/// `long[n]`; `idx` holds a permutation, everything else `i % 97`.
const FIXTURES: [(&str, ExecutionMode, &str, usize); 5] = [
    (
        "A",
        ExecutionMode::A,
        with_consumer!(
            "long[] a, long[] b",
            "for (int i = 0; i < n; i++) { b[i] = a[i] * 5 + 1; }",
            "b"
        ),
        4096,
    ),
    (
        "B",
        ExecutionMode::B,
        with_consumer!(
            "long[] a",
            "for (int i = 0; i < n; i++) {
                if (i % 101 == 100) { a[i] = a[i - 50] + 1; } else { a[i] = i; }
            }",
            "a"
        ),
        2020,
    ),
    (
        "C",
        ExecutionMode::C,
        with_consumer!(
            "long[] a",
            "for (int i = 1; i < n; i++) { a[i] = a[i - 1] + a[i]; }",
            "a"
        ),
        1024,
    ),
    (
        "D",
        ExecutionMode::D,
        with_consumer!(
            "long[] t, long[] o",
            "for (int i = 0; i < n; i++) { t[i % 64] = i; o[i] = t[i % 64] * 2; }",
            "o"
        ),
        2048,
    ),
    (
        "D'",
        ExecutionMode::DPrime,
        with_consumer!(
            "long[] a, long[] idx",
            "for (int i = 0; i < n; i++) { a[(int) idx[i]] = i * 3; }",
            "a"
        ),
        2048,
    ),
];

struct Fixture {
    program: Program,
    loops: Vec<ForLoop>,
    analyses: Vec<LoopAnalysis>,
    pdg: Pdg,
    env: Env,
    heap: Heap,
    arrays: Vec<ArrayId>,
}

fn fixture(src: &str, n: usize) -> Fixture {
    let program = compile_source(src).expect("fixture compiles");
    let f = &program.functions[0];
    let loops: Vec<ForLoop> = f
        .all_loops()
        .into_iter()
        .filter(|l| l.is_annotated())
        .cloned()
        .collect();
    let analyses = loops.iter().map(analyze_loop).collect();
    let pdg = build_pdg(f);
    let mut heap = Heap::new();
    let mut env = Env::with_slots(f.num_vars);
    let mut arrays = Vec::new();
    for p in &f.params {
        match p.ty {
            ParamTy::Array(_) => {
                let permutation = p.name == "idx";
                let vals: Vec<i64> = (0..n as i64)
                    .map(|i| {
                        if permutation {
                            i * 7 % n as i64
                        } else {
                            i % 97
                        }
                    })
                    .collect();
                let a = heap.alloc_longs(&vals);
                env.set(p.var, Value::Array(a));
                arrays.push(a);
            }
            ParamTy::Scalar(_) => env.set(p.var, Value::Int(n as i32)),
        }
    }
    Fixture {
        program: program.clone(),
        loops,
        analyses,
        pdg,
        env,
        heap,
        arrays,
    }
}

/// Profile the uncertain loops on a scratch device, as the runtime does.
fn profiles(fx: &Fixture, cfg: &SchedulerConfig) -> Vec<Option<LoopProfile>> {
    fx.loops
        .iter()
        .zip(&fx.analyses)
        .map(|(l, a)| {
            if !a.determination.needs_profiling() {
                return None;
            }
            let mut heap = fx.heap.clone();
            let bounds = eval_bounds(&fx.program, l, &fx.env, &mut heap).expect("bounds");
            let plan =
                DataPlan::derive(&fx.program, l, &a.classes, &fx.env, &mut heap).expect("plan");
            let mut dev = DeviceMemory::new();
            stage_device(&plan, &heap, &mut dev, cfg).expect("staging");
            let range = 0..bounds.trip();
            Some(
                profile_loop(&fx.program, &cfg.gpu, l, &bounds, range, &fx.env, &mut dev)
                    .expect("profile"),
            )
        })
        .collect()
}

const SCHEMES: [&str; 7] = [
    "sharing", "literal", "stealing", "fixed", "gpu-only", "cpu-only", "serial",
];

/// `(label, rules, fail_fast)`.
fn plans() -> Vec<(&'static str, Option<Vec<FaultRule>>, bool)> {
    use FaultKind::*;
    let stall = |r: FaultRule| r.stalling(1e12);
    vec![
        ("none", None, false),
        (
            "launch-transient",
            Some(vec![FaultRule::transient(KernelLaunch, 2)]),
            false,
        ),
        (
            "launch-persistent",
            Some(vec![FaultRule::persistent(KernelLaunch)]),
            false,
        ),
        (
            "h2d-transient",
            Some(vec![FaultRule::transient(TransferH2D, 1)]),
            false,
        ),
        (
            "h2d-persistent",
            Some(vec![FaultRule::persistent(TransferH2D)]),
            false,
        ),
        (
            "d2h-transient",
            Some(vec![FaultRule::transient(TransferD2H, 2)]),
            false,
        ),
        (
            "d2h-persistent",
            Some(vec![FaultRule::persistent(TransferD2H)]),
            false,
        ),
        (
            "cpu-transient",
            Some(vec![FaultRule::transient(CpuChunk, 2)]),
            false,
        ),
        (
            "cpu-persistent",
            Some(vec![FaultRule::persistent(CpuChunk)]),
            false,
        ),
        (
            "deadline",
            Some(vec![stall(FaultRule::transient(DeadlineOverrun, 3))]),
            false,
        ),
        (
            "both-persistent",
            Some(vec![
                FaultRule::persistent(KernelLaunch),
                FaultRule::persistent(CpuChunk),
            ]),
            false,
        ),
        (
            "launch-fail-fast",
            Some(vec![FaultRule::persistent(KernelLaunch)]),
            true,
        ),
        (
            "h2d-fail-fast",
            Some(vec![FaultRule::persistent(TransferH2D)]),
            true,
        ),
        (
            "d2h-fail-fast",
            Some(vec![FaultRule::persistent(TransferD2H)]),
            true,
        ),
        (
            "cpu-fail-fast",
            Some(vec![FaultRule::persistent(CpuChunk)]),
            true,
        ),
    ]
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn fault_row(s: &FaultStats) -> String {
    format!(
        "retries={} fallbacks={} degradations={} gpu_faults={} cpu_faults={} \
         transfer_faults={} deadline_overruns={} backoff={} level={}",
        s.retries,
        s.fallbacks,
        s.degradations,
        s.gpu_faults,
        s.cpu_faults,
        s.transfer_faults,
        s.deadline_overruns,
        bits(s.backoff_s),
        s.level,
    )
}

fn loop_rows(r: &LoopExecReport) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "  loop {} mode={:?} scheme={:?} iters={} gpu_iters={} cpu_iters={} gpu_busy={} \
         cpu_busy={} bytes_in={} bytes_out={} transfer={} wall={}",
        r.loop_id,
        r.mode,
        r.scheme,
        r.iterations,
        r.gpu_iters,
        r.cpu_iters,
        bits(r.gpu_busy_s),
        bits(r.cpu_busy_s),
        r.bytes_in,
        r.bytes_out,
        bits(r.transfer_s),
        bits(r.wall_s),
    )
    .expect("writing to a String");
    writeln!(out, "  faults {}", fault_row(&r.faults)).expect("writing to a String");
    if let Some(t) = &r.tls {
        writeln!(
            out,
            "  tls kernels={} clean={} violations={} recovered={} device_faults={} \
             fault_retries={} gpu_time={} cpu_time={} time={} writes={}",
            t.kernels,
            t.clean_subloops,
            t.violations,
            t.recovered_iters,
            t.device_faults,
            t.fault_retries,
            bits(t.gpu_time_s),
            bits(t.cpu_time_s),
            bits(t.time_s),
            t.writes.len(),
        )
        .expect("writing to a String");
    }
    out
}

fn stealing_rows(r: &StealingReport) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "  stealing gpu_iters={} cpu_iters={} gpu_busy={} cpu_busy={} stolen_by_gpu={} \
         stolen_by_cpu={} wall={} batch_ends=[{}]",
        r.gpu_iters,
        r.cpu_iters,
        bits(r.gpu_busy_s),
        bits(r.cpu_busy_s),
        r.stolen_by_gpu,
        r.stolen_by_cpu,
        bits(r.wall_s),
        r.batch_ends
            .iter()
            .map(|e| bits(*e))
            .collect::<Vec<_>>()
            .join(","),
    )
    .expect("writing to a String");
    writeln!(out, "  faults {}", fault_row(&r.faults)).expect("writing to a String");
    for t in &r.tasks {
        writeln!(
            out,
            "  task {} sub={}/{} range={}..{} device={:?} stolen={} start={} end={}",
            t.loop_id,
            t.subloop.0,
            t.subloop.1,
            t.range.0,
            t.range.1,
            t.device,
            t.stolen,
            bits(t.start_s),
            bits(t.end_s),
        )
        .expect("writing to a String");
    }
    out
}

/// FNV-1a over every array's elements, in parameter order.
fn heap_hash(heap: &Heap, arrays: &[ArrayId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for a in arrays {
        for v in heap.read_ints(*a).expect("long array") {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// One cell of the table: the first loop of `fx` (both loops, for stealing)
/// under `scheme` and `rules`.
fn cell(
    out: &mut String,
    fx: &Fixture,
    profiles: &[Option<LoopProfile>],
    scheme: &str,
    rules: Option<Vec<FaultRule>>,
    fail_fast: bool,
) {
    let cfg = SchedulerConfig {
        // Chunks small enough that the CPU keeps a share beyond the boundary
        // (paper-literal sharing included) at a few thousand iterations.
        chunk_iters: 128,
        cpu_steals_back: scheme != "literal",
        faults: rules.map(|r| FaultPlan::new(24, r)),
        resilience: ResilienceConfig {
            fail_fast,
            ..ResilienceConfig::default()
        },
        ..SchedulerConfig::default()
    };
    let tasks: Vec<LoopTask> = fx
        .loops
        .iter()
        .zip(&fx.analyses)
        .zip(profiles)
        .map(|((loop_, analysis), profile)| LoopTask {
            loop_,
            analysis,
            profile: profile.as_ref(),
        })
        .collect();
    let (p, t, mut heap) = (&fx.program, &tasks[0], fx.heap.clone());
    let baseline = |heap: &mut Heap| t.prepare(p, &cfg, &fx.env, heap);
    let looped = |r: Result<LoopExecReport, SchedError>| r.map(|r| loop_rows(&r));
    let rows = match scheme {
        "sharing" | "literal" => looped(run_sharing(p, &cfg, t, &mut fx.env.clone(), &mut heap)),
        "fixed" => looped(baseline(&mut heap).and_then(|r| r.fixed_split(&fx.env, &mut heap, 0.5))),
        "gpu-only" => looped(baseline(&mut heap).and_then(|r| r.gpu_only(&fx.env, &mut heap))),
        "cpu-only" => looped(
            baseline(&mut heap)
                .and_then(|r| r.on_cpu(&mut fx.env.clone(), &mut heap, Some(cfg.cpu_threads))),
        ),
        "serial" => {
            looped(baseline(&mut heap).and_then(|r| r.on_cpu(&mut fx.env.clone(), &mut heap, None)))
        }
        "stealing" => run_stealing(p, &cfg, &tasks, &fx.pdg, &fx.env, &mut heap).map(|r| {
            assert_eq!(r.batch_ends.len(), 2, "the fixture's PDG has two batches");
            stealing_rows(&r)
        }),
        other => unreachable!("unknown scheme {other}"),
    };
    out.push_str(&rows.unwrap_or_else(|e| format!("  error {e:?}\n")));
    writeln!(out, "  heap={:016x}", heap_hash(&heap, &fx.arrays)).expect("writing");
    let injected = cfg.faults.as_ref().map_or(0, FaultPlan::injected);
    writeln!(out, "  injected={injected}").expect("writing");
}

fn table() -> String {
    let mut out = String::new();
    for (label, mode, src, n) in FIXTURES {
        let fx = fixture(src, n);
        let profiles = profiles(&fx, &SchedulerConfig::default());
        let first = LoopTask {
            loop_: &fx.loops[0],
            analysis: &fx.analyses[0],
            profile: profiles[0].as_ref(),
        };
        assert_eq!(
            first.try_mode(&SchedulerConfig::default()),
            Ok(mode),
            "{label}"
        );
        assert_eq!(
            fx.pdg.batches().len(),
            2,
            "{label}: consumer after producer"
        );
        for scheme in SCHEMES {
            let baseline = matches!(scheme, "fixed" | "gpu-only" | "cpu-only" | "serial");
            let mut no_plan = String::new();
            for (plan, rules, fail_fast) in plans() {
                let mut rows = String::new();
                cell(&mut rows, &fx, &profiles, scheme, rules, fail_fast);
                if plan == "none" {
                    no_plan.clone_from(&rows);
                } else if baseline {
                    // A baseline is a hand port that consults no fault plan:
                    // one recorded row stands for every plan.
                    assert_eq!(rows, no_plan, "{label} {scheme} under {plan}");
                    continue;
                }
                writeln!(out, "cell mode={label} scheme={scheme} plan={plan}").expect("writing");
                out.push_str(&rows);
            }
        }
    }
    out
}

#[test]
fn scheduling_decisions_match_the_golden_record_bit_for_bit() {
    let actual = table();
    if actual != GOLDEN {
        let path =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("schedule_golden.actual.txt");
        std::fs::write(&path, &actual).expect("writing the computed table");
        let mut cell = "";
        for (a, g) in actual.lines().zip(GOLDEN.lines()) {
            if a.starts_with("cell ") {
                cell = a;
            }
            if a != g {
                eprintln!("first differing row, in `{cell}`:\n  golden: {g}\n  actual: {a}");
                break;
            }
        }
        panic!(
            "scheduling decisions moved ({} vs {} golden lines); computed table written to {}",
            actual.lines().count(),
            GOLDEN.lines().count(),
            path.display()
        );
    }
}
