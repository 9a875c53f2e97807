//! Mode-selection and correctness matrix for the scheduler: one loop per
//! dependence class, executed under task sharing, pinned to the expected
//! Fig. 2 execution mode and validated against sequential interpretation.

use japonica_analysis::analyze_loop;
use japonica_frontend::compile_source;
use japonica_gpusim::DeviceMemory;
use japonica_ir::{ArrayId, Env, Heap, HeapBackend, Interp, ParamTy, Program, Value};
use japonica_profiler::profile_loop;
use japonica_scheduler::{
    run_sharing, sharing::eval_bounds, sharing::stage_device, DataPlan, ExecutionMode, LoopTask,
    SchedulerConfig,
};

struct Case {
    program: Program,
    loop_: japonica_ir::ForLoop,
    env: Env,
    heap: Heap,
    arrays: Vec<ArrayId>,
}

fn case(src: &str, n: usize) -> Case {
    let program = compile_source(src).unwrap();
    let f = &program.functions[0];
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
            ParamTy::Array(_) => {
                let vals: Vec<i64> = (0..n as i64).map(|i| i % 97).collect();
                let a = heap.alloc_longs(&vals);
                env.set(p.var, Value::Array(a));
                arrays.push(a);
            }
            ParamTy::Scalar(_) => env.set(p.var, Value::Int(n as i32)),
        }
    }
    Case {
        program,
        loop_,
        env,
        heap,
        arrays,
    }
}

/// Run the full profile-then-share pipeline on the case; returns the mode
/// and checks outputs against sequential interpretation.
fn schedule_and_check(c: &mut Case) -> ExecutionMode {
    let cfg = SchedulerConfig::default();
    let analysis = analyze_loop(&c.loop_);

    // Sequential ground truth.
    let mut seq_heap = c.heap.clone();
    {
        let bounds = eval_bounds(&c.program, &c.loop_, &c.env, &mut seq_heap).unwrap();
        let mut env = c.env.clone();
        let mut be = HeapBackend::new(&mut seq_heap);
        Interp::new(&c.program)
            .exec_range(&c.loop_, &bounds, 0, bounds.trip(), &mut env, &mut be)
            .unwrap();
    }

    // Profile when uncertain (scratch device).
    let profile = if analysis.determination.needs_profiling() {
        let bounds = eval_bounds(&c.program, &c.loop_, &c.env, &mut c.heap).unwrap();
        let plan =
            DataPlan::derive(&c.program, &c.loop_, &analysis.classes, &c.env, &mut c.heap).unwrap();
        let mut dev = DeviceMemory::new();
        stage_device(&plan, &c.heap, &mut dev, &cfg).unwrap();
        Some(
            profile_loop(
                &c.program,
                &cfg.gpu,
                &c.loop_,
                &bounds,
                0..bounds.trip(),
                &c.env,
                &mut dev,
            )
            .unwrap(),
        )
    } else {
        None
    };
    let task = LoopTask {
        loop_: &c.loop_,
        analysis: &analysis,
        profile: profile.as_ref(),
    };
    let mode = task.try_mode(&cfg).unwrap();
    let mut env = c.env.clone();
    let report = run_sharing(&c.program, &cfg, &task, &mut env, &mut c.heap).unwrap();
    assert_eq!(report.mode, mode);
    for a in &c.arrays {
        assert_eq!(
            c.heap.read_ints(*a).unwrap(),
            seq_heap.read_ints(*a).unwrap(),
            "array {a} under mode {mode}"
        );
    }
    mode
}

#[test]
fn doall_loop_selects_mode_a() {
    let mut c = case(
        "static void f(long[] a, long[] b, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) { b[i] = a[i] * 5 + 1; }
        }",
        20_000,
    );
    assert_eq!(schedule_and_check(&mut c), ExecutionMode::A);
}

#[test]
fn static_true_dependence_selects_mode_c() {
    let mut c = case(
        "static void f(long[] a, int n) {
            /* acc parallel */
            for (int i = 1; i < n; i++) { a[i] = a[i - 1] + a[i]; }
        }",
        5_000,
    );
    assert_eq!(schedule_and_check(&mut c), ExecutionMode::C);
}

#[test]
fn low_density_profiled_loop_selects_mode_b() {
    let mut c = case(
        "static void f(long[] a, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) {
                if (i % 101 == 100) { a[i] = a[i - 50] + 1; } else { a[i] = i; }
            }
        }",
        10_100,
    );
    assert_eq!(schedule_and_check(&mut c), ExecutionMode::B);
}

#[test]
fn high_density_profiled_loop_selects_mode_c() {
    // every other iteration depends on the previous: density 0.5 > 0.1
    let mut c = case(
        "static void f(long[] a, int n) {
            /* acc parallel */
            for (int i = 1; i < n; i++) {
                if (i % 2 == 0) { a[i] = a[i - 1] + 1; } else { a[i] = i; }
            }
        }",
        4_000,
    );
    assert_eq!(schedule_and_check(&mut c), ExecutionMode::C);
}

#[test]
fn fd_only_profiled_loop_selects_mode_d() {
    let mut c = case(
        "static void f(long[] t, long[] o, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) { t[i % 64] = i; o[i] = t[i % 64] * 2; }
        }",
        8_192,
    );
    assert_eq!(schedule_and_check(&mut c), ExecutionMode::D);
}

#[test]
fn clean_profiled_loop_selects_mode_d_prime() {
    // statically uncertain (indirect), dynamically independent
    let mut c = case(
        "static void f(long[] a, long[] idx, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) { a[(int) idx[i] % n] = i; }
        }",
        6_000, // idx[i] = i % 97 ... wait: values are i % 97, so a[(i%97)%n]
    );
    // values i%97 repeat -> WAW across iterations! That is FD, mode D.
    assert_eq!(schedule_and_check(&mut c), ExecutionMode::D);
}

#[test]
fn statically_proven_fd_selects_mode_d_without_profiling() {
    let mut c = case(
        "static void f(long[] a, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) { a[0] = i; }
        }",
        2_048,
    );
    let analysis = analyze_loop(&c.loop_);
    assert!(!analysis.determination.needs_profiling());
    assert_eq!(schedule_and_check(&mut c), ExecutionMode::D);
}

#[test]
fn boundary_fraction_reacts_to_device_strengths() {
    let mut weak_gpu = SchedulerConfig::default();
    weak_gpu.gpu.sm_count = 2;
    let strong = SchedulerConfig::default();
    assert!(weak_gpu.boundary_fraction() < strong.boundary_fraction());
    let mut weak_cpu = SchedulerConfig::default();
    weak_cpu.cpu.cores = 2;
    assert!(weak_cpu.boundary_fraction() > strong.boundary_fraction());
}

#[test]
fn threads_clause_limits_cpu_side_parallelism() {
    // Same loop with threads(1) vs threads(16): the CPU side of the share
    // must be slower with one thread.
    let run = |threads: u32| {
        let mut c = case(
            &format!(
                "static void f(long[] a, long[] b, int n) {{
                    /* acc parallel threads({threads}) */
                    for (int i = 0; i < n; i++) {{ b[i] = a[i] * 3 + i; }}
                }}"
            ),
            60_000,
        );
        let cfg = SchedulerConfig::default();
        let analysis = analyze_loop(&c.loop_);
        let task = LoopTask {
            loop_: &c.loop_,
            analysis: &analysis,
            profile: None,
        };
        let mut env = c.env.clone();
        run_sharing(&c.program, &cfg, &task, &mut env, &mut c.heap).unwrap()
    };
    let one = run(1);
    let many = run(16);
    assert!(one.cpu_iters > 0 && many.cpu_iters > 0);
    let one_rate = one.cpu_busy_s / one.cpu_iters as f64;
    let many_rate = many.cpu_busy_s / many.cpu_iters as f64;
    assert!(
        one_rate > 4.0 * many_rate,
        "threads(1) {one_rate} vs threads(16) {many_rate}"
    );
}

#[test]
fn paper_literal_sharing_pins_the_cpu_to_its_boundary_partition() {
    let run = |steals_back: bool| {
        let mut c = case(
            "static void f(long[] a, long[] b, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) { b[i] = a[i] + i; }
            }",
            80_000,
        );
        let cfg = SchedulerConfig {
            cpu_steals_back: steals_back,
            ..SchedulerConfig::default()
        };
        let analysis = analyze_loop(&c.loop_);
        let task = LoopTask {
            loop_: &c.loop_,
            analysis: &analysis,
            profile: None,
        };
        let mut env = c.env.clone();
        let r = run_sharing(&c.program, &cfg, &task, &mut env, &mut c.heap).unwrap();
        // results stay correct either way
        assert_eq!(r.gpu_iters + r.cpu_iters, 80_000);
        r
    };
    let bidir = run(true);
    let literal = run(false);
    let boundary = SchedulerConfig::default().boundary_fraction();
    // Literal sharing: CPU share can never exceed (1 - boundary) rounded up
    // to chunk granularity.
    assert!(
        (literal.cpu_iters as f64) < (1.0 - boundary) * 80_000.0 + 4096.0,
        "literal CPU share {} crosses the boundary",
        literal.cpu_iters
    );
    // Bidirectional sharing lets the CPU take more of this cheap loop.
    assert!(bidir.cpu_iters > literal.cpu_iters);
}
