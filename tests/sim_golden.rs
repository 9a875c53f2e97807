//! Golden table of the *simulated* numbers: the 11 Table II apps under
//! {serial, cpu16, gpu, sharing, stealing} at scale 1 and the default
//! seed, plus one plain kernel launch of each app's first annotated loop.
//!
//! Simulated time is the paper's result; host-time optimisations must not
//! move it by a bit. Every f64 is pinned by its bit pattern. The table in
//! `tests/sim_golden.txt` was recorded before the host-time hot-path work
//! started and must only ever change in a PR that says so on purpose: on a
//! mismatch the test prints the table it computed.

use japonica::gpusim::{launch_loop, DeviceConfig, DeviceMemory};
use japonica::ir::{Env, ParamTy, Scheme};
use japonica::scheduler::sharing::eval_bounds;
use japonica::{run_baseline, Baseline, RunReport, Runtime, RuntimeConfig};
use japonica_workloads::Workload;
use std::fmt::Write;

const GOLDEN: &str = include_str!("sim_golden.txt");

/// `total_s` bits, then what the simulated devices did: GPU/CPU busy
/// seconds (cycle counts through the clock), iterations per side, bytes
/// over PCIe, TLS kernels/violations and steals.
fn cell_row(out: &mut String, app: &str, variant: &str, r: &RunReport) {
    let mut gpu_busy = 0.0f64;
    let mut cpu_busy = 0.0f64;
    let (mut gpu_iters, mut cpu_iters, mut bytes) = (0u64, 0u64, 0usize);
    let (mut kernels, mut violations) = (0u32, 0u32);
    for l in &r.loops {
        gpu_busy += l.gpu_busy_s;
        cpu_busy += l.cpu_busy_s;
        gpu_iters += l.gpu_iters;
        cpu_iters += l.cpu_iters;
        bytes += l.bytes_in + l.bytes_out;
        if let Some(t) = &l.tls {
            kernels += t.kernels;
            violations += t.violations;
        }
    }
    let mut steals = 0u32;
    for s in &r.stealing {
        gpu_busy += s.gpu_busy_s;
        cpu_busy += s.cpu_busy_s;
        gpu_iters += s.gpu_iters;
        cpu_iters += s.cpu_iters;
        steals += s.stolen_by_cpu + s.stolen_by_gpu;
    }
    writeln!(
        out,
        "cell {app} {variant} total={:016x} gpu_busy={:016x} cpu_busy={:016x} \
         gpu_iters={gpu_iters} cpu_iters={cpu_iters} bytes={bytes} \
         tls_kernels={kernels} tls_violations={violations} steals={steals}",
        r.total_s.to_bits(),
        gpu_busy.to_bits(),
        cpu_busy.to_bits(),
    )
    .expect("writing to a String");
}

/// One plain launch of the app's first annotated loop over its whole
/// range, every input array resident: warps, cycles and segment traffic.
fn kernel_row(out: &mut String, w: &Workload) {
    let compiled = w.compile();
    let inst = w.instantiate(1);
    let program = &compiled.program;
    let (_, f) = program.function_by_name(w.entry).expect("entry exists");
    let loop_ = f
        .all_loops()
        .into_iter()
        .find(|l| l.is_annotated())
        .expect("annotated loop");
    let mut env = Env::with_slots(f.num_vars);
    for (p, &a) in f.params.iter().zip(&inst.args) {
        let v = match p.ty {
            ParamTy::Scalar(t) => a.cast(t).expect("args match the signature"),
            ParamTy::Array(_) => a,
        };
        env.set(p.var, v);
    }
    let mut heap = inst.heap.clone();
    let bounds = eval_bounds(program, loop_, &env, &mut heap).expect("bounds evaluate");
    let cfg = DeviceConfig::default();
    let mut dev = DeviceMemory::new();
    for id in 0..heap.array_count() as u32 {
        let id = japonica::ir::ArrayId(id);
        let len = heap.len_of(id).expect("allocated array");
        dev.copy_in(&heap, id, 0, len, &cfg).expect("copy-in");
    }
    let kr = launch_loop(
        program,
        &cfg,
        loop_,
        &bounds,
        0..bounds.trip(),
        &env,
        &mut dev,
    )
    .expect("plain launch succeeds");
    writeln!(
        out,
        "kernel {} warps={} iters={} time={:016x} critical={:016x} issue={:016x} \
         mem={:016x} segments={} branches={} divergent={} bytes_in={}",
        w.name,
        kr.warps,
        kr.iterations,
        kr.time_s.to_bits(),
        kr.critical_cycles.to_bits(),
        kr.stats.issue_cycles.to_bits(),
        kr.stats.mem_cycles.to_bits(),
        kr.stats.mem_segments,
        kr.stats.branches,
        kr.stats.divergent_branches,
        dev.bytes_transferred(true),
    )
    .expect("writing to a String");
}

fn compute_table() -> String {
    let mut out = String::new();
    for w in Workload::all() {
        let compiled = w.compile();
        let inst = w.instantiate(1);
        let mut cfg = RuntimeConfig::default();
        cfg.sched.subloops_per_task = w.subloops;
        for (name, baseline) in [
            ("serial", Baseline::Serial),
            ("cpu16", Baseline::CpuParallel(16)),
            ("gpu", Baseline::GpuOnly),
        ] {
            let mut heap = inst.heap.clone();
            let r = run_baseline(&cfg, &compiled, w.entry, &inst.args, &mut heap, baseline)
                .unwrap_or_else(|e| panic!("{} {name}: {e}", w.name));
            cell_row(&mut out, w.name, name, &r);
        }
        for (name, scheme) in [("sharing", Scheme::Sharing), ("stealing", Scheme::Stealing)] {
            let mut heap = inst.heap.clone();
            let r = Runtime::new(RuntimeConfig {
                scheme_override: Some(scheme),
                ..cfg.clone()
            })
            .run(&compiled, w.entry, &inst.args, &mut heap)
            .unwrap_or_else(|e| panic!("{} {name}: {e}", w.name));
            cell_row(&mut out, w.name, name, &r);
        }
        kernel_row(&mut out, w);
    }
    out
}

#[test]
fn simulated_numbers_match_the_golden_table_bit_for_bit() {
    let actual = compute_table();
    if actual != GOLDEN {
        for (a, g) in actual.lines().zip(GOLDEN.lines()) {
            if a != g {
                eprintln!("first differing row:\n  golden: {g}\n  actual: {a}");
                break;
            }
        }
        panic!("simulated numbers moved; computed table:\n{actual}");
    }
}
