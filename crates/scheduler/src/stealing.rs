//! The task stealing scheme (paper §V-B, Algorithm 1): [`run_stealing`]
//! executes the tickets of a [`StealSchedule`], one PDG batch of (sub-)loop
//! tasks after another, through the same executor and fault ladder as task
//! sharing (DESIGN.md, "Scheduling core").

use crate::config::SchedulerConfig;
use crate::exec::{apply_writes_to_host, LoopRun};
use crate::ladder::{absorb_gpu_fault, transfer_with_retry};
use crate::modes::ExecutionMode;
use crate::report::SchedError;
pub use crate::schedule::{Device, StealingReport, TaskRecord};
use crate::schedule::{StealSchedule, Ticket};
use crate::sharing::LoopTask;
use japonica_analysis::Pdg;
use japonica_faults::{FaultOrigin, FaultStats};
use japonica_gpusim::SimtError;
use japonica_ir::{Env, Heap, Program};
use japonica_tls::SpecArena;

impl StealingReport {
    /// Export the schedule as a `chrome://tracing` / Perfetto JSON trace:
    /// one row per device, one complete event per (sub-)task, timestamps in
    /// simulated microseconds.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("[");
        for (i, t) in self.tasks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let tid = match t.device {
                Device::Gpu => 1,
                Device::Cpu => 2,
            };
            out.push_str(&format!(
                "{{\"name\":\"{} sub {}/{}{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                t.loop_id,
                t.subloop.0 + 1,
                t.subloop.1,
                if t.stolen { " (stolen)" } else { "" },
                tid,
                t.start_s * 1e6,
                (t.end_s - t.start_s) * 1e6,
            ));
        }
        out.push(']');
        out
    }

    /// Fraction of all iterations the CPU ended up executing (the paper
    /// reports the CPU finishing 62.5% of BICG's subloops).
    pub fn cpu_iter_share(&self) -> f64 {
        let total = self.gpu_iters + self.cpu_iters;
        if total == 0 {
            0.0
        } else {
            self.cpu_iters as f64 / total as f64
        }
    }
}

/// Run a pool of loops under the task stealing scheme. `pdg` must cover the
/// pool's loop ids; loops execute in topological batches.
pub fn run_stealing(
    program: &Program,
    cfg: &SchedulerConfig,
    pool: &[LoopTask<'_>],
    pdg: &Pdg,
    env: &Env,
    heap: &mut Heap,
) -> Result<StealingReport, SchedError> {
    let mut sched = StealSchedule::new(cfg);
    let stats = &mut FaultStats::default();
    for batch in pdg.batches() {
        // Loops of the batch that are in this pool, evaluated against the
        // heap the earlier batches left.
        let runs = batch
            .iter()
            .filter_map(|id| pool.iter().find(|t| t.loop_.id == *id))
            .map(|t| t.prepare(program, cfg, env, heap))
            .collect::<Result<Vec<LoopRun>, _>>()?;
        let tasks: Vec<_> = runs
            .iter()
            .map(|r| (r.task.loop_.id, r.mode, r.trip()))
            .collect();
        sched.begin_batch(&tasks);
        while let Some(t) = sched.next_ticket()? {
            let (run, range) = (&runs[t.task], t.range.clone());
            let origin = run.origin.with_subloop(range.start).with_chunk(t.chunk);
            // A GPU ticket either completes here or leaves a fault behind.
            let mut gpu_faulted = None;
            if t.device == Device::Gpu {
                match exec_gpu(run, &t, origin, env, heap, stats) {
                    Ok((h2d_s, kernel_s, d2h_s)) => {
                        sched.finish_gpu(&t, h2d_s, kernel_s, d2h_s);
                        continue;
                    }
                    // The fault went through its retry budget and the heap
                    // is untouched: resubmit the task on the CPU timeline.
                    Err(SchedError::Device { fault, .. }) => {
                        gpu_faulted = Some(absorb_gpu_fault(&cfg.resilience, stats, fault)?);
                    }
                    Err(e) => return Err(e),
                }
            }
            // On the host: the worker pool for dependence-free tasks, in
            // order on one core otherwise.
            let busy_s = if matches!(run.mode, ExecutionMode::A | ExecutionMode::DPrime) {
                run.cpu_pool(range, env, heap, run.threads, Some(origin), stats)?
                    .0
            } else {
                run.cpu_sequential(range, &mut env.clone(), heap)?
            };
            sched.finish_host(&t, busy_s, gpu_faulted);
        }
        sched.end_batch();
    }
    sched.report.faults = *stats;
    Ok(sched.report)
}

/// Execute one sub-task on the GPU: per-task H2D share, one chunk launch,
/// write-back of exactly what it wrote; returns the `(h2d, kernel, d2h)`
/// stream seconds. The host heap stays untouched until
/// the launch succeeds *and* the write-back is cleared to proceed — a
/// prerequisite for safe CPU resubmission by the caller.
fn exec_gpu(
    run: &LoopRun,
    t: &Ticket,
    origin: FaultOrigin,
    env: &Env,
    heap: &mut Heap,
    stats: &mut FaultStats,
) -> Result<(f64, f64, f64), SchedError> {
    if matches!(run.mode, ExecutionMode::B | ExecutionMode::C) {
        // True-dependence tasks are obligatory CPU and never stolen.
        return Err(SchedError::Internal(format!(
            "loop {} has true dependences but was ticketed to the GPU",
            run.task.loop_.id
        )));
    }
    let gpu = &run.cfg.gpu;
    let mut dev = run.stage(heap, origin, stats)?;
    let share = (t.range.end - t.range.start) as f64 / run.trip().max(1) as f64;
    // Transfers ride the batch's open stream (the schedule charges the
    // one-time open).
    let h2d_s = gpu.stream_seconds((run.plan.bytes_in(heap) as f64 * share) as usize);
    let mut arena = SpecArena::default();
    let launched = run.launch_chunk(t.range.clone(), env, &mut dev, &mut arena, stats)?;
    let backoff_s = launched.backoff_s();
    let (kr, writes) = launched.outcome.map_err(|fault| SchedError::Device {
        fault,
        stats: *stats,
    })?;
    // D2H gate: check (and retry) the return transfer before the first
    // element lands on the host, so a faulted write-back leaves the heap
    // untouched.
    transfer_with_retry(&run.cfg.resilience, stats, || {
        match run.faults.and_then(|plan| plan.on_transfer(false, origin)) {
            Some(f) => Err(SimtError::Fault(f)),
            None => Ok(()),
        }
    })?;
    let d2h_s = gpu.stream_seconds(apply_writes_to_host(heap, &writes)?);
    // Launches pipeline on the open stream.
    let kernel_s = (kr.time_s - gpu.kernel_launch_us * 1e-6).max(0.0) + 5e-6 + backoff_s;
    Ok((h2d_s, kernel_s, d2h_s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use japonica_analysis::{analyze_loop, build_pdg, LoopAnalysis};
    use japonica_frontend::compile_source;
    use japonica_ir::{ArrayId, ParamTy, Value};

    struct Pool {
        program: Program,
        loops: Vec<japonica_ir::ForLoop>,
        analyses: Vec<LoopAnalysis>,
        pdg: Pdg,
        env: Env,
        heap: Heap,
        arrays: Vec<ArrayId>,
    }

    fn pool(src: &str, n: usize) -> Pool {
        let program = compile_source(src).unwrap();
        let f = &program.functions[0];
        let loops: Vec<_> = f
            .all_loops()
            .into_iter()
            .filter(|l| l.is_annotated())
            .cloned()
            .collect();
        let analyses: Vec<_> = loops.iter().map(analyze_loop).collect();
        let pdg = build_pdg(f);
        let mut heap = Heap::new();
        let mut env = Env::with_slots(f.num_vars);
        let mut arrays = Vec::new();
        for p in &f.params {
            match p.ty {
                ParamTy::Array(_) => {
                    let vals: Vec<f64> = (0..n).map(|i| i as f64).collect();
                    let a = heap.alloc_doubles(&vals);
                    env.set(p.var, Value::Array(a));
                    arrays.push(a);
                }
                ParamTy::Scalar(_) => env.set(p.var, Value::Int(n as i32)),
            }
        }
        Pool {
            program: program.clone(),
            loops,
            analyses,
            pdg,
            env,
            heap,
            arrays,
        }
    }

    fn tasks<'a>(p: &'a Pool) -> Vec<LoopTask<'a>> {
        p.loops
            .iter()
            .zip(&p.analyses)
            .map(|(l, a)| LoopTask {
                loop_: l,
                analysis: a,
                profile: None,
            })
            .collect()
    }

    // BICG-like: two independent DOALL loops over different outputs.
    const BICG_LIKE: &str = "static void f(double[] a, double[] x, double[] y, int n) {
        /* acc parallel */
        for (int i = 0; i < n; i++) { x[i] = a[i] * 2.0; }
        /* acc parallel */
        for (int i = 0; i < n; i++) { y[i] = a[i] + 5.0; }
    }";

    #[test]
    fn independent_loops_run_in_one_batch_on_both_devices() {
        let mut p = pool(BICG_LIKE, 50_000);
        let cfg = SchedulerConfig::default();
        let env = p.env.clone();
        let mut heap = p.heap.clone();
        let ts = tasks(&p);
        let r = run_stealing(&p.program, &cfg, &ts, &p.pdg, &env, &mut heap).unwrap();
        p.heap = heap;
        assert_eq!(r.batch_ends.len(), 1);
        assert_eq!(r.gpu_iters + r.cpu_iters, 100_000);
        // Both devices worked: the CPU queue was empty initially (both
        // loops are DOALL -> GPU), so the CPU must have stolen.
        assert!(r.cpu_iters > 0, "CPU stole nothing");
        assert!(r.stolen_by_cpu > 0);
        // results correct
        let x = p.heap.read_doubles(p.arrays[1]).unwrap();
        let y = p.heap.read_doubles(p.arrays[2]).unwrap();
        assert!(x.iter().enumerate().all(|(i, &v)| v == 2.0 * i as f64));
        assert!(y.iter().enumerate().all(|(i, &v)| v == i as f64 + 5.0));
    }

    // 2MM/Crypt-like: the second loop consumes the first loop's output.
    const CHAIN: &str = "static void f(double[] a, double[] t, double[] c, int n) {
        /* acc parallel */
        for (int i = 0; i < n; i++) { t[i] = a[i] * 3.0; }
        /* acc parallel */
        for (int i = 0; i < n; i++) { c[i] = t[i] + 1.0; }
    }";

    #[test]
    fn dependent_loops_form_two_batches_with_correct_results() {
        let mut p = pool(CHAIN, 20_000);
        let cfg = SchedulerConfig::default();
        let env = p.env.clone();
        let mut heap = p.heap.clone();
        let ts = tasks(&p);
        let r = run_stealing(&p.program, &cfg, &ts, &p.pdg, &env, &mut heap).unwrap();
        p.heap = heap;
        assert_eq!(r.batch_ends.len(), 2);
        // The dependent loop must not start before the first batch ends.
        let batch0_end = r.batch_ends[0];
        for t in &r.tasks {
            if t.loop_id == p.loops[1].id {
                assert!(t.start_s >= batch0_end - 1e-12);
            }
        }
        let c = p.heap.read_doubles(p.arrays[2]).unwrap();
        assert!(c
            .iter()
            .enumerate()
            .all(|(i, &v)| v == 3.0 * i as f64 + 1.0));
    }

    #[test]
    fn subloop_splitting_respects_config() {
        let mut p = pool(BICG_LIKE, 10_000);
        let cfg = SchedulerConfig {
            subloops_per_task: 4,
            ..SchedulerConfig::default()
        };
        let env = p.env.clone();
        let mut heap = p.heap.clone();
        let ts = tasks(&p);
        let r = run_stealing(&p.program, &cfg, &ts, &p.pdg, &env, &mut heap).unwrap();
        p.heap = heap;
        // 2 loops x 4 subloops
        assert_eq!(r.tasks.len(), 8);
        assert!(r.tasks.iter().all(|t| t.subloop.1 == 4));
    }

    #[test]
    fn td_loop_is_pinned_to_cpu() {
        let mut p = pool(
            "static void f(double[] a, int n) {
                /* acc parallel */
                for (int i = 1; i < n; i++) { a[i] = a[i - 1] + a[i]; }
            }",
            4096,
        );
        let cfg = SchedulerConfig::default();
        let env = p.env.clone();
        let mut heap = p.heap.clone();
        let ts = tasks(&p);
        let r = run_stealing(&p.program, &cfg, &ts, &p.pdg, &env, &mut heap).unwrap();
        p.heap = heap;
        // a single sequential CPU task... except the idle GPU may steal it?
        // No: stealing only happens when a queue coexists; with one task
        // total the GPU queue starts empty and the initial balancing steal
        // would move it — unless it is obligatory CPU. Check it ran on CPU.
        assert_eq!(r.tasks.len(), 1);
        // Wherever queued, a TD loop must execute sequentially-correctly:
        let a = p.heap.read_doubles(p.arrays[0]).unwrap();
        let mut expect = vec![0.0f64; 4096];
        for (i, e) in expect.iter_mut().enumerate() {
            *e = i as f64;
        }
        for i in 1..4096 {
            expect[i] += expect[i - 1];
        }
        assert_eq!(a, expect);
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let mut p = pool(BICG_LIKE, 20_000);
        let cfg = SchedulerConfig::default();
        let env = p.env.clone();
        let mut heap = p.heap.clone();
        let ts = tasks(&p);
        let r = run_stealing(&p.program, &cfg, &ts, &p.pdg, &env, &mut heap).unwrap();
        p.heap = heap;
        let trace = r.to_chrome_trace();
        assert!(trace.starts_with('[') && trace.ends_with(']'));
        assert_eq!(trace.matches("\"ph\":\"X\"").count(), r.tasks.len());
        assert!(trace.contains("\"tid\":1") || trace.contains("\"tid\":2"));
    }

    #[test]
    fn cpu_share_is_reported() {
        let mut p = pool(BICG_LIKE, 50_000);
        let cfg = SchedulerConfig::default();
        let env = p.env.clone();
        let mut heap = p.heap.clone();
        let ts = tasks(&p);
        let r = run_stealing(&p.program, &cfg, &ts, &p.pdg, &env, &mut heap).unwrap();
        p.heap = heap;
        let share = r.cpu_iter_share();
        assert!(share > 0.0 && share < 1.0, "{share}");
    }
}
