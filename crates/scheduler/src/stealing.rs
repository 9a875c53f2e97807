//! The task stealing scheme (paper §V-B, Algorithm 1).
//!
//! Tasks are whole loops (or sub-loops: the paper splits BICG's loops into
//! four and Crypt's into eight). The PDG groups tasks into topologically
//! sorted batches of mutually independent tasks; each batch is distributed
//! to the CPU and GPU queues by dependence class:
//!
//! * loops with high TD density → CPU (obligatory);
//! * loops without TD after profiling → GPU (obligatory);
//! * loops with moderate TD density → CPU;
//! * compile-time DOALL loops → GPU.
//!
//! After distribution, an empty queue immediately steals one preferential
//! task from the other queue (Algorithm 1, lines 7–10); during execution,
//! a worker that drains its queue steals from the other side. A barrier
//! separates batches ("wait until all tasks in taskSet are done").

use crate::config::SchedulerConfig;
use crate::modes::ExecutionMode;
use crate::plan::DataPlan;
use crate::report::{LoopExecReport, SchedError};
use crate::sharing::{
    absorb_gpu_fault, apply_writes_to_host, eval_bounds, launch_chunk, retry_transient,
    stage_device_guarded, transfer_with_retry, ChunkCx, LoopTask,
};
use japonica_analysis::Pdg;
use japonica_cpuexec::CpuCtx;
use japonica_faults::{DegradationLevel, FaultOrigin, FaultStats};
use japonica_gpusim::{DeviceMemory, SimtError};
use japonica_ir::{Env, Heap, KernelCache, LoopBounds, LoopId, Program, Scheme};
use japonica_tls::SpecArena;
use std::collections::VecDeque;

/// Which device executed a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    Gpu,
    Cpu,
}

/// Execution record of one (sub-)task.
#[derive(Debug, Clone)]
pub struct TaskRecord {
    pub loop_id: LoopId,
    /// Sub-loop index within its loop and the loop's sub-loop count.
    pub subloop: (u32, u32),
    /// Iteration range (0-based indices).
    pub range: (u64, u64),
    pub device: Device,
    /// The task ran on the other device than initially queued.
    pub stolen: bool,
    /// Simulated start/end on its device timeline.
    pub start_s: f64,
    pub end_s: f64,
}

/// Report of a whole stealing-scheme run.
#[derive(Debug, Clone, Default)]
pub struct StealingReport {
    /// Per-task execution records, in simulated completion order.
    pub tasks: Vec<TaskRecord>,
    /// Batch boundaries (simulated end time of each batch).
    pub batch_ends: Vec<f64>,
    pub gpu_busy_s: f64,
    pub cpu_busy_s: f64,
    /// Tasks the GPU stole from the CPU queue and vice versa.
    pub stolen_by_gpu: u32,
    pub stolen_by_cpu: u32,
    pub gpu_iters: u64,
    pub cpu_iters: u64,
    /// Injected-fault bookkeeping: retries, fallbacks, degradation ladder.
    pub faults: FaultStats,
    /// End-to-end simulated wall time.
    pub wall_s: f64,
}

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

struct SubTask<'t, 'a> {
    task: &'t LoopTask<'a>,
    mode: ExecutionMode,
    bounds: LoopBounds,
    plan: DataPlan,
    lo: u64,
    hi: u64,
    sub: (u32, u32),
    queued_on: Device,
    /// Obligatory tasks may not be stolen (paper §V-B: high-TD loops are
    /// obligatory CPU, profiled no-TD loops obligatory GPU).
    obligatory: bool,
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
    let mut report = StealingReport::default();
    // One bytecode compilation per loop: sub-loops, steals, TLS re-launches
    // and fault retries all hit the cache.
    let kernels = cfg.kernel_cache();
    let mut gpu_clock = 0.0f64;
    let mut cpu_clock = 0.0f64;
    // Degradation ladder state: once the device exhausts its fault
    // tolerance it is retired for the remainder of the run (all batches).
    let mut gpu_alive = true;
    let res = &cfg.resilience;

    for batch in pdg.batches() {
        // --- build this batch's sub-tasks ---
        let mut gpu_q: VecDeque<SubTask> = VecDeque::new();
        let mut cpu_q: VecDeque<SubTask> = VecDeque::new();
        for id in &batch {
            let task = match pool.iter().find(|t| t.loop_.id == *id) {
                Some(t) => t,
                None => continue, // loop not in this pool
            };
            let mode = task.try_mode(cfg)?;
            let bounds = eval_bounds(program, task.loop_, env, heap)?;
            let plan = DataPlan::derive(program, task.loop_, &task.analysis.classes, env, heap)?;
            let trip = bounds.trip();
            // Only dependence-free tasks may be split into sub-loops.
            let splits = if matches!(mode, ExecutionMode::A | ExecutionMode::DPrime) {
                cfg.subloops_per_task.max(1).min(trip.max(1) as u32)
            } else {
                1
            };
            let per = trip.div_ceil(splits as u64).max(1);
            for s in 0..splits {
                let lo = s as u64 * per;
                let hi = ((s + 1) as u64 * per).min(trip);
                if lo >= hi {
                    break;
                }
                // Distribution rules (paper §V-B): high-TD and moderate-TD
                // loops to the CPU (obligatory for high), no-TD profiled
                // loops obligatory GPU, compile-time DOALL preferred GPU.
                let (dev, obligatory) = match mode {
                    ExecutionMode::A => (Device::Gpu, false),
                    ExecutionMode::D | ExecutionMode::DPrime => (Device::Gpu, true),
                    ExecutionMode::B | ExecutionMode::C => (Device::Cpu, true),
                };
                let st = SubTask {
                    task,
                    mode,
                    bounds,
                    plan: plan.clone(),
                    lo,
                    hi,
                    sub: (s, splits),
                    queued_on: dev,
                    obligatory,
                };
                match dev {
                    Device::Gpu => gpu_q.push_back(st),
                    Device::Cpu => cpu_q.push_back(st),
                }
            }
        }
        // Initial balancing steal (Algorithm 1 lines 7-10); obligatory
        // tasks stay put.
        fn steal_back<'t, 'a>(q: &mut VecDeque<SubTask<'t, 'a>>) -> Option<SubTask<'t, 'a>> {
            let idx = q.iter().rposition(|t| !t.obligatory)?;
            q.remove(idx)
        }
        if gpu_q.is_empty() && cpu_q.len() >= 2 {
            if let Some(t) = steal_back(&mut cpu_q) {
                report.stolen_by_gpu += 1;
                gpu_q.push_back(SubTask {
                    queued_on: Device::Gpu,
                    ..t
                });
            }
        }
        if cpu_q.is_empty() && gpu_q.len() >= 2 {
            if let Some(t) = steal_back(&mut gpu_q) {
                report.stolen_by_cpu += 1;
                cpu_q.push_back(SubTask {
                    queued_on: Device::Cpu,
                    ..t
                });
            }
        }

        // --- workers drain the queues, stealing when idle ---
        let batch_start = gpu_clock.max(cpu_clock);
        gpu_clock = batch_start;
        cpu_clock = batch_start;
        // The GPU opens one stream per batch; its tasks pipeline behind it:
        // H2D shares ride an async stream ahead of the kernels, D2H results
        // ride the return direction, and only the last write-back's tail
        // lands after the final kernel.
        let mut gpu_opened = false;
        let mut gpu_xfer_clock = batch_start;
        let mut gpu_return_clock = batch_start;
        // A retired GPU hands its queue to the CPU wholesale.
        if !gpu_alive {
            while let Some(mut t) = gpu_q.pop_front() {
                t.queued_on = Device::Cpu;
                cpu_q.push_back(t);
            }
        }
        while !gpu_q.is_empty() || !cpu_q.is_empty() {
            // The device whose clock is behind acts next; it pops its own
            // queue first and steals the other queue's latest non-obligatory
            // task when idle. A device that can get no work yields the turn.
            let mut gpu_turn = gpu_alive && gpu_clock <= cpu_clock;
            if gpu_turn && gpu_q.is_empty() && !cpu_q.iter().any(|t| !t.obligatory) {
                gpu_turn = false;
            }
            if gpu_alive && !gpu_turn && cpu_q.is_empty() && !gpu_q.iter().any(|t| !t.obligatory) {
                gpu_turn = true;
            }
            let (me, own_q, other_q) = if gpu_turn {
                (Device::Gpu, &mut gpu_q, &mut cpu_q)
            } else {
                (Device::Cpu, &mut cpu_q, &mut gpu_q)
            };
            let (t, mut stolen) = match own_q.pop_front() {
                Some(t) => {
                    let stolen = t.queued_on != me;
                    (t, stolen)
                }
                None => {
                    let t = steal_back(other_q).ok_or_else(|| {
                        SchedError::Internal(
                            "turn selection promised a stealable task but found none".into(),
                        )
                    })?;
                    (t, true)
                }
            };
            let (device_used, start, end) = match me {
                Device::Gpu => {
                    if !gpu_opened {
                        gpu_opened = true;
                        let open = (cfg.gpu.kernel_launch_us + cfg.gpu.pcie_latency_us) * 1e-6;
                        gpu_clock += open;
                        gpu_xfer_clock = gpu_clock;
                        gpu_return_clock = gpu_return_clock.max(gpu_clock);
                    }
                    match exec_gpu(program, cfg, &t, env, heap, &kernels, &mut report.faults) {
                        Ok((h2d, kernel, d2h)) => {
                            gpu_xfer_clock += h2d; // streamed ahead of the kernel
                            let start = gpu_clock.max(gpu_xfer_clock);
                            let end = start + kernel;
                            gpu_clock = end;
                            gpu_return_clock = gpu_return_clock.max(end) + d2h;
                            (Device::Gpu, start, end)
                        }
                        Err(SchedError::Device { fault, .. }) => {
                            // The fault already went through its retry
                            // budget inside exec_gpu and the heap is
                            // untouched: resubmit the task on the CPU
                            // timeline — unless the caller wants the fault
                            // surfaced instead of absorbed.
                            gpu_alive = absorb_gpu_fault(res, &mut report.faults, fault)?;
                            if !gpu_alive {
                                while let Some(mut q) = gpu_q.pop_front() {
                                    q.queued_on = Device::Cpu;
                                    cpu_q.push_back(q);
                                }
                            }
                            let dur = exec_cpu(
                                program,
                                cfg,
                                &t,
                                env,
                                heap,
                                &kernels,
                                &mut report.faults,
                            )?;
                            let start = cpu_clock;
                            cpu_clock += dur;
                            stolen = true;
                            (Device::Cpu, start, cpu_clock)
                        }
                        Err(e) => return Err(e),
                    }
                }
                Device::Cpu => {
                    let dur = exec_cpu(program, cfg, &t, env, heap, &kernels, &mut report.faults)?;
                    let start = cpu_clock;
                    cpu_clock += dur;
                    (Device::Cpu, start, cpu_clock)
                }
            };
            report.tasks.push(TaskRecord {
                loop_id: t.task.loop_.id,
                subloop: t.sub,
                range: (t.lo, t.hi),
                device: device_used,
                stolen,
                start_s: start,
                end_s: end,
            });
            match device_used {
                Device::Gpu => {
                    report.gpu_busy_s += end - start;
                    report.gpu_iters += t.hi - t.lo;
                    if stolen {
                        report.stolen_by_gpu += 1;
                    }
                }
                Device::Cpu => {
                    report.cpu_busy_s += end - start;
                    report.cpu_iters += t.hi - t.lo;
                    if stolen {
                        report.stolen_by_cpu += 1;
                    }
                }
            }
        }
        // Barrier: the batch ends when both devices are done, including the
        // GPU's trailing write-back on the return stream.
        let end = gpu_clock.max(gpu_return_clock).max(cpu_clock);
        gpu_clock = end;
        cpu_clock = end;
        report.batch_ends.push(end);
    }
    report.wall_s = gpu_clock.max(cpu_clock);
    Ok(report)
}

/// Execute one sub-task on the GPU: per-task H2D share, buffered kernel,
/// write-back of exactly what it wrote. Returns the `(h2d, compute, d2h)`
/// stream components so the caller can overlap transfers with compute.
fn exec_gpu(
    program: &Program,
    cfg: &SchedulerConfig,
    t: &SubTask,
    env: &Env,
    heap: &mut Heap,
    kernels: &KernelCache,
    stats: &mut FaultStats,
) -> Result<(f64, f64, f64), SchedError> {
    let faults = cfg.faults.as_ref();
    let res = &cfg.resilience;
    let origin = FaultOrigin::for_loop(t.task.loop_.id)
        .with_subloop(t.lo)
        .with_chunk(t.sub.0 as u64);
    let mut dev = DeviceMemory::new();
    stage_device_guarded(&t.plan, heap, &mut dev, cfg, origin, stats)?;
    let trip = t.bounds.trip().max(1);
    let share = (t.hi - t.lo) as f64 / trip as f64;
    // Transfers ride the batch's open stream (the caller charges the
    // one-time open).
    let h2d = cfg
        .gpu
        .stream_seconds((t.plan.bytes_in(heap) as f64 * share) as usize);
    if matches!(t.mode, ExecutionMode::B | ExecutionMode::C) {
        // Defensive: a true-dependence task can only run on the GPU under
        // speculation (never reached for obligatory-CPU tasks).
        let r = japonica_tls::run_tls_loop_guarded_with(
            program,
            &cfg.gpu,
            &cfg.cpu,
            &cfg.tls,
            t.task.loop_,
            &t.bounds,
            t.lo..t.hi,
            env,
            &mut dev,
            t.task.profile.map(|p| &p.td_iters),
            faults,
            res,
            Some(kernels),
        )?;
        stats.gpu_faults += r.device_faults;
        stats.retries += r.fault_retries;
        let mut bytes_out = 0usize;
        for e in &t.plan.copyout {
            transfer_with_retry(res, stats, || {
                dev.copy_out_guarded(heap, e.array, e.lo, e.hi, &cfg.gpu, faults, origin)
            })?;
            bytes_out += e.bytes(heap);
        }
        return Ok((h2d, r.time_s, cfg.gpu.stream_seconds(bytes_out)));
    }
    // The host heap stays untouched until the launch succeeds AND the
    // write-back below is cleared to proceed — a prerequisite for safe CPU
    // resubmission by the caller.
    let mut cx = ChunkCx {
        program,
        cfg,
        bounds: &t.bounds,
        env,
        kernels,
        faults,
        se_overhead: match t.mode {
            ExecutionMode::D => cfg.tls.se_overhead_cycles / 2.0,
            _ => 0.0,
        },
        dev: &mut dev,
        arena: SpecArena::default(),
        stats,
    };
    let run = launch_chunk(t.task, t.lo..t.hi, &mut cx)?;
    let (kr, writes) = run.outcome.map_err(|fault| SchedError::Device {
        fault,
        stats: *stats,
    })?;
    // D2H gate: check (and retry) the return transfer before the first
    // element lands on the host, so a faulted write-back leaves the heap
    // untouched.
    transfer_with_retry(res, stats, || {
        if let Some(plan) = faults {
            if let Some(f) = plan.on_transfer(false, origin) {
                return Err(SimtError::Fault(f));
            }
        }
        Ok(())
    })?;
    let d2h = cfg.gpu.stream_seconds(apply_writes_to_host(heap, &writes)?);
    // Launches pipeline on the open stream.
    let kernel_s = (kr.time_s - cfg.gpu.kernel_launch_us * 1e-6).max(0.0) + 5e-6 + run.backoff_s;
    Ok((h2d, kernel_s, d2h))
}

/// Execute one sub-task on the CPU: multithreaded for dependence-free
/// tasks, sequential otherwise. Injected worker-chunk faults are retried
/// and then absorbed by dropping the batch to sequential execution — the
/// CPU rung always completes.
fn exec_cpu(
    program: &Program,
    cfg: &SchedulerConfig,
    t: &SubTask,
    env: &Env,
    heap: &mut Heap,
    kernels: &KernelCache,
    stats: &mut FaultStats,
) -> Result<f64, SchedError> {
    let res = &cfg.resilience;
    let origin = FaultOrigin::for_loop(t.task.loop_.id)
        .with_subloop(t.lo)
        .with_chunk(t.sub.0 as u64);
    let cpu = CpuCtx {
        faults: cfg.faults.as_ref(),
        origin,
        ..t.task.cpu_ctx(program, cfg, kernels)
    };
    let sequential = |heap: &mut Heap| {
        cpu.run_sequential(t.task.loop_, &t.bounds, t.lo..t.hi, &mut env.clone(), heap)
    };
    let r = match t.mode {
        ExecutionMode::B | ExecutionMode::C | ExecutionMode::D => sequential(heap)?,
        _ => {
            let threads = t
                .task
                .loop_
                .annot
                .as_ref()
                .and_then(|a| a.threads)
                .unwrap_or(cfg.cpu_threads);
            let run = retry_transient(res, stats, || {
                cpu.run_parallel(t.task.loop_, &t.bounds, t.lo..t.hi, env, heap, threads)
            })?;
            match run.outcome {
                Ok(r) => r,
                Err(fault) => {
                    if res.fail_fast {
                        return Err(SchedError::Device {
                            fault,
                            stats: *stats,
                        });
                    }
                    stats.fallbacks += 1;
                    if stats.cpu_faults >= res.device_fault_tolerance {
                        stats.escalate(DegradationLevel::Sequential);
                    }
                    sequential(heap)?
                }
            }
        }
    };
    Ok(r.time_s)
}

/// Convenience: summarize a stealing run as a [`LoopExecReport`]-like
/// record for the run's primary loop (used by the evaluation harness when a
/// single number per app is wanted).
pub fn stealing_as_loop_report(r: &StealingReport, loop_id: LoopId) -> LoopExecReport {
    let mut out = LoopExecReport::new(loop_id, ExecutionMode::A, Scheme::Stealing);
    out.iterations = r.gpu_iters + r.cpu_iters;
    out.gpu_iters = r.gpu_iters;
    out.cpu_iters = r.cpu_iters;
    out.gpu_busy_s = r.gpu_busy_s;
    out.cpu_busy_s = r.cpu_busy_s;
    out.wall_s = r.wall_s;
    out
}

// Re-exported for harness code that needs raw array access.
pub use japonica_ir::Heap as HostHeap;

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
