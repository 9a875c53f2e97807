//! The task sharing scheme (paper §V-A) plus the single-device baseline
//! executors used throughout the evaluation.
//!
//! Task sharing splits one loop's iteration space across GPU and CPU at the
//! boundary `Cg·Fg / (Cg·Fg + Cc·Fc)`. Iterations before the boundary are
//! *preferential* to the GPU: their data is streamed to the device in
//! advance, asynchronously with kernel execution, so transfer latency hides
//! behind compute. The GPU consumes uniform chunks in ascending order while
//! the CPU consumes chunks from the other end in descending order; whichever
//! device drains its share early pulls chunks from the other side — pulls
//! beyond the boundary pay a *synchronous* transfer (the paper's "extra
//! overhead" observed on GEMM).

use crate::config::SchedulerConfig;
use crate::modes::{decide_mode, try_decide_mode, ExecutionMode};
use crate::plan::DataPlan;
use crate::report::{LoopExecReport, SchedError};
use japonica_analysis::LoopAnalysis;
use japonica_cpuexec::{CpuCtx, CpuExecError, Independence};
use japonica_faults::{
    DegradationLevel, DeviceFault, FaultOrigin, FaultPlan, FaultStats, ResilienceConfig,
};
use japonica_gpusim::{
    launch_loop_par_with, DeviceMemory, JournaledMemory, KernelReport, SimtError,
};
use japonica_ir::{
    Env, ExecError, ForLoop, Heap, HeapBackend, Interp, KernelCache, LoopBounds, Program, Scheme,
};
use japonica_profiler::LoopProfile;
use japonica_tls::{
    run_privatized_with, run_tls_loop_guarded_with, SpecArena, SpeculativeMemory, WriteList,
};
use std::ops::Range;

/// Everything the scheduler needs to know about one annotated loop.
#[derive(Debug, Clone, Copy)]
pub struct LoopTask<'a> {
    pub loop_: &'a ForLoop,
    pub analysis: &'a LoopAnalysis,
    pub profile: Option<&'a LoopProfile>,
}

impl<'a> LoopTask<'a> {
    /// The execution mode per the Fig. 2(b) workflow.
    ///
    /// Panics when an uncertain loop has no profile; runtime code paths use
    /// [`LoopTask::try_mode`] instead.
    pub fn mode(&self, cfg: &SchedulerConfig) -> ExecutionMode {
        decide_mode(
            &self.analysis.determination,
            self.profile,
            cfg.td_density_threshold,
        )
    }

    /// The CPU execution context for this loop: the scheduler's CPU model
    /// and kernel cache, plus what static analysis proved about the loop —
    /// only a loop it proved independent may run its lane batches unchecked.
    pub(crate) fn cpu_ctx<'c>(
        &self,
        program: &'c Program,
        cfg: &'c SchedulerConfig,
        kernels: &'c KernelCache,
    ) -> CpuCtx<'c> {
        CpuCtx {
            kernels: Some(kernels),
            independence: if self.analysis.proven_independent() {
                Independence::Proven
            } else {
                Independence::Unproven
            },
            ..CpuCtx::new(program, &cfg.cpu)
        }
    }

    /// Panic-free mode selection for the scheduling hot path.
    pub fn try_mode(&self, cfg: &SchedulerConfig) -> Result<ExecutionMode, SchedError> {
        try_decide_mode(
            &self.analysis.determination,
            self.profile,
            cfg.td_density_threshold,
        )
        .ok_or_else(|| {
            SchedError::Internal(format!(
                "loop {} has an uncertain determination but no profile",
                self.loop_.id
            ))
        })
    }
}

/// Evaluate the loop's canonical bounds in `env`.
pub fn eval_bounds(
    program: &Program,
    loop_: &ForLoop,
    env: &Env,
    heap: &mut Heap,
) -> Result<LoopBounds, ExecError> {
    let mut env = env.clone();
    let mut be = HeapBackend::new(heap);
    Interp::new(program).loop_bounds(loop_, &mut env, &mut be)
}

/// Functionally mirror the plan's arrays onto the device (transfer *time*
/// is modeled by the callers' timelines, not by this copy).
pub fn stage_device(
    plan: &DataPlan,
    heap: &Heap,
    dev: &mut DeviceMemory,
    cfg: &SchedulerConfig,
) -> Result<(), ExecError> {
    for e in plan.device_arrays() {
        let len = heap.len_of(e.array)?;
        // `create` arrays are device-only: allocate without a transfer
        // (paper Table I: "do not copy data between the host and device").
        let create_only = plan.create.iter().any(|c| c.array == e.array)
            && !plan.copyin.iter().any(|c| c.array == e.array)
            && !plan.copyout.iter().any(|c| c.array == e.array);
        if create_only {
            let ty = heap.array(e.array)?.ty();
            dev.alloc(e.array, ty, len);
        } else {
            dev.copy_in(heap, e.array, 0, len, &cfg.gpu)?;
        }
    }
    Ok(())
}

/// What an attempt came to once transient faults were retried: its value,
/// or the fault that outlived the retries, and the backoff charged.
pub struct Retried<T> {
    pub outcome: Result<T, DeviceFault>,
    pub backoff_s: f64,
}

/// Run `attempt_fn`, retrying transient injected faults up to
/// `res.max_retries` times with a linear backoff charged to `stats`.
/// Errors that are not device faults propagate.
pub(crate) fn retry_transient<T, E: Into<SchedError>>(
    res: &ResilienceConfig,
    stats: &mut FaultStats,
    mut attempt_fn: impl FnMut() -> Result<T, E>,
) -> Result<Retried<T>, SchedError> {
    let mut attempt = 0u32;
    let mut backoff_s = 0.0f64;
    let outcome = loop {
        let fault = match attempt_fn().map_err(Into::into) {
            Ok(v) => break Ok(v),
            Err(SchedError::Device { fault, .. }) => fault,
            Err(e) => return Err(e),
        };
        stats.observe(&fault);
        if !fault.transient || attempt >= res.max_retries {
            break Err(fault);
        }
        attempt += 1;
        stats.retries += 1;
        let b = res.retry_backoff_us * 1e-6 * attempt as f64;
        stats.backoff_s += b;
        backoff_s += b;
    };
    Ok(Retried { outcome, backoff_s })
}

/// Run one guarded transfer under [`retry_transient`]. Persistent (or
/// retry-exhausted) faults surface as [`SchedError::Device`] for the
/// caller's fallback rung.
pub(crate) fn transfer_with_retry<T>(
    res: &ResilienceConfig,
    stats: &mut FaultStats,
    attempt_fn: impl FnMut() -> Result<T, SimtError>,
) -> Result<T, SchedError> {
    let run = retry_transient(res, stats, attempt_fn)?;
    run.outcome.map_err(|fault| SchedError::Device {
        fault,
        stats: *stats,
    })
}

/// [`stage_device`] under an active fault plan: H2D staging transfers go
/// through the guarded copy path with transient-fault retry. Nothing is
/// special-cased when `cfg.faults` is `None` — the guarded copy degenerates
/// to the plain one.
pub(crate) fn stage_device_guarded(
    plan: &DataPlan,
    heap: &Heap,
    dev: &mut DeviceMemory,
    cfg: &SchedulerConfig,
    origin: FaultOrigin,
    stats: &mut FaultStats,
) -> Result<(), SchedError> {
    let faults = cfg.faults.as_ref();
    for e in plan.device_arrays() {
        let len = heap.len_of(e.array)?;
        let create_only = plan.create.iter().any(|c| c.array == e.array)
            && !plan.copyin.iter().any(|c| c.array == e.array)
            && !plan.copyout.iter().any(|c| c.array == e.array);
        if create_only {
            let ty = heap.array(e.array)?.ty();
            dev.alloc(e.array, ty, len);
        } else {
            transfer_with_retry(&cfg.resilience, stats, || {
                dev.copy_in_guarded(heap, e.array, 0, len, &cfg.gpu, faults, origin)
            })?;
        }
    }
    Ok(())
}

pub(crate) fn apply_writes_to_host(
    heap: &mut Heap,
    writes: &WriteList,
) -> Result<usize, ExecError> {
    let mut bytes = 0usize;
    // Writes arrive in runs over one array: resolve it once per run.
    for run in writes.chunk_by(|a, b| a.0 .0 == b.0 .0) {
        let arr = run[0].0 .0;
        let dst = heap.array_mut(arr)?;
        for &((_, idx), v) in run {
            dst.set(dst.index_of(arr, idx)?, v)?;
        }
        bytes += run.len() * dst.ty().size_bytes();
    }
    Ok(bytes)
}

/// What one GPU chunk launch needs besides the task and its range; built
/// once per loop (sharing, fixed split) or sub-task (stealing).
pub struct ChunkCx<'a> {
    pub program: &'a Program,
    pub cfg: &'a SchedulerConfig,
    pub bounds: &'a LoopBounds,
    pub env: &'a Env,
    pub kernels: &'a KernelCache,
    /// The plan launches consult and retry under; `None` launches unguarded.
    pub faults: Option<&'a FaultPlan>,
    /// Issue cycles a buffering chunk memory charges per access.
    pub se_overhead: f64,
    pub dev: &'a mut DeviceMemory,
    /// What every buffering chunk of the loop records into, reset per launch.
    pub arena: SpecArena,
    pub stats: &'a mut FaultStats,
}

/// A GPU fault outlived its retries: surface it under `fail_fast`, else
/// count the fallback and step down the ladder. Returns whether the GPU
/// stays in service.
pub(crate) fn absorb_gpu_fault(
    res: &ResilienceConfig,
    stats: &mut FaultStats,
    fault: DeviceFault,
) -> Result<bool, SchedError> {
    if res.fail_fast {
        return Err(SchedError::Device {
            fault,
            stats: *stats,
        });
    }
    stats.fallbacks += 1;
    stats.escalate(DegradationLevel::GpuDegraded);
    let device_faults = stats.gpu_faults + stats.transfer_faults + stats.deadline_overruns;
    let alive = device_faults < res.device_fault_tolerance;
    if !alive {
        stats.escalate(DegradationLevel::CpuOnly);
    }
    Ok(alive)
}

/// Launch iterations `range` of `task`'s loop as one GPU chunk under
/// [`retry_transient`]: the kernel's report and everything it wrote, or the
/// fault that outlived its retries with device memory exactly as the chunk
/// found it. The memory the chunk executes against is chosen here, from
/// what is known about the loop; each choice keeps a faulted kernel's
/// stores out of device memory and yields a sequentially equivalent list.
pub fn launch_chunk(
    task: &LoopTask,
    range: Range<u64>,
    cx: &mut ChunkCx,
) -> Result<Retried<(KernelReport, WriteList)>, SchedError> {
    let mode = task.try_mode(cx.cfg)?;
    let proven = task.analysis.proven_independent();
    let watchdog = cx.faults.and(cx.cfg.resilience.watchdog());
    retry_transient(&cx.cfg.resilience, cx.stats, || {
        if mode == ExecutionMode::A && proven {
            // Proven DOALL: no iteration reads or overwrites another's
            // stores, so write through and undo if the kernel dies.
            let mut mem = JournaledMemory::new(cx.dev);
            let launched = launch_loop_par_with(
                cx.program,
                &cx.cfg.gpu,
                task.loop_,
                cx.bounds,
                range.clone(),
                cx.env,
                &mut mem,
                cx.faults,
                watchdog,
                Some(cx.kernels),
            );
            return match launched {
                Ok(kr) => Ok((kr, mem.into_writes()?)),
                Err(e) => {
                    mem.roll_back();
                    Err(SchedError::from(e))
                }
            };
        }
        // Anything else buffers per iteration and commits in iteration
        // order; the buffers die with a faulted kernel. Mode D (false
        // dependences only) never checks, so it records no metadata.
        let mut mem = if mode == ExecutionMode::D {
            SpeculativeMemory::buffer_only(cx.dev, cx.se_overhead, &mut cx.arena)
        } else {
            SpeculativeMemory::with_arena(cx.dev, cx.se_overhead, &mut cx.arena)
        };
        let kr = launch_loop_par_with(
            cx.program,
            &cx.cfg.gpu,
            task.loop_,
            cx.bounds,
            range.clone(),
            cx.env,
            &mut mem,
            cx.faults,
            watchdog,
            Some(cx.kernels),
        )?;
        Ok((kr, mem.commit_all_collect()?))
    })
}

/// Execute one loop under the task sharing scheme (or its degenerate
/// single-device modes B and C). The host heap holds the authoritative
/// result afterwards.
pub fn run_sharing(
    program: &Program,
    cfg: &SchedulerConfig,
    task: &LoopTask,
    env: &mut Env,
    heap: &mut Heap,
) -> Result<LoopExecReport, SchedError> {
    let mode = task.try_mode(cfg)?;
    let bounds = eval_bounds(program, task.loop_, env, heap)?;
    let trip = bounds.trip();
    let plan = DataPlan::derive(program, task.loop_, &task.analysis.classes, env, heap)?;
    let mut report = LoopExecReport::new(task.loop_.id, mode, Scheme::Sharing);
    report.iterations = trip;
    if trip == 0 {
        return Ok(report);
    }
    // One bytecode compilation per loop, shared by every chunk launch, TLS
    // re-execution and fault-ladder retry below.
    let kernels = cfg.kernel_cache();
    match mode {
        ExecutionMode::A | ExecutionMode::D | ExecutionMode::DPrime => greedy_share(
            program, cfg, task, env, heap, &bounds, &plan, report, mode, &kernels,
        ),
        ExecutionMode::B => run_mode_b(
            program, cfg, task, env, heap, &bounds, &plan, report, &kernels,
        ),
        ExecutionMode::C => {
            let cpu = task.cpu_ctx(program, cfg, &kernels);
            let r = cpu.run_sequential(task.loop_, &bounds, 0..trip, env, heap)?;
            report.cpu_iters = trip;
            report.cpu_busy_s = r.time_s;
            report.wall_s = r.time_s;
            Ok(report)
        }
    }
}

/// The boundary-guided greedy chunk loop shared by modes A, D and D′.
#[allow(clippy::too_many_arguments)]
fn greedy_share(
    program: &Program,
    cfg: &SchedulerConfig,
    task: &LoopTask,
    env: &mut Env,
    heap: &mut Heap,
    bounds: &LoopBounds,
    plan: &DataPlan,
    mut report: LoopExecReport,
    mode: ExecutionMode,
    kernels: &KernelCache,
) -> Result<LoopExecReport, SchedError> {
    let trip = bounds.trip();
    // Mode D: privatized GPU chunks and a sequential deferred-write CPU share.
    let privatized = mode == ExecutionMode::D;
    // `threads(n)` clause overrides the configured CPU thread count.
    let cpu_threads = task
        .loop_
        .annot
        .as_ref()
        .and_then(|a| a.threads)
        .unwrap_or(cfg.cpu_threads);
    // Uniform chunks of moderate size: one 32nd of the loop, but at least
    // 16 iterations (heavy-iteration loops like MVT still split) and at
    // most `chunk_iters` (cheap-iteration loops amortize per-chunk costs).
    let chunk = trip
        .div_ceil(cfg.max_chunks.max(1))
        .clamp(16.min(trip.max(1)), cfg.chunk_iters.max(16));
    let nchunks = trip.div_ceil(chunk);
    let boundary_iter = (trip as f64 * cfg.boundary_fraction()) as u64;
    let faults = cfg.faults.as_ref();
    let res = &cfg.resilience;
    let loop_origin = FaultOrigin::for_loop(task.loop_.id);
    let cpu = task.cpu_ctx(program, cfg, kernels);

    let mut dev = DeviceMemory::new();
    if let Err(e) = stage_device_guarded(plan, heap, &mut dev, cfg, loop_origin, &mut report.faults)
    {
        match e {
            SchedError::Device { fault, .. } => {
                // The device is unreachable before any compute was queued:
                // bottom rung of the ladder, the whole loop runs
                // sequentially on the host — unless the caller asked for the
                // fault to escape instead of being absorbed.
                if res.fail_fast {
                    return Err(SchedError::Device {
                        fault,
                        stats: report.faults,
                    });
                }
                report.faults.fallbacks += 1;
                report.faults.escalate(DegradationLevel::Sequential);
                let r = cpu.run_sequential(task.loop_, bounds, 0..trip, env, heap)?;
                report.cpu_iters = trip;
                report.cpu_busy_s = r.time_s + report.faults.backoff_s;
                report.wall_s = report.cpu_busy_s;
                return Ok(report);
            }
            other => return Err(other),
        }
    }
    let stage_backoff = report.faults.backoff_s;
    let bytes_in_total = plan.bytes_in(heap);
    let in_bytes_per_iter = bytes_in_total as f64 / trip as f64;

    // Per-SM availability: Fermi runs concurrent kernels, so small chunk
    // kernels from different stream launches occupy different SMs in
    // parallel instead of serializing.
    let mut sm_free = vec![0.0f64; cfg.gpu.effective_sms() as usize];
    let mut gpu_clock = 0.0f64; // time the GPU *finishes* everything queued
    let mut cpu_clock = 0.0f64;
    let mut transfer_clock = 0.0f64; // the async H2D stream
    let mut front = 0u64;
    let mut back = nchunks;
    // Writes collected per chunk so they can be committed to the host heap
    // in iteration order — false-dependence loops (mode D) need the last
    // writer to win exactly as in sequential execution.
    let mut ordered_writes: Vec<(u64, bool, WriteList)> = Vec::new();
    let mut cx = ChunkCx {
        program,
        cfg,
        bounds,
        env,
        kernels,
        faults,
        se_overhead: if privatized {
            cfg.tls.se_overhead_cycles / 2.0
        } else {
            0.0
        },
        dev: &mut dev,
        arena: SpecArena::default(),
        stats: &mut report.faults,
    };

    let mut gpu_started = false;
    let mut cpu_per_chunk_est: Option<f64> = None;
    // Under the paper's literal scheme the CPU never crosses the boundary
    // into the GPU's preferred partition.
    let mut cpu_blocked = false;
    // Degradation ladder state: a device that exhausts its fault tolerance
    // is retired for the rest of the run.
    let mut gpu_alive = true;
    let mut cpu_pool_alive = true;
    while front < back {
        if !cfg.cpu_steals_back && !cpu_blocked {
            let next_cpu_lo = (back - 1) * chunk;
            if next_cpu_lo < boundary_iter {
                cpu_blocked = true;
            }
        }
        // The GPU pulls when an SM can start no later than the CPU frees up.
        let gpu_next = sm_free.iter().copied().fold(f64::INFINITY, f64::min);
        if gpu_alive && (gpu_next <= cpu_clock || cpu_blocked) {
            // GPU pulls the lowest remaining chunk.
            let idx = front;
            let lo = front * chunk;
            let hi = ((front + 1) * chunk).min(trip);
            front += 1;
            let tbytes = (in_bytes_per_iter * (hi - lo) as f64) as usize;
            if !gpu_started {
                // Opening the stream pays the one-time JNI + driver and
                // PCIe latencies; subsequent chunks pipeline behind it.
                gpu_started = true;
                let open = cfg.gpu.kernel_launch_us * 1e-6 + cfg.gpu.pcie_latency_us * 1e-6;
                for f in &mut sm_free {
                    *f += open;
                }
                transfer_clock = sm_free[0];
            }
            let tsec = cfg.gpu.stream_seconds(tbytes);
            let arrival = if lo < boundary_iter {
                // Pre-boundary data streams asynchronously.
                transfer_clock += tsec;
                transfer_clock
            } else {
                // Stolen from the CPU side: synchronous transfer.
                gpu_next + cfg.gpu.transfer_seconds(tbytes)
            };
            // An unabsorbed fault resubmits the chunk on the CPU timeline.
            let run = launch_chunk(task, lo..hi, &mut cx)?;
            let chunk_backoff = run.backoff_s;
            match run.outcome {
                Ok((kr, writes)) => {
                    let commit_s = if privatized {
                        cfg.gpu.cycles_to_seconds(
                            writes.len() as f64 * cfg.tls.commit_cycles_per_write,
                        )
                    } else {
                        0.0
                    };
                    ordered_writes.push((idx, true, writes));
                    // Spread this chunk's warps over the least-loaded SMs
                    // (streamed launches pipeline: ~2us issue per chunk
                    // instead of the full JNI launch cost). Each warp
                    // occupies its SM for its share of the chunk's occupied
                    // cycles.
                    let warps = kr.warps.max(1) as usize;
                    let occupied = kr.stats.issue_cycles
                        + kr.stats.mem_cycles / cfg.gpu.mem_concurrency.max(1.0);
                    let per_warp_s = cfg.gpu.cycles_to_seconds(occupied / warps as f64)
                        + commit_s / warps as f64
                        + 2e-6;
                    let mut order: Vec<usize> = (0..sm_free.len()).collect();
                    order.sort_by(|&a, &b| sm_free[a].total_cmp(&sm_free[b]));
                    for w in 0..warps {
                        let sm = order[w % order.len()];
                        sm_free[sm] = sm_free[sm].max(arrival) + per_warp_s + chunk_backoff;
                    }
                    gpu_clock = sm_free.iter().copied().fold(0.0, f64::max);
                    report.gpu_iters += hi - lo;
                }
                Err(fault) => {
                    gpu_alive = absorb_gpu_fault(res, cx.stats, fault)?;
                    // Chunk resubmission: the failed GPU chunk re-runs on
                    // the host. This rung is deliberately unguarded — the
                    // ladder must terminate.
                    let batch_s = if privatized {
                        let (r, writes) =
                            cpu.run_deferred(task.loop_, bounds, lo..hi, env, heap)?;
                        ordered_writes.push((idx, false, writes.into_iter().collect()));
                        r.time_s
                    } else {
                        cpu.run_parallel(task.loop_, bounds, lo..hi, env, heap, cpu_threads)?
                            .time_s
                    };
                    cpu_clock += batch_s + chunk_backoff;
                    report.cpu_iters += hi - lo;
                }
            }
        } else {
            // CPU pulls from the high end, taking enough chunks per batch
            // that the thread-dispatch overhead stays amortized (the
            // paper's CPU partition is one descending multithreaded range,
            // not per-chunk dispatches).
            let mut take = match cpu_per_chunk_est {
                Some(t) if t > 0.0 => (((50e-6 / t).ceil() as u64).max(1)).min(back - front),
                _ => 1,
            };
            if !cfg.cpu_steals_back && gpu_alive {
                // The whole batch must stay above the boundary.
                let first_cpu_chunk = boundary_iter.div_ceil(chunk);
                take = take.min(back.saturating_sub(first_cpu_chunk)).max(1);
            }
            back -= take;
            let idx = back;
            let lo = back * chunk;
            let hi = ((back + take) * chunk).min(trip);
            let batch_s = if privatized {
                // Deferred-write sequential execution so commits can be
                // ordered across devices (safe for FD-only loops: every
                // cross-chunk read is killed by an own-iteration write).
                let (r, writes) = cpu.run_deferred(task.loop_, bounds, lo..hi, env, heap)?;
                ordered_writes.push((idx, false, writes.into_iter().collect()));
                r.time_s
            } else {
                // Worker-pool dispatch with bounded retry; a pool that
                // exhausts its fault tolerance is retired and batches drop
                // to sequential execution (the guaranteed rung).
                let pool = CpuCtx {
                    faults,
                    origin: loop_origin.with_chunk(idx),
                    ..cpu
                };
                let mut attempt = 0u32;
                loop {
                    if !cpu_pool_alive {
                        let r =
                            cpu.run_sequential(task.loop_, bounds, lo..hi, &mut env.clone(), heap)?;
                        break r.time_s;
                    }
                    match pool.run_parallel(task.loop_, bounds, lo..hi, env, heap, cpu_threads) {
                        Ok(r) => break r.time_s,
                        Err(CpuExecError::Fault(f)) => {
                            cx.stats.observe(&f);
                            if f.transient && attempt < res.max_retries {
                                attempt += 1;
                                cx.stats.retries += 1;
                                let b = res.retry_backoff_us * 1e-6 * attempt as f64;
                                cx.stats.backoff_s += b;
                                cpu_clock += b;
                                continue;
                            }
                            if res.fail_fast {
                                return Err(SchedError::Device {
                                    fault: f,
                                    stats: *cx.stats,
                                });
                            }
                            cx.stats.fallbacks += 1;
                            if cx.stats.cpu_faults >= res.device_fault_tolerance {
                                cpu_pool_alive = false;
                                cx.stats.escalate(DegradationLevel::Sequential);
                            }
                            // One sequential shot for this batch either way.
                            let r = cpu.run_sequential(
                                task.loop_,
                                bounds,
                                lo..hi,
                                &mut env.clone(),
                                heap,
                            )?;
                            break r.time_s;
                        }
                        Err(CpuExecError::Exec(e)) => return Err(e.into()),
                    }
                }
            };
            cpu_clock += batch_s;
            cpu_per_chunk_est = Some(batch_s / take as f64);
            report.cpu_iters += hi - lo;
        }
    }

    // Commit all deferred writes in chunk (iteration) order; count the
    // GPU-written bytes for the device-to-host transfer model.
    if !ordered_writes.is_sorted_by_key(|(idx, _, _)| *idx) {
        ordered_writes.sort_by_key(|(idx, _, _)| *idx);
    }
    let mut bytes_out = 0usize;
    for (_, from_gpu, writes) in &ordered_writes {
        let b = apply_writes_to_host(heap, writes)?;
        if *from_gpu {
            bytes_out += b;
        }
    }
    if report.gpu_iters > 0 {
        // Results stream back on the return direction of the (full-duplex)
        // link, overlapping compute; only the tail of the last chunk's
        // write-back lands after the final kernel.
        let gpu_chunks = (report.gpu_iters as f64 / chunk as f64).ceil().max(1.0);
        gpu_clock += cfg.gpu.stream_seconds(bytes_out) / gpu_chunks;
    }
    report.gpu_busy_s = gpu_clock;
    report.cpu_busy_s = cpu_clock;
    report.bytes_in = (in_bytes_per_iter * report.gpu_iters as f64) as usize;
    report.bytes_out = bytes_out;
    report.transfer_s =
        cfg.gpu.transfer_seconds(report.bytes_in) + cfg.gpu.transfer_seconds(bytes_out);
    report.wall_s = gpu_clock.max(cpu_clock) + stage_backoff;
    Ok(report)
}

/// Mode B: the whole iteration space under GPU-TLS, with transfers at both
/// ends and CPU recovery inside the engine.
#[allow(clippy::too_many_arguments)]
fn run_mode_b(
    program: &Program,
    cfg: &SchedulerConfig,
    task: &LoopTask,
    env: &Env,
    heap: &mut Heap,
    bounds: &LoopBounds,
    plan: &DataPlan,
    mut report: LoopExecReport,
    kernels: &KernelCache,
) -> Result<LoopExecReport, SchedError> {
    let trip = bounds.trip();
    let faults = cfg.faults.as_ref();
    let res = &cfg.resilience;
    let loop_origin = FaultOrigin::for_loop(task.loop_.id);
    let cpu = task.cpu_ctx(program, cfg, kernels);
    // The sequential rung for mode B restores the heap to its pre-loop
    // state and replays everything on the host.
    let sequential_rung =
        |report: &mut LoopExecReport, heap: &mut Heap, pristine: Heap| -> Result<(), SchedError> {
            report.faults.fallbacks += 1;
            report.faults.escalate(DegradationLevel::Sequential);
            *heap = pristine;
            let r = cpu.run_sequential(task.loop_, bounds, 0..trip, &mut env.clone(), heap)?;
            report.gpu_iters = 0;
            report.cpu_iters = trip;
            report.cpu_busy_s = r.time_s + report.faults.backoff_s;
            report.wall_s = report.cpu_busy_s;
            Ok(())
        };
    // Snapshot only under an active plan; the happy path pays nothing.
    let pristine = faults.map(|_| heap.clone());
    let mut dev = DeviceMemory::new();
    if let Err(e) = stage_device_guarded(plan, heap, &mut dev, cfg, loop_origin, &mut report.faults)
    {
        return match (e, pristine) {
            (SchedError::Device { fault, .. }, Some(p)) => {
                if res.fail_fast {
                    return Err(SchedError::Device {
                        fault,
                        stats: report.faults,
                    });
                }
                sequential_rung(&mut report, heap, p)?;
                Ok(report)
            }
            (other, _) => Err(other),
        };
    }
    let h2d = cfg.gpu.transfer_seconds(plan.bytes_in(heap));
    let tls = run_tls_loop_guarded_with(
        program,
        &cfg.gpu,
        &cfg.cpu,
        &cfg.tls,
        task.loop_,
        bounds,
        0..trip,
        env,
        &mut dev,
        task.profile.map(|p| &p.td_iters),
        faults,
        res,
        Some(kernels),
    )?;
    report.faults.gpu_faults += tls.device_faults;
    report.faults.retries += tls.fault_retries;
    if tls.device_faults > 0 {
        report.faults.escalate(DegradationLevel::GpuDegraded);
    }
    // The full loop ran against the device: copy the output plan back.
    // Transfer faults are retried; an unabsorbed one discards the partial
    // copy-back and drops to the sequential rung from the pristine heap.
    let mut bytes_out = 0;
    for e in &plan.copyout {
        let copied = transfer_with_retry(res, &mut report.faults, || {
            dev.copy_out_guarded(heap, e.array, e.lo, e.hi, &cfg.gpu, faults, loop_origin)
        });
        match copied {
            Ok(_) => bytes_out += e.bytes(heap),
            Err(SchedError::Device { fault, .. }) => {
                let (Some(p), false) = (pristine, res.fail_fast) else {
                    return Err(SchedError::Device {
                        fault,
                        stats: report.faults,
                    });
                };
                sequential_rung(&mut report, heap, p)?;
                return Ok(report);
            }
            Err(other) => return Err(other),
        }
    }
    let d2h = cfg.gpu.transfer_seconds(bytes_out);
    report.gpu_iters = trip - tls.recovered_iters;
    report.cpu_iters = tls.recovered_iters;
    report.gpu_busy_s = tls.gpu_time_s;
    report.cpu_busy_s = tls.cpu_time_s;
    report.bytes_in = plan.bytes_in(heap);
    report.bytes_out = bytes_out;
    report.transfer_s = h2d + d2h;
    report.wall_s = h2d + tls.time_s + d2h;
    report.tls = Some(tls);
    Ok(report)
}

// ---------------------------------------------------------------------
// Baseline executors (used by the evaluation harness).
// ---------------------------------------------------------------------

/// CPU-only execution: multithreaded for loops without proven/observed true
/// dependences, sequential otherwise.
pub fn run_cpu_only(
    program: &Program,
    cfg: &SchedulerConfig,
    task: &LoopTask,
    env: &mut Env,
    heap: &mut Heap,
    threads: u32,
) -> Result<LoopExecReport, SchedError> {
    let mode = task.try_mode(cfg)?;
    let bounds = eval_bounds(program, task.loop_, env, heap)?;
    let trip = bounds.trip();
    let mut report = LoopExecReport::new(task.loop_.id, mode, Scheme::Sharing);
    report.iterations = trip;
    report.cpu_iters = trip;
    let kernels = cfg.kernel_cache();
    let cpu = task.cpu_ctx(program, cfg, &kernels);
    let r = match mode {
        ExecutionMode::B | ExecutionMode::C => {
            // A true dependence exists somewhere: a plain Java port cannot
            // blindly multithread this loop.
            cpu.run_sequential(task.loop_, &bounds, 0..trip, env, heap)?
        }
        _ => cpu.run_parallel(task.loop_, &bounds, 0..trip, env, heap, threads)?,
    };
    report.cpu_busy_s = r.time_s;
    report.wall_s = r.time_s;
    Ok(report)
}

/// Serial (1-thread) CPU execution — the paper's "best serial" baseline.
pub fn run_cpu_serial(
    program: &Program,
    cfg: &SchedulerConfig,
    task: &LoopTask,
    env: &mut Env,
    heap: &mut Heap,
) -> Result<LoopExecReport, SchedError> {
    let bounds = eval_bounds(program, task.loop_, env, heap)?;
    let trip = bounds.trip();
    let mut report = LoopExecReport::new(task.loop_.id, task.try_mode(cfg)?, Scheme::Sharing);
    report.iterations = trip;
    report.cpu_iters = trip;
    let kernels = cfg.kernel_cache();
    let cpu = task.cpu_ctx(program, cfg, &kernels);
    let r = cpu.run_sequential(task.loop_, &bounds, 0..trip, env, heap)?;
    report.cpu_busy_s = r.time_s;
    report.wall_s = r.time_s;
    Ok(report)
}

/// GPU-only execution, like a plain CUDA port: synchronous full H2D, one
/// engine run over the whole range, synchronous full D2H. The engine
/// matches the loop's dependence class (plain kernel / privatized / TLS).
pub fn run_gpu_only(
    program: &Program,
    cfg: &SchedulerConfig,
    task: &LoopTask,
    env: &Env,
    heap: &mut Heap,
) -> Result<LoopExecReport, SchedError> {
    let mode = task.try_mode(cfg)?;
    let bounds = eval_bounds(program, task.loop_, env, heap)?;
    let trip = bounds.trip();
    let plan = DataPlan::derive(program, task.loop_, &task.analysis.classes, env, heap)?;
    let mut report = LoopExecReport::new(task.loop_.id, mode, Scheme::Sharing);
    report.iterations = trip;
    report.gpu_iters = trip;
    if trip == 0 {
        return Ok(report);
    }
    let mut dev = DeviceMemory::new();
    stage_device(&plan, heap, &mut dev, cfg)?;
    let h2d = cfg.gpu.transfer_seconds(plan.bytes_in(heap));
    let mut tls_report = None;
    let kernels = cfg.kernel_cache();
    let compute_s = match mode {
        ExecutionMode::A | ExecutionMode::DPrime => {
            let kr = launch_loop_par_with(
                program,
                &cfg.gpu,
                task.loop_,
                &bounds,
                0..trip,
                env,
                &mut dev,
                None,
                None,
                Some(&kernels),
            )?;
            kr.time_s
        }
        ExecutionMode::D => {
            let r = run_privatized_with(
                program,
                &cfg.gpu,
                &cfg.tls,
                task.loop_,
                &bounds,
                0..trip,
                env,
                &mut dev,
                Some(&kernels),
            )?;
            let t = r.time_s;
            tls_report = Some(r);
            t
        }
        ExecutionMode::B | ExecutionMode::C => {
            // Speculation is the only way a GPU port can run a loop with
            // true dependences; dense TD makes this thrash (Gauss-Seidel's
            // tiny GPU bar in the paper's Fig. 4). A hand-ported GPU-only
            // version has no profiler, so it speculates blind.
            let r = run_tls_loop_guarded_with(
                program,
                &cfg.gpu,
                &cfg.cpu,
                &cfg.tls,
                task.loop_,
                &bounds,
                0..trip,
                env,
                &mut dev,
                None,
                None,
                &ResilienceConfig::default(),
                Some(&kernels),
            )?;
            let t = r.time_s;
            report.cpu_iters = r.recovered_iters;
            report.gpu_iters = trip - r.recovered_iters;
            tls_report = Some(r);
            t
        }
    };
    let mut bytes_out = 0;
    for e in &plan.copyout {
        dev.copy_out(heap, e.array, e.lo, e.hi, &cfg.gpu)?;
        bytes_out += e.bytes(heap);
    }
    let d2h = cfg.gpu.transfer_seconds(bytes_out);
    report.gpu_busy_s = compute_s;
    report.bytes_in = plan.bytes_in(heap);
    report.bytes_out = bytes_out;
    report.transfer_s = h2d + d2h;
    report.tls = tls_report;
    report.wall_s = h2d + compute_s + d2h;
    Ok(report)
}

/// A fixed-fraction cooperative split with no stealing and no streamed
/// transfers — the paper's naive "CPU 50% + GPU 50%" comparison point.
pub fn run_fixed_split(
    program: &Program,
    cfg: &SchedulerConfig,
    task: &LoopTask,
    env: &Env,
    heap: &mut Heap,
    gpu_fraction: f64,
) -> Result<LoopExecReport, SchedError> {
    let mode = task.try_mode(cfg)?;
    let bounds = eval_bounds(program, task.loop_, env, heap)?;
    let trip = bounds.trip();
    let plan = DataPlan::derive(program, task.loop_, &task.analysis.classes, env, heap)?;
    let mut report = LoopExecReport::new(task.loop_.id, mode, Scheme::Sharing);
    report.iterations = trip;
    let split = ((trip as f64 * gpu_fraction) as u64).min(trip);
    let mut dev = DeviceMemory::new();
    stage_device(&plan, heap, &mut dev, cfg)?;
    let in_share = (plan.bytes_in(heap) as f64 * gpu_fraction) as usize;
    let h2d = cfg.gpu.transfer_seconds(in_share);
    let kernels = cfg.kernel_cache();
    // One unguarded chunk: no plan, so no fault to come back.
    let mut cx = ChunkCx {
        program,
        cfg,
        bounds: &bounds,
        env,
        kernels: &kernels,
        faults: None,
        se_overhead: match mode {
            ExecutionMode::D => cfg.tls.se_overhead_cycles / 2.0,
            _ => 0.0,
        },
        dev: &mut dev,
        arena: SpecArena::default(),
        stats: &mut report.faults,
    };
    let (kr, writes) = launch_chunk(task, 0..split, &mut cx)?.outcome?;
    let cpu = task.cpu_ctx(program, cfg, &kernels).run_parallel(
        task.loop_,
        &bounds,
        split..trip,
        env,
        heap,
        cfg.cpu_threads,
    )?;
    let bytes_out = apply_writes_to_host(heap, &writes)?;
    let d2h = cfg.gpu.transfer_seconds(bytes_out);
    report.gpu_iters = split;
    report.cpu_iters = trip - split;
    report.gpu_busy_s = h2d + kr.time_s + d2h;
    report.cpu_busy_s = cpu.time_s;
    report.bytes_in = in_share;
    report.bytes_out = bytes_out;
    report.transfer_s = h2d + d2h;
    report.wall_s = report.gpu_busy_s.max(report.cpu_busy_s);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use japonica_analysis::analyze_loop;
    use japonica_frontend::compile_source;
    use japonica_ir::{ArrayId, ParamTy, Value};

    /// Compile + bind one double array of len n per array param; returns
    /// everything needed to schedule the first annotated loop.
    pub(crate) struct Fx {
        pub program: Program,
        pub loop_: ForLoop,
        pub analysis: LoopAnalysis,
        pub env: Env,
        pub heap: Heap,
        pub arrays: Vec<ArrayId>,
    }

    pub(crate) fn fx(src: &str, n: usize) -> Fx {
        let program = compile_source(src).unwrap();
        let f = &program.functions[0];
        let loop_ = f
            .all_loops()
            .into_iter()
            .find(|l| l.is_annotated())
            .unwrap()
            .clone();
        let analysis = analyze_loop(&loop_);
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
        Fx {
            program: program.clone(),
            loop_,
            analysis,
            env,
            heap,
            arrays,
        }
    }

    fn seq_reference(fx: &Fx) -> Vec<Vec<f64>> {
        let mut heap = fx.heap.clone();
        let bounds = eval_bounds(&fx.program, &fx.loop_, &fx.env, &mut heap).unwrap();
        CpuCtx::new(&fx.program, &CpuConfig::default())
            .run_sequential(
                &fx.loop_,
                &bounds,
                0..bounds.trip(),
                &mut fx.env.clone(),
                &mut heap,
            )
            .unwrap();
        fx.arrays
            .iter()
            .map(|a| heap.read_doubles(*a).unwrap())
            .collect()
    }

    use japonica_cpuexec::CpuConfig;

    const SAXPY: &str = "static void f(double[] x, double[] y, int n) {
        /* acc parallel */
        for (int i = 0; i < n; i++) { y[i] = 2.0 * x[i] + y[i]; }
    }";

    #[test]
    fn mode_a_sharing_produces_sequential_results() {
        let mut f = fx(SAXPY, 20_000);
        let expect = seq_reference(&f);
        let cfg = SchedulerConfig::default();
        let task = LoopTask {
            loop_: &f.loop_,
            analysis: &f.analysis,
            profile: None,
        };
        let r = run_sharing(&f.program, &cfg, &task, &mut f.env.clone(), &mut f.heap).unwrap();
        assert_eq!(r.mode, ExecutionMode::A);
        assert_eq!(r.gpu_iters + r.cpu_iters, 20_000);
        assert!(r.gpu_iters > 0, "GPU should take most of a DOALL loop");
        for (a, e) in f.arrays.iter().zip(&expect) {
            assert_eq!(&f.heap.read_doubles(*a).unwrap(), e);
        }
    }

    const HEAVY: &str = "static void f(double[] x, double[] y, int n) {
        /* acc parallel */
        for (int i = 0; i < n; i++) {
            y[i] = Math.sqrt(x[i] * x[i] + y[i] * y[i]) + Math.exp(x[i] * 0.001);
        }
    }";

    #[test]
    fn sharing_beats_both_single_device_baselines_on_compute_heavy_loop() {
        let cfg = SchedulerConfig::default();
        let n = 200_000;
        let wall = |runner: &dyn Fn(&mut Fx) -> LoopExecReport| {
            let mut f = fx(HEAVY, n);
            runner(&mut f).wall_s
        };
        let shared = wall(&|f| {
            let task = LoopTask {
                loop_: &f.loop_,
                analysis: &f.analysis,
                profile: None,
            };
            run_sharing(&f.program, &cfg, &task, &mut f.env.clone(), &mut f.heap).unwrap()
        });
        let gpu = wall(&|f| {
            let task = LoopTask {
                loop_: &f.loop_,
                analysis: &f.analysis,
                profile: None,
            };
            run_gpu_only(&f.program, &cfg, &task, &f.env.clone(), &mut f.heap).unwrap()
        });
        let cpu = wall(&|f| {
            let task = LoopTask {
                loop_: &f.loop_,
                analysis: &f.analysis,
                profile: None,
            };
            run_cpu_only(&f.program, &cfg, &task, &mut f.env.clone(), &mut f.heap, 16).unwrap()
        });
        assert!(shared < gpu, "shared {shared} vs gpu {gpu}");
        assert!(shared < cpu, "shared {shared} vs cpu {cpu}");
    }

    #[test]
    fn mode_c_runs_entirely_on_cpu() {
        let mut f = fx(
            "static void f(double[] a, int n) {
                /* acc parallel */
                for (int i = 1; i < n; i++) { a[i] = a[i - 1] * 0.5 + a[i]; }
            }",
            4096,
        );
        let expect = seq_reference(&f);
        let cfg = SchedulerConfig::default();
        let task = LoopTask {
            loop_: &f.loop_,
            analysis: &f.analysis,
            profile: None,
        };
        let r = run_sharing(&f.program, &cfg, &task, &mut f.env.clone(), &mut f.heap).unwrap();
        assert_eq!(r.mode, ExecutionMode::C);
        assert_eq!(r.gpu_iters, 0);
        assert_eq!(f.heap.read_doubles(f.arrays[0]).unwrap(), expect[0]);
    }

    #[test]
    fn fixed_split_fifty_fifty_matches_results() {
        let mut f = fx(SAXPY, 10_000);
        let expect = seq_reference(&f);
        let cfg = SchedulerConfig::default();
        let task = LoopTask {
            loop_: &f.loop_,
            analysis: &f.analysis,
            profile: None,
        };
        let r = run_fixed_split(&f.program, &cfg, &task, &f.env, &mut f.heap, 0.5).unwrap();
        assert_eq!(r.gpu_iters, 5000);
        assert_eq!(r.cpu_iters, 5000);
        for (a, e) in f.arrays.iter().zip(&expect) {
            assert_eq!(&f.heap.read_doubles(*a).unwrap(), e);
        }
    }

    #[test]
    fn gpu_only_pays_unoverlapped_transfers() {
        let mut f = fx(SAXPY, 50_000);
        let cfg = SchedulerConfig::default();
        let task = LoopTask {
            loop_: &f.loop_,
            analysis: &f.analysis,
            profile: None,
        };
        let r = run_gpu_only(&f.program, &cfg, &task, &f.env, &mut f.heap).unwrap();
        // wall includes both directions of traffic
        assert!(r.transfer_s > 0.0);
        assert!(r.wall_s >= r.transfer_s);
        assert_eq!(r.bytes_in, 2 * 50_000 * 8); // x and y in
        assert_eq!(r.bytes_out, 50_000 * 8); // y out
    }

    #[test]
    fn report_accounts_every_iteration_once() {
        let mut f = fx(SAXPY, 33_333);
        let cfg = SchedulerConfig {
            chunk_iters: 1000,
            ..SchedulerConfig::default()
        };
        let task = LoopTask {
            loop_: &f.loop_,
            analysis: &f.analysis,
            profile: None,
        };
        let r = run_sharing(&f.program, &cfg, &task, &mut f.env.clone(), &mut f.heap).unwrap();
        assert_eq!(r.gpu_iters + r.cpu_iters, 33_333);
        assert!(r.wall_s >= r.gpu_busy_s.min(r.cpu_busy_s));
    }
}
