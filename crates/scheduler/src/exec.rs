//! The per-loop execution context: everything the schemes *do* to a loop —
//! stage it, launch a GPU chunk or the whole range, copy results out, run a
//! CPU range — once, behind the [`LoopRun`] that [`LoopTask::prepare`]
//! builds (DESIGN.md, "Scheduling core").

use crate::config::SchedulerConfig;
use crate::ladder::{
    absorb_pool_fault, pool_retired, retry_transient, transfer_with_retry, Retried,
};
use crate::modes::ExecutionMode;
use crate::plan::{DataPlan, PlanEntry};
use crate::report::{LoopExecReport, SchedError};
use crate::sharing::LoopTask;
use japonica_cpuexec::{CpuCtx, Independence};
use japonica_faults::{FaultOrigin, FaultPlan, FaultStats};
use japonica_gpusim::{
    launch_loop_par_with, DeviceMemory, JournaledMemory, KernelReport, ParallelLaneMemory,
    SimtError,
};
use japonica_ir::{
    Env, ExecError, ForLoop, Heap, HeapBackend, Interp, KernelCache, LoopBounds, Program, Scheme,
};
use japonica_tls::{
    run_privatized_with, run_tls_loop_guarded_with, SpecArena, SpeculativeMemory, TlsReport,
    WriteList,
};
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

/// One annotated loop, ready to execute: mode, bounds and data plan
/// evaluated against the state the loop starts from, and the one kernel
/// cache every launch, TLS re-execution, CPU range and retry compiles into.
pub struct LoopRun<'a> {
    pub program: &'a Program,
    pub cfg: &'a SchedulerConfig,
    pub task: LoopTask<'a>,
    pub mode: ExecutionMode,
    pub bounds: LoopBounds,
    pub plan: DataPlan,
    pub kernels: Arc<KernelCache>,
    /// Pool workers: the loop's `threads(n)` clause, else the configured count.
    pub threads: u32,
    /// The plan launches, transfers and pool dispatches consult and retry
    /// under; the baseline compositions clear it.
    pub faults: Option<&'a FaultPlan>,
    /// The loop's fault origin; callers narrow it to a chunk or sub-loop.
    pub origin: FaultOrigin,
}

impl<'a> LoopTask<'a> {
    /// Evaluate everything the loop's execution depends on, once.
    pub fn prepare(
        &self,
        program: &'a Program,
        cfg: &'a SchedulerConfig,
        env: &Env,
        heap: &mut Heap,
    ) -> Result<LoopRun<'a>, SchedError> {
        let annot = self.loop_.annot.as_ref();
        Ok(LoopRun {
            program,
            cfg,
            task: *self,
            mode: self.try_mode(cfg)?,
            bounds: eval_bounds(program, self.loop_, env, heap)?,
            plan: DataPlan::derive(program, self.loop_, &self.analysis.classes, env, heap)?,
            kernels: cfg.kernel_cache(),
            threads: annot.and_then(|a| a.threads).unwrap_or(cfg.cpu_threads),
            faults: cfg.faults.as_ref(),
            origin: FaultOrigin::for_loop(self.loop_.id),
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

/// Functionally mirror the plan's arrays onto the device, unguarded
/// (transfer *time* is modeled by the callers' timelines, not by this copy).
pub fn stage_device(
    plan: &DataPlan,
    heap: &Heap,
    dev: &mut DeviceMemory,
    cfg: &SchedulerConfig,
) -> Result<(), ExecError> {
    let (origin, stats) = (FaultOrigin::default(), &mut FaultStats::default());
    stage_guarded(plan, heap, dev, cfg, None, origin, stats).map_err(|e| match e {
        SchedError::Exec(e) => e,
        other => ExecError::Aborted(other.to_string()),
    })
}

/// [`stage_device`] under a fault plan: a faulted transfer is retried; one
/// that stays down is the caller's rung.
fn stage_guarded(
    plan: &DataPlan,
    heap: &Heap,
    dev: &mut DeviceMemory,
    cfg: &SchedulerConfig,
    faults: Option<&FaultPlan>,
    origin: FaultOrigin,
    stats: &mut FaultStats,
) -> Result<(), SchedError> {
    for e in plan.device_arrays() {
        let len = heap.len_of(e.array)?;
        let listed = |entries: &[PlanEntry]| entries.iter().any(|c| c.array == e.array);
        // `create` arrays are device-only: allocate without a transfer
        // (paper Table I: "do not copy data between the host and device").
        if listed(&plan.create) && !listed(&plan.copyin) && !listed(&plan.copyout) {
            dev.alloc(e.array, heap.array(e.array)?.ty(), len);
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

impl LoopRun<'_> {
    pub fn trip(&self) -> u64 {
        self.bounds.trip()
    }

    /// An empty report for this loop.
    pub fn report(&self) -> LoopExecReport {
        let mut report = LoopExecReport::new(self.task.loop_.id, self.mode, Scheme::Sharing);
        report.iterations = self.trip();
        report
    }

    /// The CPU execution context; only a loop static analysis proved
    /// independent may run its lane batches unchecked.
    fn cpu(&self) -> CpuCtx<'_> {
        CpuCtx {
            kernels: Some(&self.kernels),
            independence: if self.task.analysis.proven_independent() {
                Independence::Proven
            } else {
                Independence::Unproven
            },
            ..CpuCtx::new(self.program, &self.cfg.cpu)
        }
    }

    /// Stage the data plan onto a fresh device, guarded under `origin`.
    pub fn stage(
        &self,
        heap: &Heap,
        origin: FaultOrigin,
        stats: &mut FaultStats,
    ) -> Result<DeviceMemory, SchedError> {
        let mut dev = DeviceMemory::new();
        stage_guarded(
            &self.plan,
            heap,
            &mut dev,
            self.cfg,
            self.faults,
            origin,
            stats,
        )?;
        Ok(dev)
    }

    /// One kernel launch of `range` against `mem`.
    fn launch<M: ParallelLaneMemory + Sync>(
        &self,
        range: Range<u64>,
        env: &Env,
        mem: &mut M,
    ) -> Result<KernelReport, SimtError> {
        launch_loop_par_with(
            self.program,
            &self.cfg.gpu,
            self.task.loop_,
            &self.bounds,
            range,
            env,
            mem,
            self.faults,
            self.faults.and(self.cfg.resilience.watchdog()),
            Some(&self.kernels),
        )
    }

    /// Launch iterations `range` as one GPU chunk under `retry_transient`:
    /// the kernel's report and everything it wrote, or the fault that
    /// outlived its retries with device memory exactly as the chunk found
    /// it. The chunk's memory is chosen here, from what is known about the
    /// loop; each choice keeps a faulted kernel's stores out of device
    /// memory and yields a sequentially equivalent write list.
    pub fn launch_chunk(
        &self,
        range: Range<u64>,
        env: &Env,
        dev: &mut DeviceMemory,
        arena: &mut SpecArena,
        stats: &mut FaultStats,
    ) -> Result<Retried<(KernelReport, WriteList)>, SchedError> {
        let proven = self.task.analysis.proven_independent();
        retry_transient(&self.cfg.resilience, stats, || {
            if self.mode == ExecutionMode::A && proven {
                // Proven DOALL: no iteration reads or overwrites another's
                // stores, so write through and undo if the kernel dies.
                let mut mem = JournaledMemory::new(dev);
                return match self.launch(range.clone(), env, &mut mem) {
                    Ok(kr) => Ok((kr, mem.into_writes()?)),
                    Err(e) => {
                        mem.roll_back();
                        Err(SchedError::from(e))
                    }
                };
            }
            // Anything else buffers per iteration and commits in iteration
            // order; the buffers die with a faulted kernel. Mode D (false
            // dependences only) never checks, so it records no metadata and
            // pays half the SE overhead per access.
            let mut mem = if self.mode == ExecutionMode::D {
                SpeculativeMemory::buffer_only(dev, self.cfg.tls.se_overhead_cycles / 2.0, arena)
            } else {
                SpeculativeMemory::with_arena(dev, 0.0, arena)
            };
            let kr = self.launch(range.clone(), env, &mut mem)?;
            Ok((kr, mem.commit_all_collect()?))
        })
    }

    /// The whole range in one run of the GPU engine the loop's dependence
    /// class calls for: plain kernel, privatized, or TLS (CPU recovery
    /// inside the engine) guided by the profiler's `td_iters` or blind.
    /// Returns the simulated seconds and the engine's report.
    pub fn launch_whole(
        &self,
        env: &Env,
        dev: &mut DeviceMemory,
        td_iters: Option<&BTreeSet<u64>>,
    ) -> Result<(f64, Option<TlsReport>), SchedError> {
        let (cfg, range, kernels) = (self.cfg, 0..self.trip(), Some(&*self.kernels));
        let (program, loop_, bounds) = (self.program, self.task.loop_, &self.bounds);
        let tls = match self.mode {
            ExecutionMode::A | ExecutionMode::DPrime => {
                return Ok((self.launch(range, env, dev)?.time_s, None));
            }
            ExecutionMode::D => run_privatized_with(
                program, &cfg.gpu, &cfg.tls, loop_, bounds, range, env, dev, kernels,
            )?,
            // Speculation is the only way the GPU can run a loop with true
            // dependences; dense TD makes this thrash (Gauss-Seidel's tiny
            // GPU bar in the paper's Fig. 4).
            ExecutionMode::B | ExecutionMode::C => run_tls_loop_guarded_with(
                program,
                &cfg.gpu,
                &cfg.cpu,
                &cfg.tls,
                loop_,
                bounds,
                range,
                env,
                dev,
                td_iters,
                self.faults,
                &cfg.resilience,
                kernels,
            )?,
        };
        Ok((tls.time_s, Some(tls)))
    }

    /// Copy the output plan back to the host; returns the bytes moved. A
    /// transfer fault that outlives its retries leaves a partial copy-back
    /// for the caller's rung to discard.
    pub fn copy_out(
        &self,
        dev: &mut DeviceMemory,
        heap: &mut Heap,
        stats: &mut FaultStats,
    ) -> Result<usize, SchedError> {
        let mut bytes_out = 0;
        for e in &self.plan.copyout {
            transfer_with_retry(&self.cfg.resilience, stats, || {
                let gpu = &self.cfg.gpu;
                dev.copy_out_guarded(heap, e.array, e.lo, e.hi, gpu, self.faults, self.origin)
            })?;
            bytes_out += e.bytes(heap);
        }
        Ok(bytes_out)
    }

    /// `range` in order on one core, straight against the heap; `env`
    /// holds the state after the last iteration. Returns simulated seconds.
    pub fn cpu_sequential(
        &self,
        range: Range<u64>,
        env: &mut Env,
        heap: &mut Heap,
    ) -> Result<f64, SchedError> {
        let r = self
            .cpu()
            .run_sequential(self.task.loop_, &self.bounds, range, env, heap)?;
        Ok(r.time_s)
    }

    /// `range` in order against a private write buffer: the simulated
    /// seconds and the writes, committed by the caller when their turn
    /// comes (safe for FD-only loops: every cross-chunk read is killed by
    /// an own-iteration write).
    pub fn cpu_deferred(
        &self,
        range: Range<u64>,
        env: &Env,
        heap: &Heap,
    ) -> Result<(f64, WriteList), SchedError> {
        let (r, writes) =
            self.cpu()
                .run_deferred(self.task.loop_, &self.bounds, range, env, heap)?;
        Ok((r.time_s, writes.into_iter().collect()))
    }

    /// `range` on `threads` pool workers: the simulated seconds and the
    /// retry backoffs charged first. The dispatch consults the fault plan
    /// under `guard` and is retried; a fault that outlives the retries
    /// drops the batch to sequential execution — the CPU rung always
    /// completes — and so does every later batch once the pool is retired.
    /// `None` is for the one dispatch that must not fault again: a range
    /// resubmitted after its GPU attempt already did.
    pub fn cpu_pool(
        &self,
        range: Range<u64>,
        env: &Env,
        heap: &mut Heap,
        threads: u32,
        guard: Option<FaultOrigin>,
        stats: &mut FaultStats,
    ) -> Result<(f64, Vec<f64>), SchedError> {
        if guard.is_some() && pool_retired(stats) {
            let busy_s = self.cpu_sequential(range, &mut env.clone(), heap)?;
            return Ok((busy_s, Vec::new()));
        }
        let pool = CpuCtx {
            faults: guard.and(self.faults),
            origin: guard.unwrap_or_default(),
            ..self.cpu()
        };
        let (loop_, bounds) = (self.task.loop_, &self.bounds);
        let run = retry_transient(&self.cfg.resilience, stats, || {
            pool.run_parallel(loop_, bounds, range.clone(), env, heap, threads)
        })?;
        let busy_s = match run.outcome {
            Ok(r) => r.time_s,
            Err(fault) => {
                absorb_pool_fault(&self.cfg.resilience, stats, fault)?;
                self.cpu_sequential(range, &mut env.clone(), heap)?
            }
        };
        Ok((busy_s, run.backoffs))
    }
}
