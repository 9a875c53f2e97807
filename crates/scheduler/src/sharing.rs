//! The task sharing scheme (paper §V-A) — [`run_sharing`] executes the
//! tickets of a [`ShareSchedule`] — and the whole-loop compositions of the
//! same executor and fault ladder: modes B and C, and the single-device and
//! fixed-split baselines of the evaluation (DESIGN.md, "Scheduling core").

use crate::config::SchedulerConfig;
use crate::exec::apply_writes_to_host;
pub use crate::exec::{eval_bounds, stage_device, LoopRun};
use crate::ladder::absorb_gpu_fault;
use crate::modes::{try_decide_mode, ExecutionMode};
use crate::report::{LoopExecReport, SchedError};
use crate::schedule::{Device, ShareSchedule};
use japonica_analysis::LoopAnalysis;
use japonica_faults::DegradationLevel;
use japonica_ir::{Env, ForLoop, Heap, Program};
use japonica_profiler::LoopProfile;
use japonica_tls::{SpecArena, WriteList};
use std::collections::BTreeSet;

/// Everything the scheduler needs to know about one annotated loop.
#[derive(Debug, Clone, Copy)]
pub struct LoopTask<'a> {
    pub loop_: &'a ForLoop,
    pub analysis: &'a LoopAnalysis,
    pub profile: Option<&'a LoopProfile>,
}

impl LoopTask<'_> {
    /// The execution mode per the Fig. 2(b) workflow; an uncertain loop
    /// without a profile is an error, not a panic.
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
    let run = task.prepare(program, cfg, env, heap)?;
    if run.trip() == 0 {
        return Ok(run.report());
    }
    match run.mode {
        ExecutionMode::A | ExecutionMode::D | ExecutionMode::DPrime => run.share(env, heap),
        // The whole iteration space under profile-guided GPU-TLS, CPU
        // recovery inside the engine.
        ExecutionMode::B => {
            let mut report = run.on_gpu(env, heap, task.profile.map(|p| &p.td_iters))?;
            if let Some(tls) = &report.tls {
                report.gpu_busy_s = tls.gpu_time_s;
                report.cpu_busy_s = tls.cpu_time_s;
            }
            Ok(report)
        }
        ExecutionMode::C => run.on_cpu(env, heap, None),
    }
}

impl LoopRun<'_> {
    /// Modes A, D and D′: execute the sharing schedule's tickets — GPU
    /// chunks through [`LoopRun::launch_chunk`], host batches on the pool
    /// (mode D: in order against a deferred-write buffer, so commits can be
    /// ordered across devices) — stepping down the ladder where a device
    /// gives out.
    fn share(&self, env: &mut Env, heap: &mut Heap) -> Result<LoopExecReport, SchedError> {
        let (cfg, trip, privatized) = (self.cfg, self.trip(), self.mode == ExecutionMode::D);
        let mut report = self.report();
        let mut dev = match self.stage(heap, self.origin, &mut report.faults) {
            Ok(dev) => dev,
            // The device is unreachable before any compute was queued: the
            // whole loop runs sequentially on the host.
            Err(e) => return self.replay_sequentially(e, None, env, heap, report),
        };
        let stage_backoff = report.faults.backoff_s;
        let in_bytes_per_iter = self.plan.bytes_in(heap) as f64 / trip as f64;
        let mut sched = ShareSchedule::new(cfg, trip, in_bytes_per_iter, privatized);
        // Writes collected per chunk so they can be committed to the host
        // heap in iteration order — false-dependence loops (mode D) need
        // the last writer to win exactly as in sequential execution.
        let mut ordered_writes: Vec<(u64, bool, WriteList)> = Vec::new();
        let mut arena = SpecArena::default();
        let stats = &mut report.faults;
        while let Some(t) = sched.next_ticket() {
            let range = t.range.clone();
            // A GPU ticket either completes here or leaves a fault behind:
            // whether the GPU stays in service, and the backoff its retries
            // had charged.
            let (mut gpu_faulted, mut faulted_backoff_s) = (None, 0.0);
            if t.device == Device::Gpu {
                let launched =
                    self.launch_chunk(range.clone(), env, &mut dev, &mut arena, stats)?;
                let backoff_s = launched.backoff_s();
                match launched.outcome {
                    Ok((kr, writes)) => {
                        let occupied = kr.stats.issue_cycles
                            + kr.stats.mem_cycles / cfg.gpu.mem_concurrency.max(1.0);
                        sched.finish_gpu(&t, kr.warps, occupied, writes.len(), backoff_s);
                        ordered_writes.push((t.chunk, true, writes));
                        continue;
                    }
                    Err(fault) => {
                        gpu_faulted = Some(absorb_gpu_fault(&cfg.resilience, stats, fault)?);
                        faulted_backoff_s = backoff_s;
                    }
                }
            }
            // The range runs on the host: ticketed there, or a faulted GPU
            // chunk resubmitted — deliberately unguarded, the ladder must
            // terminate.
            let (busy_s, backoffs) = if privatized {
                let (busy_s, writes) = self.cpu_deferred(range, env, heap)?;
                ordered_writes.push((t.chunk, false, writes));
                (busy_s, Vec::new())
            } else {
                let guard = self.origin.with_chunk(t.chunk);
                let guard = gpu_faulted.is_none().then_some(guard);
                self.cpu_pool(range, env, heap, self.threads, guard, stats)?
            };
            sched.finish_host(&t, busy_s + faulted_backoff_s, &backoffs, gpu_faulted);
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
        report.wall_s = sched.close(bytes_out) + stage_backoff;
        report.gpu_iters = sched.gpu_iters;
        report.cpu_iters = sched.cpu_iters;
        report.gpu_busy_s = sched.gpu_clock;
        report.cpu_busy_s = sched.cpu_clock;
        report.bytes_in = (in_bytes_per_iter * report.gpu_iters as f64) as usize;
        report.bytes_out = bytes_out;
        report.transfer_s =
            cfg.gpu.transfer_seconds(report.bytes_in) + cfg.gpu.transfer_seconds(bytes_out);
        Ok(report)
    }

    /// The whole iteration space in one GPU engine run: synchronous full
    /// H2D, [`LoopRun::launch_whole`], synchronous full D2H. A transfer
    /// fault that outlives its retries discards whatever reached the host
    /// and drops to the sequential rung.
    fn on_gpu(
        &self,
        env: &Env,
        heap: &mut Heap,
        td_iters: Option<&BTreeSet<u64>>,
    ) -> Result<LoopExecReport, SchedError> {
        let (gpu, mut report) = (&self.cfg.gpu, self.report());
        if self.trip() == 0 {
            return Ok(report);
        }
        // Snapshot only under an active plan; the happy path pays nothing.
        let pristine = self.faults.map(|_| heap.clone());
        let mut dev = match self.stage(heap, self.origin, &mut report.faults) {
            Ok(dev) => dev,
            Err(e) => return self.replay_sequentially(e, pristine, &mut env.clone(), heap, report),
        };
        let h2d = gpu.transfer_seconds(self.plan.bytes_in(heap));
        let (compute_s, tls) = self.launch_whole(env, &mut dev, td_iters)?;
        if let Some(tls) = &tls {
            report.faults.gpu_faults += tls.device_faults;
            report.faults.retries += tls.fault_retries;
            if tls.device_faults > 0 {
                report.faults.escalate(DegradationLevel::GpuDegraded);
            }
        }
        let bytes_out = match self.copy_out(&mut dev, heap, &mut report.faults) {
            Ok(bytes) => bytes,
            Err(e) => return self.replay_sequentially(e, pristine, &mut env.clone(), heap, report),
        };
        let d2h = gpu.transfer_seconds(bytes_out);
        report.cpu_iters = tls.as_ref().map_or(0, |t| t.recovered_iters);
        report.gpu_iters = self.trip() - report.cpu_iters;
        report.gpu_busy_s = compute_s;
        report.bytes_in = self.plan.bytes_in(heap);
        report.bytes_out = bytes_out;
        report.transfer_s = h2d + d2h;
        report.tls = tls;
        report.wall_s = h2d + compute_s + d2h;
        Ok(report)
    }

    /// The GPU-only baseline, a plain CUDA port: [`LoopRun::on_gpu`] with
    /// no profiler to pass `td_iters`. Like every baseline it is a hand
    /// port that consults no fault plan.
    pub fn gpu_only(mut self, env: &Env, heap: &mut Heap) -> Result<LoopExecReport, SchedError> {
        self.faults = None;
        self.on_gpu(env, heap, None)
    }

    /// The whole loop on the host, no fault plan consulted (the last rung
    /// must terminate): on `threads` pool workers when given and no true
    /// dependence was proven or observed (a plain Java port cannot blindly
    /// multithread such a loop), in order on one core otherwise — mode C
    /// and the paper's "best serial" baseline.
    pub fn on_cpu(
        mut self,
        env: &mut Env,
        heap: &mut Heap,
        threads: Option<u32>,
    ) -> Result<LoopExecReport, SchedError> {
        self.faults = None;
        let (trip, mut report) = (self.trip(), self.report());
        let busy_s = match threads {
            Some(n) if !matches!(self.mode, ExecutionMode::B | ExecutionMode::C) => {
                let (guard, stats) = (Some(self.origin), &mut report.faults);
                self.cpu_pool(0..trip, env, heap, n, guard, stats)?.0
            }
            _ => self.cpu_sequential(0..trip, env, heap)?,
        };
        report.cpu_iters = trip;
        report.cpu_busy_s = busy_s;
        report.wall_s = busy_s;
        Ok(report)
    }

    /// A fixed-fraction cooperative split with no stealing, no streamed
    /// transfers and no fault plan — the paper's naive "CPU 50% + GPU 50%"
    /// comparison point.
    pub fn fixed_split(
        mut self,
        env: &Env,
        heap: &mut Heap,
        gpu_fraction: f64,
    ) -> Result<LoopExecReport, SchedError> {
        self.faults = None;
        let (gpu, trip, mut report) = (&self.cfg.gpu, self.trip(), self.report());
        let stats = &mut report.faults;
        let split = ((trip as f64 * gpu_fraction) as u64).min(trip);
        let mut dev = self.stage(heap, self.origin, stats)?;
        let in_share = (self.plan.bytes_in(heap) as f64 * gpu_fraction) as usize;
        let h2d = gpu.transfer_seconds(in_share);
        let mut arena = SpecArena::default();
        let launched = self.launch_chunk(0..split, env, &mut dev, &mut arena, stats)?;
        let (kr, writes) = launched.outcome?;
        let (threads, guard) = (self.cfg.cpu_threads, Some(self.origin));
        let (cpu_s, _) = self.cpu_pool(split..trip, env, heap, threads, guard, stats)?;
        let bytes_out = apply_writes_to_host(heap, &writes)?;
        let d2h = gpu.transfer_seconds(bytes_out);
        report.gpu_iters = split;
        report.cpu_iters = trip - split;
        report.gpu_busy_s = h2d + kr.time_s + d2h;
        report.cpu_busy_s = cpu_s;
        report.bytes_in = in_share;
        report.bytes_out = bytes_out;
        report.transfer_s = h2d + d2h;
        report.wall_s = report.gpu_busy_s.max(report.cpu_busy_s);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use japonica_analysis::analyze_loop;
    use japonica_frontend::compile_source;
    use japonica_ir::{ArrayId, ForLoop, ParamTy, Value};

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

    use japonica_cpuexec::{CpuConfig, CpuCtx};

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
            let run = task.prepare(&f.program, &cfg, &f.env, &mut f.heap).unwrap();
            run.gpu_only(&f.env, &mut f.heap).unwrap()
        });
        let cpu = wall(&|f| {
            let task = LoopTask {
                loop_: &f.loop_,
                analysis: &f.analysis,
                profile: None,
            };
            let run = task.prepare(&f.program, &cfg, &f.env, &mut f.heap).unwrap();
            run.on_cpu(&mut f.env.clone(), &mut f.heap, Some(16))
                .unwrap()
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
        let run = task.prepare(&f.program, &cfg, &f.env, &mut f.heap).unwrap();
        let r = run.fixed_split(&f.env, &mut f.heap, 0.5).unwrap();
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
        let run = task.prepare(&f.program, &cfg, &f.env, &mut f.heap).unwrap();
        let r = run.gpu_only(&f.env, &mut f.heap).unwrap();
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
