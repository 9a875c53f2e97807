//! Kernel launch: grid formation, warp scheduling over SMs, and timing.

use crate::config::DeviceConfig;
use crate::memory::{LaneMemory, ParallelLaneMemory};
use crate::native::{compile_native_warp, NativeSimtVm, NativeWarpKernel};
use crate::simt::{SimtError, SimtExec};
use crate::stats::WarpStats;
use crate::vm::SimtVm;
use japonica_faults::{FaultOrigin, FaultPlan};
use japonica_ir::{
    compile_kernel, CompiledKernel, Env, ExecEngine, ForLoop, KernelCache, LoopBounds, Program,
};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// The executor a launch resolved to. The walker is used when the config
/// asks for it, when the warp width exceeds the VMs' 32-lane mask, or when
/// the loop is not bytecode-compilable; the native tier additionally
/// requires `ExecEngine::Native` plus a hot-enough cache entry (or no
/// cache at all, in which case promotion is immediate — a cacheless launch
/// has no counter to consult and the compile can't be amortized anyway).
enum Resolved {
    Walker,
    Bytecode(Arc<CompiledKernel>),
    Native(Arc<NativeWarpKernel>),
}

fn resolve_kernel(
    program: &Program,
    cfg: &DeviceConfig,
    loop_: &ForLoop,
    kernels: Option<&KernelCache>,
) -> Resolved {
    if cfg.sim.engine == ExecEngine::TreeWalker || cfg.warp_size > 32 {
        return Resolved::Walker;
    }
    let native = cfg.sim.engine == ExecEngine::Native;
    let compiled = match kernels {
        Some(cache) => {
            let k = cache.get_or_compile(program, loop_);
            if native {
                if let Some(nk) =
                    cache.native_tier::<NativeWarpKernel, _>(loop_.id.0, compile_native_warp)
                {
                    return Resolved::Native(nk);
                }
            }
            k
        }
        None => {
            let k = compile_kernel(program, loop_).ok().map(Arc::new);
            if native {
                if let Some(k) = &k {
                    return Resolved::Native(Arc::new(compile_native_warp(k)));
                }
            }
            k
        }
    };
    match compiled {
        Some(k) => Resolved::Bytecode(k),
        None => Resolved::Walker,
    }
}

/// Result of one kernel launch.
///
/// `PartialEq` is bitwise on the f64 fields, for the determinism tests.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Simulated seconds of device compute (including launch overhead,
    /// excluding transfers).
    pub time_s: f64,
    /// Device cycles on the critical (busiest) SM.
    pub critical_cycles: f64,
    /// Warps launched.
    pub warps: u32,
    /// Iterations executed.
    pub iterations: u64,
    /// Aggregated statistics over all warps.
    pub stats: WarpStats,
}

impl KernelReport {
    /// An empty launch (zero iterations): costs nothing, reports zeros.
    pub fn empty() -> KernelReport {
        KernelReport {
            time_s: 0.0,
            critical_cycles: 0.0,
            warps: 0,
            iterations: 0,
            stats: WarpStats::new(),
        }
    }

    /// Merge a subsequent launch's report (kernels run back-to-back).
    pub fn chain(&mut self, other: &KernelReport) {
        self.time_s += other.time_s;
        self.critical_cycles += other.critical_cycles;
        self.warps += other.warps;
        self.iterations += other.iterations;
        self.stats.merge(&other.stats);
    }
}

/// Launch the body of `loop_` over iterations `iters` (0-based indices into
/// `bounds`), one thread per iteration, against lane memory `mem`.
///
/// Warps are filled in iteration order and scheduled round-robin over the
/// SMs; each SM runs its warps back-to-back, so kernel time is the busiest
/// SM's cycle count plus the fixed launch overhead.
pub fn launch_loop<M: LaneMemory>(
    program: &Program,
    cfg: &DeviceConfig,
    loop_: &ForLoop,
    bounds: &LoopBounds,
    iters: Range<u64>,
    base_env: &Env,
    mem: &mut M,
) -> Result<KernelReport, SimtError> {
    launch_loop_guarded(
        program, cfg, loop_, bounds, iters, base_env, mem, None, None,
    )
}

/// [`launch_loop`] with an optional fault-injection plan and watchdog.
///
/// The plan is consulted at the launch point (driver-level launch failure),
/// before each warp issues (transient SIMT faults at a specific
/// (sub-loop, warp) coordinate), and after the kernel's critical cycles are
/// known (deadline overruns). The watchdog deadline is the cost model's own
/// estimate — the computed critical cycles — times `watchdog_slack`; a plan
/// that injects stall cycles past the deadline gets the launch killed as a
/// [`SimtError::Fault`]. With no plan the function is byte-for-byte
/// `launch_loop`: no stalls, identical timing.
#[allow(clippy::too_many_arguments)] // mirrors launch_loop plus the fault hooks
pub fn launch_loop_guarded<M: LaneMemory>(
    program: &Program,
    cfg: &DeviceConfig,
    loop_: &ForLoop,
    bounds: &LoopBounds,
    iters: Range<u64>,
    base_env: &Env,
    mem: &mut M,
    faults: Option<&FaultPlan>,
    watchdog_slack: Option<f64>,
) -> Result<KernelReport, SimtError> {
    launch_loop_guarded_with(
        program,
        cfg,
        loop_,
        bounds,
        iters,
        base_env,
        mem,
        faults,
        watchdog_slack,
        None,
    )
}

/// [`launch_loop_guarded`] with an optional shared [`KernelCache`]: the
/// scheduler compiles each loop to bytecode once and reuses it across
/// sub-loop launches, TLS re-executions and fault-ladder retries. Without
/// a cache the loop is compiled per launch (still bytecode, just not
/// amortized).
#[allow(clippy::too_many_arguments)] // mirrors launch_loop_guarded plus the cache
pub fn launch_loop_guarded_with<M: LaneMemory>(
    program: &Program,
    cfg: &DeviceConfig,
    loop_: &ForLoop,
    bounds: &LoopBounds,
    iters: Range<u64>,
    base_env: &Env,
    mem: &mut M,
    faults: Option<&FaultPlan>,
    watchdog_slack: Option<f64>,
    kernels: Option<&KernelCache>,
) -> Result<KernelReport, SimtError> {
    if iters.is_empty() {
        return Ok(KernelReport::empty());
    }
    let compiled = resolve_kernel(program, cfg, loop_, kernels);
    let mut vm = SimtVm::new();
    let mut nvm = NativeSimtVm::new();
    let origin = FaultOrigin {
        loop_id: Some(loop_.id),
        subloop: Some(iters.start),
        ..FaultOrigin::default()
    };
    if let Some(plan) = faults {
        if let Some(f) = plan.on_kernel_launch(origin) {
            return Err(SimtError::Fault(f));
        }
    }
    let exec = SimtExec::new(program, cfg);
    let mut sm_cycles = vec![0.0f64; cfg.effective_sms() as usize];
    let mut agg = WarpStats::new();
    let mut warp_id = 0u32;
    let total = iters.end - iters.start;
    let mut k = iters.start;
    let mut warp_iters: Vec<u64> = Vec::with_capacity(cfg.warp_size as usize);
    while k < iters.end {
        let hi = (k + cfg.warp_size as u64).min(iters.end);
        if let Some(plan) = faults {
            if let Some(f) = plan.on_warp(origin.with_warp(warp_id as u64)) {
                return Err(SimtError::Fault(f));
            }
        }
        warp_iters.clear();
        warp_iters.extend(k..hi);
        let stats = match &compiled {
            Resolved::Bytecode(kc) => vm.run_warp(
                kc,
                loop_.var,
                bounds,
                &warp_iters,
                base_env,
                warp_id,
                mem,
                cfg,
            )?,
            Resolved::Native(nk) => nvm.run_warp(
                nk,
                loop_.var,
                bounds,
                &warp_iters,
                base_env,
                warp_id,
                mem,
                cfg,
            )?,
            Resolved::Walker => {
                exec.run_warp(loop_, bounds, &warp_iters, base_env, warp_id, mem)?
            }
        };
        // Resident warps overlap memory latency with compute.
        let occupied = stats.issue_cycles + stats.mem_cycles / cfg.mem_concurrency.max(1.0);
        sm_cycles[(warp_id % cfg.effective_sms()) as usize] += occupied;
        agg.merge(&stats);
        warp_id += 1;
        k = hi;
    }
    let mut critical = sm_cycles.iter().copied().fold(0.0, f64::max);
    if let Some(plan) = faults {
        if let Some((stall, fault)) = plan.stall_cycles(origin) {
            if let Some(slack) = watchdog_slack {
                // Deadline = the cost model's own estimate × slack.
                if critical + stall > critical * slack.max(1.0) + 1.0 {
                    return Err(SimtError::Fault(fault));
                }
            }
            // Stall below the deadline (or no watchdog): the device limps
            // through — the burned cycles show up in the timing.
            critical += stall;
        }
    }
    Ok(KernelReport {
        time_s: cfg.cycles_to_seconds(critical) + cfg.kernel_launch_us * 1e-6,
        critical_cycles: critical,
        warps: warp_id,
        iterations: total,
        stats: agg,
    })
}

/// Per-warp worker output: warp id plus either the warp's stats and
/// harvested memory delta, or the error that stopped it.
type WarpOutcome<M> = Vec<(
    u32,
    Result<(WarpStats, <M as ParallelLaneMemory>::Delta), SimtError>,
)>;

/// [`launch_loop_guarded`] with host-side parallelism: warps are executed
/// by up to `cfg.sim.host_threads` scoped worker threads, each against its
/// own forked [`ParallelLaneMemory`] view, and the per-warp results are
/// merged by the coordinator in **global warp order** — the same order the
/// sequential loop uses — so cycle counts (f64 accumulation order
/// included), aggregated stats, TLS metadata, and write-after-write
/// resolution are bit-identical to [`launch_loop_guarded`].
///
/// Fault determinism: the plan's per-warp hooks are pre-scanned on the
/// calling thread in warp order *before* any worker starts, because plan
/// state advances with each consultation. On a fault at warp `w`, exactly
/// the warps before `w` execute and commit — the state the sequential path
/// leaves behind.
///
/// With `host_threads <= 1` (the default) this delegates verbatim to the
/// sequential path. Semantics caveat, parallel mode only: a warp cannot
/// observe another warp's stores from the *same* launch (views read the
/// pre-launch state). Every launch the runtime issues is either a proven
/// DOALL loop or wrapped in speculative buffering — both already have that
/// property — so the difference is observable only when a loop violates its
/// `parallel` annotation on a plain device-memory launch.
#[allow(clippy::too_many_arguments)] // mirrors launch_loop_guarded
pub fn launch_loop_par<M: ParallelLaneMemory + Sync>(
    program: &Program,
    cfg: &DeviceConfig,
    loop_: &ForLoop,
    bounds: &LoopBounds,
    iters: Range<u64>,
    base_env: &Env,
    mem: &mut M,
    faults: Option<&FaultPlan>,
    watchdog_slack: Option<f64>,
) -> Result<KernelReport, SimtError> {
    launch_loop_par_with(
        program,
        cfg,
        loop_,
        bounds,
        iters,
        base_env,
        mem,
        faults,
        watchdog_slack,
        None,
    )
}

/// [`launch_loop_par`] with an optional shared [`KernelCache`]; see
/// [`launch_loop_guarded_with`]. Each worker thread runs its own
/// [`SimtVm`] over the shared compiled kernel.
#[allow(clippy::too_many_arguments)] // mirrors launch_loop_par plus the cache
pub fn launch_loop_par_with<M: ParallelLaneMemory + Sync>(
    program: &Program,
    cfg: &DeviceConfig,
    loop_: &ForLoop,
    bounds: &LoopBounds,
    iters: Range<u64>,
    base_env: &Env,
    mem: &mut M,
    faults: Option<&FaultPlan>,
    watchdog_slack: Option<f64>,
    kernels: Option<&KernelCache>,
) -> Result<KernelReport, SimtError> {
    if iters.is_empty() {
        return Ok(KernelReport::empty());
    }
    let total = iters.end - iters.start;
    let n_warps = total.div_ceil(cfg.warp_size as u64) as u32;
    if cfg.sim.host_threads <= 1 || n_warps <= 1 {
        return launch_loop_guarded_with(
            program,
            cfg,
            loop_,
            bounds,
            iters,
            base_env,
            mem,
            faults,
            watchdog_slack,
            kernels,
        );
    }
    let compiled = resolve_kernel(program, cfg, loop_, kernels);
    let origin = FaultOrigin {
        loop_id: Some(loop_.id),
        subloop: Some(iters.start),
        ..FaultOrigin::default()
    };
    if let Some(plan) = faults {
        if let Some(f) = plan.on_kernel_launch(origin) {
            return Err(SimtError::Fault(f));
        }
    }
    // Pre-scan the per-warp fault hooks in warp order on this thread: the
    // plan is deterministic purely by consultation order, so this replays
    // the sequential call sequence exactly (stopping at the first hit, as
    // the sequential loop does).
    let mut pending_fault = None;
    let mut run_warps = n_warps;
    if let Some(plan) = faults {
        for w in 0..n_warps {
            if let Some(f) = plan.on_warp(origin.with_warp(w as u64)) {
                pending_fault = Some(f);
                run_warps = w;
                break;
            }
        }
    }
    let exec = SimtExec::new(program, cfg);
    let next = AtomicU32::new(0);
    let mem_ref: &M = &*mem;
    let workers = cfg.sim.host_threads.min(run_warps.max(1) as usize);
    let mut results: WarpOutcome<M> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out: WarpOutcome<M> = Vec::new();
                    let mut vm = SimtVm::new();
                    let mut nvm = NativeSimtVm::new();
                    let mut warp_iters: Vec<u64> = Vec::with_capacity(cfg.warp_size as usize);
                    loop {
                        let w = next.fetch_add(1, Ordering::Relaxed);
                        if w >= run_warps {
                            break;
                        }
                        let lo = iters.start + w as u64 * cfg.warp_size as u64;
                        let hi = (lo + cfg.warp_size as u64).min(iters.end);
                        warp_iters.clear();
                        warp_iters.extend(lo..hi);
                        let mut view = mem_ref.fork();
                        let r = match &compiled {
                            Resolved::Bytecode(kc) => vm.run_warp(
                                kc,
                                loop_.var,
                                bounds,
                                &warp_iters,
                                base_env,
                                w,
                                &mut view,
                                cfg,
                            ),
                            Resolved::Native(nk) => nvm.run_warp(
                                nk,
                                loop_.var,
                                bounds,
                                &warp_iters,
                                base_env,
                                w,
                                &mut view,
                                cfg,
                            ),
                            Resolved::Walker => {
                                exec.run_warp(loop_, bounds, &warp_iters, base_env, w, &mut view)
                            }
                        }
                        .map(|stats| (stats, M::harvest(view)));
                        let failed = r.is_err();
                        out.push((w, r));
                        if failed {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("simulator worker thread panicked"))
            .collect()
    });
    results.sort_by_key(|(w, _)| *w);
    // The lowest erroring warp wins, as in sequential execution; warps
    // before it commit, everything at or after it is discarded.
    let commit_limit = results
        .iter()
        .find(|(_, r)| r.is_err())
        .map(|(w, _)| *w)
        .unwrap_or(run_warps);
    let mut sm_cycles = vec![0.0f64; cfg.effective_sms() as usize];
    let mut agg = WarpStats::new();
    let mut first_err = None;
    for (w, r) in results {
        match r {
            Ok((stats, delta)) => {
                if w >= commit_limit {
                    continue;
                }
                let occupied = stats.issue_cycles + stats.mem_cycles / cfg.mem_concurrency.max(1.0);
                sm_cycles[(w % cfg.effective_sms()) as usize] += occupied;
                agg.merge(&stats);
                mem.absorb(delta).map_err(SimtError::Mem)?;
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    if let Some(f) = pending_fault {
        return Err(SimtError::Fault(f));
    }
    let mut critical = sm_cycles.iter().copied().fold(0.0, f64::max);
    if let Some(plan) = faults {
        if let Some((stall, fault)) = plan.stall_cycles(origin) {
            if let Some(slack) = watchdog_slack {
                if critical + stall > critical * slack.max(1.0) + 1.0 {
                    return Err(SimtError::Fault(fault));
                }
            }
            critical += stall;
        }
    }
    Ok(KernelReport {
        time_s: cfg.cycles_to_seconds(critical) + cfg.kernel_launch_us * 1e-6,
        critical_cycles: critical,
        warps: n_warps,
        iterations: total,
        stats: agg,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::DeviceMemory;
    use japonica_frontend::compile_source;
    use japonica_ir::{Heap, Value};

    fn run_kernel(n: i32) -> (KernelReport, DeviceMemory, japonica_ir::ArrayId, Heap) {
        let src = "static void scale(double[] a, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0 + 1.0; }
        }";
        let p = compile_source(src).unwrap();
        let (_, f) = p.function_by_name("scale").unwrap();
        let l = f.all_loops()[0].clone();
        let mut heap = Heap::new();
        let a = heap.alloc_doubles(&vec![1.0; n as usize]);
        let cfg = DeviceConfig::default();
        let mut dev = DeviceMemory::new();
        dev.copy_in(&heap, a, 0, n as usize, &cfg).unwrap();
        let mut env = Env::with_slots(f.num_vars);
        env.set(f.params[0].var, Value::Array(a));
        env.set(f.params[1].var, Value::Int(n));
        let bounds = LoopBounds {
            start: 0,
            end: n as i64,
            step: 1,
        };
        let report = launch_loop(&p, &cfg, &l, &bounds, 0..n as u64, &env, &mut dev).unwrap();
        (report, dev, a, heap)
    }

    #[test]
    fn kernel_computes_correct_results() {
        let (report, dev, a, _) = run_kernel(1000);
        assert_eq!(report.iterations, 1000);
        assert_eq!(report.warps, 32); // ceil(1000/32)
        for i in 0..1000 {
            assert_eq!(dev.array(a).unwrap().get(i), Value::Double(3.0));
        }
    }

    #[test]
    fn empty_range_costs_nothing() {
        let src = "static void f(int[] a, int n) {
            /* acc parallel */ for (int i = 0; i < n; i++) { a[i] = 1; }
        }";
        let p = compile_source(src).unwrap();
        let (_, f) = p.function_by_name("f").unwrap();
        let l = f.all_loops()[0].clone();
        let cfg = DeviceConfig::default();
        let mut dev = DeviceMemory::new();
        let env = Env::with_slots(f.num_vars);
        let bounds = LoopBounds {
            start: 0,
            end: 0,
            step: 1,
        };
        let r = launch_loop(&p, &cfg, &l, &bounds, 0..0, &env, &mut dev).unwrap();
        assert_eq!(r.time_s, 0.0);
        assert_eq!(r.warps, 0);
    }

    #[test]
    fn more_iterations_take_longer() {
        let (small, _, _, _) = run_kernel(448);
        let (big, _, _, _) = run_kernel(448 * 8);
        assert!(big.time_s > small.time_s);
        // 8x work over the same SMs: roughly 8x critical cycles
        let ratio = big.critical_cycles / small.critical_cycles;
        assert!(ratio > 6.0 && ratio < 10.0, "ratio {ratio}");
    }

    #[test]
    fn parallelism_amortizes_over_sms() {
        // 14 warps (one per SM) should cost about the same critical cycles
        // as 1 warp.
        let (one, _, _, _) = run_kernel(32);
        let (fourteen, _, _, _) = run_kernel(32 * 14);
        let ratio = fourteen.critical_cycles / one.critical_cycles;
        assert!(ratio < 1.7, "ratio {ratio}");
    }

    #[test]
    fn launch_overhead_is_included() {
        let (r, _, _, _) = run_kernel(32);
        let cfg = DeviceConfig::default();
        assert!(r.time_s >= cfg.kernel_launch_us * 1e-6);
    }

    #[test]
    fn fault_injection_hits_launch_warp_and_deadline() {
        use japonica_faults::{FaultKind, FaultPlan, FaultRule};
        let src = "static void scale(double[] a, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0 + 1.0; }
        }";
        let p = compile_source(src).unwrap();
        let (_, f) = p.function_by_name("scale").unwrap();
        let l = f.all_loops()[0].clone();
        let cfg = DeviceConfig::default();
        let n = 256usize;
        let mut heap = Heap::new();
        let a = heap.alloc_doubles(&vec![1.0; n]);
        let mut env = Env::with_slots(f.num_vars);
        env.set(f.params[0].var, Value::Array(a));
        env.set(f.params[1].var, Value::Int(n as i32));
        let bounds = LoopBounds {
            start: 0,
            end: n as i64,
            step: 1,
        };
        let fresh = |heap: &Heap| {
            let mut dev = DeviceMemory::new();
            dev.copy_in(heap, a, 0, n, &cfg).unwrap();
            dev
        };

        // No plan: guarded is identical to the plain launch.
        let plain =
            launch_loop(&p, &cfg, &l, &bounds, 0..n as u64, &env, &mut fresh(&heap)).unwrap();
        let guarded = launch_loop_guarded(
            &p,
            &cfg,
            &l,
            &bounds,
            0..n as u64,
            &env,
            &mut fresh(&heap),
            None,
            Some(4.0),
        )
        .unwrap();
        assert_eq!(plain.time_s, guarded.time_s);
        assert_eq!(plain.critical_cycles, guarded.critical_cycles);

        // Launch failure.
        let plan = FaultPlan::new(1, vec![FaultRule::persistent(FaultKind::KernelLaunch)]);
        let err = launch_loop_guarded(
            &p,
            &cfg,
            &l,
            &bounds,
            0..n as u64,
            &env,
            &mut fresh(&heap),
            Some(&plan),
            None,
        );
        assert!(
            matches!(err, Err(SimtError::Fault(f)) if f.kind == FaultKind::KernelLaunch),
            "{err:?}"
        );

        // SIMT fault gated on warp 3 carries its coordinates.
        let plan = FaultPlan::new(1, vec![FaultRule::persistent(FaultKind::Simt).on_warp(3)]);
        let err = launch_loop_guarded(
            &p,
            &cfg,
            &l,
            &bounds,
            0..n as u64,
            &env,
            &mut fresh(&heap),
            Some(&plan),
            None,
        );
        match err {
            Err(SimtError::Fault(f)) => {
                assert_eq!(f.kind, FaultKind::Simt);
                assert_eq!(f.origin.warp, Some(3));
                assert_eq!(f.origin.subloop, Some(0));
                assert_eq!(f.origin.loop_id, Some(l.id));
            }
            other => panic!("expected SIMT fault, got {other:?}"),
        }

        // A stall past the watchdog deadline kills the kernel...
        let big_stall = plain.critical_cycles * 100.0 + 1e6;
        let plan = FaultPlan::new(
            1,
            vec![FaultRule::persistent(FaultKind::DeadlineOverrun).stalling(big_stall)],
        );
        let err = launch_loop_guarded(
            &p,
            &cfg,
            &l,
            &bounds,
            0..n as u64,
            &env,
            &mut fresh(&heap),
            Some(&plan),
            Some(4.0),
        );
        assert!(
            matches!(err, Err(SimtError::Fault(f)) if f.kind == FaultKind::DeadlineOverrun),
            "{err:?}"
        );
        // ...while without a watchdog the device limps through, slower.
        let plan = FaultPlan::new(
            1,
            vec![FaultRule::persistent(FaultKind::DeadlineOverrun).stalling(big_stall)],
        );
        let slow = launch_loop_guarded(
            &p,
            &cfg,
            &l,
            &bounds,
            0..n as u64,
            &env,
            &mut fresh(&heap),
            Some(&plan),
            None,
        )
        .unwrap();
        assert!(slow.time_s > plain.time_s);
    }

    #[test]
    fn parallel_launch_is_bit_identical_to_sequential() {
        let src = "static void f(double[] a, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) {
                if (i % 3 == 0) { a[i] = a[i] * 2.0 + 1.0; } else { a[i] = a[i] / 2.0; }
            }
        }";
        let p = compile_source(src).unwrap();
        let (_, f) = p.function_by_name("f").unwrap();
        let l = f.all_loops()[0].clone();
        let n = 2000usize;
        let mut heap = Heap::new();
        let a = heap.alloc_doubles(&(0..n).map(|i| i as f64).collect::<Vec<_>>());
        let mut env = Env::with_slots(f.num_vars);
        env.set(f.params[0].var, Value::Array(a));
        env.set(f.params[1].var, Value::Int(n as i32));
        let bounds = LoopBounds {
            start: 0,
            end: n as i64,
            step: 1,
        };
        let run = |threads: usize| {
            let mut cfg = DeviceConfig::default();
            cfg.sim.host_threads = threads;
            let mut dev = DeviceMemory::new();
            dev.copy_in(&heap, a, 0, n, &cfg).unwrap();
            let r = launch_loop_par(
                &p,
                &cfg,
                &l,
                &bounds,
                0..n as u64,
                &env,
                &mut dev,
                None,
                None,
            )
            .unwrap();
            let vals: Vec<Value> = (0..n).map(|i| dev.array(a).unwrap().get(i)).collect();
            (r, vals)
        };
        let (seq, seq_vals) = run(1);
        for threads in [2, 3, 8] {
            let (par, par_vals) = run(threads);
            assert_eq!(seq, par, "report diverged at {threads} threads");
            assert_eq!(seq.time_s.to_bits(), par.time_s.to_bits());
            assert_eq!(seq.critical_cycles.to_bits(), par.critical_cycles.to_bits());
            assert_eq!(seq_vals, par_vals, "memory diverged at {threads} threads");
        }
    }

    #[test]
    fn parallel_launch_replays_fault_injection_exactly() {
        use japonica_faults::{FaultKind, FaultPlan, FaultRule};
        let src = "static void scale(double[] a, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0 + 1.0; }
        }";
        let p = compile_source(src).unwrap();
        let (_, f) = p.function_by_name("scale").unwrap();
        let l = f.all_loops()[0].clone();
        let n = 512usize;
        let mut heap = Heap::new();
        let a = heap.alloc_doubles(&vec![1.0; n]);
        let mut env = Env::with_slots(f.num_vars);
        env.set(f.params[0].var, Value::Array(a));
        env.set(f.params[1].var, Value::Int(n as i32));
        let bounds = LoopBounds {
            start: 0,
            end: n as i64,
            step: 1,
        };
        let run = |threads: usize| {
            let mut cfg = DeviceConfig::default();
            cfg.sim.host_threads = threads;
            let mut dev = DeviceMemory::new();
            dev.copy_in(&heap, a, 0, n, &cfg).unwrap();
            let plan = FaultPlan::new(1, vec![FaultRule::persistent(FaultKind::Simt).on_warp(5)]);
            let err = launch_loop_par(
                &p,
                &cfg,
                &l,
                &bounds,
                0..n as u64,
                &env,
                &mut dev,
                Some(&plan),
                None,
            );
            let vals: Vec<Value> = (0..n).map(|i| dev.array(a).unwrap().get(i)).collect();
            (format!("{err:?}"), vals)
        };
        // Fault at warp 5: warps 0..5 commit, the rest never run — and the
        // partial memory state matches the sequential path exactly.
        let (seq_err, seq_vals) = run(1);
        for threads in [2, 8] {
            let (par_err, par_vals) = run(threads);
            assert_eq!(seq_err, par_err);
            assert_eq!(seq_vals, par_vals);
        }
        assert_eq!(seq_vals[5 * 32 - 1], Value::Double(3.0));
        assert_eq!(seq_vals[5 * 32], Value::Double(1.0));
    }

    #[test]
    fn parallel_launch_empty_and_single_warp_delegate() {
        let src = "static void f(int[] a, int n) {
            /* acc parallel */ for (int i = 0; i < n; i++) { a[i] = 1; }
        }";
        let p = compile_source(src).unwrap();
        let (_, f) = p.function_by_name("f").unwrap();
        let l = f.all_loops()[0].clone();
        let mut cfg = DeviceConfig::default();
        cfg.sim.host_threads = 8;
        let mut heap = Heap::new();
        let a = heap.alloc_ints(&[0; 8]);
        let mut env = Env::with_slots(f.num_vars);
        env.set(f.params[0].var, Value::Array(a));
        env.set(f.params[1].var, Value::Int(8));
        let bounds = LoopBounds {
            start: 0,
            end: 8,
            step: 1,
        };
        let mut dev = DeviceMemory::new();
        dev.copy_in(&heap, a, 0, 8, &cfg).unwrap();
        let empty =
            launch_loop_par(&p, &cfg, &l, &bounds, 0..0, &env, &mut dev, None, None).unwrap();
        assert_eq!(empty.warps, 0);
        let one = launch_loop_par(&p, &cfg, &l, &bounds, 0..8, &env, &mut dev, None, None).unwrap();
        assert_eq!(one.warps, 1);
        assert_eq!(dev.array(a).unwrap().get(7), Value::Int(1));
    }

    #[test]
    fn chain_merges_reports() {
        let (mut a, _, _, _) = run_kernel(64);
        let (b, _, _, _) = run_kernel(64);
        let warps = a.warps;
        a.chain(&b);
        assert_eq!(a.warps, warps * 2);
        assert!(a.time_s > b.time_s);
    }
}
