//! The TLS execution engine: sub-loop scheduling, the SE/DC/commit/recovery
//! cycle, and the privatization mode PE(V).

use crate::config::TlsConfig;
use crate::spec_mem::{SpecArena, SpeculativeMemory};
use japonica_cpuexec::lanes::{run_with_replay, Checked};
use japonica_cpuexec::{CpuConfig, Independence};
use japonica_faults::{DeviceFault, FaultPlan, ResilienceConfig};
use japonica_gpusim::{
    launch_loop_par_with, AccessCtx, DeviceConfig, DeviceMemory, JournaledMemory, LaneMemory,
    LanePlan, SimtError,
};
use japonica_ir::{
    ArrayData, ArrayId, Backend, Env, ExecEngine, ExecError, ForLoop, Interp, KernelCache,
    LoopBounds, OpClass, Program, ScalarVm, Ty, Value,
};
use std::collections::BTreeSet;
use std::ops::Range;

/// Errors from the TLS engine.
#[derive(Debug, Clone, PartialEq)]
pub enum TlsError {
    /// The SIMT executor failed.
    Simt(SimtError),
    /// A sequential recovery step failed.
    Exec(ExecError),
    /// A device fault the engine could not absorb, carried with its origin.
    Fault(DeviceFault),
}

impl std::fmt::Display for TlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TlsError::Simt(e) => write!(f, "TLS speculative execution failed: {e}"),
            TlsError::Exec(e) => write!(f, "TLS recovery failed: {e}"),
            TlsError::Fault(d) => write!(f, "TLS device fault: {d}"),
        }
    }
}

impl std::error::Error for TlsError {}

impl From<SimtError> for TlsError {
    fn from(e: SimtError) -> TlsError {
        match e {
            SimtError::Fault(f) => TlsError::Fault(f),
            other => TlsError::Simt(other),
        }
    }
}

impl From<ExecError> for TlsError {
    fn from(e: ExecError) -> TlsError {
        TlsError::Exec(e)
    }
}

impl From<DeviceFault> for TlsError {
    fn from(f: DeviceFault) -> TlsError {
        TlsError::Fault(f)
    }
}

/// Outcome of a TLS (or privatized) loop execution.
#[derive(Debug, Clone, Default)]
pub struct TlsReport {
    /// GPU kernels launched (sub-loops + post-violation relaunches).
    pub kernels: u32,
    /// Sub-loops whose speculation succeeded entirely.
    pub clean_subloops: u32,
    /// Mis-speculations detected.
    pub violations: u32,
    /// Intra-warp / inter-warp violation classification totals.
    pub intra_warp_violations: u32,
    pub inter_warp_violations: u32,
    /// Iterations replayed sequentially during recovery.
    pub recovered_iters: u64,
    /// Injected device faults observed during speculative launches.
    pub device_faults: u32,
    /// Launch retries performed after transient device faults.
    pub fault_retries: u32,
    /// Simulated GPU seconds (SE + DC + commit).
    pub gpu_time_s: f64,
    /// Simulated CPU seconds (sequential recovery windows).
    pub cpu_time_s: f64,
    /// Total wall time (phases are serialized).
    pub time_s: f64,
    /// Flattened, iteration-ordered global writes (filled by
    /// [`run_privatized`], whose callers mirror them onto the host heap).
    pub writes: Vec<((ArrayId, i64), Value)>,
}

/// A sequential-execution backend over device memory, used for recovery
/// windows (the paper executes violating warps on the CPU against the
/// coherent data set).
pub struct DeviceBackend<'d> {
    mem: &'d mut DeviceMemory,
    locals: Vec<ArrayData>,
    local_base: u32,
    /// Op counts for the CPU time model.
    pub counts: japonica_ir::OpCounts,
}

impl<'d> DeviceBackend<'d> {
    /// Wrap device memory for sequential execution.
    pub fn new(mem: &'d mut DeviceMemory) -> DeviceBackend<'d> {
        DeviceBackend {
            mem,
            locals: Vec::new(),
            // Local temp ids far above any realistic host heap id.
            local_base: u32::MAX / 2,
            counts: japonica_ir::OpCounts::new(),
        }
    }

    fn local(&self, arr: ArrayId) -> Option<usize> {
        (arr.0 >= self.local_base).then(|| (arr.0 - self.local_base) as usize)
    }

    fn actx() -> AccessCtx {
        AccessCtx {
            lane: 0,
            warp: u32::MAX,
            iter: 0,
        }
    }
}

impl Backend for DeviceBackend<'_> {
    fn load(&mut self, arr: ArrayId, idx: i64) -> Result<Value, ExecError> {
        if let Some(li) = self.local(arr) {
            let a = self.locals.get(li).ok_or(ExecError::UnknownArray(arr))?;
            return Ok(a.get(a.index_of(arr, idx)?));
        }
        self.mem.load(Self::actx(), arr, idx)
    }

    fn store(&mut self, arr: ArrayId, idx: i64, v: Value) -> Result<(), ExecError> {
        if let Some(li) = self.local(arr) {
            let a = self
                .locals
                .get_mut(li)
                .ok_or(ExecError::UnknownArray(arr))?;
            let i = a.index_of(arr, idx)?;
            return a.set(i, v);
        }
        self.mem.store(Self::actx(), arr, idx, v)
    }

    fn array_len(&mut self, arr: ArrayId) -> Result<usize, ExecError> {
        if let Some(li) = self.local(arr) {
            return Ok(self
                .locals
                .get(li)
                .ok_or(ExecError::UnknownArray(arr))?
                .len());
        }
        self.mem.array_len(arr)
    }

    fn alloc(&mut self, ty: Ty, len: usize) -> Result<ArrayId, ExecError> {
        let id = ArrayId(self.local_base + self.locals.len() as u32);
        self.locals.push(ArrayData::zeroed(ty, len));
        Ok(id)
    }

    #[inline]
    fn op(&mut self, cls: OpClass) {
        self.counts.record(cls);
    }
}

/// Execute iterations `range` of `loop_` under GPU-TLS against device
/// memory `dev`.
///
/// `td_iters`, when available from the profiler, lists iterations known to
/// carry true dependences; after a violation the engine replays the
/// recovery window on the CPU while the profile says true dependences
/// continue, then relaunches speculation on the GPU (the paper's recovery
/// policy).
#[allow(clippy::too_many_arguments)]
pub fn run_tls_loop(
    program: &Program,
    dcfg: &DeviceConfig,
    ccfg: &CpuConfig,
    tls: &TlsConfig,
    loop_: &ForLoop,
    bounds: &LoopBounds,
    range: Range<u64>,
    base_env: &Env,
    dev: &mut DeviceMemory,
    td_iters: Option<&BTreeSet<u64>>,
) -> Result<TlsReport, TlsError> {
    run_tls_loop_guarded(
        program,
        dcfg,
        ccfg,
        tls,
        loop_,
        bounds,
        range,
        base_env,
        dev,
        td_iters,
        None,
        &ResilienceConfig::default(),
    )
}

/// [`run_tls_loop`] with an optional fault plan and resilience policy.
///
/// Transient injected faults are retried up to `res.max_retries` times with
/// a linear backoff charged to the GPU clock; a persistent (or
/// retry-exhausted) fault falls back onto the misspeculation-recovery
/// machinery: the speculative buffer is discarded — nothing was committed —
/// and the whole sub-loop is replayed sequentially against device memory.
/// Either way the loop completes with sequential semantics.
#[allow(clippy::too_many_arguments)]
pub fn run_tls_loop_guarded(
    program: &Program,
    dcfg: &DeviceConfig,
    ccfg: &CpuConfig,
    tls: &TlsConfig,
    loop_: &ForLoop,
    bounds: &LoopBounds,
    range: Range<u64>,
    base_env: &Env,
    dev: &mut DeviceMemory,
    td_iters: Option<&BTreeSet<u64>>,
    faults: Option<&FaultPlan>,
    res: &ResilienceConfig,
) -> Result<TlsReport, TlsError> {
    run_tls_loop_guarded_with(
        program, dcfg, ccfg, tls, loop_, bounds, range, base_env, dev, td_iters, faults, res, None,
    )
}

/// [`run_tls_loop_guarded`] with an optional shared [`KernelCache`]: the
/// speculative re-launch after every sub-loop, recovery window and fault
/// retry reuses one bytecode compilation of the loop body, and so do the
/// sequential recovery replays when `ccfg` selects a compiled engine.
#[allow(clippy::too_many_arguments)]
pub fn run_tls_loop_guarded_with(
    program: &Program,
    dcfg: &DeviceConfig,
    ccfg: &CpuConfig,
    tls: &TlsConfig,
    loop_: &ForLoop,
    bounds: &LoopBounds,
    range: Range<u64>,
    base_env: &Env,
    dev: &mut DeviceMemory,
    td_iters: Option<&BTreeSet<u64>>,
    faults: Option<&FaultPlan>,
    res: &ResilienceConfig,
    kernels: Option<&KernelCache>,
) -> Result<TlsReport, TlsError> {
    let mut report = TlsReport::default();
    let mut k = range.start;
    // One-time stream/JNI open; per-subloop launches pipeline behind it.
    let open_s = dcfg.kernel_launch_us * 1e-6 + dcfg.pcie_latency_us * 1e-6;
    let mut opened = false;
    let watchdog = if faults.is_some() {
        res.watchdog()
    } else {
        None
    };
    // Sequential replay of `lo..hi` against the coherent device data — a
    // recovery window, or a sub-loop whose launch keeps faulting — on the
    // CPU model's engine (the walker for what bytecode declines; op counts
    // are engine-invariant). A window is as uncertain as the loop it
    // recovers, so its lane batches write through a journal under the CPU
    // executor's conflict check; one that does not get through is undone
    // and replayed an iteration at a time. Returns the simulated CPU
    // seconds.
    let compiled = kernels
        .filter(|_| ccfg.engine != ExecEngine::TreeWalker)
        .and_then(|cache| cache.get_or_compile(program, loop_));
    let plan = compiled.as_deref().and_then(LanePlan::of);
    let replay_on_cpu = |dev: &mut DeviceMemory, lo: u64, hi: u64| -> Result<f64, TlsError> {
        let mut env = base_env.clone();
        let scalar = |dev: &mut DeviceMemory, span: Range<u64>, env: &mut Env| {
            let mut be = DeviceBackend::new(dev);
            let (lo, hi) = (span.start, span.end);
            match &compiled {
                Some(k) => ScalarVm::new().exec_range(k, loop_.var, bounds, lo, hi, env, &mut be),
                None => Interp::new(program).exec_range(loop_, bounds, lo, hi, env, &mut be),
            }?;
            Ok(be.counts)
        };
        let counts = match (&compiled, &plan) {
            (Some(k), Some(plan)) => {
                let mut mem = Checked::new(JournaledMemory::new(dev), Independence::Unproven);
                run_with_replay(
                    k,
                    plan,
                    loop_.var,
                    bounds,
                    lo..hi,
                    &mut env,
                    &mut mem,
                    |journal, span, env| scalar(journal.device(), span, env),
                )?
            }
            _ => scalar(dev, lo..hi, &mut env)?,
        };
        Ok(ccfg.cycles_to_seconds(ccfg.cost.total(&counts))
            // control transfer + coherence hop across PCIe
            + 2.0 * dcfg.pcie_latency_us * 1e-6)
    };
    // One metadata arena for every round: each SE phase resets it (cost
    // proportional to what the previous round touched) instead of
    // allocating and dropping per-array tables per sub-loop.
    let mut arena = SpecArena::default();
    while k < range.end {
        let mut sub_end = (k + tls.subloop_iters).min(range.end);
        // Profile guidance: start a fresh sub-loop at every iteration the
        // profiler saw carrying a true dependence, so its source is already
        // committed when it speculates — the paper's profile-guided
        // speculation for low-density loops (mode B).
        if let Some(td) = td_iters {
            if let Some(&next_td) = td.range(k + 1..sub_end).next() {
                sub_end = next_td;
            }
        }
        let mut attempt = 0u32;
        loop {
            // ---- SE phase ----
            let mut spec = SpeculativeMemory::with_arena(dev, tls.se_overhead_cycles, &mut arena);
            let kr = match launch_loop_par_with(
                program,
                dcfg,
                loop_,
                bounds,
                k..sub_end,
                base_env,
                &mut spec,
                faults,
                watchdog,
                kernels,
            ) {
                Ok(kr) => kr,
                Err(SimtError::Fault(f)) => {
                    // The buffer dies with the kernel: nothing reached
                    // device memory, so both retry and fallback restart
                    // from a coherent state.
                    drop(spec);
                    report.device_faults += 1;
                    if f.transient && attempt < res.max_retries {
                        attempt += 1;
                        report.fault_retries += 1;
                        report.gpu_time_s += res.retry_backoff_us * 1e-6 * attempt as f64;
                        continue;
                    }
                    // Persistent (or retry-exhausted): replay the sub-loop
                    // sequentially, exactly like a misspeculation window.
                    report.cpu_time_s += replay_on_cpu(dev, k, sub_end)?;
                    report.recovered_iters += sub_end - k;
                    k = sub_end;
                    break;
                }
                Err(e) => return Err(e.into()),
            };
            report.kernels += 1;
            let kernel_s = (kr.time_s - dcfg.kernel_launch_us * 1e-6).max(0.0) + 5e-6;
            report.gpu_time_s += if opened {
                kernel_s
            } else {
                opened = true;
                open_s + kernel_s
            };
            // ---- DC phase ----
            let dc = spec.check();
            report.gpu_time_s += dcfg.cycles_to_seconds(
                dc.entries_scanned as f64 * tls.dc_cycles_per_entry / dcfg.effective_sms() as f64,
            );
            report.intra_warp_violations += dc.intra_warp;
            report.inter_warp_violations += dc.inter_warp;
            match dc.first_violation() {
                None => {
                    // ---- commit phase ----
                    let copied = spec.commit_all()?;
                    report.gpu_time_s +=
                        dcfg.cycles_to_seconds(copied as f64 * tls.commit_cycles_per_write);
                    report.clean_subloops += 1;
                    k = sub_end;
                }
                Some(v) => {
                    report.violations += 1;
                    // Commit the safe prefix, discard the rest.
                    let copied = spec.commit_prefix(v)?;
                    report.gpu_time_s +=
                        dcfg.cycles_to_seconds(copied as f64 * tls.commit_cycles_per_write);
                    // ---- recovery: replay a window sequentially ----
                    let mut rec_end = (v + tls.recovery_window).min(range.end);
                    // While the profile says the following iterations still
                    // carry true dependences, keep replaying sequentially.
                    if let Some(td) = td_iters {
                        while rec_end < range.end
                            && td
                                .range(rec_end..rec_end + tls.recovery_window)
                                .next()
                                .is_some()
                        {
                            rec_end = (rec_end + tls.recovery_window).min(range.end);
                        }
                    }
                    report.cpu_time_s += replay_on_cpu(dev, v, rec_end)?;
                    report.recovered_iters += rec_end - v;
                    k = rec_end;
                }
            }
            break;
        }
    }
    report.time_s = report.gpu_time_s + report.cpu_time_s;
    Ok(report)
}

/// PE(V): parallel execution with privatization — buffered writes committed
/// in iteration order after all iterations finish, no dependence checking
/// (paper modes D/D', safe when only false dependences exist).
#[allow(clippy::too_many_arguments)] // mirrors the launch signature
pub fn run_privatized(
    program: &Program,
    dcfg: &DeviceConfig,
    tls: &TlsConfig,
    loop_: &ForLoop,
    bounds: &LoopBounds,
    range: Range<u64>,
    base_env: &Env,
    dev: &mut DeviceMemory,
) -> Result<TlsReport, TlsError> {
    run_privatized_with(
        program, dcfg, tls, loop_, bounds, range, base_env, dev, None,
    )
}

/// [`run_privatized`] with an optional shared [`KernelCache`].
#[allow(clippy::too_many_arguments)] // mirrors the launch signature
pub fn run_privatized_with(
    program: &Program,
    dcfg: &DeviceConfig,
    tls: &TlsConfig,
    loop_: &ForLoop,
    bounds: &LoopBounds,
    range: Range<u64>,
    base_env: &Env,
    dev: &mut DeviceMemory,
    kernels: Option<&KernelCache>,
) -> Result<TlsReport, TlsError> {
    let mut report = TlsReport::default();
    let mut arena = SpecArena::default();
    let mut spec = SpeculativeMemory::buffer_only(dev, tls.se_overhead_cycles / 2.0, &mut arena);
    let kr = launch_loop_par_with(
        program, dcfg, loop_, bounds, range, base_env, &mut spec, None, None, kernels,
    )?;
    report.kernels = 1;
    let writes = spec.commit_all_collect()?;
    report.gpu_time_s =
        kr.time_s + dcfg.cycles_to_seconds(writes.len() as f64 * tls.commit_cycles_per_write);
    report.clean_subloops = 1;
    report.time_s = report.gpu_time_s;
    report.writes = writes;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use japonica_frontend::compile_source;
    use japonica_ir::{Heap, HeapBackend};

    struct Fixture {
        program: Program,
        loop_: ForLoop,
        env: Env,
        heap: Heap,
        dev: DeviceMemory,
        arrays: Vec<ArrayId>,
        bounds: LoopBounds,
    }

    /// Build a fixture: compile `src`, bind `n` plus one i64 array of
    /// length `len` per array param, fill with `fill(i)`, copy to device.
    fn fixture(src: &str, fname: &str, n: i64, len: usize, fill: impl Fn(usize) -> i64) -> Fixture {
        let program = compile_source(src).unwrap();
        let (_, f) = program.function_by_name(fname).unwrap();
        let loop_ = f
            .all_loops()
            .into_iter()
            .find(|l| l.is_annotated())
            .unwrap()
            .clone();
        let mut heap = Heap::new();
        let dcfg = DeviceConfig::default();
        let mut dev = DeviceMemory::new();
        let mut env = Env::with_slots(f.num_vars);
        let mut arrays = Vec::new();
        for p in &f.params {
            match p.ty {
                japonica_ir::ParamTy::Array(_) => {
                    let vals: Vec<i64> = (0..len).map(&fill).collect();
                    let a = heap.alloc_longs(&vals);
                    dev.copy_in(&heap, a, 0, len, &dcfg).unwrap();
                    env.set(p.var, Value::Array(a));
                    arrays.push(a);
                }
                japonica_ir::ParamTy::Scalar(_) => {
                    env.set(p.var, Value::Int(n as i32));
                }
            }
        }
        let bounds = LoopBounds {
            start: 0,
            end: n,
            step: 1,
        };
        Fixture {
            program,
            loop_,
            env,
            heap,
            dev,
            arrays,
            bounds,
        }
    }

    /// Sequential reference on a clone of the host heap.
    fn sequential_reference(fx: &Fixture, arr: ArrayId) -> Vec<i64> {
        let mut heap = fx.heap.clone();
        let mut env = fx.env.clone();
        let mut be = HeapBackend::new(&mut heap);
        Interp::new(&fx.program)
            .exec_range(
                &fx.loop_,
                &fx.bounds,
                0,
                fx.bounds.trip(),
                &mut env,
                &mut be,
            )
            .unwrap();
        heap.read_ints(arr).unwrap()
    }

    fn device_longs(dev: &DeviceMemory, arr: ArrayId) -> Vec<i64> {
        let a = dev.array(arr).unwrap();
        (0..a.len()).map(|i| a.get(i).as_i64().unwrap()).collect()
    }

    const INDEPENDENT: &str = "static void f(long[] a, int n) {
        /* acc parallel */
        for (int i = 0; i < n; i++) { a[i] = a[i] * 2 + 1; }
    }";

    #[test]
    fn clean_speculation_matches_sequential() {
        let mut fx = fixture(INDEPENDENT, "f", 2000, 2000, |i| i as i64);
        let expect = sequential_reference(&fx, fx.arrays[0]);
        let r = run_tls_loop(
            &fx.program,
            &DeviceConfig::default(),
            &CpuConfig::default(),
            &TlsConfig::default(),
            &fx.loop_,
            &fx.bounds,
            0..2000,
            &fx.env,
            &mut fx.dev,
            None,
        )
        .unwrap();
        assert_eq!(r.violations, 0);
        assert_eq!(r.clean_subloops, 2); // 2000 iters / 1792 per subloop
        assert_eq!(device_longs(&fx.dev, fx.arrays[0]), expect);
        assert!(r.cpu_time_s == 0.0);
        assert!(r.gpu_time_s > 0.0);
    }

    // a[i] = a[i - 100] + 1 for i >= 100: RAW at distance 100, which spans
    // warps inside one subloop.
    const CARRIED: &str = "static void f(long[] a, int n) {
        /* acc parallel */
        for (int i = 0; i < n; i++) {
            if (i >= 100) { a[i] = a[i - 100] + 1; } else { a[i] = 1; }
        }
    }";

    #[test]
    fn violations_recover_to_sequential_result() {
        let mut fx = fixture(CARRIED, "f", 1000, 1000, |_| 0);
        let expect = sequential_reference(&fx, fx.arrays[0]);
        let r = run_tls_loop(
            &fx.program,
            &DeviceConfig::default(),
            &CpuConfig::default(),
            &TlsConfig::default(),
            &fx.loop_,
            &fx.bounds,
            0..1000,
            &fx.env,
            &mut fx.dev,
            None,
        )
        .unwrap();
        assert!(r.violations > 0);
        assert!(r.recovered_iters > 0);
        assert!(r.cpu_time_s > 0.0);
        assert_eq!(device_longs(&fx.dev, fx.arrays[0]), expect);
    }

    #[test]
    fn rare_dependence_mostly_speculates() {
        // only iteration 500 depends on an earlier one
        let src = "static void f(long[] a, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) {
                if (i == 500) { a[i] = a[i - 400] + 7; } else { a[i] = i; }
            }
        }";
        let mut fx = fixture(src, "f", 2000, 2000, |_| 0);
        let expect = sequential_reference(&fx, fx.arrays[0]);
        let tls = TlsConfig::default();
        let r = run_tls_loop(
            &fx.program,
            &DeviceConfig::default(),
            &CpuConfig::default(),
            &tls,
            &fx.loop_,
            &fx.bounds,
            0..2000,
            &fx.env,
            &mut fx.dev,
            None,
        )
        .unwrap();
        assert_eq!(r.violations, 1);
        assert!(r.recovered_iters <= tls.recovery_window);
        assert_eq!(device_longs(&fx.dev, fx.arrays[0]), expect);
    }

    #[test]
    fn profile_guided_boundaries_avoid_violations() {
        let mut fx = fixture(CARRIED, "f", 600, 600, |_| 0);
        let expect = sequential_reference(&fx, fx.arrays[0]);
        // profile: every iteration >= 100 carries a TD, so the engine cuts
        // a sub-loop boundary before each of them — every dependence source
        // is committed before its reader speculates.
        let td: BTreeSet<u64> = (100..600).collect();
        let r = run_tls_loop(
            &fx.program,
            &DeviceConfig::default(),
            &CpuConfig::default(),
            &TlsConfig::default(),
            &fx.loop_,
            &fx.bounds,
            0..600,
            &fx.env,
            &mut fx.dev,
            Some(&td),
        )
        .unwrap();
        assert_eq!(r.violations, 0);
        assert!(r.kernels > 400, "one sub-loop per dependent iteration");
        assert_eq!(device_longs(&fx.dev, fx.arrays[0]), expect);
    }

    #[test]
    fn blind_speculation_on_same_loop_violates_and_recovers() {
        let mut fx = fixture(CARRIED, "f", 600, 600, |_| 0);
        let expect = sequential_reference(&fx, fx.arrays[0]);
        let r = run_tls_loop(
            &fx.program,
            &DeviceConfig::default(),
            &CpuConfig::default(),
            &TlsConfig::default(),
            &fx.loop_,
            &fx.bounds,
            0..600,
            &fx.env,
            &mut fx.dev,
            None,
        )
        .unwrap();
        assert!(r.violations >= 1);
        assert!(r.recovered_iters > 0);
        assert_eq!(device_longs(&fx.dev, fx.arrays[0]), expect);
    }

    #[test]
    fn privatized_execution_is_sequential_equivalent_for_fd_loops() {
        // WAW: all iterations write a[i % 64]; iteration order must win.
        let src = "static void f(long[] a, long[] o, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) {
                a[i % 64] = i;
                o[i] = a[i % 64] * 2;
            }
        }";
        let mut fx = fixture(src, "f", 1000, 1000, |_| 0);
        let expect_a = sequential_reference(&fx, fx.arrays[0]);
        let r = run_privatized(
            &fx.program,
            &DeviceConfig::default(),
            &TlsConfig::default(),
            &fx.loop_,
            &fx.bounds,
            0..1000,
            &fx.env,
            &mut fx.dev,
        )
        .unwrap();
        assert_eq!(r.kernels, 1);
        assert_eq!(device_longs(&fx.dev, fx.arrays[0]), expect_a);
        // o[i] = 2*i always (reads own write in the same iteration)
        let o = device_longs(&fx.dev, fx.arrays[1]);
        assert!(o.iter().enumerate().all(|(i, &v)| v == 2 * i as i64));
    }

    #[test]
    fn device_backend_supports_temp_arrays() {
        let src = "static void f(long[] a, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) {
                long[] t = new long[2];
                t[0] = a[i];
                a[i] = t[0] + 1;
            }
        }";
        let mut fx = fixture(src, "f", 64, 64, |i| i as i64);
        let mut be = DeviceBackend::new(&mut fx.dev);
        let mut env = fx.env.clone();
        Interp::new(&fx.program)
            .exec_range(&fx.loop_, &fx.bounds, 0, 64, &mut env, &mut be)
            .unwrap();
        assert_eq!(device_longs(&fx.dev, fx.arrays[0])[10], 11);
    }

    #[test]
    fn transient_fault_retries_then_succeeds() {
        use japonica_faults::{FaultKind, FaultRule};
        let mut fx = fixture(INDEPENDENT, "f", 2000, 2000, |i| i as i64);
        let expect = sequential_reference(&fx, fx.arrays[0]);
        // First launch faults once, then the window passes and the retry
        // goes through — no sequential fallback needed.
        let plan = FaultPlan::new(7, vec![FaultRule::transient(FaultKind::KernelLaunch, 1)]);
        let r = run_tls_loop_guarded(
            &fx.program,
            &DeviceConfig::default(),
            &CpuConfig::default(),
            &TlsConfig::default(),
            &fx.loop_,
            &fx.bounds,
            0..2000,
            &fx.env,
            &mut fx.dev,
            None,
            Some(&plan),
            &ResilienceConfig::default(),
        )
        .unwrap();
        assert_eq!(r.device_faults, 1);
        assert_eq!(r.fault_retries, 1);
        assert_eq!(r.recovered_iters, 0);
        assert_eq!(device_longs(&fx.dev, fx.arrays[0]), expect);
    }

    #[test]
    fn persistent_fault_falls_back_to_sequential_replay() {
        use japonica_faults::{FaultKind, FaultRule};
        let mut fx = fixture(INDEPENDENT, "f", 2000, 2000, |i| i as i64);
        let expect = sequential_reference(&fx, fx.arrays[0]);
        // Every launch of the first sub-loop window faults persistently.
        let plan = FaultPlan::new(7, vec![FaultRule::persistent(FaultKind::KernelLaunch)]);
        let r = run_tls_loop_guarded(
            &fx.program,
            &DeviceConfig::default(),
            &CpuConfig::default(),
            &TlsConfig::default(),
            &fx.loop_,
            &fx.bounds,
            0..2000,
            &fx.env,
            &mut fx.dev,
            None,
            Some(&plan),
            &ResilienceConfig::default(),
        )
        .unwrap();
        assert!(r.device_faults > 0);
        assert_eq!(r.kernels, 0, "device never executed a kernel");
        assert_eq!(
            r.recovered_iters, 2000,
            "all iterations replayed sequentially"
        );
        assert!(r.cpu_time_s > 0.0);
        assert_eq!(device_longs(&fx.dev, fx.arrays[0]), expect);
    }

    #[test]
    fn guarded_without_plan_matches_unguarded_timing() {
        let mk = |guarded: bool| {
            let mut fx = fixture(CARRIED, "f", 1000, 1000, |_| 0);
            let r = if guarded {
                run_tls_loop_guarded(
                    &fx.program,
                    &DeviceConfig::default(),
                    &CpuConfig::default(),
                    &TlsConfig::default(),
                    &fx.loop_,
                    &fx.bounds,
                    0..1000,
                    &fx.env,
                    &mut fx.dev,
                    None,
                    None,
                    &ResilienceConfig::default(),
                )
                .unwrap()
            } else {
                run_tls_loop(
                    &fx.program,
                    &DeviceConfig::default(),
                    &CpuConfig::default(),
                    &TlsConfig::default(),
                    &fx.loop_,
                    &fx.bounds,
                    0..1000,
                    &fx.env,
                    &mut fx.dev,
                    None,
                )
                .unwrap()
            };
            (r.time_s, r.kernels, r.violations)
        };
        assert_eq!(mk(true), mk(false));
    }

    #[test]
    fn smaller_subloops_bound_violation_cost() {
        let mk = |subloop: u64| {
            let mut fx = fixture(CARRIED, "f", 1000, 1000, |_| 0);
            let tls = TlsConfig {
                subloop_iters: subloop,
                ..TlsConfig::default()
            };
            run_tls_loop(
                &fx.program,
                &DeviceConfig::default(),
                &CpuConfig::default(),
                &tls,
                &fx.loop_,
                &fx.bounds,
                0..1000,
                &fx.env,
                &mut fx.dev,
                None,
            )
            .unwrap()
        };
        let small = mk(64);
        let large = mk(1024);
        // With subloops of 64 <= dependence distance 100, speculation
        // inside each subloop never observes stale data.
        assert_eq!(small.violations, 0);
        assert!(large.violations > 0);
    }
}
