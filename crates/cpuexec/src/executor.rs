//! Sequential and multi-threaded chunk execution of canonical loops.

use crate::buffer::{apply_writes, BufferLanes, BufferedBackend};
use crate::config::CpuConfig;
use crate::lanes::{run_batches, run_with_replay, Checked, HeapLanes, UndoLanes};
use japonica_faults::{DeviceFault, FaultOrigin, FaultPlan};
use japonica_gpusim::LanePlan;
use japonica_ir::{
    compile_kernel, compile_native, ArrayId, Backend, CompiledKernel, CountingBackend, Env,
    ExecEngine, ExecError, Flow, ForLoop, Heap, HeapBackend, Interp, KernelCache, LoopBounds,
    NativeKernel, NativeVm, OpCounts, Program, ScalarVm, Value,
};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// What the caller knows about the loop's cross-iteration dependences. Not
/// a setting: a fact about the loop, established by static analysis
/// (`LoopAnalysis::proven_independent`) and handed down by the scheduler.
/// Either way consecutive iterations execute in lockstep, 32 to a batch;
/// the fact decides whether a batch has to be verified as it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Independence {
    /// Nothing proven (dependent, profiled-only or clause-privatized
    /// loops): every batch is conflict-checked access by access, and one
    /// whose iterations turn out to depend on each other is undone and
    /// replayed one iteration at a time, in order, on the scalar VMs.
    #[default]
    Unproven,
    /// Statically proven: no iteration reads or overwrites what another
    /// writes, so batches run unchecked.
    Proven,
}

/// The scalar chunk executor picked for a loop: the reference tree walker
/// (config opt-out, or a loop the bytecode compiler declines), the
/// register bytecode VM, or the threaded-code native tier.
enum ScalarChunk {
    Walker,
    Bytecode(Arc<CompiledKernel>),
    Native(Arc<NativeKernel>),
}

impl ScalarChunk {
    fn exec<B: Backend>(
        &self,
        program: &Program,
        loop_: &ForLoop,
        bounds: &LoopBounds,
        range: Range<u64>,
        env: &mut Env,
        be: &mut B,
    ) -> Result<Flow, ExecError> {
        let (var, lo, hi) = (loop_.var, range.start, range.end);
        match self {
            ScalarChunk::Bytecode(k) => ScalarVm::new().exec_range(k, var, bounds, lo, hi, env, be),
            ScalarChunk::Native(nk) => NativeVm::new().exec_range(nk, var, bounds, lo, hi, env, be),
            ScalarChunk::Walker => Interp::new(program).exec_range(loop_, bounds, lo, hi, env, be),
        }
    }
}

/// Errors out of the guarded CPU executor: either a real interpreter error
/// or an injected worker fault (carried intact for the recovery machinery).
#[derive(Debug, Clone, PartialEq)]
pub enum CpuExecError {
    Exec(ExecError),
    Fault(DeviceFault),
}

impl fmt::Display for CpuExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuExecError::Exec(e) => write!(f, "{e}"),
            CpuExecError::Fault(d) => write!(f, "{d}"),
        }
    }
}

impl std::error::Error for CpuExecError {}

impl From<ExecError> for CpuExecError {
    fn from(e: ExecError) -> CpuExecError {
        CpuExecError::Exec(e)
    }
}

/// Result of executing an iteration range on the CPU model.
#[derive(Debug, Clone)]
pub struct CpuReport {
    /// Simulated seconds of CPU time (critical path over cores).
    pub time_s: f64,
    /// Total op counts across all threads.
    pub counts: OpCounts,
    /// Worker threads used.
    pub threads_used: u32,
    /// Modeled busy seconds per worker thread (before core packing).
    pub per_thread_seconds: Vec<f64>,
}

impl CpuReport {
    /// An empty execution.
    pub fn empty() -> CpuReport {
        CpuReport {
            time_s: 0.0,
            counts: OpCounts::new(),
            threads_used: 0,
            per_thread_seconds: Vec::new(),
        }
    }

    /// Chain a subsequent execution (runs back-to-back).
    pub fn chain(&mut self, other: &CpuReport) {
        self.time_s += other.time_s;
        self.counts.merge(&other.counts);
        self.threads_used = self.threads_used.max(other.threads_used);
    }
}

/// A chunk's deferred writes, by location.
pub type DeferredWrites = BTreeMap<(ArrayId, i64), Value>;

/// One simulated chunk's op counts and deferred writes.
type ChunkResult = (OpCounts, DeferredWrites);

/// Everything one CPU execution needs besides the loop, the range and the
/// mutable state: build it once per scheduled loop and run any number of
/// ranges through it.
#[derive(Clone, Copy)]
pub struct CpuCtx<'a> {
    pub program: &'a Program,
    pub cfg: &'a CpuConfig,
    /// Shared [`KernelCache`] so repeated dispatches of the same loop
    /// reuse one compilation; without one the loop is compiled per call.
    pub kernels: Option<&'a KernelCache>,
    /// Fault-injection plan consulted once per [`run_parallel`](CpuCtx::run_parallel)
    /// batch, under `origin`.
    pub faults: Option<&'a FaultPlan>,
    pub origin: FaultOrigin,
    pub independence: Independence,
}

impl<'a> CpuCtx<'a> {
    /// No kernel cache, no fault plan, nothing proven.
    pub fn new(program: &'a Program, cfg: &'a CpuConfig) -> CpuCtx<'a> {
        CpuCtx {
            program,
            cfg,
            kernels: None,
            faults: None,
            origin: FaultOrigin::default(),
            independence: Independence::Unproven,
        }
    }

    /// The loop's bytecode kernel and, when the lane VM accepts it, the
    /// plan to run it in lane batches — whatever is or is not proven about
    /// the loop, under either compiled engine. The tree walker stays
    /// purely scalar, as the oracle.
    fn resolve(&self, loop_: &ForLoop) -> (Option<Arc<CompiledKernel>>, Option<LanePlan>) {
        if self.cfg.engine == ExecEngine::TreeWalker {
            return (None, None);
        }
        let kernel = match self.kernels {
            Some(cache) => cache.get_or_compile(self.program, loop_),
            None => compile_kernel(self.program, loop_).ok().map(Arc::new),
        };
        let plan = kernel.as_deref().and_then(LanePlan::of);
        (kernel, plan)
    }

    /// Resolve the scalar chunk executor, given [`resolve`](CpuCtx::resolve)'s
    /// kernel. Under [`ExecEngine::Native`] a cached loop is promoted to the
    /// closure-array tier once its use counter crosses
    /// [`japonica_ir::NATIVE_PROMOTE_USES`]; an uncached launch has no
    /// counter to consult and compiles natively up front. A lane-batched
    /// loop asks only once a batch has to be replayed.
    fn resolve_scalar(&self, loop_: &ForLoop, kernel: Option<Arc<CompiledKernel>>) -> ScalarChunk {
        if self.cfg.engine == ExecEngine::Native {
            let native = match (self.kernels, &kernel) {
                (Some(cache), _) => {
                    cache.native_tier::<NativeKernel, _>(loop_.id.0, compile_native)
                }
                (None, Some(k)) => Some(Arc::new(compile_native(k))),
                (None, None) => None,
            };
            if let Some(nk) = native {
                return ScalarChunk::Native(nk);
            }
        }
        kernel.map_or(ScalarChunk::Walker, ScalarChunk::Bytecode)
    }

    /// Price per-simulated-thread op counts: busy seconds per thread (plus
    /// `dispatch_s` each), packed round-robin onto `cfg.cores` cores; the
    /// busiest core is the critical path.
    fn report(&self, per_thread_counts: &[OpCounts], dispatch_s: f64) -> CpuReport {
        let cfg = self.cfg;
        let mut counts = OpCounts::new();
        let mut core_load = vec![0.0f64; cfg.cores as usize];
        let mut per_thread = Vec::with_capacity(per_thread_counts.len());
        for (t, c) in per_thread_counts.iter().enumerate() {
            let s = cfg.cycles_to_seconds(cfg.cost.total(c)) + dispatch_s;
            core_load[t % cfg.cores as usize] += s;
            per_thread.push(s);
            counts.merge(c);
        }
        CpuReport {
            time_s: core_load.iter().copied().fold(0.0, f64::max),
            counts,
            threads_used: per_thread.len() as u32,
            per_thread_seconds: per_thread,
        }
    }

    /// Run `range` in order over `mem` and return the ops charged: in lane
    /// batches when the lane VM accepts the loop, with `on_scalar` — the
    /// scalar executor over whatever `mem` wraps — replaying the batches
    /// that do not get through, or running the whole range when there is
    /// no lane path.
    fn run_in_order<M: UndoLanes>(
        &self,
        loop_: &ForLoop,
        bounds: &LoopBounds,
        range: Range<u64>,
        env: &mut Env,
        mut mem: M,
        mut on_scalar: impl FnMut(
            &ScalarChunk,
            &mut M,
            Range<u64>,
            &mut Env,
        ) -> Result<OpCounts, ExecError>,
    ) -> Result<OpCounts, ExecError> {
        let (kernel, plan) = self.resolve(loop_);
        let mut scalar = None;
        let mut replay = |mem: &mut M, span: Range<u64>, env: &mut Env| {
            let scalar = scalar.get_or_insert_with(|| self.resolve_scalar(loop_, kernel.clone()));
            on_scalar(scalar, mem, span, env)
        };
        let (Some(k), Some(plan)) = (&kernel, &plan) else {
            return replay(&mut mem, range, env);
        };
        let mut mem = Checked::new(mem, self.independence);
        run_with_replay(k, plan, loop_.var, bounds, range, env, &mut mem, replay)
    }

    /// Execute iterations `range` of `loop_` sequentially on one core
    /// (the paper's mode C and all serial baselines). `env` holds the
    /// state after the last executed iteration afterwards, on error too.
    pub fn run_sequential(
        &self,
        loop_: &ForLoop,
        bounds: &LoopBounds,
        range: Range<u64>,
        env: &mut Env,
        heap: &mut Heap,
    ) -> Result<CpuReport, ExecError> {
        let mem = HeapLanes::new(heap);
        let counts =
            self.run_in_order(loop_, bounds, range, env, mem, |scalar, mem, span, env| {
                let mut be = CountingBackend::new(HeapBackend::new(mem.heap));
                scalar.exec(self.program, loop_, bounds, span, env, &mut be)?;
                Ok(be.counts)
            })?;
        Ok(self.report(&[counts], 0.0))
    }

    /// Execute iterations `range` of `loop_` sequentially against a private
    /// write buffer over `heap`: the report, and the deferred writes for
    /// the caller to commit when their turn comes (mode D orders commits
    /// across devices this way; safe for loops with false dependences
    /// only, where every read another chunk's write would have fed is
    /// killed by an own-iteration write).
    pub fn run_deferred(
        &self,
        loop_: &ForLoop,
        bounds: &LoopBounds,
        range: Range<u64>,
        env: &Env,
        heap: &Heap,
    ) -> Result<(CpuReport, DeferredWrites), ExecError> {
        let mut be = BufferedBackend::new(heap);
        let (env, mem) = (&mut env.clone(), BufferLanes::new(&mut be));
        let counts =
            self.run_in_order(loop_, bounds, range, env, mem, |scalar, mem, span, env| {
                scalar.exec(self.program, loop_, bounds, span, env, mem.be)?;
                Ok(std::mem::take(&mut mem.be.counts))
            })?;
        Ok((self.report(&[counts], 0.0), be.into_writes()))
    }

    /// Execute iterations `range` of `loop_` as `threads` simulated worker
    /// threads over contiguous balanced chunks.
    ///
    /// The range first runs lane-batched on the calling thread, straight
    /// against the heap, and commits whole: every batch proven or verified
    /// free of cross-iteration dependences, the result is the sequential
    /// one. If a batch does not get through, the range is undone and each
    /// chunk runs on the scalar executor against a private write buffer, on
    /// at most `available_parallelism` OS workers (`std::thread::scope`);
    /// buffers are committed to the heap in chunk order afterwards, so a
    /// loop without true dependences across chunks yields exactly the
    /// sequential result. Either way modeled time packs the simulated
    /// threads' busy-times onto `cfg.cores` cores and takes the busiest
    /// core.
    ///
    /// The fault plan is consulted once per call *before any work starts*
    /// (on the calling thread, so injection order is deterministic); a
    /// fired fault surfaces as [`CpuExecError::Fault`], which lets the
    /// scheduler resubmit the whole batch elsewhere. On any error the heap
    /// is untouched.
    pub fn run_parallel(
        &self,
        loop_: &ForLoop,
        bounds: &LoopBounds,
        range: Range<u64>,
        env: &Env,
        heap: &mut Heap,
        threads: u32,
    ) -> Result<CpuReport, CpuExecError> {
        let total = range.end.saturating_sub(range.start);
        if total == 0 {
            return Ok(CpuReport::empty());
        }
        if let Some(f) = self.faults.and_then(|plan| plan.on_cpu_chunk(self.origin)) {
            return Err(CpuExecError::Fault(f));
        }
        // Contiguous, balanced, non-empty chunks.
        let threads = u64::from(threads).clamp(1, total);
        let (base, extra) = (total / threads, total % threads);
        let mut lo = range.start;
        let chunks: Vec<Range<u64>> = (0..threads)
            .map(|t| {
                let len = base + u64::from(t < extra);
                lo += len;
                lo - len..lo
            })
            .collect();
        let dispatch_s = self.cfg.chunk_dispatch_us * 1e-6;

        let (kernel, plan) = self.resolve(loop_);
        if let (Some(k), Some(plan)) = (&kernel, &plan) {
            let mut counts = vec![OpCounts::new(); chunks.len()];
            let mut scratch_env = env.clone();
            let mut mem = Checked::new(HeapLanes::new(heap), self.independence);
            let ran = run_batches(
                k,
                plan,
                loop_.var,
                bounds,
                &chunks,
                &mut scratch_env,
                &mut mem,
                &mut counts,
                true,
            );
            if ran.is_ok() {
                return Ok(self.report(&counts, dispatch_s));
            }
            // Rolled back; the buffered path below owns errors and
            // dependent iterations alike.
        }

        let scalar = self.resolve_scalar(loop_, kernel);
        let heap_ref: &Heap = heap;
        let run_block = |block: &[Range<u64>]| -> Result<Vec<ChunkResult>, ExecError> {
            block
                .iter()
                .map(|chunk| {
                    let mut be = BufferedBackend::new(heap_ref);
                    let mut env = env.clone();
                    scalar.exec(
                        self.program,
                        loop_,
                        bounds,
                        chunk.clone(),
                        &mut env,
                        &mut be,
                    )?;
                    Ok((be.counts.clone(), be.into_writes()))
                })
                .collect()
        };
        // Each OS worker runs a contiguous block of simulated chunks in
        // ascending order; a block stops at its first failing chunk, so
        // the first error in block order is the first in chunk order.
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let per_worker = chunks.len().div_ceil(workers);
        let blocks: Vec<Result<Vec<ChunkResult>, ExecError>> = if per_worker == chunks.len() {
            vec![run_block(&chunks)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .chunks(per_worker)
                    .map(|block| scope.spawn(|| run_block(block)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|_| {
                            Err(ExecError::Aborted("worker thread panicked".into()))
                        })
                    })
                    .collect()
            })
        };
        let mut counts = Vec::with_capacity(chunks.len());
        let mut buffers = Vec::with_capacity(chunks.len());
        for block in blocks {
            for (c, writes) in block? {
                counts.push(c);
                buffers.push(writes);
            }
        }
        // Commit in chunk order (sequential last-writer-wins semantics).
        for writes in buffers {
            apply_writes(heap, writes)?;
        }
        Ok(self.report(&counts, dispatch_s))
    }
}

/// [`CpuCtx::run_sequential`] with no fault plan and nothing proven: every
/// lane batch is conflict-checked.
#[allow(clippy::too_many_arguments)] // the flat signature the perf probes call
pub fn run_sequential_with(
    program: &Program,
    cfg: &CpuConfig,
    loop_: &ForLoop,
    bounds: &LoopBounds,
    range: Range<u64>,
    env: &mut Env,
    heap: &mut Heap,
    kernels: Option<&KernelCache>,
) -> Result<CpuReport, ExecError> {
    let ctx = CpuCtx {
        kernels,
        ..CpuCtx::new(program, cfg)
    };
    ctx.run_sequential(loop_, bounds, range, env, heap)
}

/// [`CpuCtx::run_parallel`] with no fault plan and nothing proven: every
/// lane batch is conflict-checked, buffered scalar chunks behind them.
#[allow(clippy::too_many_arguments)] // the flat signature the perf probes call
pub fn run_parallel_with(
    program: &Program,
    cfg: &CpuConfig,
    loop_: &ForLoop,
    bounds: &LoopBounds,
    range: Range<u64>,
    env: &Env,
    heap: &mut Heap,
    threads: u32,
    kernels: Option<&KernelCache>,
) -> Result<CpuReport, ExecError> {
    let ctx = CpuCtx {
        kernels,
        ..CpuCtx::new(program, cfg)
    };
    ctx.run_parallel(loop_, bounds, range, env, heap, threads)
        .map_err(|e| match e {
            CpuExecError::Exec(x) => x,
            // Unreachable: faults only fire when a plan is installed.
            CpuExecError::Fault(f) => ExecError::Aborted(format!("unexpected fault: {f}")),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use japonica_frontend::compile_source;
    use japonica_ir::Value;

    fn setup(src: &str, fname: &str) -> (Program, ForLoop, Env, Heap, japonica_ir::ArrayId, usize) {
        setup_n(src, fname, 1000)
    }

    fn setup_n(
        src: &str,
        fname: &str,
        n: usize,
    ) -> (Program, ForLoop, Env, Heap, japonica_ir::ArrayId, usize) {
        let p = compile_source(src).unwrap();
        let (_, f) = p.function_by_name(fname).unwrap();
        let l = f
            .all_loops()
            .into_iter()
            .find(|l| l.is_annotated())
            .unwrap()
            .clone();
        let mut heap = Heap::new();
        let a = heap.alloc_doubles(&vec![1.5; n]);
        let mut env = Env::with_slots(f.num_vars);
        env.set(f.params[0].var, Value::Array(a));
        env.set(f.params[1].var, Value::Int(n as i32));
        (p.clone(), l, env, heap, a, n)
    }

    const SCALE: &str = "static void scale(double[] a, int n) {
        /* acc parallel */
        for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; }
    }";

    #[test]
    fn sequential_matches_expected_results() {
        let (p, l, env, mut heap, a, n) = setup(SCALE, "scale");
        let cfg = CpuConfig::default();
        let bounds = LoopBounds {
            start: 0,
            end: n as i64,
            step: 1,
        };
        let r = CpuCtx::new(&p, &cfg)
            .run_sequential(&l, &bounds, 0..n as u64, &mut env.clone(), &mut heap)
            .unwrap();
        assert!(r.time_s > 0.0);
        assert!(heap.read_doubles(a).unwrap().iter().all(|&v| v == 3.0));
    }

    #[test]
    fn parallel_matches_sequential_results() {
        let (p, l, env, mut heap, a, n) = setup(SCALE, "scale");
        let cfg = CpuConfig::default();
        let bounds = LoopBounds {
            start: 0,
            end: n as i64,
            step: 1,
        };
        CpuCtx::new(&p, &cfg)
            .run_parallel(&l, &bounds, 0..n as u64, &env, &mut heap, 16)
            .unwrap();
        assert!(heap.read_doubles(a).unwrap().iter().all(|&v| v == 3.0));
    }

    #[test]
    fn parallel_is_modeled_faster_than_sequential() {
        // Large enough that per-chunk dispatch overhead is amortized.
        let (p, l, env, mut heap, _, n) = setup_n(SCALE, "scale", 100_000);
        let cfg = CpuConfig::default();
        let bounds = LoopBounds {
            start: 0,
            end: n as i64,
            step: 1,
        };
        let seq = CpuCtx::new(&p, &cfg)
            .run_sequential(
                &l,
                &bounds,
                0..n as u64,
                &mut env.clone(),
                &mut heap.clone(),
            )
            .unwrap();
        let par = CpuCtx::new(&p, &cfg)
            .run_parallel(&l, &bounds, 0..n as u64, &env, &mut heap, 12)
            .unwrap();
        assert!(
            par.time_s < seq.time_s / 4.0,
            "par {} vs seq {}",
            par.time_s,
            seq.time_s
        );
    }

    #[test]
    fn more_threads_than_cores_does_not_help() {
        let (p, l, env, heap, _, n) = setup(SCALE, "scale");
        let cfg = CpuConfig::default();
        let bounds = LoopBounds {
            start: 0,
            end: n as i64,
            step: 1,
        };
        let t12 = CpuCtx::new(&p, &cfg)
            .run_parallel(&l, &bounds, 0..n as u64, &env, &mut heap.clone(), 12)
            .unwrap();
        let t48 = CpuCtx::new(&p, &cfg)
            .run_parallel(&l, &bounds, 0..n as u64, &env, &mut heap.clone(), 48)
            .unwrap();
        // Oversubscription cannot beat the core count by more than noise.
        assert!(t48.time_s > t12.time_s * 0.8);
    }

    #[test]
    fn partial_range_executes_only_that_range() {
        let (p, l, env, mut heap, a, n) = setup(SCALE, "scale");
        let cfg = CpuConfig::default();
        let bounds = LoopBounds {
            start: 0,
            end: n as i64,
            step: 1,
        };
        CpuCtx::new(&p, &cfg)
            .run_parallel(&l, &bounds, 100..200, &env, &mut heap, 4)
            .unwrap();
        let vals = heap.read_doubles(a).unwrap();
        assert_eq!(vals[99], 1.5);
        assert_eq!(vals[150], 3.0);
        assert_eq!(vals[200], 1.5);
    }

    #[test]
    fn empty_range_is_free() {
        let (p, l, env, mut heap, _, _) = setup(SCALE, "scale");
        let cfg = CpuConfig::default();
        let bounds = LoopBounds {
            start: 0,
            end: 0,
            step: 1,
        };
        let r = CpuCtx::new(&p, &cfg)
            .run_parallel(&l, &bounds, 0..0, &env, &mut heap, 8)
            .unwrap();
        assert_eq!(r.time_s, 0.0);
        assert_eq!(r.threads_used, 0);
    }

    #[test]
    fn runtime_error_in_worker_propagates() {
        let src = "static void f(double[] a, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) { a[i + 5000] = 0.0; }
        }";
        let (p, l, env, mut heap, _, n) = setup(src, "f");
        let cfg = CpuConfig::default();
        let bounds = LoopBounds {
            start: 0,
            end: n as i64,
            step: 1,
        };
        let err = CpuCtx::new(&p, &cfg).run_parallel(&l, &bounds, 0..n as u64, &env, &mut heap, 8);
        assert!(matches!(
            err,
            Err(CpuExecError::Exec(ExecError::IndexOutOfBounds { .. }))
        ));
    }

    #[test]
    fn injected_chunk_fault_leaves_heap_untouched() {
        use japonica_faults::{FaultKind, FaultPlan, FaultRule};
        let (p, l, env, mut heap, a, n) = setup(SCALE, "scale");
        let cfg = CpuConfig::default();
        let bounds = LoopBounds {
            start: 0,
            end: n as i64,
            step: 1,
        };
        let plan = FaultPlan::new(1, vec![FaultRule::transient(FaultKind::CpuChunk, 1)]);
        let err = CpuCtx {
            faults: Some(&plan),
            origin: FaultOrigin::default(),
            ..CpuCtx::new(&p, &cfg)
        }
        .run_parallel(&l, &bounds, 0..n as u64, &env, &mut heap, 8);
        assert!(matches!(err, Err(CpuExecError::Fault(f)) if f.kind == FaultKind::CpuChunk));
        // Nothing committed: the batch can be resubmitted elsewhere.
        assert!(heap.read_doubles(a).unwrap().iter().all(|&v| v == 1.5));
        // The transient window has passed; the retry succeeds.
        CpuCtx {
            faults: Some(&plan),
            origin: FaultOrigin::default(),
            ..CpuCtx::new(&p, &cfg)
        }
        .run_parallel(&l, &bounds, 0..n as u64, &env, &mut heap, 8)
        .unwrap();
        assert!(heap.read_doubles(a).unwrap().iter().all(|&v| v == 3.0));
    }

    #[test]
    fn temp_heavy_loop_works_in_parallel() {
        // iteration-local temp array exercises the local-alloc path
        let src = "static void f(double[] a, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) {
                double[] t = new double[4];
                t[0] = a[i];
                t[1] = t[0] * 2.0;
                a[i] = t[1];
            }
        }";
        let (p, l, env, mut heap, a, n) = setup(src, "f");
        let cfg = CpuConfig::default();
        let bounds = LoopBounds {
            start: 0,
            end: n as i64,
            step: 1,
        };
        CpuCtx::new(&p, &cfg)
            .run_parallel(&l, &bounds, 0..n as u64, &env, &mut heap, 8)
            .unwrap();
        assert!(heap.read_doubles(a).unwrap().iter().all(|&v| v == 3.0));
    }
}
