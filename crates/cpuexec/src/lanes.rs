//! Lane-batched execution of iteration ranges proven free of
//! cross-iteration dependences: up to 32 consecutive iterations at a time
//! through the SIMT simulator's lane sweeps ([`SimtVm::run_lanes`]), on the
//! calling thread, straight against the host heap.
//!
//! Nothing simulated can tell the difference from the scalar VM. Each
//! lane's ops are counted exactly as `ScalarVm` would count that iteration
//! and folded into the simulated thread that owns it (a batch may straddle
//! simulated-thread chunk boundaries); independent iterations leave the
//! same heap in any interleaving; and a batch in which any lane raises is
//! undone from the store log and handed back to the caller, which replays
//! it on the scalar path — the owner of every error.

use japonica_gpusim::{AccessCtx, LaneCounts, LaneMemory, LanePlan, SimtVm};
use japonica_ir::{
    ArrayId, CompiledKernel, Env, ExecError, Heap, LoopBounds, OpCounts, Value, VarId,
};
use std::ops::Range;

/// The host heap as lane memory, logging what every store overwrote.
struct HeapLanes<'h> {
    heap: &'h mut Heap,
    undo: Vec<(ArrayId, i64, Value)>,
}

impl HeapLanes<'_> {
    /// Undo every logged store, newest first.
    fn roll_back(&mut self) {
        for (arr, idx, old) in self.undo.drain(..).rev() {
            // `old` was read from this very element, so it fits.
            let restored = self.heap.store(arr, idx, old);
            debug_assert!(restored.is_ok(), "restoring a logged element cannot fail");
        }
    }
}

impl LaneMemory for HeapLanes<'_> {
    fn load(&mut self, _: AccessCtx, arr: ArrayId, idx: i64) -> Result<Value, ExecError> {
        self.heap.load(arr, idx)
    }

    fn store(&mut self, _: AccessCtx, arr: ArrayId, idx: i64, v: Value) -> Result<(), ExecError> {
        let old = self.heap.load(arr, idx)?;
        self.heap.store(arr, idx, v)?;
        self.undo.push((arr, idx, old));
        Ok(())
    }

    fn array_len(&self, arr: ArrayId) -> Result<usize, ExecError> {
        self.heap.len_of(arr)
    }

    /// CPU accounting has no coalescing model to feed.
    fn placement(&self, _: ArrayId) -> Option<(u64, u64)> {
        None
    }
}

/// Run the iterations covered by `owners` — the contiguous, ascending,
/// non-empty chunks of the simulated threads — in lane batches, adding each
/// iteration's op counts to its owner's entry of `counts` and writing the
/// variables the body binds back to `env` batch by batch.
///
/// `Err(k)` means the batch starting at iteration `k` could not finish in
/// lockstep. Its stores are undone, and under `atomic` so are those of
/// every batch before it (the whole range commits or nothing does);
/// otherwise heap, `env` and `counts` hold exactly the iterations before
/// `k`, ready for a scalar replay from there.
#[allow(clippy::too_many_arguments)] // the chunk-dispatch signature plus attribution
pub(crate) fn run_batches(
    kernel: &CompiledKernel,
    plan: &LanePlan,
    loop_var: VarId,
    bounds: &LoopBounds,
    owners: &[Range<u64>],
    env: &mut Env,
    heap: &mut Heap,
    counts: &mut [OpCounts],
    atomic: bool,
) -> Result<(), u64> {
    let (Some(first), Some(last)) = (owners.first(), owners.last()) else {
        return Ok(());
    };
    let end = last.end;
    let mut mem = HeapLanes {
        heap,
        undo: Vec::new(),
    };
    let mut vm = SimtVm::new();
    let mut tally = LaneCounts::new();
    let mut owner = 0usize;
    let mut k = first.start;
    while k < end {
        let lanes = (end - k).min(32) as usize;
        if !atomic {
            mem.undo.clear();
        }
        let ran = vm.run_lanes(
            kernel, plan, loop_var, bounds, k, lanes, env, &mut mem, &mut tally,
        );
        if ran.is_err() {
            mem.roll_back();
            return Err(k);
        }
        let batch_end = k + lanes as u64;
        let mut lo = k;
        while lo < batch_end {
            let hi = owners[owner].end.min(batch_end);
            tally.fold((lo - k) as usize..(hi - k) as usize, &mut counts[owner]);
            if hi == owners[owner].end {
                owner += 1;
            }
            lo = hi;
        }
        k = batch_end;
    }
    Ok(())
}
