//! Lane-batched execution of iteration ranges: up to 32 consecutive
//! iterations at a time through the SIMT simulator's lane sweeps
//! ([`SimtVm::run_lanes`]), on the calling thread, straight against a
//! memory that can undo a batch ([`UndoLanes`]: the host heap, a chunk's
//! deferred-write buffer, journaled device memory).
//!
//! Lockstep is only sequential execution when no iteration of a batch reads
//! or overwrites what another one writes. Static analysis proves that for
//! some loops; for every other one [`Checked`] verifies it access by access
//! and fails the batch at the first access that breaks it, before any lane
//! can use a value a foreign lane produced.
//!
//! Nothing simulated can tell the difference from the scalar VM. Each
//! lane's ops are counted exactly as `ScalarVm` would count that iteration
//! and folded into the simulated thread that owns it (a batch may straddle
//! simulated-thread chunk boundaries); a conflict-free batch leaves the
//! memory its iterations leave in order; and a batch in which any lane
//! raises — an execution error, a conflict, an exhausted sweep budget — is
//! undone from the store log and handed back to the caller, which replays
//! it on the scalar path — the owner of every error.

use crate::executor::Independence;
use japonica_gpusim::{
    gather_warp, AccessCtx, JournaledMemory, LaneCounts, LaneMemory, LanePlan, SimtVm, WarpAccess,
};
use japonica_ir::{
    ArrayId, CompiledKernel, Env, ExecError, Heap, LoopBounds, OpCounts, Value, VarId,
};
use std::hash::{BuildHasher, RandomState};
use std::ops::Range;

/// Lane memory that logs what its stores overwrite, so a batch that cannot
/// finish in lockstep leaves no trace.
pub trait UndoLanes: LaneMemory {
    /// Keep every store so far for good: the log starts over.
    fn keep(&mut self);
    /// Undo every store since the last [`keep`](UndoLanes::keep), newest
    /// first.
    fn roll_back(&mut self);
}

/// The host heap as lane memory.
pub(crate) struct HeapLanes<'h> {
    pub heap: &'h mut Heap,
    undo: Vec<(ArrayId, i64, Value)>,
}

impl<'h> HeapLanes<'h> {
    pub fn new(heap: &'h mut Heap) -> HeapLanes<'h> {
        HeapLanes {
            heap,
            undo: Vec::new(),
        }
    }
}

impl UndoLanes for HeapLanes<'_> {
    fn keep(&mut self) {
        self.undo.clear();
    }

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

    /// Loads read the heap as it is; only stores are logged.
    fn load_warp(&mut self, acc: &WarpAccess<'_>, row: &mut [Value]) -> usize {
        gather_warp(acc, row, |arr| self.heap.array(arr).ok())
    }
}

impl UndoLanes for JournaledMemory<'_> {
    fn keep(&mut self) {
        JournaledMemory::keep(self);
    }

    fn roll_back(&mut self) {
        JournaledMemory::roll_back(self);
    }
}

/// No lane has touched the location in this role.
const NOBODY: u8 = u8::MAX;
/// More than one lane has loaded the location.
const SEVERAL: u8 = u8::MAX - 1;

/// Who touched one `(array, index)` during the batch stamped `epoch`.
#[derive(Clone, Copy)]
struct Touch {
    idx: i64,
    arr: u32,
    epoch: u32,
    /// The lane that loaded it, [`SEVERAL`] or [`NOBODY`].
    loader: u8,
    /// The lane that stored it, or [`NOBODY`].
    storer: u8,
}

/// The locations one batch has touched: an open-addressed table whose
/// entries expire when the epoch moves on, so starting a batch costs
/// nothing, and which doubles whenever a batch fills half of it — a large
/// footprint is a reason to grow, not to go scalar.
struct Touched {
    slots: Vec<Touch>,
    /// `64 - log2(slots.len())`.
    shift: u32,
    epoch: u32,
    /// Slots claimed during the current epoch.
    live: usize,
    /// Indices come from the program's input; a per-table key keeps a
    /// crafted index array from lining its probes up.
    key: u64,
}

impl Touched {
    const VACANT: Touch = Touch {
        idx: 0,
        arr: 0,
        epoch: 0,
        loader: NOBODY,
        storer: NOBODY,
    };

    fn new() -> Touched {
        Touched {
            slots: Vec::new(),
            shift: 64,
            epoch: 1,
            live: 0,
            key: RandomState::new().hash_one(0u8),
        }
    }

    /// Forget the batch: every entry is vacant again.
    fn next_batch(&mut self) {
        self.live = 0;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamps from 2^32 batches ago must not read as current.
            self.slots.fill(Touched::VACANT);
            self.epoch = 1;
        }
    }

    #[inline]
    fn home(&self, arr: u32, idx: i64) -> usize {
        let k = (idx as u64 ^ u64::from(arr).rotate_left(40) ^ self.key)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Fibonacci hashing: the product's top bits are its best mixed.
        (k >> self.shift) as usize
    }

    /// The batch's entry for `(arr, idx)`, claimed on first touch.
    #[inline]
    fn entry(&mut self, arr: ArrayId, idx: i64) -> &mut Touch {
        if (self.live + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(arr.0, idx);
        loop {
            let t = self.slots[i];
            if t.epoch != self.epoch {
                self.live += 1;
                self.slots[i] = Touch {
                    idx,
                    arr: arr.0,
                    epoch: self.epoch,
                    ..Touched::VACANT
                };
                break;
            }
            if t.idx == idx && t.arr == arr.0 {
                break;
            }
            i = (i + 1) & mask;
        }
        &mut self.slots[i]
    }

    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(1024);
        let old = std::mem::replace(&mut self.slots, vec![Touched::VACANT; len]);
        self.shift = 64 - len.trailing_zeros();
        for t in old.into_iter().filter(|t| t.epoch == self.epoch) {
            let mut i = self.home(t.arr, t.idx);
            while self.slots[i].epoch == self.epoch {
                i = (i + 1) & (len - 1);
            }
            self.slots[i] = t;
        }
    }
}

fn conflict() -> ExecError {
    ExecError::Aborted("cross-lane conflict".into())
}

/// A lane memory behind the run-time stand-in for an independence proof.
/// Per batch it remembers which lane loaded and which lane stored every
/// location, and refuses — at the access — a load of what another lane
/// stored and a store to what another lane loaded or stored. No lane ever
/// continues on a value a foreign lane produced, so a batch that gets
/// through executed exactly as its iterations would have in order, and one
/// that does not is rolled back like any erroring batch.
/// [`Independence::Proven`] loops skip the check; nothing else differs.
pub struct Checked<M> {
    mem: M,
    touched: Option<Touched>,
}

impl<M: UndoLanes> Checked<M> {
    /// `mem`, verified unless `independence` says it need not be.
    pub fn new(mem: M, independence: Independence) -> Checked<M> {
        Checked {
            mem,
            touched: (independence == Independence::Unproven).then(Touched::new),
        }
    }
}

impl<M: UndoLanes> LaneMemory for Checked<M> {
    #[inline]
    fn load(&mut self, ctx: AccessCtx, arr: ArrayId, idx: i64) -> Result<Value, ExecError> {
        if let Some(touched) = &mut self.touched {
            let lane = ctx.lane as u8;
            let t = touched.entry(arr, idx);
            if t.storer != NOBODY && t.storer != lane {
                return Err(conflict());
            }
            t.loader = if t.loader == NOBODY || t.loader == lane {
                lane
            } else {
                SEVERAL
            };
        }
        self.mem.load(ctx, arr, idx)
    }

    #[inline]
    fn store(&mut self, ctx: AccessCtx, arr: ArrayId, idx: i64, v: Value) -> Result<(), ExecError> {
        if let Some(touched) = &mut self.touched {
            let lane = ctx.lane as u8;
            let t = touched.entry(arr, idx);
            let mine = |who: u8| who == NOBODY || who == lane;
            if !mine(t.storer) || !mine(t.loader) {
                return Err(conflict());
            }
            t.storer = lane;
        }
        self.mem.store(ctx, arr, idx, v)
    }

    fn array_len(&self, arr: ArrayId) -> Result<usize, ExecError> {
        self.mem.array_len(arr)
    }

    fn placement(&self, arr: ArrayId) -> Option<(u64, u64)> {
        self.mem.placement(arr)
    }

    /// A checked batch must see every load; a proven one reads through.
    fn load_warp(&mut self, acc: &WarpAccess<'_>, row: &mut [Value]) -> usize {
        match self.touched {
            Some(_) => 0,
            None => self.mem.load_warp(acc, row),
        }
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
/// otherwise memory, `env` and `counts` hold exactly the iterations before
/// `k`, ready for a scalar replay from there.
#[allow(clippy::too_many_arguments)] // the chunk-dispatch signature plus attribution
pub(crate) fn run_batches<M: UndoLanes>(
    kernel: &CompiledKernel,
    plan: &LanePlan,
    loop_var: VarId,
    bounds: &LoopBounds,
    owners: &[Range<u64>],
    env: &mut Env,
    mem: &mut Checked<M>,
    counts: &mut [OpCounts],
    atomic: bool,
) -> Result<(), u64> {
    let (Some(first), Some(last)) = (owners.first(), owners.last()) else {
        return Ok(());
    };
    let end = last.end;
    let mut vm = SimtVm::new();
    let mut tally = LaneCounts::new();
    let mut owner = 0usize;
    let mut k = first.start;
    while k < end {
        let lanes = (end - k).min(32) as usize;
        if !atomic {
            mem.mem.keep();
        }
        let checked = match &mut mem.touched {
            Some(touched) => {
                touched.next_batch();
                true
            }
            None => false,
        };
        let ran = vm.run_lanes(
            kernel, plan, loop_var, bounds, k, lanes, env, mem, &mut tally, checked,
        );
        if ran.is_err() {
            mem.mem.roll_back();
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

/// Run iterations `range` in order — in lane batches wherever they get
/// through, on `scalar` wherever they do not — returning every op charged
/// and leaving `env` as the last executed iteration left it, on error too.
///
/// A batch that fails is undone and replayed by `scalar` (which gets the
/// memory under the check, the iterations to run and `env`, and returns
/// the ops it charged), then lanes resume. Failures in a row back off
/// geometrically: the `f`-th consecutive one hands `32 << f` iterations to
/// `scalar` (the failed batch alone at first), and a batch that gets
/// through resets `f`. A loop with a conflict here and there loses one
/// batch per conflict; one that conflicts everywhere wastes `O(log n)`
/// batches on finding out.
#[allow(clippy::too_many_arguments)] // the chunk-dispatch signature plus the replay
pub fn run_with_replay<M: UndoLanes>(
    kernel: &CompiledKernel,
    plan: &LanePlan,
    loop_var: VarId,
    bounds: &LoopBounds,
    range: Range<u64>,
    env: &mut Env,
    mem: &mut Checked<M>,
    mut scalar: impl FnMut(&mut M, Range<u64>, &mut Env) -> Result<OpCounts, ExecError>,
) -> Result<OpCounts, ExecError> {
    let mut counts = OpCounts::new();
    let mut k = range.start;
    let mut failures = 0u32;
    while k < range.end {
        let rest = k..range.end;
        let owner = std::slice::from_ref(&rest);
        let thread = std::slice::from_mut(&mut counts);
        let Err(at) = run_batches(
            kernel, plan, loop_var, bounds, owner, env, mem, thread, false,
        ) else {
            break;
        };
        if at > k {
            failures = 0;
        }
        let span = (1u64 << (5 + failures).min(63)).min(range.end - at);
        counts.merge(&scalar(&mut mem.mem, at..at + span, env)?);
        failures += 1;
        k = at + span;
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use japonica_frontend::compile_source;
    use japonica_ir::{compile_kernel, CountingBackend, HeapBackend, ScalarVm};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn at(lane: u32) -> AccessCtx {
        AccessCtx {
            lane,
            warp: 0,
            iter: u64::from(lane),
        }
    }

    #[test]
    fn a_batch_fails_at_the_access_that_meets_a_foreign_store_or_disturbs_a_foreign_access() {
        let mut heap = Heap::new();
        let a = heap.alloc_ints(&[0; 2000]);
        let mut mem = Checked::new(HeapLanes::new(&mut heap), Independence::Unproven);
        let next_batch = |mem: &mut Checked<HeapLanes>| {
            mem.touched.as_mut().unwrap().next_batch();
        };
        let v = Value::Int(7);

        // A lane's own loads and stores, in any order, and any number of
        // lanes loading the same element: no conflict.
        next_batch(&mut mem);
        mem.store(at(3), a, 0, v).unwrap();
        assert_eq!(mem.load(at(3), a, 0), Ok(v));
        mem.store(at(3), a, 0, v).unwrap();
        mem.load(at(1), a, 1).unwrap();
        mem.load(at(2), a, 1).unwrap();
        // Loading what another lane stored.
        assert_eq!(mem.load(at(4), a, 0), Err(conflict()));
        // Storing what another lane stored; what other lanes loaded, even
        // when the storing lane is one of the loaders.
        assert_eq!(mem.store(at(4), a, 0, v), Err(conflict()));
        assert_eq!(mem.store(at(5), a, 1, v), Err(conflict()));
        assert_eq!(mem.store(at(1), a, 1, v), Err(conflict()));
        // The refused store never reached the heap; the rest rolls back.
        assert_eq!(mem.mem.heap.load(a, 1), Ok(Value::Int(0)));
        mem.mem.roll_back();
        assert_eq!(mem.mem.heap.load(a, 0), Ok(Value::Int(0)));

        // A new batch remembers nothing, however much the last one touched
        // (1500 elements: the table grew past its first 1024 slots).
        next_batch(&mut mem);
        for i in 0..1500 {
            mem.store(at(0), a, i, v).unwrap();
        }
        assert_eq!(mem.load(at(9), a, 1499), Err(conflict()));
        next_batch(&mut mem);
        for i in 0..1500 {
            assert_eq!(mem.load(at(9), a, i), Ok(v));
        }

        // A proven loop is not checked at all.
        let mut proven = Checked::new(HeapLanes::new(&mut heap), Independence::Proven);
        proven.store(at(0), a, 0, v).unwrap();
        proven.load(at(1), a, 0).unwrap();
    }

    /// The spans `run_with_replay` hands to the scalar VM over `0..n` of a
    /// loop whose iteration `i` reads `a[i - 1]` wherever `dependent` holds.
    fn replayed_spans(dependent: &str, n: i32) -> Vec<Range<u64>> {
        let src = format!(
            "static void f(double[] a, int n) {{
                /* acc parallel */
                for (int i = 1; i < n; i++) {{
                    if ({dependent}) {{ a[i] = a[i - 1] * 0.5; }} else {{ a[i] = a[i] + 1.0; }}
                }}
            }}"
        );
        let program = compile_source(&src).unwrap();
        let f = &program.functions[0];
        let loop_ = f.all_loops()[0].clone();
        let kernel = compile_kernel(&program, &loop_).unwrap();
        let plan = LanePlan::of(&kernel).unwrap();
        let mut heap = Heap::new();
        let a = heap.alloc_doubles(&vec![1.0; n as usize]);
        let mut env = Env::with_slots(f.num_vars);
        env.set(f.params[0].var, Value::Array(a));
        env.set(f.params[1].var, Value::Int(n));
        let bounds = LoopBounds {
            start: 1,
            end: i64::from(n),
            step: 1,
        };
        let mut spans = Vec::new();
        let mut mem = Checked::new(HeapLanes::new(&mut heap), Independence::Unproven);
        run_with_replay(
            &kernel,
            &plan,
            loop_.var,
            &bounds,
            0..bounds.trip(),
            &mut env,
            &mut mem,
            |mem, span, env| {
                spans.push(span.clone());
                let mut be = CountingBackend::new(HeapBackend::new(mem.heap));
                let (lo, hi) = (span.start, span.end);
                ScalarVm::new().exec_range(&kernel, loop_.var, &bounds, lo, hi, env, &mut be)?;
                Ok(be.counts)
            },
        )
        .unwrap();
        spans
    }

    #[test]
    fn a_failed_batch_is_replayed_alone_and_failures_in_a_row_back_off_geometrically() {
        // Dense: every batch conflicts, so each replay doubles.
        assert_eq!(
            replayed_spans("i > 0", 1001),
            [0..32, 32..96, 96..224, 224..480, 480..992, 992..1000]
        );
        // Sparse: iterations 70 and 200 (`i` = 71, 201) each cost their
        // own batch and nothing else — the success in between resets.
        assert_eq!(
            replayed_spans("i == 71 || i == 201", 1001),
            [64..96, 192..224]
        );
        // Two failures in a row, then clear again.
        assert_eq!(
            replayed_spans("i == 71 || i == 100", 1001),
            [64..96, 96..160]
        );
        assert_eq!(replayed_spans("i < 0", 1001), []);
    }

    /// Iterations whose lanes diverge on their data, load through an index
    /// array, shift `long`s by `int`s and never touch what another
    /// iteration stores.
    const GATHERING: &str = "static void f(double[] x, int[] ix, long[] m, double[] y, int n) {
        /* acc parallel */
        for (int i = 0; i < n; i++) {
            long k = m[i] << 3;
            if (k > 0) { y[i] = x[ix[i]] * 2.0 + k; } else { y[i] = x[i] - x[0]; }
        }
    }";

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// A proven batch loads each warp in one gather from the heap; an
        /// unproven one goes lane by lane through the conflict check. On
        /// iterations that do not conflict — a bad index on a middle lane
        /// included — both leave the same heap, `env`, counts and error.
        #[test]
        fn a_proven_batch_gathers_what_a_checked_one_loads_lane_by_lane(seed in any::<u64>()) {
            let mut rng = TestRng::from_seed(seed);
            let program = compile_source(GATHERING).unwrap();
            let f = &program.functions[0];
            let loop_ = f.all_loops()[0].clone();
            let kernel = compile_kernel(&program, &loop_).unwrap();
            let plan = LanePlan::of(&kernel).unwrap();
            let n = 64usize;
            let mut ix: Vec<i32> = (0..n).map(|_| rng.below(n as u64) as i32).collect();
            if rng.below(2) == 0 {
                ix[1 + rng.below(30) as usize] = [-1, n as i32][rng.below(2) as usize];
            }
            let m: Vec<i64> = (0..n).map(|_| rng.below(5) as i64 - 2).collect();
            let mut heap = Heap::new();
            let x = heap.alloc_doubles(&(0..n).map(|i| i as f64 * 0.75).collect::<Vec<_>>());
            let ids = [x, heap.alloc_ints(&ix), heap.alloc_longs(&m), heap.alloc_doubles(&[0.0; 64])];
            let mut env = Env::with_slots(f.num_vars);
            for (p, id) in f.params.iter().zip(ids) {
                env.set(p.var, Value::Array(id));
            }
            env.set(f.params[4].var, Value::Int(n as i32));
            let bounds = LoopBounds { start: 0, end: n as i64, step: 1 };
            let (first, lanes) = (rng.below(32), 1 + rng.below(32) as usize);
            let runs = [Independence::Proven, Independence::Unproven].map(|independence| {
                let (mut heap, mut env) = (heap.clone(), env.clone());
                let mut mem = Checked::new(HeapLanes::new(&mut heap), independence);
                let iters = [0u64; 2];
                let gathers = ids.iter().all(|&a| {
                    let lanes = [(0, a, 0), (1, a, 1)];
                    let acc = WarpAccess { warp: 0, iters: &iters, lanes: &lanes };
                    mem.load_warp(&acc, &mut [Value::Int(0); 2]) == 2
                });
                if let Some(touched) = &mut mem.touched {
                    touched.next_batch();
                }
                let mut tally = LaneCounts::new();
                let ran = SimtVm::new().run_lanes(
                    &kernel, &plan, loop_.var, &bounds, first, lanes, &mut env, &mut mem,
                    &mut tally, independence == Independence::Unproven,
                );
                let counts: Vec<OpCounts> = (0..lanes)
                    .map(|l| {
                        let mut one = OpCounts::new();
                        tally.fold(l..l + 1, &mut one);
                        one
                    })
                    .collect();
                let y: Vec<u64> = heap.read_doubles(ids[3]).unwrap().iter().map(|v| v.to_bits()).collect();
                let env = (0..f.num_vars).map(|v| env.get(VarId(v)).ok()).collect::<Vec<_>>();
                (gathers, ran, y, format!("{env:?}"), counts)
            });
            let [proven, checked] = runs;
            prop_assert!(proven.0 && !checked.0, "only a proven batch hands out arrays");
            prop_assert_eq!(&proven.1, &checked.1);
            prop_assert_eq!(&proven.2, &checked.2);
            if proven.1.is_ok() {
                prop_assert_eq!(&proven.3, &checked.3);
                prop_assert_eq!(&proven.4, &checked.4);
            }
        }
    }
}
