//! Device global memory, host↔device transfers, and the [`LaneMemory`]
//! abstraction the SIMT interpreter executes against.

use crate::config::DeviceConfig;
use crate::simt::SimtError;
use japonica_faults::{FaultOrigin, FaultPlan};
use japonica_ir::{ArrayData, ArrayId, ExecError, Heap, Ty, Value};
use std::collections::BTreeMap;

/// Execution context of a single lane access, given to [`LaneMemory`]
/// implementations so wrappers (TLS buffers, profiler traces) know *which
/// iteration* performed the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessCtx {
    /// Lane index within the warp.
    pub lane: u32,
    /// Global warp index within the kernel.
    pub warp: u32,
    /// The 0-based loop iteration this thread executes.
    pub iter: u64,
}

/// Coordinator-side stores (absorbing a warp's delta, undoing a journal)
/// belong to no lane.
const COORDINATOR_CTX: AccessCtx = AccessCtx {
    lane: 0,
    warp: 0,
    iter: 0,
};

/// Per-lane memory interface of the SIMT interpreter.
///
/// `DeviceMemory` implements it directly; the GPU-TLS engine and the
/// dependency profiler wrap it.
pub trait LaneMemory {
    /// Load one element.
    fn load(&mut self, ctx: AccessCtx, arr: ArrayId, idx: i64) -> Result<Value, ExecError>;
    /// Store one element.
    fn store(&mut self, ctx: AccessCtx, arr: ArrayId, idx: i64, v: Value) -> Result<(), ExecError>;
    /// Array length.
    fn array_len(&self, arr: ArrayId) -> Result<usize, ExecError>;
    /// Where the array sits in the flat device address space, for the
    /// coalescing model: `(base byte address, element bytes)`. A warp
    /// access resolves this once per array, not once per lane. `None`
    /// disables coalescing accounting for accesses to that array.
    fn placement(&self, arr: ArrayId) -> Option<(u64, u64)>;
    /// Flat device byte address of an element (`None` for negative indices
    /// and arrays without a [`placement`](LaneMemory::placement)).
    fn address_of(&self, arr: ArrayId, idx: i64) -> Option<u64> {
        let (base, elem) = self.placement(arr)?;
        (idx >= 0).then(|| base + idx as u64 * elem)
    }
    /// Extra issue cycles a wrapper charges per memory access (the TLS
    /// engine uses this to model its metadata bookkeeping).
    fn overhead_cycles(&self) -> f64 {
        0.0
    }
    /// Load a prefix of a warp access's lanes, in lane order, into
    /// `row[lane]`; returns how many lanes it loaded. It stops before the
    /// first lane whose [`load`](LaneMemory::load) would fail, so loading the
    /// remaining lanes one by one raises exactly that lane's error, and
    /// whatever it records or buffers is exactly what calling `load` on each
    /// loaded lane in order records or buffers. [`WarpAccess::load`] is the
    /// one caller. The default loads nothing: every lane goes through `load`.
    fn load_warp(&mut self, _acc: &WarpAccess<'_>, _row: &mut [Value]) -> usize {
        0
    }
    /// [`load_warp`](LaneMemory::load_warp) for stores: store `row[lane]`
    /// for a prefix of the lanes, in lane order, stopping before the first
    /// lane whose [`store`](LaneMemory::store) would fail.
    fn store_warp(&mut self, _acc: &WarpAccess<'_>, _row: &[Value]) -> usize {
        0
    }
}

/// One warp memory access as the lane sweeps hand it to a [`LaneMemory`]:
/// every accessing lane's `(lane, array, index)`, lanes ascending, and the
/// iterations the lanes run.
#[derive(Debug, Clone, Copy)]
pub struct WarpAccess<'a> {
    /// Global warp index within the kernel.
    pub warp: u32,
    /// The loop iteration of every lane of the warp, indexed by lane.
    pub iters: &'a [u64],
    /// `(lane, array, index)` of each accessing lane, lanes ascending.
    pub lanes: &'a [(usize, ArrayId, i64)],
}

impl<'a> WarpAccess<'a> {
    /// The context of lane `lane`'s access.
    #[inline]
    pub fn ctx(&self, lane: usize) -> AccessCtx {
        AccessCtx {
            lane: lane as u32,
            warp: self.warp,
            iter: self.iters[lane],
        }
    }

    /// Runs of consecutive lanes naming one array, in lane order — in
    /// practice the whole warp is one run.
    pub fn runs(&self) -> impl Iterator<Item = (ArrayId, &'a [(usize, ArrayId, i64)])> {
        self.lanes
            .chunk_by(|a, b| a.1 == b.1)
            .map(|run| (run[0].1, run))
    }

    /// Load every lane into `row[lane]`: the memory's
    /// [`load_warp`](LaneMemory::load_warp), then lane by lane from the
    /// first lane it left. The first lane that fails ends the access with
    /// its lane and error.
    pub fn load<M: LaneMemory + ?Sized>(
        &self,
        mem: &mut M,
        row: &mut [Value],
    ) -> Result<(), (usize, ExecError)> {
        let done = mem.load_warp(self, row);
        for &(l, arr, idx) in &self.lanes[done..] {
            row[l] = mem.load(self.ctx(l), arr, idx).map_err(|e| (l, e))?;
        }
        Ok(())
    }

    /// Store `row[lane]` on every lane: [`store_warp`](LaneMemory::store_warp),
    /// then lane by lane, like [`load`](WarpAccess::load).
    pub fn store<M: LaneMemory + ?Sized>(
        &self,
        mem: &mut M,
        row: &[Value],
    ) -> Result<(), (usize, ExecError)> {
        let done = mem.store_warp(self, row);
        for &(l, arr, idx) in &self.lanes[done..] {
            mem.store(self.ctx(l), arr, idx, row[l])
                .map_err(|e| (l, e))?;
        }
        Ok(())
    }
}

/// [`LaneMemory::load_warp`] for a memory whose loads are nothing but
/// reads of the arrays `array` resolves: one typed gather per run of lanes
/// naming one array, up to the first unknown array or index out of bounds.
pub fn gather_warp<'d>(
    acc: &WarpAccess<'_>,
    row: &mut [Value],
    array: impl Fn(ArrayId) -> Option<&'d ArrayData>,
) -> usize {
    #[inline(always)]
    fn run<T: Copy>(
        elems: &[T],
        lanes: &[(usize, ArrayId, i64)],
        row: &mut [Value],
        val: impl Fn(T) -> Value,
    ) -> usize {
        for (k, &(l, _, i)) in lanes.iter().enumerate() {
            match usize::try_from(i).ok().and_then(|i| elems.get(i)) {
                Some(&x) => row[l] = val(x),
                None => return k,
            }
        }
        lanes.len()
    }
    let mut done = 0;
    for (arr, lanes) in acc.runs() {
        let Some(data) = array(arr) else { break };
        let n = match data {
            ArrayData::Bool(v) => run(v, lanes, row, Value::Bool),
            ArrayData::Int(v) => run(v, lanes, row, Value::Int),
            ArrayData::Long(v) => run(v, lanes, row, Value::Long),
            ArrayData::Float(v) => run(v, lanes, row, Value::Float),
            ArrayData::Double(v) => run(v, lanes, row, Value::Double),
        };
        done += n;
        if n < lanes.len() {
            break;
        }
    }
    done
}

/// Lane memory that can hand each warp an independent, sendable view for
/// host-parallel simulation.
///
/// The contract that keeps the parallel launch path bit-identical to the
/// sequential one: a view created by [`fork`](ParallelLaneMemory::fork)
/// reads the pre-launch state and buffers its own stores; the coordinator
/// [`absorb`](ParallelLaneMemory::absorb)s the harvested deltas in global
/// warp order, so write-after-write resolution and every order-sensitive
/// merge (f64 sums, metadata lists) replay the sequential schedule exactly.
pub trait ParallelLaneMemory: LaneMemory {
    /// The per-warp view warps execute against on worker threads.
    type View<'v>: LaneMemory + Send
    where
        Self: 'v;
    /// The owned result of one warp's execution, sent back to the
    /// coordinator.
    type Delta: Send;

    /// A fresh view over the pre-launch state.
    fn fork(&self) -> Self::View<'_>;
    /// Extract a finished view's buffered effects.
    fn harvest(view: Self::View<'_>) -> Self::Delta;
    /// Apply one warp's effects; called in ascending warp order.
    fn absorb(&mut self, delta: Self::Delta) -> Result<(), ExecError>;
}

/// A flat list of `(location, value)` stores, as a launch's memory hands
/// them back for mirroring onto the host heap.
pub type WriteList = Vec<((ArrayId, i64), Value)>;

/// A recorded host↔device transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct Transfer {
    /// The array moved.
    pub array: ArrayId,
    /// Bytes moved.
    pub bytes: usize,
    /// Host-to-device (`true`) or device-to-host.
    pub to_device: bool,
    /// Simulated seconds the transfer occupies on the PCIe link.
    pub seconds: f64,
}

/// One resident array: its device mirror and its base byte address.
#[derive(Debug, Clone)]
struct Slot {
    data: ArrayData,
    base: u64,
}

/// The simulated device global memory: a mirror of selected host arrays
/// plus a flat address map for coalescing analysis.
///
/// Arrays live in a dense slot table indexed by `ArrayId.0`: host heap ids
/// are sequential from zero, so every per-lane access is one indexed load.
/// The local-temp ids that sequential recovery backends mint from
/// `u32::MAX / 2` upwards are never made resident (they index past the
/// table and miss as [`ExecError::UnknownArray`]).
#[derive(Debug, Clone, Default)]
pub struct DeviceMemory {
    slots: Vec<Option<Slot>>,
    next_base: u64,
    /// Log of all transfers performed (in order).
    pub transfers: Vec<Transfer>,
}

impl DeviceMemory {
    /// Empty device memory.
    pub fn new() -> DeviceMemory {
        DeviceMemory::default()
    }

    #[inline]
    fn slot(&self, arr: ArrayId) -> Result<&Slot, ExecError> {
        match self.slots.get(arr.0 as usize) {
            Some(Some(slot)) => Ok(slot),
            _ => Err(ExecError::UnknownArray(arr)),
        }
    }

    /// Is the array resident on the device?
    pub fn is_resident(&self, arr: ArrayId) -> bool {
        self.slot(arr).is_ok()
    }

    /// `create` clause: allocate a device-only zeroed mirror. Re-allocating
    /// a resident array keeps its base address.
    ///
    /// # Panics
    /// On a local-temp id (`>= u32::MAX / 2`): those arrays belong to a
    /// sequential backend and making one resident is a runtime bug.
    pub fn alloc(&mut self, arr: ArrayId, ty: Ty, len: usize) {
        assert!(
            arr.0 < u32::MAX / 2,
            "{arr} is a backend-local temporary, not a heap array"
        );
        let i = arr.0 as usize;
        if self.slots.len() <= i {
            self.slots.resize(i + 1, None);
        }
        let data = ArrayData::zeroed(ty, len);
        let base = match &self.slots[i] {
            Some(old) => old.base,
            None => {
                // Segment-align every allocation.
                let aligned = (data.size_bytes() + 255) & !255;
                let base = self.next_base;
                self.next_base += aligned as u64 + 256;
                base
            }
        };
        self.slots[i] = Some(Slot { data, base });
    }

    fn log_transfer(
        &mut self,
        arr: ArrayId,
        elems: usize,
        ty: Ty,
        to_device: bool,
        cfg: &DeviceConfig,
    ) -> f64 {
        let bytes = elems * ty.size_bytes();
        let seconds = cfg.transfer_seconds(bytes);
        self.transfers.push(Transfer {
            array: arr,
            bytes,
            to_device,
            seconds,
        });
        seconds
    }

    /// `copyin`: allocate (if needed) and copy `host[lo..hi]` to the device,
    /// recording the simulated transfer. Returns the transfer time.
    pub fn copy_in(
        &mut self,
        host: &Heap,
        arr: ArrayId,
        lo: usize,
        hi: usize,
        cfg: &DeviceConfig,
    ) -> Result<f64, ExecError> {
        let src = host.array(arr)?;
        let hi = hi.min(src.len());
        if !self.is_resident(arr) {
            self.alloc(arr, src.ty(), src.len());
        }
        self.array_mut(arr)?.copy_range_from(src, lo, hi)?;
        Ok(self.log_transfer(arr, hi.saturating_sub(lo), src.ty(), true, cfg))
    }

    /// `copyout`: copy `device[lo..hi]` back to the host heap.
    pub fn copy_out(
        &mut self,
        host: &mut Heap,
        arr: ArrayId,
        lo: usize,
        hi: usize,
        cfg: &DeviceConfig,
    ) -> Result<f64, ExecError> {
        let src = &self.slot(arr)?.data;
        let hi = hi.min(src.len());
        let dst = host.array_mut(arr)?;
        if lo < hi {
            dst.index_of(arr, hi as i64 - 1)?;
        }
        dst.copy_range_from(src, lo, hi)?;
        let ty = src.ty();
        Ok(self.log_transfer(arr, hi.saturating_sub(lo), ty, false, cfg))
    }

    /// [`DeviceMemory::copy_in`] with an optional fault-injection plan. The
    /// plan is consulted *before* any element moves, so a fired fault leaves
    /// both heaps untouched and the transfer can be retried or rerouted.
    #[allow(clippy::too_many_arguments)] // copy_in plus the fault hooks
    pub fn copy_in_guarded(
        &mut self,
        host: &Heap,
        arr: ArrayId,
        lo: usize,
        hi: usize,
        cfg: &DeviceConfig,
        faults: Option<&FaultPlan>,
        origin: FaultOrigin,
    ) -> Result<f64, SimtError> {
        if let Some(plan) = faults {
            if let Some(f) = plan.on_transfer(true, origin) {
                return Err(SimtError::Fault(f));
            }
        }
        self.copy_in(host, arr, lo, hi, cfg).map_err(SimtError::Mem)
    }

    /// [`DeviceMemory::copy_out`] with an optional fault-injection plan,
    /// checked before any element moves (same atomicity as `copy_in_guarded`).
    #[allow(clippy::too_many_arguments)] // copy_out plus the fault hooks
    pub fn copy_out_guarded(
        &mut self,
        host: &mut Heap,
        arr: ArrayId,
        lo: usize,
        hi: usize,
        cfg: &DeviceConfig,
        faults: Option<&FaultPlan>,
        origin: FaultOrigin,
    ) -> Result<f64, SimtError> {
        if let Some(plan) = faults {
            if let Some(f) = plan.on_transfer(false, origin) {
                return Err(SimtError::Fault(f));
            }
        }
        self.copy_out(host, arr, lo, hi, cfg)
            .map_err(SimtError::Mem)
    }

    /// Direct read of a device array (for tests and the TLS commit phase).
    #[inline]
    pub fn array(&self, arr: ArrayId) -> Result<&ArrayData, ExecError> {
        Ok(&self.slot(arr)?.data)
    }

    /// Direct mutable access (TLS commit).
    #[inline]
    pub fn array_mut(&mut self, arr: ArrayId) -> Result<&mut ArrayData, ExecError> {
        match self.slots.get_mut(arr.0 as usize) {
            Some(Some(slot)) => Ok(&mut slot.data),
            _ => Err(ExecError::UnknownArray(arr)),
        }
    }

    /// Bounds-checked element read through a shared reference — the
    /// read path of [`LaneMemory::load`], usable from per-warp views that
    /// only hold `&DeviceMemory`.
    #[inline]
    pub fn peek(&self, arr: ArrayId, idx: i64) -> Result<Value, ExecError> {
        let a = self.array(arr)?;
        Ok(a.get(a.index_of(arr, idx)?))
    }

    /// Total bytes the transfer log moved in the given direction.
    pub fn bytes_transferred(&self, to_device: bool) -> usize {
        self.transfers
            .iter()
            .filter(|t| t.to_device == to_device)
            .map(|t| t.bytes)
            .sum()
    }
}

impl LaneMemory for DeviceMemory {
    #[inline]
    fn load(&mut self, _ctx: AccessCtx, arr: ArrayId, idx: i64) -> Result<Value, ExecError> {
        self.peek(arr, idx)
    }

    #[inline]
    fn store(
        &mut self,
        _ctx: AccessCtx,
        arr: ArrayId,
        idx: i64,
        v: Value,
    ) -> Result<(), ExecError> {
        let a = self.array_mut(arr)?;
        let i = a.index_of(arr, idx)?;
        a.set(i, v)
    }

    fn array_len(&self, arr: ArrayId) -> Result<usize, ExecError> {
        Ok(self.array(arr)?.len())
    }

    #[inline]
    fn placement(&self, arr: ArrayId) -> Option<(u64, u64)> {
        let slot = self.slot(arr).ok()?;
        Some((slot.base, slot.data.ty().size_bytes() as u64))
    }

    #[inline]
    fn load_warp(&mut self, acc: &WarpAccess<'_>, row: &mut [Value]) -> usize {
        gather_warp(acc, row, |arr| self.array(arr).ok())
    }
}

/// One warp's private window onto [`DeviceMemory`] during a host-parallel
/// launch: reads see the pre-launch state (or the warp's own buffered
/// stores), stores land in an overlay the coordinator later applies in warp
/// order.
pub struct ShadowView<'v> {
    base: &'v DeviceMemory,
    overlay: BTreeMap<(ArrayId, i64), Value>,
}

impl LaneMemory for ShadowView<'_> {
    fn load(&mut self, _ctx: AccessCtx, arr: ArrayId, idx: i64) -> Result<Value, ExecError> {
        if let Some(v) = self.overlay.get(&(arr, idx)) {
            return Ok(*v);
        }
        self.base.peek(arr, idx)
    }

    fn store(
        &mut self,
        _ctx: AccessCtx,
        arr: ArrayId,
        idx: i64,
        v: Value,
    ) -> Result<(), ExecError> {
        // Validate against the real array so OOB faults surface exactly as
        // they would on the sequential path.
        self.base.array(arr)?.index_of(arr, idx)?;
        self.overlay.insert((arr, idx), v);
        Ok(())
    }

    fn array_len(&self, arr: ArrayId) -> Result<usize, ExecError> {
        self.base.array_len(arr)
    }

    fn placement(&self, arr: ArrayId) -> Option<(u64, u64)> {
        self.base.placement(arr)
    }
}

impl ParallelLaneMemory for DeviceMemory {
    type View<'v> = ShadowView<'v>;
    type Delta = BTreeMap<(ArrayId, i64), Value>;

    fn fork(&self) -> ShadowView<'_> {
        ShadowView {
            base: self,
            overlay: BTreeMap::new(),
        }
    }

    fn harvest(view: ShadowView<'_>) -> Self::Delta {
        view.overlay
    }

    fn absorb(&mut self, delta: Self::Delta) -> Result<(), ExecError> {
        for ((arr, idx), v) in delta {
            self.store(COORDINATOR_CTX, arr, idx, v)?;
        }
        Ok(())
    }
}

/// Write-through lane memory with an undo journal, for launches whose
/// iterations are independent (proven, or verified by the caller as they
/// run): no iteration reads or overwrites what another stores, so
/// executing straight against device memory is indistinguishable from
/// buffering every store and committing in iteration order. A store logs
/// the value the element held before the journal first touched it, then
/// writes through; a launch that dies is undone by
/// [`roll_back`](JournaledMemory::roll_back), one that completes hands over
/// what it wrote by [`into_writes`](JournaledMemory::into_writes) or, when
/// more work follows on the same journal, [`keep`](JournaledMemory::keep)s it.
pub struct JournaledMemory<'d> {
    dev: &'d mut DeviceMemory,
    /// `(location, pre-launch value)`, one entry per location, in
    /// first-store order.
    undo: WriteList,
    /// Per array (by `ArrayId.0`), one bit per element already in `undo`.
    logged: Vec<Vec<u64>>,
}

impl<'d> JournaledMemory<'d> {
    /// Journal the launch about to run against `dev`.
    pub fn new(dev: &'d mut DeviceMemory) -> JournaledMemory<'d> {
        JournaledMemory {
            dev,
            undo: Vec::new(),
            logged: Vec::new(),
        }
    }

    /// Undo every journaled store, newest first: device memory is exactly
    /// what it was when the journal was opened or last
    /// [`keep`](JournaledMemory::keep)t, and the journal is empty.
    pub fn roll_back(&mut self) {
        for &((arr, idx), old) in self.undo.iter().rev() {
            // `old` was read from this very element, so it fits.
            let restored = self.dev.store(COORDINATOR_CTX, arr, idx, old);
            debug_assert!(restored.is_ok(), "restoring a logged element cannot fail");
        }
        self.keep();
    }

    /// Keep every store so far for good: the journal starts over from
    /// device memory as it is now.
    pub fn keep(&mut self) {
        for ((arr, idx), _) in self.undo.drain(..) {
            // Journaled locations are in bounds, so `idx >= 0`.
            let i = idx as usize;
            self.logged[arr.0 as usize][i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// The device memory underneath, for work that needs no journal.
    pub fn device(&mut self) -> &mut DeviceMemory {
        self.dev
    }

    /// Keep the stores and list every location written with its final
    /// value — once each, however often the launch stored to it.
    pub fn into_writes(self) -> Result<WriteList, ExecError> {
        let dev = &*self.dev;
        self.undo
            .into_iter()
            .map(|((arr, idx), _)| Ok(((arr, idx), dev.peek(arr, idx)?)))
            .collect()
    }
}

impl LaneMemory for JournaledMemory<'_> {
    #[inline]
    fn load(&mut self, _ctx: AccessCtx, arr: ArrayId, idx: i64) -> Result<Value, ExecError> {
        self.dev.peek(arr, idx)
    }

    fn store(
        &mut self,
        _ctx: AccessCtx,
        arr: ArrayId,
        idx: i64,
        v: Value,
    ) -> Result<(), ExecError> {
        let a = self.dev.array_mut(arr)?;
        let i = a.index_of(arr, idx)?;
        let old = a.get(i);
        a.set(i, v)?;
        if self.logged.len() <= arr.0 as usize {
            self.logged.resize_with(arr.0 as usize + 1, Vec::new);
        }
        let bits = &mut self.logged[arr.0 as usize];
        if bits.is_empty() {
            bits.resize(a.len().div_ceil(64), 0);
        }
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if bits[word] & bit == 0 {
            bits[word] |= bit;
            self.undo.push(((arr, idx), old));
        }
        Ok(())
    }

    fn array_len(&self, arr: ArrayId) -> Result<usize, ExecError> {
        self.dev.array_len(arr)
    }

    #[inline]
    fn placement(&self, arr: ArrayId) -> Option<(u64, u64)> {
        self.dev.placement(arr)
    }

    /// Loads read device memory as it is; only stores are journaled.
    #[inline]
    fn load_warp(&mut self, acc: &WarpAccess<'_>, row: &mut [Value]) -> usize {
        self.dev.load_warp(acc, row)
    }
}

/// Warps fork the device's own [`ShadowView`]s; their stores are journaled
/// as the coordinator absorbs them in warp order.
impl ParallelLaneMemory for JournaledMemory<'_> {
    type View<'v>
        = ShadowView<'v>
    where
        Self: 'v;
    type Delta = BTreeMap<(ArrayId, i64), Value>;

    fn fork(&self) -> ShadowView<'_> {
        self.dev.fork()
    }

    fn harvest(view: ShadowView<'_>) -> Self::Delta {
        DeviceMemory::harvest(view)
    }

    fn absorb(&mut self, delta: Self::Delta) -> Result<(), ExecError> {
        for ((arr, idx), v) in delta {
            self.store(COORDINATOR_CTX, arr, idx, v)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> AccessCtx {
        AccessCtx {
            lane: 0,
            warp: 0,
            iter: 0,
        }
    }

    #[test]
    fn copy_in_mirrors_host_data() {
        let mut host = Heap::new();
        let a = host.alloc_doubles(&[1.0, 2.0, 3.0]);
        let mut dev = DeviceMemory::new();
        let cfg = DeviceConfig::default();
        let t = dev.copy_in(&host, a, 0, 3, &cfg).unwrap();
        assert!(t > 0.0);
        assert_eq!(dev.load(ctx(), a, 1).unwrap(), Value::Double(2.0));
        assert!(dev.is_resident(a));
    }

    #[test]
    fn copy_out_writes_back() {
        let mut host = Heap::new();
        let a = host.alloc_ints(&[0, 0]);
        let mut dev = DeviceMemory::new();
        let cfg = DeviceConfig::default();
        dev.copy_in(&host, a, 0, 2, &cfg).unwrap();
        dev.store(ctx(), a, 0, Value::Int(42)).unwrap();
        dev.copy_out(&mut host, a, 0, 2, &cfg).unwrap();
        assert_eq!(host.read_ints(a).unwrap(), vec![42, 0]);
    }

    #[test]
    fn partial_range_copy() {
        let mut host = Heap::new();
        let a = host.alloc_ints(&[1, 2, 3, 4]);
        let mut dev = DeviceMemory::new();
        let cfg = DeviceConfig::default();
        dev.copy_in(&host, a, 1, 3, &cfg).unwrap();
        // untouched region is zero on device
        assert_eq!(dev.load(ctx(), a, 0).unwrap(), Value::Int(0));
        assert_eq!(dev.load(ctx(), a, 2).unwrap(), Value::Int(3));
        assert_eq!(dev.transfers[0].bytes, 8);
    }

    #[test]
    fn oob_detected_on_device() {
        let mut host = Heap::new();
        let a = host.alloc_ints(&[1]);
        let mut dev = DeviceMemory::new();
        dev.copy_in(&host, a, 0, 1, &DeviceConfig::default())
            .unwrap();
        assert!(matches!(
            dev.load(ctx(), a, 5),
            Err(ExecError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn addresses_are_disjoint_across_arrays() {
        let mut host = Heap::new();
        let a = host.alloc_doubles(&[0.0; 64]);
        let b = host.alloc_doubles(&[0.0; 64]);
        let mut dev = DeviceMemory::new();
        let cfg = DeviceConfig::default();
        dev.copy_in(&host, a, 0, 64, &cfg).unwrap();
        dev.copy_in(&host, b, 0, 64, &cfg).unwrap();
        let a_end = dev.address_of(a, 63).unwrap() + 8;
        let b_start = dev.address_of(b, 0).unwrap();
        assert!(b_start >= a_end);
        // unit stride: consecutive addresses
        assert_eq!(
            dev.address_of(a, 1).unwrap() - dev.address_of(a, 0).unwrap(),
            8
        );
    }

    #[test]
    fn sparse_array_ids_resolve_and_local_temp_ids_miss() {
        // Only heap arrays 1 and 4 become resident: the holes between
        // them, ids past the table, and the `u32::MAX / 2`-based ids the
        // sequential backends mint for kernel-local arrays all miss.
        let mut host = Heap::new();
        let ids: Vec<ArrayId> = (0..6).map(|i| host.alloc_ints(&[i, i + 10])).collect();
        let mut dev = DeviceMemory::new();
        let cfg = DeviceConfig::default();
        dev.copy_in(&host, ids[4], 0, 2, &cfg).unwrap();
        dev.copy_in(&host, ids[1], 0, 2, &cfg).unwrap();
        assert_eq!(dev.load(ctx(), ids[1], 1).unwrap(), Value::Int(11));
        assert_eq!(dev.load(ctx(), ids[4], 0).unwrap(), Value::Int(4));
        // Bases follow residency order, not id order.
        assert!(dev.address_of(ids[4], 0).unwrap() < dev.address_of(ids[1], 0).unwrap());
        let local_temp = ArrayId(u32::MAX / 2);
        for missing in [ids[0], ids[2], ids[3], ids[5], ArrayId(6), local_temp] {
            assert!(!dev.is_resident(missing));
            assert_eq!(
                dev.load(ctx(), missing, 0),
                Err(ExecError::UnknownArray(missing))
            );
            assert_eq!(
                dev.store(ctx(), missing, 0, Value::Int(1)),
                Err(ExecError::UnknownArray(missing))
            );
            assert_eq!(
                dev.array_len(missing),
                Err(ExecError::UnknownArray(missing))
            );
            assert_eq!(dev.placement(missing), None);
            assert_eq!(dev.address_of(missing, 0), None);
            assert!(matches!(
                dev.copy_out(&mut host.clone(), missing, 0, 1, &cfg),
                Err(ExecError::UnknownArray(_))
            ));
        }
        // A shadow view misses the same way.
        let mut view = dev.fork();
        assert_eq!(
            view.store(ctx(), local_temp, 0, Value::Int(1)),
            Err(ExecError::UnknownArray(local_temp))
        );
        // Re-allocating a resident array keeps its address.
        let base = dev.address_of(ids[1], 0);
        dev.alloc(ids[1], Ty::Int, 2);
        assert_eq!(dev.address_of(ids[1], 0), base);
        assert_eq!(dev.load(ctx(), ids[1], 1).unwrap(), Value::Int(0));
    }

    #[test]
    fn staging_copies_convert_when_the_mirror_type_differs() {
        let mut host = Heap::new();
        let a = host.alloc_ints(&[1, 2, 3]);
        let mut dev = DeviceMemory::new();
        let cfg = DeviceConfig::default();
        dev.alloc(a, Ty::Double, 3);
        dev.copy_in(&host, a, 1, 3, &cfg).unwrap();
        assert_eq!(dev.load(ctx(), a, 0).unwrap(), Value::Double(0.0));
        assert_eq!(dev.load(ctx(), a, 2).unwrap(), Value::Double(3.0));
        dev.store(ctx(), a, 0, Value::Double(7.9)).unwrap();
        dev.copy_out(&mut host, a, 0, 2, &cfg).unwrap();
        assert_eq!(host.read_ints(a).unwrap(), vec![7, 2, 3]);
        assert_eq!(dev.transfers[0].bytes, 8);
    }

    #[test]
    fn shadow_view_buffers_stores_until_absorbed() {
        let mut host = Heap::new();
        let a = host.alloc_ints(&[1, 2, 3]);
        let mut dev = DeviceMemory::new();
        dev.copy_in(&host, a, 0, 3, &DeviceConfig::default())
            .unwrap();
        let mut view = dev.fork();
        view.store(ctx(), a, 1, Value::Int(20)).unwrap();
        // Read-own-write through the overlay; base untouched.
        assert_eq!(view.load(ctx(), a, 1).unwrap(), Value::Int(20));
        assert_eq!(view.load(ctx(), a, 0).unwrap(), Value::Int(1));
        assert!(matches!(
            view.store(ctx(), a, 9, Value::Int(0)),
            Err(ExecError::IndexOutOfBounds { .. })
        ));
        let delta = DeviceMemory::harvest(view);
        assert_eq!(dev.load(ctx(), a, 1).unwrap(), Value::Int(2));
        dev.absorb(delta).unwrap();
        assert_eq!(dev.load(ctx(), a, 1).unwrap(), Value::Int(20));
    }

    #[test]
    fn journal_writes_through_lists_each_location_once_and_rolls_back() {
        let mut host = Heap::new();
        let a = host.alloc_ints(&[1, 2, 3, 4]);
        let mut dev = DeviceMemory::new();
        dev.copy_in(&host, a, 0, 4, &DeviceConfig::default())
            .unwrap();
        let before = dev.array(a).unwrap().clone();

        let mut j = JournaledMemory::new(&mut dev);
        j.store(ctx(), a, 1, Value::Int(20)).unwrap();
        // Write-through: the launch reads its own store straight back.
        assert_eq!(j.load(ctx(), a, 1).unwrap(), Value::Int(20));
        j.store(ctx(), a, 1, Value::Int(21)).unwrap();
        // A warp's harvested stores are journaled as they are absorbed.
        let mut view = j.fork();
        view.store(ctx(), a, 3, Value::Int(40)).unwrap();
        j.absorb(JournaledMemory::harvest(view)).unwrap();
        assert!(matches!(
            j.store(ctx(), a, 9, Value::Int(0)),
            Err(ExecError::IndexOutOfBounds { .. })
        ));
        assert_eq!(
            j.into_writes().unwrap(),
            vec![((a, 1), Value::Int(21)), ((a, 3), Value::Int(40))]
        );
        assert_eq!(dev.peek(a, 1).unwrap(), Value::Int(21));

        let mut j = JournaledMemory::new(&mut dev);
        j.store(ctx(), a, 0, Value::Int(-1)).unwrap();
        j.store(ctx(), a, 0, Value::Int(-2)).unwrap();
        j.roll_back();
        assert_eq!(dev.peek(a, 0).unwrap(), Value::Int(1));
        assert_eq!(dev.peek(a, 1).unwrap(), Value::Int(21));
        assert_ne!(dev.array(a).unwrap(), &before);
    }

    #[test]
    fn load_warp_gathers_resident_arrays_and_never_through_a_buffered_view() {
        let mut host = Heap::new();
        let a = host.alloc_ints(&[1, 2, 3]);
        let b = host.alloc_doubles(&[0.5, 1.5]);
        let mut dev = DeviceMemory::new();
        let cfg = DeviceConfig::default();
        dev.copy_in(&host, a, 0, 3, &cfg).unwrap();
        dev.copy_in(&host, b, 0, 2, &cfg).unwrap();
        let missing = ArrayId(7);
        let iters = [10u64, 11, 12, 13];
        let warp = |lanes| WarpAccess {
            warp: 0,
            iters: &iters,
            lanes,
        };
        let mut row = [Value::Bool(false); 4];
        // Runs of two arrays gather up to the unknown array; the lane by
        // lane tail raises its error on that lane.
        let mixed = [(0, a, 2), (1, b, 1), (2, missing, 0), (3, a, 1)];
        assert_eq!(dev.load_warp(&warp(&mixed), &mut row), 2);
        assert_eq!(row[..2], [Value::Int(3), Value::Double(1.5)]);
        assert_eq!(
            warp(&mixed).load(&mut dev, &mut row),
            Err((2, ExecError::UnknownArray(missing)))
        );
        // An index out of bounds on a middle lane stops the gather there.
        let oob = [(0, a, 0), (2, a, 3), (3, a, 1)];
        assert_eq!(dev.load_warp(&warp(&oob), &mut row), 1);
        assert!(matches!(
            warp(&oob).load(&mut dev, &mut row),
            Err((2, ExecError::IndexOutOfBounds { index: 3, .. }))
        ));
        // A shadow view answers from its overlay first: lane by lane.
        let whole = [(0, a, 1), (1, a, 2)];
        assert_eq!(dev.fork().load_warp(&warp(&whole), &mut row), 0);
        // A journal logs stores, not loads: it gathers what it wrote through.
        let mut j = JournaledMemory::new(&mut dev);
        j.store(ctx(), a, 1, Value::Int(20)).unwrap();
        assert_eq!(j.load_warp(&warp(&whole), &mut row), 2);
        assert_eq!(row[..2], [Value::Int(20), Value::Int(3)]);
        // No memory here buffers stores: every lane goes through `store`.
        assert_eq!(j.store_warp(&warp(&whole), &row), 0);
    }

    #[test]
    fn transfer_accounting() {
        let mut host = Heap::new();
        let a = host.alloc_doubles(&[0.0; 100]);
        let mut dev = DeviceMemory::new();
        let cfg = DeviceConfig::default();
        dev.copy_in(&host, a, 0, 100, &cfg).unwrap();
        dev.copy_out(&mut host, a, 0, 50, &cfg).unwrap();
        assert_eq!(dev.bytes_transferred(true), 800);
        assert_eq!(dev.bytes_transferred(false), 400);
    }
}
