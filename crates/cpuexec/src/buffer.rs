//! A write-buffering backend that lets many threads execute loop chunks
//! against one shared heap without data races.
//!
//! Reads go to the chunk's own buffer first (read-your-writes) and fall
//! through to the shared base heap; writes never touch the base heap until
//! [`BufferedBackend::into_writes`] + [`apply_writes`] apply them (in chunk order, on the
//! coordinating thread). For DOALL loops the chunks write disjoint
//! locations, so the committed result is exactly the sequential one.

use crate::lanes::UndoLanes;
use japonica_gpusim::{AccessCtx, LaneMemory};
use japonica_ir::{ArrayData, ArrayId, Backend, ExecError, Heap, OpClass, OpCounts, Ty, Value};
use std::collections::BTreeMap;

/// Apply a set of deferred writes (from [`BufferedBackend::into_writes`])
/// to the heap.
pub fn apply_writes(
    heap: &mut Heap,
    writes: BTreeMap<(ArrayId, i64), Value>,
) -> Result<(), ExecError> {
    for ((arr, idx), v) in writes {
        heap.store(arr, idx, v)?;
    }
    Ok(())
}

/// Per-chunk buffered view of a shared [`Heap`].
pub struct BufferedBackend<'h> {
    base: &'h Heap,
    writes: BTreeMap<(ArrayId, i64), Value>,
    locals: Vec<ArrayData>,
    local_base: u32,
    /// Op counts accumulated by this chunk.
    pub counts: OpCounts,
}

impl<'h> BufferedBackend<'h> {
    /// A fresh buffer over `base`.
    pub fn new(base: &'h Heap) -> BufferedBackend<'h> {
        BufferedBackend {
            base,
            writes: BTreeMap::new(),
            locals: Vec::new(),
            local_base: base.array_count() as u32,
            counts: OpCounts::new(),
        }
    }

    fn local(&self, arr: ArrayId) -> Option<usize> {
        (arr.0 >= self.local_base).then(|| (arr.0 - self.local_base) as usize)
    }

    /// Number of buffered (deferred) writes.
    pub fn pending_writes(&self) -> usize {
        self.writes.len()
    }

    /// Consume the buffer, returning the deferred writes so they can be
    /// applied after the shared borrow of the base heap ends. Local temp
    /// arrays are dropped — they cannot escape the chunk.
    pub fn into_writes(self) -> BTreeMap<(ArrayId, i64), Value> {
        self.writes
    }

    /// Iterate the buffered writes without consuming (for conflict checks
    /// in tests).
    pub fn writes(&self) -> impl Iterator<Item = (&(ArrayId, i64), &Value)> {
        self.writes.iter()
    }

    /// Buffer a store to a base-heap array, returning the buffered value it
    /// displaced. Bounds are validated and the element conversion applied
    /// eagerly, so the buffered value is exactly what the heap would hold.
    fn buffer(&mut self, arr: ArrayId, idx: i64, v: Value) -> Result<Option<Value>, ExecError> {
        let base_arr = self.base.array(arr)?;
        let len = base_arr.len();
        if idx < 0 || idx as usize >= len {
            return Err(ExecError::IndexOutOfBounds {
                array: arr,
                index: idx,
                len,
            });
        }
        let elem = base_arr.ty();
        let conv = v.cast(elem).ok_or_else(|| ExecError::TypeMismatch {
            expected: elem.to_string(),
            found: format!("{v}"),
        })?;
        Ok(self.writes.insert((arr, idx), conv))
    }
}

/// A chunk's write buffer as lane memory: loads read the chunk's own
/// writes before the base heap, stores are deferred like the scalar
/// path's, and each one logs the buffered value it displaced. Kernels the
/// lane VM accepts allocate nothing, so every array is a base-heap one.
pub(crate) struct BufferLanes<'a, 'h> {
    pub be: &'a mut BufferedBackend<'h>,
    undo: Vec<((ArrayId, i64), Option<Value>)>,
}

impl<'a, 'h> BufferLanes<'a, 'h> {
    pub fn new(be: &'a mut BufferedBackend<'h>) -> BufferLanes<'a, 'h> {
        BufferLanes {
            be,
            undo: Vec::new(),
        }
    }
}

impl LaneMemory for BufferLanes<'_, '_> {
    fn load(&mut self, _: AccessCtx, arr: ArrayId, idx: i64) -> Result<Value, ExecError> {
        self.be.load(arr, idx)
    }

    fn store(&mut self, _: AccessCtx, arr: ArrayId, idx: i64, v: Value) -> Result<(), ExecError> {
        let displaced = self.be.buffer(arr, idx, v)?;
        self.undo.push(((arr, idx), displaced));
        Ok(())
    }

    fn array_len(&self, arr: ArrayId) -> Result<usize, ExecError> {
        self.be.base.len_of(arr)
    }

    /// CPU accounting has no coalescing model to feed.
    fn placement(&self, _: ArrayId) -> Option<(u64, u64)> {
        None
    }
}

impl UndoLanes for BufferLanes<'_, '_> {
    fn keep(&mut self) {
        self.undo.clear();
    }

    fn roll_back(&mut self) {
        for (at, displaced) in self.undo.drain(..).rev() {
            match displaced {
                Some(v) => self.be.writes.insert(at, v),
                None => self.be.writes.remove(&at),
            };
        }
    }
}

impl Backend for BufferedBackend<'_> {
    fn load(&mut self, arr: ArrayId, idx: i64) -> Result<Value, ExecError> {
        if let Some(li) = self.local(arr) {
            let a = self.locals.get(li).ok_or(ExecError::UnknownArray(arr))?;
            if idx < 0 || idx as usize >= a.len() {
                return Err(ExecError::IndexOutOfBounds {
                    array: arr,
                    index: idx,
                    len: a.len(),
                });
            }
            return Ok(a.get(idx as usize));
        }
        if let Some(v) = self.writes.get(&(arr, idx)) {
            // Bounds were checked when the write was buffered.
            return Ok(*v);
        }
        self.base.load(arr, idx)
    }

    fn store(&mut self, arr: ArrayId, idx: i64, v: Value) -> Result<(), ExecError> {
        if let Some(li) = self.local(arr) {
            let a = self
                .locals
                .get_mut(li)
                .ok_or(ExecError::UnknownArray(arr))?;
            if idx < 0 || idx as usize >= a.len() {
                return Err(ExecError::IndexOutOfBounds {
                    array: arr,
                    index: idx,
                    len: a.len(),
                });
            }
            return a.set(idx as usize, v);
        }
        self.buffer(arr, idx, v).map(|_| ())
    }

    fn array_len(&mut self, arr: ArrayId) -> Result<usize, ExecError> {
        if let Some(li) = self.local(arr) {
            return Ok(self
                .locals
                .get(li)
                .ok_or(ExecError::UnknownArray(arr))?
                .len());
        }
        self.base.len_of(arr)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fall_through_and_writes_buffer() {
        let mut heap = Heap::new();
        let a = heap.alloc_ints(&[1, 2, 3]);
        let mut b = BufferedBackend::new(&heap);
        assert_eq!(b.load(a, 0).unwrap(), Value::Int(1));
        b.store(a, 0, Value::Int(9)).unwrap();
        // read-your-writes
        assert_eq!(b.load(a, 0).unwrap(), Value::Int(9));
        // base untouched
        assert_eq!(heap.load(a, 0).unwrap(), Value::Int(1));
        assert_eq!(b.pending_writes(), 1);
        let w = b.into_writes();
        apply_writes(&mut heap, w).unwrap();
        assert_eq!(heap.load(a, 0).unwrap(), Value::Int(9));
    }

    #[test]
    fn buffered_store_applies_conversion_and_bounds() {
        let mut heap = Heap::new();
        let a = heap.alloc(Ty::Double, 2);
        let mut b = BufferedBackend::new(&heap);
        b.store(a, 1, Value::Int(3)).unwrap();
        assert_eq!(b.load(a, 1).unwrap(), Value::Double(3.0));
        assert!(matches!(
            b.store(a, 5, Value::Int(1)),
            Err(ExecError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn local_arrays_are_private() {
        let mut heap = Heap::new();
        let _a = heap.alloc_ints(&[0]);
        let mut b = BufferedBackend::new(&heap);
        let t = b.alloc(Ty::Int, 4).unwrap();
        b.store(t, 2, Value::Int(7)).unwrap();
        assert_eq!(b.load(t, 2).unwrap(), Value::Int(7));
        assert_eq!(b.array_len(t).unwrap(), 4);
        assert_eq!(b.pending_writes(), 0); // locals don't buffer
        let before = heap.array_count();
        let w = b.into_writes();
        apply_writes(&mut heap, w).unwrap();
        assert_eq!(heap.array_count(), before); // locals dropped
    }

    #[test]
    fn last_write_wins_within_chunk() {
        let mut heap = Heap::new();
        let a = heap.alloc_ints(&[0]);
        let mut b = BufferedBackend::new(&heap);
        b.store(a, 0, Value::Int(1)).unwrap();
        b.store(a, 0, Value::Int(2)).unwrap();
        let w = b.into_writes();
        apply_writes(&mut heap, w).unwrap();
        assert_eq!(heap.load(a, 0).unwrap(), Value::Int(2));
    }

    #[test]
    fn op_counting_works() {
        let heap = Heap::new();
        let mut b = BufferedBackend::new(&heap);
        b.op(OpClass::FpAlu);
        b.op(OpClass::FpAlu);
        assert_eq!(b.counts.count(OpClass::FpAlu), 2);
    }
}
