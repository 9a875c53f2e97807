//! Host array heap: typed array storage with Java reference semantics.

use crate::error::ExecError;
use crate::types::{Ty, Value};
use std::fmt;

/// Handle to an array object on a [`Heap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "array#{}", self.0)
    }
}

/// Typed, contiguous storage for one MiniJava array.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayData {
    Bool(Vec<bool>),
    Int(Vec<i32>),
    Long(Vec<i64>),
    Float(Vec<f32>),
    Double(Vec<f64>),
}

impl ArrayData {
    /// Zero-initialized array of `len` elements of type `ty`.
    pub fn zeroed(ty: Ty, len: usize) -> ArrayData {
        match ty {
            Ty::Bool => ArrayData::Bool(vec![false; len]),
            Ty::Int => ArrayData::Int(vec![0; len]),
            Ty::Long => ArrayData::Long(vec![0; len]),
            Ty::Float => ArrayData::Float(vec![0.0; len]),
            Ty::Double => ArrayData::Double(vec![0.0; len]),
        }
    }

    /// Element type.
    #[inline]
    pub fn ty(&self) -> Ty {
        match self {
            ArrayData::Bool(_) => Ty::Bool,
            ArrayData::Int(_) => Ty::Int,
            ArrayData::Long(_) => Ty::Long,
            ArrayData::Float(_) => Ty::Float,
            ArrayData::Double(_) => Ty::Double,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ArrayData::Bool(v) => v.len(),
            ArrayData::Int(v) => v.len(),
            ArrayData::Long(v) => v.len(),
            ArrayData::Float(v) => v.len(),
            ArrayData::Double(v) => v.len(),
        }
    }

    /// Is the array empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total size in bytes (for the transfer model).
    pub fn size_bytes(&self) -> usize {
        self.len() * self.ty().size_bytes()
    }

    /// Unchecked-typed element read; `idx` must be in bounds.
    #[inline]
    pub fn get(&self, idx: usize) -> Value {
        match self {
            ArrayData::Bool(v) => Value::Bool(v[idx]),
            ArrayData::Int(v) => Value::Int(v[idx]),
            ArrayData::Long(v) => Value::Long(v[idx]),
            ArrayData::Float(v) => Value::Float(v[idx]),
            ArrayData::Double(v) => Value::Double(v[idx]),
        }
    }

    /// Bounds-check `idx` against this array (known to callers as `id`).
    #[inline]
    pub fn index_of(&self, id: ArrayId, idx: i64) -> Result<usize, ExecError> {
        let len = self.len();
        if idx < 0 || idx as usize >= len {
            return Err(ExecError::IndexOutOfBounds {
                array: id,
                index: idx,
                len,
            });
        }
        Ok(idx as usize)
    }

    /// Copy `src[lo..hi]` over `self[lo..hi]` — the staging path between a
    /// host array and its device mirror. Same-typed arrays (every mirror
    /// the runtime allocates) move as one slice copy; differing element
    /// types convert element by element like [`ArrayData::set`]. Both
    /// ranges must be in bounds.
    pub fn copy_range_from(
        &mut self,
        src: &ArrayData,
        lo: usize,
        hi: usize,
    ) -> Result<(), ExecError> {
        if lo >= hi {
            return Ok(());
        }
        match (self, src) {
            (ArrayData::Bool(d), ArrayData::Bool(s)) => d[lo..hi].copy_from_slice(&s[lo..hi]),
            (ArrayData::Int(d), ArrayData::Int(s)) => d[lo..hi].copy_from_slice(&s[lo..hi]),
            (ArrayData::Long(d), ArrayData::Long(s)) => d[lo..hi].copy_from_slice(&s[lo..hi]),
            (ArrayData::Float(d), ArrayData::Float(s)) => d[lo..hi].copy_from_slice(&s[lo..hi]),
            (ArrayData::Double(d), ArrayData::Double(s)) => d[lo..hi].copy_from_slice(&s[lo..hi]),
            (d, s) => {
                for i in lo..hi {
                    d.set(i, s.get(i))?;
                }
            }
        }
        Ok(())
    }

    /// Element write with an implicit Java assignment conversion; returns an
    /// error if `val` cannot be stored in this array's element type.
    pub fn set(&mut self, idx: usize, val: Value) -> Result<(), ExecError> {
        let elem = self.ty();
        let converted = val.cast(elem).ok_or_else(|| ExecError::TypeMismatch {
            expected: elem.to_string(),
            found: format!("{val}"),
        })?;
        match (self, converted) {
            (ArrayData::Bool(v), Value::Bool(x)) => v[idx] = x,
            (ArrayData::Int(v), Value::Int(x)) => v[idx] = x,
            (ArrayData::Long(v), Value::Long(x)) => v[idx] = x,
            (ArrayData::Float(v), Value::Float(x)) => v[idx] = x,
            (ArrayData::Double(v), Value::Double(x)) => v[idx] = x,
            _ => unreachable!("cast produced mismatched value"),
        }
        Ok(())
    }
}

/// The host heap: a growable arena of arrays addressed by [`ArrayId`].
///
/// Cloning a `Heap` deep-copies every array, which the executors use to
/// snapshot state (e.g. to compare a speculative run against a sequential
/// reference, or to roll back after fault injection in tests).
#[derive(Debug, Clone, Default)]
pub struct Heap {
    arrays: Vec<ArrayData>,
}

impl Heap {
    /// Empty heap.
    pub fn new() -> Heap {
        Heap::default()
    }

    /// Allocate a zero-initialized array.
    pub fn alloc(&mut self, ty: Ty, len: usize) -> ArrayId {
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(ArrayData::zeroed(ty, len));
        id
    }

    /// Allocate an array initialized from `data`.
    pub fn alloc_init(&mut self, data: ArrayData) -> ArrayId {
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(data);
        id
    }

    /// Allocate an `int[]` from a slice.
    pub fn alloc_ints(&mut self, data: &[i32]) -> ArrayId {
        self.alloc_init(ArrayData::Int(data.to_vec()))
    }

    /// Allocate a `double[]` from a slice.
    pub fn alloc_doubles(&mut self, data: &[f64]) -> ArrayId {
        self.alloc_init(ArrayData::Double(data.to_vec()))
    }

    /// Allocate a `float[]` from a slice.
    pub fn alloc_floats(&mut self, data: &[f32]) -> ArrayId {
        self.alloc_init(ArrayData::Float(data.to_vec()))
    }

    /// Allocate a `long[]` from a slice.
    pub fn alloc_longs(&mut self, data: &[i64]) -> ArrayId {
        self.alloc_init(ArrayData::Long(data.to_vec()))
    }

    /// Number of arrays allocated so far.
    pub fn array_count(&self) -> usize {
        self.arrays.len()
    }

    /// Borrow an array.
    pub fn array(&self, id: ArrayId) -> Result<&ArrayData, ExecError> {
        self.arrays
            .get(id.0 as usize)
            .ok_or(ExecError::UnknownArray(id))
    }

    /// Mutably borrow an array.
    pub fn array_mut(&mut self, id: ArrayId) -> Result<&mut ArrayData, ExecError> {
        self.arrays
            .get_mut(id.0 as usize)
            .ok_or(ExecError::UnknownArray(id))
    }

    /// Array length.
    pub fn len_of(&self, id: ArrayId) -> Result<usize, ExecError> {
        Ok(self.array(id)?.len())
    }

    /// Bounds-checked element load.
    pub fn load(&self, id: ArrayId, idx: i64) -> Result<Value, ExecError> {
        let arr = self.array(id)?;
        Ok(arr.get(arr.index_of(id, idx)?))
    }

    /// Bounds-checked element store with assignment conversion.
    pub fn store(&mut self, id: ArrayId, idx: i64, val: Value) -> Result<(), ExecError> {
        let arr = self.array_mut(id)?;
        let i = arr.index_of(id, idx)?;
        arr.set(i, val)
    }

    /// Copy of an array as `f64` (convenience for result validation).
    pub fn read_doubles(&self, id: ArrayId) -> Result<Vec<f64>, ExecError> {
        let arr = self.array(id)?;
        Ok((0..arr.len())
            .map(|i| arr.get(i).as_f64().unwrap_or(0.0))
            .collect())
    }

    /// Copy of an array as `i64` (convenience for result validation).
    pub fn read_ints(&self, id: ArrayId) -> Result<Vec<i64>, ExecError> {
        let arr = self.array(id)?;
        Ok((0..arr.len())
            .map(|i| arr.get(i).as_i64().unwrap_or(0))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_zeroed_and_rw() {
        let mut h = Heap::new();
        let a = h.alloc(Ty::Int, 4);
        assert_eq!(h.load(a, 0).unwrap(), Value::Int(0));
        h.store(a, 2, Value::Int(9)).unwrap();
        assert_eq!(h.load(a, 2).unwrap(), Value::Int(9));
        assert_eq!(h.len_of(a).unwrap(), 4);
    }

    #[test]
    fn bounds_checks() {
        let mut h = Heap::new();
        let a = h.alloc(Ty::Double, 3);
        assert!(matches!(
            h.load(a, 3),
            Err(ExecError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            h.load(a, -1),
            Err(ExecError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            h.store(a, 100, Value::Double(1.0)),
            Err(ExecError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn store_applies_assignment_conversion() {
        let mut h = Heap::new();
        let a = h.alloc(Ty::Double, 1);
        h.store(a, 0, Value::Int(3)).unwrap();
        assert_eq!(h.load(a, 0).unwrap(), Value::Double(3.0));
    }

    #[test]
    fn store_rejects_bool_into_numeric() {
        let mut h = Heap::new();
        let a = h.alloc(Ty::Int, 1);
        assert!(h.store(a, 0, Value::Bool(true)).is_err());
    }

    #[test]
    fn unknown_array_errors() {
        let h = Heap::new();
        assert!(matches!(
            h.load(ArrayId(0), 0),
            Err(ExecError::UnknownArray(_))
        ));
    }

    #[test]
    fn size_bytes_reflects_type() {
        let mut h = Heap::new();
        let a = h.alloc(Ty::Long, 10);
        assert_eq!(h.array(a).unwrap().size_bytes(), 80);
    }

    #[test]
    fn heap_clone_is_deep() {
        let mut h = Heap::new();
        let a = h.alloc(Ty::Int, 1);
        let snapshot = h.clone();
        h.store(a, 0, Value::Int(5)).unwrap();
        assert_eq!(snapshot.load(a, 0).unwrap(), Value::Int(0));
        assert_eq!(h.load(a, 0).unwrap(), Value::Int(5));
    }
}
