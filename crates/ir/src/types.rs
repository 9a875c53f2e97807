//! Scalar types and runtime values with Java-like numeric semantics.

use crate::heap::ArrayId;
use std::fmt;

/// MiniJava scalar types.
///
/// The ordering of variants matches Java's widening-conversion lattice:
/// `Bool` does not convert, and `Int < Long < Float < Double`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Ty {
    /// `boolean`
    Bool,
    /// 32-bit signed `int` with wrap-around overflow (Java semantics).
    Int,
    /// 64-bit signed `long` with wrap-around overflow.
    Long,
    /// IEEE-754 single precision `float`.
    Float,
    /// IEEE-754 double precision `double`.
    Double,
}

impl Ty {
    /// Is this an integral type (`int` / `long`)?
    pub fn is_integral(self) -> bool {
        matches!(self, Ty::Int | Ty::Long)
    }

    /// Is this a floating-point type?
    pub fn is_float(self) -> bool {
        matches!(self, Ty::Float | Ty::Double)
    }

    /// Is this a numeric type (everything except `boolean`)?
    pub fn is_numeric(self) -> bool {
        self != Ty::Bool
    }

    /// Size of one element of this type in bytes, used by the transfer and
    /// memory-coalescing models.
    pub fn size_bytes(self) -> usize {
        match self {
            Ty::Bool => 1,
            Ty::Int | Ty::Float => 4,
            Ty::Long | Ty::Double => 8,
        }
    }

    /// Java binary numeric promotion: the wider of the two operand types.
    ///
    /// Returns `None` when either side is `boolean` (no numeric promotion
    /// exists in that case).
    pub fn promote(a: Ty, b: Ty) -> Option<Ty> {
        if !a.is_numeric() || !b.is_numeric() {
            return None;
        }
        Some(a.max(b))
    }

    /// The default (zero) value of the type, mirroring Java default
    /// initialization of array elements.
    pub fn zero(self) -> Value {
        match self {
            Ty::Bool => Value::Bool(false),
            Ty::Int => Value::Int(0),
            Ty::Long => Value::Long(0),
            Ty::Float => Value::Float(0.0),
            Ty::Double => Value::Double(0.0),
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ty::Bool => "boolean",
            Ty::Int => "int",
            Ty::Long => "long",
            Ty::Float => "float",
            Ty::Double => "double",
        };
        f.write_str(s)
    }
}

/// A runtime value.
///
/// `Array` holds a handle into the [`crate::Heap`]; MiniJava arrays have
/// reference semantics exactly like Java arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    Bool(bool),
    Int(i32),
    Long(i64),
    Float(f32),
    Double(f64),
    /// Reference to an array object on the heap.
    Array(ArrayId),
}

impl Value {
    /// The scalar type of the value; `None` for array references.
    #[inline]
    pub fn ty(self) -> Option<Ty> {
        match self {
            Value::Bool(_) => Some(Ty::Bool),
            Value::Int(_) => Some(Ty::Int),
            Value::Long(_) => Some(Ty::Long),
            Value::Float(_) => Some(Ty::Float),
            Value::Double(_) => Some(Ty::Double),
            Value::Array(_) => None,
        }
    }

    /// View as `bool`, if the value is a `boolean`.
    #[inline]
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// View as an array handle, if the value is an array reference.
    #[inline]
    pub fn as_array(self) -> Option<ArrayId> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Numeric view as `i64` (integral values only).
    #[inline]
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(v as i64),
            Value::Long(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric view as `f64` (any numeric value, widening like Java).
    pub fn as_f64(self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(v as f64),
            Value::Long(v) => Some(v as f64),
            Value::Float(v) => Some(v as f64),
            Value::Double(v) => Some(v),
            _ => None,
        }
    }

    /// Java-style cast to `to`. Integral narrowing truncates; float-to-int
    /// conversion saturates NaN to 0 like the JVM `d2i`/`d2l` instructions.
    ///
    /// The identity cast — what declarations, assignments and parameter
    /// binding of well-typed kernels ask for — returns before the
    /// conversion table is consulted.
    #[inline]
    pub fn cast(self, to: Ty) -> Option<Value> {
        if self.ty() == Some(to) {
            return Some(self);
        }
        self.convert(to)
    }

    /// The conversions between distinct scalar types.
    fn convert(self, to: Ty) -> Option<Value> {
        let v = match (self, to) {
            (Value::Int(v), Ty::Long) => Value::Long(v as i64),
            (Value::Int(v), Ty::Float) => Value::Float(v as f32),
            (Value::Int(v), Ty::Double) => Value::Double(v as f64),
            (Value::Long(v), Ty::Int) => Value::Int(v as i32),
            (Value::Long(v), Ty::Float) => Value::Float(v as f32),
            (Value::Long(v), Ty::Double) => Value::Double(v as f64),
            (Value::Float(v), Ty::Int) => Value::Int(f2i(v as f64)),
            (Value::Float(v), Ty::Long) => Value::Long(f2l(v as f64)),
            (Value::Float(v), Ty::Double) => Value::Double(v as f64),
            (Value::Double(v), Ty::Int) => Value::Int(f2i(v)),
            (Value::Double(v), Ty::Long) => Value::Long(f2l(v)),
            (Value::Double(v), Ty::Float) => Value::Float(v as f32),
            _ => return None,
        };
        Some(v)
    }
}

/// JVM `d2i`: NaN -> 0, out-of-range saturates.
fn f2i(d: f64) -> i32 {
    if d.is_nan() {
        0
    } else if d >= i32::MAX as f64 {
        i32::MAX
    } else if d <= i32::MIN as f64 {
        i32::MIN
    } else {
        d as i32
    }
}

/// JVM `d2l`: NaN -> 0, out-of-range saturates.
fn f2l(d: f64) -> i64 {
    if d.is_nan() {
        0
    } else if d >= i64::MAX as f64 {
        i64::MAX
    } else if d <= i64::MIN as f64 {
        i64::MIN
    } else {
        d as i64
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Long(v) => write!(f, "{v}L"),
            Value::Float(v) => write!(f, "{v}f"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Array(a) => write!(f, "array#{}", a.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotion_follows_java_lattice() {
        assert_eq!(Ty::promote(Ty::Int, Ty::Int), Some(Ty::Int));
        assert_eq!(Ty::promote(Ty::Int, Ty::Long), Some(Ty::Long));
        assert_eq!(Ty::promote(Ty::Long, Ty::Float), Some(Ty::Float));
        assert_eq!(Ty::promote(Ty::Float, Ty::Double), Some(Ty::Double));
        assert_eq!(Ty::promote(Ty::Bool, Ty::Int), None);
    }

    #[test]
    fn casts_truncate_like_java() {
        assert_eq!(
            Value::Long(0x1_0000_0001).cast(Ty::Int),
            Some(Value::Int(1))
        );
        assert_eq!(Value::Double(3.9).cast(Ty::Int), Some(Value::Int(3)));
        assert_eq!(Value::Double(-3.9).cast(Ty::Int), Some(Value::Int(-3)));
        assert_eq!(Value::Double(f64::NAN).cast(Ty::Int), Some(Value::Int(0)));
        assert_eq!(
            Value::Double(1e300).cast(Ty::Int),
            Some(Value::Int(i32::MAX))
        );
    }

    #[test]
    fn cast_to_same_type_is_identity() {
        for v in [Value::Int(7), Value::Double(1.5), Value::Bool(true)] {
            let ty = v.ty().unwrap();
            assert_eq!(v.cast(ty), Some(v));
        }
    }

    #[test]
    fn bool_does_not_cast_to_numbers() {
        assert_eq!(Value::Bool(true).cast(Ty::Int), None);
        assert_eq!(Value::Int(1).cast(Ty::Bool), None);
    }

    #[test]
    fn element_sizes() {
        assert_eq!(Ty::Int.size_bytes(), 4);
        assert_eq!(Ty::Double.size_bytes(), 8);
        assert_eq!(Ty::Bool.size_bytes(), 1);
    }

    #[test]
    fn zero_values() {
        assert_eq!(Ty::Int.zero(), Value::Int(0));
        assert_eq!(Ty::Double.zero(), Value::Double(0.0));
        assert_eq!(Ty::Bool.zero(), Value::Bool(false));
    }
}
