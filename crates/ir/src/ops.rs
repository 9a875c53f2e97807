//! Java-faithful scalar operator semantics, shared by the sequential
//! interpreter and the SIMT warp interpreter.

use crate::error::ExecError;
use crate::expr::{BinOp, Intrinsic, UnOp};
use crate::types::{Ty, Value};

fn type_err(expected: &str, found: Value) -> ExecError {
    ExecError::TypeMismatch {
        expected: expected.to_string(),
        found: format!("{found}"),
    }
}

/// Apply a unary operator. One direct match per operator: there is no
/// promotion to skip, so this is its own reference.
#[inline]
pub fn unary(op: UnOp, v: Value) -> Result<Value, ExecError> {
    match op {
        UnOp::Neg => match v {
            Value::Int(x) => Ok(Value::Int(x.wrapping_neg())),
            Value::Long(x) => Ok(Value::Long(x.wrapping_neg())),
            Value::Float(x) => Ok(Value::Float(-x)),
            Value::Double(x) => Ok(Value::Double(-x)),
            other => Err(type_err("numeric", other)),
        },
        UnOp::Not => match v {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(type_err("boolean", other)),
        },
        UnOp::BitNot => match v {
            Value::Int(x) => Ok(Value::Int(!x)),
            Value::Long(x) => Ok(Value::Long(!x)),
            other => Err(type_err("integral", other)),
        },
    }
}

/// Promote both operands to their common numeric type (Java binary numeric
/// promotion).
fn promoted(a: Value, b: Value) -> Result<(Value, Value, Ty), ExecError> {
    let (ta, tb) = match (a.ty(), b.ty()) {
        (Some(ta), Some(tb)) => (ta, tb),
        _ => return Err(type_err("numeric", a)),
    };
    let ty = Ty::promote(ta, tb).ok_or_else(|| type_err("numeric", a))?;
    let pa = a.cast(ty).ok_or_else(|| type_err("numeric", a))?;
    let pb = b.cast(ty).ok_or_else(|| type_err("numeric", b))?;
    Ok((pa, pb, ty))
}

macro_rules! arith {
    ($a:expr, $b:expr, $iop:ident, $fop:tt) => {
        match promoted($a, $b)? {
            (Value::Int(x), Value::Int(y), _) => Ok(Value::Int(x.$iop(y))),
            (Value::Long(x), Value::Long(y), _) => Ok(Value::Long(x.$iop(y))),
            (Value::Float(x), Value::Float(y), _) => Ok(Value::Float(x $fop y)),
            (Value::Double(x), Value::Double(y), _) => Ok(Value::Double(x $fop y)),
            _ => unreachable!("promotion yields matching scalar types"),
        }
    };
}

macro_rules! int_bitop {
    ($a:expr, $b:expr, $op:tt, $name:literal) => {
        match ($a, $b) {
            (Value::Int(x), Value::Int(y)) => Ok(Value::Int(x $op y)),
            (Value::Long(x), Value::Long(y)) => Ok(Value::Long(x $op y)),
            (Value::Int(x), Value::Long(y)) => Ok(Value::Long((x as i64) $op y)),
            (Value::Long(x), Value::Int(y)) => Ok(Value::Long(x $op (y as i64))),
            (Value::Bool(x), Value::Bool(y)) => Ok(Value::Bool(x $op y)),
            (a, _) => Err(type_err($name, a)),
        }
    };
}

/// Same-type float operands: no promotion, no cast, no failure. `None`
/// (bit operators, shifts) defers to [`binary_slow`] for its type error.
macro_rules! float_fast {
    ($op:expr, $x:expr, $y:expr, $wrap:path) => {
        match $op {
            BinOp::Add => Some($wrap($x + $y)),
            BinOp::Sub => Some($wrap($x - $y)),
            BinOp::Mul => Some($wrap($x * $y)),
            BinOp::Div => Some($wrap($x / $y)),
            BinOp::Rem => Some($wrap($x % $y)),
            BinOp::Lt => Some(Value::Bool($x < $y)),
            BinOp::Le => Some(Value::Bool($x <= $y)),
            BinOp::Gt => Some(Value::Bool($x > $y)),
            BinOp::Ge => Some(Value::Bool($x >= $y)),
            BinOp::Eq => Some(Value::Bool($x == $y)),
            BinOp::Ne => Some(Value::Bool($x != $y)),
            _ => None,
        }
    };
}

/// Same-type integer operands. A zero divisor is `None`: the slow path
/// owns the `DivisionByZero` error. `$mask` is the JVM shift-count mask.
macro_rules! int_fast {
    ($op:expr, $x:expr, $y:expr, $wrap:path, $u:ty, $mask:literal) => {
        match $op {
            BinOp::Add => Some($wrap($x.wrapping_add($y))),
            BinOp::Sub => Some($wrap($x.wrapping_sub($y))),
            BinOp::Mul => Some($wrap($x.wrapping_mul($y))),
            BinOp::Div if $y != 0 => Some($wrap($x.wrapping_div($y))),
            BinOp::Rem if $y != 0 => Some($wrap($x.wrapping_rem($y))),
            BinOp::Div | BinOp::Rem => None,
            BinOp::And | BinOp::LAnd => Some($wrap($x & $y)),
            BinOp::Or | BinOp::LOr => Some($wrap($x | $y)),
            BinOp::Xor => Some($wrap($x ^ $y)),
            BinOp::Shl => Some($wrap($x.wrapping_shl(($y & $mask) as u32))),
            BinOp::Shr => Some($wrap($x.wrapping_shr(($y & $mask) as u32))),
            BinOp::UShr => Some($wrap(($x as $u).wrapping_shr(($y & $mask) as u32) as _)),
            BinOp::Lt => Some(Value::Bool($x < $y)),
            BinOp::Le => Some(Value::Bool($x <= $y)),
            BinOp::Gt => Some(Value::Bool($x > $y)),
            BinOp::Ge => Some(Value::Bool($x >= $y)),
            BinOp::Eq => Some(Value::Bool($x == $y)),
            BinOp::Ne => Some(Value::Bool($x != $y)),
        }
    };
}

/// Apply a non-short-circuit binary operator. The interpreter handles
/// `LAnd`/`LOr` itself (lazy right operand); calling this with them applies
/// eager boolean logic, which is what the SIMT simulator does after both
/// lanes' sides are available.
///
/// Operands of one numeric type — nearly every operation a kernel
/// executes — take an infallible monomorphic path; everything else
/// (mixed types, booleans, arrays, zero divisors, type errors) falls
/// through to [`binary_slow`], the reference the fast path is tested
/// against value for value and error for error.
#[inline]
pub fn binary(op: BinOp, a: Value, b: Value) -> Result<Value, ExecError> {
    let fast = match (a, b) {
        (Value::Double(x), Value::Double(y)) => float_fast!(op, x, y, Value::Double),
        (Value::Int(x), Value::Int(y)) => int_fast!(op, x, y, Value::Int, u32, 0x1f),
        (Value::Long(x), Value::Long(y)) => int_fast!(op, x, y, Value::Long, u64, 0x3f),
        (Value::Float(x), Value::Float(y)) => float_fast!(op, x, y, Value::Float),
        _ => None,
    };
    match fast {
        Some(v) => Ok(v),
        None => binary_slow(op, a, b),
    }
}

/// The dynamically-typed reference semantics of [`binary`]: Java binary
/// numeric promotion, then the operator on the promoted pair.
fn binary_slow(op: BinOp, a: Value, b: Value) -> Result<Value, ExecError> {
    match op {
        BinOp::Add => arith!(a, b, wrapping_add, +),
        BinOp::Sub => arith!(a, b, wrapping_sub, -),
        BinOp::Mul => arith!(a, b, wrapping_mul, *),
        BinOp::Div => match promoted(a, b)? {
            (Value::Int(_), Value::Int(0), _) => Err(ExecError::DivisionByZero),
            (Value::Long(_), Value::Long(0), _) => Err(ExecError::DivisionByZero),
            (Value::Int(x), Value::Int(y), _) => Ok(Value::Int(x.wrapping_div(y))),
            (Value::Long(x), Value::Long(y), _) => Ok(Value::Long(x.wrapping_div(y))),
            (Value::Float(x), Value::Float(y), _) => Ok(Value::Float(x / y)),
            (Value::Double(x), Value::Double(y), _) => Ok(Value::Double(x / y)),
            _ => unreachable!(),
        },
        BinOp::Rem => match promoted(a, b)? {
            (Value::Int(_), Value::Int(0), _) => Err(ExecError::DivisionByZero),
            (Value::Long(_), Value::Long(0), _) => Err(ExecError::DivisionByZero),
            (Value::Int(x), Value::Int(y), _) => Ok(Value::Int(x.wrapping_rem(y))),
            (Value::Long(x), Value::Long(y), _) => Ok(Value::Long(x.wrapping_rem(y))),
            (Value::Float(x), Value::Float(y), _) => Ok(Value::Float(x % y)),
            (Value::Double(x), Value::Double(y), _) => Ok(Value::Double(x % y)),
            _ => unreachable!(),
        },
        BinOp::And | BinOp::LAnd => int_bitop!(a, b, &, "integral or boolean"),
        BinOp::Or | BinOp::LOr => int_bitop!(a, b, |, "integral or boolean"),
        BinOp::Xor => int_bitop!(a, b, ^, "integral or boolean"),
        BinOp::Shl => shift(a, b, |x, s| x.wrapping_shl(s), |x, s| x.wrapping_shl(s)),
        BinOp::Shr => shift(a, b, |x, s| x.wrapping_shr(s), |x, s| x.wrapping_shr(s)),
        BinOp::UShr => shift(
            a,
            b,
            |x, s| (x as u32).wrapping_shr(s) as i32,
            |x, s| (x as u64).wrapping_shr(s) as i64,
        ),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let (pa, pb, _) = promoted(a, b)?;
            let ord = compare(pa, pb);
            Ok(Value::Bool(match op {
                BinOp::Lt => ord == Some(std::cmp::Ordering::Less),
                BinOp::Le => matches!(
                    ord,
                    Some(std::cmp::Ordering::Less) | Some(std::cmp::Ordering::Equal)
                ),
                BinOp::Gt => ord == Some(std::cmp::Ordering::Greater),
                BinOp::Ge => matches!(
                    ord,
                    Some(std::cmp::Ordering::Greater) | Some(std::cmp::Ordering::Equal)
                ),
                _ => unreachable!(),
            }))
        }
        BinOp::Eq | BinOp::Ne => {
            let eq = match (a, b) {
                (Value::Bool(x), Value::Bool(y)) => x == y,
                (Value::Array(x), Value::Array(y)) => x == y,
                _ => {
                    let (pa, pb, _) = promoted(a, b)?;
                    compare(pa, pb) == Some(std::cmp::Ordering::Equal)
                }
            };
            Ok(Value::Bool(if op == BinOp::Eq { eq } else { !eq }))
        }
    }
}

/// Java shift: the left operand keeps its (int/long) type, the count is
/// masked to 5 or 6 bits.
fn shift(
    a: Value,
    b: Value,
    fi: impl Fn(i32, u32) -> i32,
    fl: impl Fn(i64, u32) -> i64,
) -> Result<Value, ExecError> {
    let count = b.as_i64().ok_or_else(|| type_err("integral", b))?;
    match a {
        Value::Int(x) => Ok(Value::Int(fi(x, (count & 0x1f) as u32))),
        Value::Long(x) => Ok(Value::Long(fl(x, (count & 0x3f) as u32))),
        other => Err(type_err("integral", other)),
    }
}

fn compare(a: Value, b: Value) -> Option<std::cmp::Ordering> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Some(x.cmp(&y)),
        (Value::Long(x), Value::Long(y)) => Some(x.cmp(&y)),
        (Value::Float(x), Value::Float(y)) => x.partial_cmp(&y),
        (Value::Double(x), Value::Double(y)) => x.partial_cmp(&y),
        _ => None,
    }
}

/// Evaluate a math intrinsic. Single-argument intrinsics on integral input
/// promote to `double` (matching `java.lang.Math`); `Abs`/`Max`/`Min`
/// preserve the argument type.
pub fn intrinsic(f: Intrinsic, args: &[Value]) -> Result<Value, ExecError> {
    if args.len() != f.arity() {
        return Err(ExecError::ArityMismatch {
            function: f.to_string(),
            expected: f.arity(),
            found: args.len(),
        });
    }
    let d = |v: Value| v.as_f64().ok_or_else(|| type_err("numeric", v));
    Ok(match f {
        Intrinsic::Exp => Value::Double(d(args[0])?.exp()),
        Intrinsic::Log => Value::Double(d(args[0])?.ln()),
        Intrinsic::Sqrt => Value::Double(d(args[0])?.sqrt()),
        Intrinsic::Sin => Value::Double(d(args[0])?.sin()),
        Intrinsic::Cos => Value::Double(d(args[0])?.cos()),
        Intrinsic::Floor => Value::Double(d(args[0])?.floor()),
        Intrinsic::Ceil => Value::Double(d(args[0])?.ceil()),
        Intrinsic::Pow => Value::Double(d(args[0])?.powf(d(args[1])?)),
        Intrinsic::Abs => match args[0] {
            Value::Int(x) => Value::Int(x.wrapping_abs()),
            Value::Long(x) => Value::Long(x.wrapping_abs()),
            Value::Float(x) => Value::Float(x.abs()),
            Value::Double(x) => Value::Double(x.abs()),
            other => return Err(type_err("numeric", other)),
        },
        Intrinsic::Max | Intrinsic::Min => {
            let (pa, pb, _) = promoted(args[0], args[1])?;
            let take_a = match compare(pa, pb) {
                Some(std::cmp::Ordering::Greater) => f == Intrinsic::Max,
                Some(std::cmp::Ordering::Less) => f == Intrinsic::Min,
                _ => true,
            };
            if take_a {
                pa
            } else {
                pb
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_add_wraps() {
        assert_eq!(
            binary(BinOp::Add, Value::Int(i32::MAX), Value::Int(1)).unwrap(),
            Value::Int(i32::MIN)
        );
    }

    #[test]
    fn mixed_promotion() {
        assert_eq!(
            binary(BinOp::Add, Value::Int(1), Value::Double(0.5)).unwrap(),
            Value::Double(1.5)
        );
        assert_eq!(
            binary(BinOp::Mul, Value::Long(2), Value::Float(1.5)).unwrap(),
            Value::Float(3.0)
        );
    }

    #[test]
    fn integer_division_truncates_and_traps_zero() {
        assert_eq!(
            binary(BinOp::Div, Value::Int(-7), Value::Int(2)).unwrap(),
            Value::Int(-3)
        );
        assert_eq!(
            binary(BinOp::Div, Value::Int(1), Value::Int(0)),
            Err(ExecError::DivisionByZero)
        );
        // Float division by zero yields infinity, not an error.
        assert_eq!(
            binary(BinOp::Div, Value::Double(1.0), Value::Double(0.0)).unwrap(),
            Value::Double(f64::INFINITY)
        );
    }

    #[test]
    fn remainder_keeps_dividend_sign() {
        assert_eq!(
            binary(BinOp::Rem, Value::Int(-7), Value::Int(2)).unwrap(),
            Value::Int(-1)
        );
    }

    #[test]
    fn shifts_mask_count_like_jvm() {
        assert_eq!(
            binary(BinOp::Shl, Value::Int(1), Value::Int(33)).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            binary(BinOp::UShr, Value::Int(-1), Value::Int(28)).unwrap(),
            Value::Int(0xf)
        );
        assert_eq!(
            binary(BinOp::Shr, Value::Int(-8), Value::Int(1)).unwrap(),
            Value::Int(-4)
        );
    }

    #[test]
    fn comparisons_and_nan() {
        assert_eq!(
            binary(BinOp::Lt, Value::Int(1), Value::Int(2)).unwrap(),
            Value::Bool(true)
        );
        // NaN compares false with everything, like Java.
        assert_eq!(
            binary(BinOp::Le, Value::Double(f64::NAN), Value::Double(0.0)).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            binary(BinOp::Eq, Value::Double(f64::NAN), Value::Double(f64::NAN)).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn boolean_bitops() {
        assert_eq!(
            binary(BinOp::Xor, Value::Bool(true), Value::Bool(true)).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            binary(BinOp::And, Value::Bool(true), Value::Bool(false)).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn unary_ops() {
        assert_eq!(
            unary(UnOp::Neg, Value::Int(i32::MIN)).unwrap(),
            Value::Int(i32::MIN)
        );
        assert_eq!(unary(UnOp::BitNot, Value::Int(0)).unwrap(), Value::Int(-1));
        assert_eq!(
            unary(UnOp::Not, Value::Bool(false)).unwrap(),
            Value::Bool(true)
        );
        assert!(unary(UnOp::Not, Value::Int(1)).is_err());
    }

    #[test]
    fn intrinsics_promote_to_double() {
        assert_eq!(
            intrinsic(Intrinsic::Sqrt, &[Value::Int(9)]).unwrap(),
            Value::Double(3.0)
        );
        assert_eq!(
            intrinsic(Intrinsic::Max, &[Value::Int(3), Value::Int(5)]).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            intrinsic(Intrinsic::Abs, &[Value::Float(-2.5)]).unwrap(),
            Value::Float(2.5)
        );
    }

    #[test]
    fn intrinsic_arity_checked() {
        assert!(matches!(
            intrinsic(Intrinsic::Exp, &[]),
            Err(ExecError::ArityMismatch { .. })
        ));
    }

    const BIN_OPS: [BinOp; 19] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::UShr,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::LAnd,
        BinOp::LOr,
    ];

    /// Every `Value` kind with its edge values: NaN, signed zeros and
    /// infinities, the overflowing divisions' operands, zero divisors,
    /// shift counts at and past the operand width, array handles.
    fn edge_values() -> Vec<Value> {
        use crate::heap::ArrayId;
        let mut v = vec![Value::Bool(false), Value::Bool(true)];
        v.extend([0, 1, -1, 2, 7, 31, 32, 33, -33, i32::MIN, i32::MAX].map(Value::Int));
        v.extend([0, 1, -1, 5, 63, 64, 65, -65, 1 << 40, i64::MIN, i64::MAX].map(Value::Long));
        v.extend(
            [
                0.0,
                -0.0,
                1.5,
                -2.25,
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::MAX,
                f32::MIN_POSITIVE,
            ]
            .map(Value::Float),
        );
        v.extend(
            [
                0.0,
                -0.0,
                1.5,
                -2.25,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MAX,
                f64::MIN_POSITIVE,
                3e9,
            ]
            .map(Value::Double),
        );
        v.extend([Value::Array(ArrayId(1)), Value::Array(ArrayId(2))]);
        v
    }

    /// Results compared by bit pattern (so NaN equals NaN and -0.0 differs
    /// from 0.0), errors by `==`.
    fn bits(r: &Result<Value, ExecError>) -> Result<(u8, u64), &ExecError> {
        r.as_ref().map(|v| match *v {
            Value::Bool(b) => (0, b as u64),
            Value::Int(x) => (1, x as u32 as u64),
            Value::Long(x) => (2, x as u64),
            Value::Float(x) => (3, x.to_bits() as u64),
            Value::Double(x) => (4, x.to_bits()),
            Value::Array(a) => (5, a.0 as u64),
        })
    }

    #[test]
    fn fast_path_equals_the_promoting_reference_on_every_operand_pair() {
        let vals = edge_values();
        let (mut ok, mut err) = (0u32, 0u32);
        for op in BIN_OPS {
            for &a in &vals {
                for &b in &vals {
                    let fast = binary(op, a, b);
                    let slow = binary_slow(op, a, b);
                    assert_eq!(bits(&fast), bits(&slow), "{a} {op:?} {b}");
                    if fast.is_ok() {
                        ok += 1;
                    } else {
                        err += 1;
                    }
                }
            }
        }
        // Both outcomes are exercised, not just one side of the table.
        assert!(ok > 5_000 && err > 5_000, "ok {ok}, err {err}");
        assert_eq!(
            binary(BinOp::Div, Value::Int(i32::MIN), Value::Int(-1)).unwrap(),
            Value::Int(i32::MIN)
        );
        assert_eq!(
            binary(BinOp::Rem, Value::Long(i64::MIN), Value::Long(-1)).unwrap(),
            Value::Long(0)
        );
        assert_eq!(
            binary(BinOp::Rem, Value::Long(1), Value::Long(0)),
            Err(ExecError::DivisionByZero)
        );
    }

    #[test]
    fn unary_keeps_the_type_or_names_the_expected_kind() {
        for v in edge_values() {
            for (op, expected) in [
                (UnOp::Neg, "numeric"),
                (UnOp::Not, "boolean"),
                (UnOp::BitNot, "integral"),
            ] {
                let accepts = match op {
                    UnOp::Neg => v.ty().is_some_and(Ty::is_numeric),
                    UnOp::Not => v.ty() == Some(Ty::Bool),
                    UnOp::BitNot => v.ty().is_some_and(Ty::is_integral),
                };
                match unary(op, v) {
                    Ok(r) => {
                        assert!(accepts, "{op:?} {v} must be a type error");
                        assert_eq!(r.ty(), v.ty());
                        // Each operator is an involution, bit for bit.
                        assert_eq!(bits(&unary(op, r)), bits(&Ok(v)), "{op:?} {v}");
                    }
                    Err(e) => {
                        assert!(!accepts, "{op:?} {v} must succeed");
                        assert_eq!(e, type_err(expected, v));
                    }
                }
            }
        }
    }

    #[test]
    fn cast_identity_short_cut_agrees_with_the_conversion_table() {
        for v in edge_values() {
            for to in [Ty::Bool, Ty::Int, Ty::Long, Ty::Float, Ty::Double] {
                let got = v.cast(to);
                match got {
                    Some(r) => assert_eq!(r.ty(), Some(to), "{v} as {to}"),
                    None => assert!(
                        v.ty().is_none() || (v.ty() == Some(Ty::Bool)) != (to == Ty::Bool),
                        "{v} as {to} must convert"
                    ),
                }
                if v.ty() == Some(to) {
                    assert_eq!(bits(&got.ok_or(ExecError::DivisionByZero)), bits(&Ok(v)));
                }
            }
        }
    }

    #[test]
    fn array_reference_equality() {
        use crate::heap::ArrayId;
        assert_eq!(
            binary(
                BinOp::Eq,
                Value::Array(ArrayId(1)),
                Value::Array(ArrayId(1))
            )
            .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            binary(
                BinOp::Ne,
                Value::Array(ArrayId(1)),
                Value::Array(ArrayId(2))
            )
            .unwrap(),
            Value::Bool(true)
        );
    }
}
