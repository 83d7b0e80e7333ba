//! SQL's scalar rules, each written once.
//!
//! Both expression evaluators call these functions: the
//! [`interpreter`](crate::interpreter) after unpacking its
//! [`Value`](crate::value::Value) operands, and the batch
//! [`kernels`](crate::vectorized::kernels) lane by lane after unioning
//! their operands' NULLs. The two cannot disagree on a rule defined here,
//! only on how they unpack operands and pack results, which the kernels'
//! lane-by-lane oracle checks; a wrong rule here makes them agree, so the
//! hand-derived expectations below and in `tests/sqllogic/scalar.slt`
//! check the rules themselves, the way the paper's generated code and
//! interpreter share one expression tree (§4.3.4).
//!
//! Numbers are handled in the two domains a kernel lane stores
//! ([`Num`]): INT and BIGINT as `i64`, FLOAT and DOUBLE as `f64`. A FLOAT
//! is an `f64` holding an `f32` value exactly, so every result of FLOAT
//! type is rounded to `f32` here and nowhere else.

use crate::expr::BinaryOperator;
use crate::types::DataType;
use std::cmp::Ordering;

// ---- three-valued logic ----

/// `NOT a`; a NULL operand is NULL, as for every operator but AND/OR.
#[inline]
pub fn not(a: bool) -> bool {
    !a
}

/// `a AND b`, with `None` for NULL: FALSE wins over NULL, NULL over TRUE.
#[inline]
pub fn and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

/// `a OR b`, with `None` for NULL: TRUE wins over NULL, NULL over FALSE.
#[inline]
pub fn or(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

// ---- comparison ----

/// The test a comparison operator applies to the [`Ordering`] of its
/// operands, or `None` for an operator that does not compare.
pub fn comparison(op: BinaryOperator) -> Option<fn(Ordering) -> bool> {
    use BinaryOperator::*;
    use Ordering::*;
    Some(match op {
        Eq => |o| o == Equal,
        NotEq => |o| o != Equal,
        Lt => |o| o == Less,
        LtEq => |o| o != Greater,
        Gt => |o| o == Greater,
        GtEq => |o| o != Less,
        _ => return None,
    })
}

/// The order of floating values: NaN above every number and equal to
/// itself, -0.0 below 0.0 (`f64::total_cmp`). Integers compare exactly
/// as `i64`; an integer meets a float as the double it casts to.
#[inline]
pub fn cmp_double(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

/// The order of strings: by their UTF-8 bytes, which is char order.
#[inline]
pub fn cmp_str(a: &[u8], b: &[u8]) -> Ordering {
    a.cmp(b)
}

// ---- numbers ----

/// SQL's numeric types, narrowest first: the common type of two is the
/// wider, as [`DataType::tightest_common_type`] has it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Numeric {
    /// INT, 32 bits.
    Int,
    /// BIGINT, 64 bits.
    Long,
    /// FLOAT, an `f32`.
    Float,
    /// DOUBLE, an `f64`.
    Double,
}

impl Numeric {
    /// The numeric type `t` is, if it is one.
    pub fn of(t: &DataType) -> Option<Numeric> {
        Some(match t {
            DataType::Int => Numeric::Int,
            DataType::Long => Numeric::Long,
            DataType::Float => Numeric::Float,
            DataType::Double => Numeric::Double,
            _ => return None,
        })
    }

    /// INT or BIGINT.
    pub fn is_integral(self) -> bool {
        self <= Numeric::Long
    }
}

/// A non-NULL number in the domain a kernel lane stores it in.
#[derive(Debug, Clone, Copy)]
pub enum Num {
    /// An INT or BIGINT.
    I(i64),
    /// A FLOAT or DOUBLE.
    F(f64),
}

/// `a op b` for `+ - * / %` at `t`, the operation's result type
/// ([`BinaryOperator::result_type`]): both operands are [`cast`] to `t`
/// first. `None` is NULL (`/` or `%` by zero).
pub fn arith(op: BinaryOperator, a: Num, b: Num, t: Numeric) -> Option<Num> {
    match (cast(a, t), cast(b, t)) {
        (Num::I(a), Num::I(b)) => int_arith(op, a, b, t).map(Num::I),
        (Num::F(a), Num::F(b)) => float_arith(op, a, b, t).map(Num::F),
        _ => unreachable!("cast to one type gives one domain"),
    }
}

/// Integral `+ - * %` at `t`: `+ - *` wrap at its width, as in Java (the
/// paper-era Spark and Hive rule), so an INT result wraps at 32 bits;
/// `%` by zero is NULL and `MIN % -1` is 0. `/` always has a DOUBLE type
/// and is never integral.
#[inline]
pub fn int_arith(op: BinaryOperator, a: i64, b: i64, t: Numeric) -> Option<i64> {
    use BinaryOperator::*;
    let x = match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        Mod if b == 0 => return None,
        Mod => a.wrapping_rem(b),
        _ => unreachable!("{op:?} is not integral arithmetic"),
    };
    Some(wrap(x, t))
}

/// Floating `+ - * / %` at `t`; `/` and `%` by zero (either sign) are
/// NULL. A FLOAT result is the `f64` result of two `f32` operands
/// rounded to `f32`, which is their `f32` result exactly: an `f64`
/// has more than twice an `f32`'s 24 bits, so rounding twice never
/// differs from rounding once (Figueroa, 1995).
#[inline]
pub fn float_arith(op: BinaryOperator, a: f64, b: f64, t: Numeric) -> Option<f64> {
    use BinaryOperator::*;
    let x = match op {
        Add => a + b,
        Sub => a - b,
        Mul => a * b,
        Div | Mod if b == 0.0 => return None,
        Div => a / b,
        Mod => a % b,
        _ => unreachable!("{op:?} is not arithmetic"),
    };
    Some(round(x, t))
}

/// `-a` for an integer of type `t`: `-MIN` wraps to `MIN`.
#[inline]
pub fn neg_int(a: i64, t: Numeric) -> i64 {
    wrap(a.wrapping_neg(), t)
}

/// `-a` for a float: exact, so a FLOAT stays an `f32`.
#[inline]
pub fn neg_float(a: f64) -> f64 {
    -a
}

/// An integer at the width of `t`: an INT keeps its low 32 bits.
#[inline]
fn wrap(x: i64, t: Numeric) -> i64 {
    match t {
        Numeric::Int => x as i32 as i64,
        _ => x,
    }
}

/// A float at the precision of `t`: a FLOAT is the nearest `f32`.
#[inline]
fn round(x: f64, t: Numeric) -> f64 {
    match t {
        Numeric::Float => f64::from(x as f32),
        _ => x,
    }
}

/// `CAST(x AS t)` between numeric types.
pub fn cast(x: Num, t: Numeric) -> Num {
    if t.is_integral() {
        Num::I(cast_to_int(x, t))
    } else {
        Num::F(cast_to_float(x, t))
    }
}

/// `x` cast to the integral type `t`: a narrowing cast wraps; a float
/// truncates toward zero and saturates, NaN giving 0.
#[inline]
pub fn cast_to_int(x: Num, t: Numeric) -> i64 {
    match x {
        Num::I(x) => wrap(x, t),
        Num::F(x) if t == Numeric::Int => x as i32 as i64,
        Num::F(x) => x as i64,
    }
}

/// `x` cast to the floating type `t`: a FLOAT is the `f32` nearest the
/// source value, an integer rounded once, not through an `f64`.
#[inline]
pub fn cast_to_float(x: Num, t: Numeric) -> f64 {
    match x {
        Num::I(x) if t == Numeric::Float => f64::from(x as f32),
        Num::I(x) => x as f64,
        Num::F(x) => round(x, t),
    }
}

// ---- strings ----

/// `SUBSTR(s, pos[, len])` as a slice of `s`, counting chars: 1-based, a
/// `pos` below 1 starts at the first char, a negative `len` takes
/// nothing and no `len` takes the rest.
pub fn substr(s: &str, pos: i64, len: Option<i64>) -> &str {
    let start = (pos.max(1) - 1) as usize;
    let take = len.map_or(usize::MAX, |l| l.max(0) as usize);
    if s.is_ascii() {
        let from = start.min(s.len());
        return &s[from..from.saturating_add(take).min(s.len())];
    }
    let at = |s: &str, chars| s.char_indices().nth(chars).map_or(s.len(), |(b, _)| b);
    let from = at(s, start);
    &s[from..from + at(&s[from..], take)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use BinaryOperator::*;
    use Numeric::*;

    // Expectations here are worked out by hand, not by either evaluator:
    // both call these functions, so only a fixed answer catches a wrong
    // rule.

    #[test]
    fn three_valued_logic() {
        let (t, f, n) = (Some(true), Some(false), None);
        assert_eq!([and(t, t), and(t, f), and(f, n), and(n, f)], [t, f, f, f]);
        assert_eq!([and(t, n), and(n, t), and(n, n)], [n, n, n]);
        assert_eq!([or(f, f), or(f, t), or(t, n), or(n, t)], [f, t, t, t]);
        assert_eq!([or(f, n), or(n, f), or(n, n)], [n, n, n]);
        assert!(not(false) && !not(true));
    }

    #[test]
    fn comparisons_test_the_total_order() {
        let test = |op, a, b| comparison(op).unwrap()(cmp_double(a, b));
        assert!(test(Gt, f64::NAN, f64::INFINITY));
        assert!(test(Eq, f64::NAN, f64::NAN));
        assert!(test(Lt, -0.0, 0.0) && test(NotEq, -0.0, 0.0));
        assert!(test(LtEq, 1.0, 1.0) && test(GtEq, 1.0, 1.0));
        assert!(!test(Lt, 1.0, 1.0) && !test(Gt, 1.0, 1.0));
        assert_eq!(cmp_str("é".as_bytes(), "z".as_bytes()), Ordering::Greater);
        assert_eq!(cmp_str(b"ab", b"abc"), Ordering::Less);
        assert!(comparison(Add).is_none() && comparison(And).is_none());
    }

    #[test]
    fn integers_wrap_at_their_width() {
        assert_eq!(
            int_arith(Add, i32::MAX as i64, 1, Int),
            Some(i32::MIN as i64)
        );
        assert_eq!(
            int_arith(Sub, i32::MIN as i64, 1, Int),
            Some(i32::MAX as i64)
        );
        assert_eq!(int_arith(Mul, 65_536, 65_536, Int), Some(0));
        assert_eq!(int_arith(Add, i32::MAX as i64, 1, Long), Some(1 << 31));
        assert_eq!(int_arith(Add, i64::MAX, 1, Long), Some(i64::MIN));
        assert_eq!(int_arith(Mod, -7, 3, Long), Some(-1));
        assert_eq!(int_arith(Mod, i64::MIN, -1, Long), Some(0));
        assert_eq!(int_arith(Mod, 7, 0, Long), None);
        assert_eq!(neg_int(i32::MIN as i64, Int), i32::MIN as i64);
        assert_eq!(neg_int(i32::MIN as i64, Long), 1 << 31);
        assert_eq!(neg_int(i64::MIN, Long), i64::MIN);
    }

    #[test]
    fn floats_round_to_their_type_and_divide_to_null_by_zero() {
        let float = |x: f32| f64::from(x);
        assert_eq!(float_arith(Mul, float(0.1), 2.0, Float), Some(float(0.2)));
        assert_eq!(
            float_arith(Add, float(0.1), float(0.2), Float),
            Some(float(0.3))
        );
        assert_eq!(
            float_arith(Sub, 16_777_216.0, -1.0, Float),
            Some(16_777_216.0)
        );
        assert_eq!(
            float_arith(Sub, 16_777_216.0, -1.0, Double),
            Some(16_777_217.0)
        );
        assert_eq!(
            float_arith(Mul, 0.1, 3.0, Double),
            Some(0.30000000000000004)
        );
        assert_eq!(float_arith(Div, 7.0, 2.0, Double), Some(3.5));
        assert_eq!(float_arith(Div, 1.0, -0.0, Double), None);
        assert_eq!(float_arith(Mod, 7.5, 2.0, Double), Some(1.5));
        assert_eq!(float_arith(Mod, 1.0, 0.0, Double), None);
        assert!(float_arith(Div, 0.0, f64::NAN, Double).unwrap().is_nan());
        assert_eq!(neg_float(0.0).to_bits(), (-0.0f64).to_bits());
        let sum = arith(Add, Num::I(1), Num::F(0.5), Double);
        assert!(matches!(sum, Some(Num::F(x)) if x == 1.5));
        let quotient = arith(Div, Num::I(1), Num::I(0), Double);
        assert!(quotient.is_none());
    }

    #[test]
    fn casts_wrap_saturate_and_round() {
        let int = |x: Num, t| cast_to_int(x, t);
        assert_eq!(int(Num::I(1 << 32 | 5), Int), 5);
        assert_eq!(int(Num::I(i32::MAX as i64 + 1), Int), i32::MIN as i64);
        assert_eq!(int(Num::I(1 << 40), Long), 1 << 40);
        assert_eq!(int(Num::F(-2.9), Int), -2);
        assert_eq!(int(Num::F(1e10), Int), i32::MAX as i64);
        assert_eq!(int(Num::F(f64::NEG_INFINITY), Long), i64::MIN);
        assert_eq!(int(Num::F(f64::NAN), Int), 0);
        assert_eq!(cast_to_float(Num::I(16_777_217), Float), 16_777_216.0);
        assert_eq!(cast_to_float(Num::I(16_777_219), Float), 16_777_220.0);
        assert_eq!(cast_to_float(Num::I(16_777_217), Double), 16_777_217.0);
        // One rounding: 2^53 + 2^29 + 1 is nearer 2^53 + 2^30 as an f32,
        // but through an f64 it becomes 2^53 + 2^29, which ties to 2^53.
        let x = (1i64 << 53) + (1 << 29) + 1;
        assert_eq!(
            cast_to_float(Num::I(x), Float),
            ((1i64 << 53) + (1 << 30)) as f64
        );
        assert_eq!(cast_to_float(Num::F(0.1), Float), 0.10000000149011612);
        assert_eq!(cast_to_float(Num::F(1e300), Float), f64::INFINITY);
        assert_eq!(cast_to_float(Num::F(0.1), Double), 0.1);
        assert!(matches!(cast(Num::F(2.5), Long), Num::I(2)));
    }

    #[test]
    fn substr_counts_chars_from_one() {
        assert_eq!(substr("hello", 2, Some(3)), "ell");
        assert_eq!(substr("hello", 0, Some(2)), "he");
        assert_eq!(substr("hello", -5, None), "hello");
        assert_eq!(substr("hello", 4, Some(100)), "lo");
        assert_eq!(substr("hello", 9, None), "");
        assert_eq!(substr("hello", 1, Some(-1)), "");
        assert_eq!(substr("日本語テキスト", 2, Some(3)), "本語テ");
        assert_eq!(substr("naïve", 3, None), "ïve");
        assert_eq!(substr("€", 2, Some(1)), "");
    }
}
