//! Runtime values.
//!
//! `Value` is the boxed, dynamically typed representation used by the
//! interpreted expression evaluator and by rows flowing between physical
//! operators. Compiled ("code-generated") evaluation deliberately avoids
//! this type on hot paths — that difference is what Figure 4 of the paper
//! measures.
//!
//! Values implement a *total* order and hash (NaN and -0.0 are
//! canonicalized) so they can serve directly as grouping and sort keys.

use crate::error::{CatalystError, Result};
use crate::expr::BinaryOperator;
use crate::scalar::{self, Num, Numeric};
use crate::types::DataType;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single dynamically typed value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Boolean(bool),
    /// 32-bit integer.
    Int(i32),
    /// 64-bit integer.
    Long(i64),
    /// 32-bit float.
    Float(f32),
    /// 64-bit float.
    Double(f64),
    /// Fixed-precision decimal: unscaled value, precision, scale.
    Decimal(i128, u8, u8),
    /// UTF-8 string (shared so clones across shuffles are cheap).
    Str(Arc<str>),
    /// Days since the epoch.
    Date(i32),
    /// Microseconds since the epoch.
    Timestamp(i64),
    /// Raw bytes.
    Binary(Arc<[u8]>),
    /// Array of values.
    Array(Arc<Vec<Value>>),
    /// Struct of values (field order given by the type).
    Struct(Arc<Vec<Value>>),
}

impl Value {
    /// String helper.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// True for `Value::Null`.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Runtime type of this value (`Null` has type `DataType::Null`).
    pub fn dtype(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Boolean(_) => DataType::Boolean,
            Value::Int(_) => DataType::Int,
            Value::Long(_) => DataType::Long,
            Value::Float(_) => DataType::Float,
            Value::Double(_) => DataType::Double,
            Value::Decimal(_, p, s) => DataType::Decimal(*p, *s),
            Value::Str(_) => DataType::String,
            Value::Date(_) => DataType::Date,
            Value::Timestamp(_) => DataType::Timestamp,
            Value::Binary(_) => DataType::Binary,
            Value::Array(items) => {
                let elem = items
                    .iter()
                    .map(Value::dtype)
                    .reduce(|a, b| {
                        DataType::tightest_common_type(&a, &b).unwrap_or(DataType::String)
                    })
                    .unwrap_or(DataType::Null);
                DataType::Array(Box::new(elem))
            }
            Value::Struct(_) => DataType::struct_type(vec![]),
        }
    }

    /// Widen any integral value to i64.
    #[inline]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v as i64),
            Value::Long(v) => Some(*v),
            _ => None,
        }
    }

    /// Widen any numeric value to f64.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Long(v) => Some(*v as f64),
            Value::Float(v) => Some(*v as f64),
            Value::Double(v) => Some(*v),
            Value::Decimal(u, _, s) => Some(*u as f64 / 10f64.powi(*s as i32)),
            _ => None,
        }
    }

    /// Borrow the string payload.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow the boolean payload.
    #[inline]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// Approximate heap + inline size in bytes (memory accounting for the
    /// §3.6 columnar-vs-object cache comparison).
    pub fn approx_bytes(&self) -> u64 {
        match self {
            Value::Null => 8,
            Value::Boolean(_) => 8,
            Value::Int(_) | Value::Float(_) | Value::Date(_) => 8,
            Value::Long(_) | Value::Double(_) | Value::Timestamp(_) => 8,
            Value::Decimal(_, _, _) => 24,
            Value::Str(s) => Value::str_bytes(s),
            Value::Binary(b) => 16 + b.len() as u64 + 16,
            Value::Array(items) => 24 + items.iter().map(Value::approx_bytes).sum::<u64>(),
            Value::Struct(items) => 24 + items.iter().map(Value::approx_bytes).sum::<u64>(),
        }
    }

    /// [`Value::approx_bytes`] of a `Value::Str` holding `s`.
    pub fn str_bytes(s: &str) -> u64 {
        // Arc<str>: pointer + refcounts + payload.
        16 + s.len() as u64 + 16
    }

    // ---- arithmetic (assumes type coercion already unified operand
    // types; falls back to f64 when mixed) ----

    fn decimal_align(a: (i128, u8), b: (i128, u8)) -> (i128, i128, u8) {
        let (ua, sa) = a;
        let (ub, sb) = b;
        let s = sa.max(sb);
        let ua = ua * 10i128.pow((s - sa) as u32);
        let ub = ub * 10i128.pow((s - sb) as u32);
        (ua, ub, s)
    }

    /// Add two values with SQL null propagation.
    pub fn add(&self, other: &Value) -> Result<Value> {
        binary_numeric(self, other, "+", |a, b| a.checked_add(b), |a, b| a + b)
    }

    /// Subtract.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        binary_numeric(self, other, "-", |a, b| a.checked_sub(b), |a, b| a - b)
    }

    /// Multiply.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        binary_numeric(self, other, "*", |a, b| a.checked_mul(b), |a, b| a * b)
    }

    /// `self op other` for an arithmetic `op`, as an expression computes
    /// it: two numbers at the operation's result type by [`scalar::arith`]
    /// (INT wraps, `/` and `%` by zero are NULL), anything else by
    /// [`add`](Self::add), [`sub`](Self::sub) or [`mul`](Self::mul).
    pub fn arith(&self, op: BinaryOperator, other: &Value) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        // A DECIMAL meets a number as a double: the result type is DOUBLE
        // whenever it is numeric.
        let num = |v: &Value| v.num().or_else(|| v.as_f64().map(Num::F));
        let t = op.result_type(&self.dtype(), &other.dtype());
        if let (Some(a), Some(b), Some(t)) =
            (num(self), num(other), t.as_ref().and_then(Numeric::of))
        {
            return Ok(scalar::arith(op, a, b, t).map_or(Value::Null, |x| Value::from_num(x, t)));
        }
        match op {
            BinaryOperator::Add => self.add(other),
            BinaryOperator::Sub => self.sub(other),
            BinaryOperator::Mul => self.mul(other),
            _ => Err(type_err(op.symbol(), self, other)),
        }
    }

    /// Arithmetic negation at the value's own type (see [`scalar`]).
    pub fn neg(&self) -> Result<Value> {
        let t = Numeric::of(&self.dtype());
        match (self.num(), t) {
            (Some(Num::I(x)), Some(t)) => Ok(Value::from_num(Num::I(scalar::neg_int(x, t)), t)),
            (Some(Num::F(x)), Some(t)) => Ok(Value::from_num(Num::F(scalar::neg_float(x)), t)),
            _ => match self {
                Value::Null => Ok(Value::Null),
                Value::Decimal(u, p, s) => Ok(Value::Decimal(-u, *p, *s)),
                v => Err(CatalystError::eval(format!("cannot negate {v}"))),
            },
        }
    }

    /// An INT, BIGINT, FLOAT or DOUBLE in the domain a kernel lane
    /// stores it in; `None` for any other value.
    #[inline]
    pub fn num(&self) -> Option<Num> {
        match *self {
            Value::Int(v) => Some(Num::I(v.into())),
            Value::Long(v) => Some(Num::I(v)),
            Value::Float(v) => Some(Num::F(v.into())),
            Value::Double(v) => Some(Num::F(v)),
            _ => None,
        }
    }

    /// The value of type `t` that `x`, a number already of that type,
    /// holds.
    #[inline]
    pub fn from_num(x: Num, t: Numeric) -> Value {
        match (x, t) {
            (Num::I(x), Numeric::Int) => Value::Int(x as i32),
            (Num::I(x), _) => Value::Long(x),
            (Num::F(x), Numeric::Float) => Value::Float(x as f32),
            (Num::F(x), _) => Value::Double(x),
        }
    }

    /// SQL comparison: returns `None` when either side is NULL.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other))
    }

    /// Total order used for sorting and grouping; NULL sorts first,
    /// values of different type families order by type tag.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Boolean(a), Boolean(b)) => a.cmp(b),
            (Str(a), Str(b)) => scalar::cmp_str(a.as_bytes(), b.as_bytes()),
            (Binary(a), Binary(b)) => a.as_ref().cmp(b.as_ref()),
            (Date(a), Date(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (Array(a), Array(b)) | (Struct(a), Struct(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let o = x.total_cmp(y);
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                a.len().cmp(&b.len())
            }
            // Numerics compare cross-type via exact integer compare when
            // possible, else f64.
            (a, b) => match (a.as_i64(), b.as_i64()) {
                (Some(x), Some(y)) => x.cmp(&y),
                _ => match (a.as_f64(), b.as_f64()) {
                    (Some(x), Some(y)) => scalar::cmp_double(x, y),
                    _ => type_rank(a).cmp(&type_rank(b)),
                },
            },
        }
    }

    /// Cast to another type, returning NULL on lossy string parses that
    /// fail (SQL semantics) and errors on unsupported casts.
    pub fn cast_to(&self, target: &DataType) -> Result<Value> {
        use DataType as T;
        if self.is_null() {
            return Ok(Value::Null);
        }
        if &self.dtype() == target {
            return Ok(self.clone());
        }
        if let Some(t) = Numeric::of(target) {
            let x = match self {
                Value::Str(s) => {
                    let s = s.trim();
                    let v = match t {
                        Numeric::Int => s.parse().map(Value::Int).ok(),
                        Numeric::Long => s.parse().map(Value::Long).ok(),
                        Numeric::Float => s.parse().map(Value::Float).ok(),
                        Numeric::Double => s.parse().map(Value::Double).ok(),
                    };
                    return Ok(v.unwrap_or(Value::Null));
                }
                Value::Boolean(b) if t.is_integral() => Num::I(i64::from(*b)),
                Value::Decimal(u, _, s) if t.is_integral() => {
                    Num::I((u / 10i128.pow(*s as u32)) as i64)
                }
                // A DECIMAL casts to a float through the double it rounds to.
                Value::Decimal(..) => Num::F(self.as_f64().unwrap_or_default()),
                Value::Date(d) if t.is_integral() => Num::I(i64::from(*d)),
                Value::Timestamp(x) if t == Numeric::Long => Num::I(*x),
                v => v.num().ok_or_else(|| cast_err(self, target))?,
            };
            return Ok(Value::from_num(scalar::cast(x, t), t));
        }
        let out = match target {
            T::Boolean => match self {
                Value::Int(v) => Value::Boolean(*v != 0),
                Value::Long(v) => Value::Boolean(*v != 0),
                Value::Str(s) => match s.trim().to_ascii_lowercase().as_str() {
                    "true" | "t" | "1" => Value::Boolean(true),
                    "false" | "f" | "0" => Value::Boolean(false),
                    _ => Value::Null,
                },
                _ => return Err(cast_err(self, target)),
            },
            T::Decimal(p, s) => match self {
                Value::Int(v) => Value::Decimal(*v as i128 * 10i128.pow(*s as u32), *p, *s),
                Value::Long(v) => Value::Decimal(*v as i128 * 10i128.pow(*s as u32), *p, *s),
                Value::Decimal(u, _, old_s) => {
                    let u = if s >= old_s {
                        u * 10i128.pow((s - old_s) as u32)
                    } else {
                        u / 10i128.pow((old_s - s) as u32)
                    };
                    Value::Decimal(u, *p, *s)
                }
                Value::Float(v) => {
                    Value::Decimal((*v as f64 * 10f64.powi(*s as i32)).round() as i128, *p, *s)
                }
                Value::Double(v) => {
                    Value::Decimal((v * 10f64.powi(*s as i32)).round() as i128, *p, *s)
                }
                Value::Str(txt) => match txt.trim().parse::<f64>() {
                    Ok(v) => Value::Decimal((v * 10f64.powi(*s as i32)).round() as i128, *p, *s),
                    Err(_) => Value::Null,
                },
                _ => return Err(cast_err(self, target)),
            },
            T::String => Value::str(self.to_string()),
            T::Date => match self {
                Value::Int(v) => Value::Date(*v),
                Value::Long(v) => Value::Date(*v as i32),
                Value::Str(s) => parse_date(s).map(Value::Date).unwrap_or(Value::Null),
                Value::Timestamp(t) => Value::Date((*t / 86_400_000_000) as i32),
                _ => return Err(cast_err(self, target)),
            },
            T::Timestamp => match self {
                Value::Long(v) => Value::Timestamp(*v),
                Value::Date(d) => Value::Timestamp(*d as i64 * 86_400_000_000),
                Value::Str(s) => parse_date(s)
                    .map(|d| Value::Timestamp(d as i64 * 86_400_000_000))
                    .unwrap_or(Value::Null),
                _ => return Err(cast_err(self, target)),
            },
            _ => return Err(cast_err(self, target)),
        };
        Ok(out)
    }
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Boolean(_) => 1,
        Value::Int(_) | Value::Long(_) | Value::Float(_) | Value::Double(_) => 2,
        Value::Decimal(_, _, _) => 2,
        Value::Date(_) => 3,
        Value::Timestamp(_) => 4,
        Value::Str(_) => 5,
        Value::Binary(_) => 6,
        Value::Array(_) => 7,
        Value::Struct(_) => 8,
    }
}

fn type_err(op: &str, a: &Value, b: &Value) -> CatalystError {
    CatalystError::eval(format!(
        "cannot apply '{op}' to {} and {}",
        a.dtype(),
        b.dtype()
    ))
}

fn cast_err(v: &Value, t: &DataType) -> CatalystError {
    CatalystError::eval(format!("cannot cast {} to {t}", v.dtype()))
}

/// Parse `YYYY-MM-DD` into days since the Unix epoch.
pub fn parse_date(s: &str) -> Option<i32> {
    let s = s.trim();
    let mut parts = s.splitn(3, '-');
    let year: i64 = parts.next()?.parse().ok()?;
    let month: u32 = parts.next()?.parse().ok()?;
    let day: u32 = parts
        .next()?
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()?;
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return None;
    }
    // Days from civil algorithm (Howard Hinnant), valid far beyond our needs.
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (month as i64 + 9) % 12;
    let doy = (153 * mp + 2) / 5 + day as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    Some((era * 146_097 + doe - 719_468) as i32)
}

/// Format days since the epoch back to `YYYY-MM-DD`.
pub fn format_date(days: i32) -> String {
    let z = days as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn binary_numeric(
    a: &Value,
    b: &Value,
    op: &str,
    int_op: impl Fn(i64, i64) -> Option<i64>,
    float_op: impl Fn(f64, f64) -> f64,
) -> Result<Value> {
    use Value::*;
    if a.is_null() || b.is_null() {
        return Ok(Null);
    }
    match (a, b) {
        (Int(x), Int(y)) => int_op(*x as i64, *y as i64)
            .map(|v| {
                if v >= i32::MIN as i64 && v <= i32::MAX as i64 {
                    Int(v as i32)
                } else {
                    Long(v)
                }
            })
            .ok_or_else(|| CatalystError::eval(format!("integer overflow in '{op}'"))),
        (Decimal(ua, pa, sa), Decimal(ub, _pb, sb)) => {
            if op == "*" {
                let s = sa + sb;
                return Ok(Decimal(ua * ub, (pa + s).min(38), s));
            }
            let (x, y, s) = Value::decimal_align((*ua, *sa), (*ub, *sb));
            let unscaled = match op {
                "+" => x + y,
                "-" => x - y,
                _ => return Err(type_err(op, a, b)),
            };
            Ok(Decimal(unscaled, 38.min(*pa + 1), s))
        }
        _ => match (a.as_i64(), b.as_i64()) {
            (Some(x), Some(y)) => int_op(x, y)
                .map(Long)
                .ok_or_else(|| CatalystError::eval(format!("integer overflow in '{op}'"))),
            _ => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Ok(Double(float_op(x, y))),
                _ => {
                    if op == "+" {
                        if let (Some(x), Some(y)) = (a.as_str(), b.as_str()) {
                            return Ok(Value::str(format!("{x}{y}")));
                        }
                    }
                    Err(type_err(op, a, b))
                }
            },
        },
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Boolean(b) => b.hash(state),
            // All numerics hash via a canonical f64/i64 split so that
            // Int(1), Long(1) and Double(1.0) group together after
            // coercion edge cases.
            Value::Int(v) => hash_num(*v as f64, Some(*v as i64), state),
            Value::Long(v) => hash_num(*v as f64, Some(*v), state),
            Value::Float(v) => hash_num(*v as f64, exact_int(*v as f64), state),
            Value::Double(v) => hash_num(*v, exact_int(*v), state),
            Value::Decimal(u, _, s) => {
                let as_f = *u as f64 / 10f64.powi(*s as i32);
                hash_num(as_f, exact_int(as_f), state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                3u8.hash(state);
                d.hash(state);
            }
            Value::Timestamp(t) => {
                4u8.hash(state);
                t.hash(state);
            }
            Value::Binary(b) => {
                5u8.hash(state);
                b.hash(state);
            }
            Value::Array(items) | Value::Struct(items) => {
                6u8.hash(state);
                for v in items.iter() {
                    v.hash(state);
                }
            }
        }
    }
}

fn exact_int(v: f64) -> Option<i64> {
    if v.fract() == 0.0 && v.abs() < 2f64.powi(53) {
        Some(v as i64)
    } else {
        None
    }
}

fn hash_num<H: Hasher>(f: f64, i: Option<i64>, state: &mut H) {
    1u8.hash(state);
    match i {
        Some(i) => i.hash(state),
        None => {
            // Canonicalize NaN and -0.0.
            let f = if f.is_nan() {
                f64::NAN
            } else if f == 0.0 {
                0.0
            } else {
                f
            };
            f.to_bits().hash(state);
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Boolean(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Long(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Decimal(u, _, s) => {
                if *s == 0 {
                    write!(f, "{u}")
                } else {
                    let pow = 10i128.pow(*s as u32);
                    let sign = if *u < 0 { "-" } else { "" };
                    let abs = u.abs();
                    write!(
                        f,
                        "{sign}{}.{:0width$}",
                        abs / pow,
                        abs % pow,
                        width = *s as usize
                    )
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{}", format_date(*d)),
            Value::Timestamp(t) => write!(f, "{t}us"),
            Value::Binary(b) => write!(
                f,
                "0x{}",
                b.iter().map(|x| format!("{x:02x}")).collect::<String>()
            ),
            Value::Array(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Struct(items) => {
                write!(f, "{{")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_propagates_through_arithmetic() {
        assert_eq!(Value::Null.add(&Value::Int(1)).unwrap(), Value::Null);
        assert_eq!(Value::Int(1).mul(&Value::Null).unwrap(), Value::Null);
    }

    #[test]
    fn integer_arithmetic_widens_on_overflow() {
        // What the SUM accumulator relies on; expression arithmetic wraps
        // at its declared width instead (see `interpreter`).
        let big = Value::Int(i32::MAX);
        assert_eq!(
            big.add(&Value::Int(1)).unwrap(),
            Value::Long(i32::MAX as i64 + 1)
        );
    }

    #[test]
    fn division_by_zero_is_null() {
        assert_eq!(
            Value::Int(1)
                .arith(BinaryOperator::Div, &Value::Int(0))
                .unwrap(),
            Value::Null
        );
        assert_eq!(
            Value::Long(7)
                .arith(BinaryOperator::Mod, &Value::Long(0))
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn division_promotes_to_double() {
        assert_eq!(
            Value::Int(7)
                .arith(BinaryOperator::Div, &Value::Int(2))
                .unwrap(),
            Value::Double(3.5)
        );
    }

    #[test]
    fn string_concat_via_plus() {
        assert_eq!(
            Value::str("ab").add(&Value::str("cd")).unwrap(),
            Value::str("abcd")
        );
    }

    #[test]
    fn sql_cmp_returns_none_on_null() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
    }

    #[test]
    fn cross_numeric_compare() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Double(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Long(3).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn nan_and_negzero_hash_consistently() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_eq!(h(&Value::Double(0.0)), h(&Value::Double(-0.0)));
        assert_eq!(h(&Value::Double(f64::NAN)), h(&Value::Double(f64::NAN)));
        assert_eq!(h(&Value::Int(5)), h(&Value::Long(5)));
        assert_eq!(h(&Value::Long(5)), h(&Value::Double(5.0)));
    }

    #[test]
    fn cast_string_to_numbers() {
        assert_eq!(
            Value::str("42").cast_to(&DataType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::str("4.5").cast_to(&DataType::Double).unwrap(),
            Value::Double(4.5)
        );
        // Unparseable strings become NULL, not an error.
        assert_eq!(
            Value::str("abc").cast_to(&DataType::Int).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn cast_decimal_rescales() {
        let d = Value::Decimal(12345, 10, 2); // 123.45
        let up = d.cast_to(&DataType::Decimal(12, 4)).unwrap();
        assert_eq!(up, Value::Decimal(1_234_500, 12, 4));
        let down = d.cast_to(&DataType::Decimal(10, 1)).unwrap();
        assert_eq!(down, Value::Decimal(1234, 10, 1));
    }

    #[test]
    fn decimal_addition_aligns_scales() {
        let a = Value::Decimal(150, 10, 2); // 1.50
        let b = Value::Decimal(25, 10, 1); // 2.5
        assert_eq!(a.add(&b).unwrap(), Value::Decimal(400, 11, 2)); // 4.00
    }

    #[test]
    fn date_roundtrip() {
        for s in ["1970-01-01", "2015-01-01", "1999-12-31", "2026-07-07"] {
            let d = parse_date(s).unwrap();
            assert_eq!(format_date(d), s);
        }
        assert_eq!(parse_date("1970-01-01"), Some(0));
        assert_eq!(parse_date("1970-01-02"), Some(1));
        assert_eq!(parse_date("not a date"), None);
    }

    #[test]
    fn total_order_puts_null_first() {
        let mut vals = [Value::Int(2), Value::Null, Value::Int(1)];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int(1));
    }
}
