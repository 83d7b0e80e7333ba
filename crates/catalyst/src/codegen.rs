//! Expression compilation — the Rust analogue of Catalyst's runtime code
//! generation (§4.3.4).
//!
//! The paper uses Scala quasiquotes to turn an expression tree into JVM
//! bytecode, eliminating the per-row cost of walking the tree (branching
//! and virtual calls) and of boxing intermediate values. Rust has no
//! stable JIT, so we substitute the closest native mechanism: each tree is
//! *compiled once* into a fused closure graph specialized to the static
//! types of its operands. Per row, evaluation is a chain of direct calls
//! over unboxed `i64`/`f64`/`bool` (`Option` for NULL) with no node-type
//! dispatch and no intermediate [`Value`] allocation.
//!
//! Like the paper's generator, compilation is *composable* and partial:
//! any subtree the compiler does not specialize falls back to the
//! interpreter ("it was straightforward to combine code-generated
//! evaluation with interpreted evaluation"), so every expression can be
//! compiled.

use crate::error::Result;
use crate::expr::{BinaryOperator, Expr, ScalarFunc};
use crate::interpreter;
use crate::row::Row;
use crate::types::DataType;
use crate::value::Value;
use std::sync::Arc;

/// A compiled per-row evaluator returning an unboxed `Option<T>`
/// (`None` = SQL NULL).
pub type RowFn<T> = Arc<dyn Fn(&Row) -> Option<T> + Send + Sync>;

/// A compiled evaluator, specialized by result type when possible.
#[derive(Clone)]
pub enum Compiled {
    /// Integral result (Int and Long unify to i64 internally).
    Long(RowFn<i64>),
    /// Floating result (Float and Double unify to f64 internally).
    Double(RowFn<f64>),
    /// Boolean result.
    Bool(RowFn<bool>),
    /// String result.
    Str(RowFn<Arc<str>>),
    /// Unspecialized fallback: interpret the subtree.
    Fallback(Arc<dyn Fn(&Row) -> Result<Value> + Send + Sync>),
}

impl Compiled {
    /// Evaluate to a boxed [`Value`], tagging integers/floats with the
    /// declared `dtype` (Int vs Long, Float vs Double).
    pub fn eval_value(&self, row: &Row, dtype: &DataType) -> Result<Value> {
        Ok(match self {
            Compiled::Long(f) => match f(row) {
                None => Value::Null,
                Some(v) => match dtype {
                    DataType::Int => Value::Int(v as i32),
                    _ => Value::Long(v),
                },
            },
            Compiled::Double(f) => match f(row) {
                None => Value::Null,
                Some(v) => match dtype {
                    DataType::Float => Value::Float(v as f32),
                    _ => Value::Double(v),
                },
            },
            Compiled::Bool(f) => f(row).map_or(Value::Null, Value::Boolean),
            Compiled::Str(f) => f(row).map_or(Value::Null, Value::Str),
            Compiled::Fallback(f) => f(row)?,
        })
    }
}

/// Compile a bound expression.
pub fn compile(expr: &Expr) -> Compiled {
    if let Some(c) = try_compile(expr) {
        return c;
    }
    fallback(expr)
}

fn fallback(expr: &Expr) -> Compiled {
    let e = expr.clone();
    Compiled::Fallback(Arc::new(move |row| interpreter::eval(&e, row)))
}

fn as_long(c: &Compiled) -> Option<RowFn<i64>> {
    match c {
        Compiled::Long(f) => Some(f.clone()),
        _ => None,
    }
}

fn as_double(c: &Compiled) -> Option<RowFn<f64>> {
    match c {
        Compiled::Double(f) => Some(f.clone()),
        Compiled::Long(f) => {
            let f = f.clone();
            Some(Arc::new(move |row| f(row).map(|v| v as f64)))
        }
        _ => None,
    }
}

fn as_str_fn(c: &Compiled) -> Option<RowFn<Arc<str>>> {
    match c {
        Compiled::Str(f) => Some(f.clone()),
        _ => None,
    }
}

fn as_bool_fn(c: &Compiled) -> Option<RowFn<bool>> {
    match c {
        Compiled::Bool(f) => Some(f.clone()),
        _ => None,
    }
}

fn try_compile(expr: &Expr) -> Option<Compiled> {
    match expr {
        Expr::Literal(Value::Int(v)) => {
            let v = *v as i64;
            Some(Compiled::Long(Arc::new(move |_| Some(v))))
        }
        Expr::Literal(Value::Long(v)) => {
            let v = *v;
            Some(Compiled::Long(Arc::new(move |_| Some(v))))
        }
        Expr::Literal(Value::Float(v)) => {
            let v = *v as f64;
            Some(Compiled::Double(Arc::new(move |_| Some(v))))
        }
        Expr::Literal(Value::Double(v)) => {
            let v = *v;
            Some(Compiled::Double(Arc::new(move |_| Some(v))))
        }
        Expr::Literal(Value::Boolean(b)) => {
            let b = *b;
            Some(Compiled::Bool(Arc::new(move |_| Some(b))))
        }
        Expr::Literal(Value::Str(s)) => {
            let s = s.clone();
            Some(Compiled::Str(Arc::new(move |_| Some(s.clone()))))
        }
        Expr::BoundRef { index, dtype, .. } => compile_bound_ref(*index, dtype),
        Expr::Alias { child, .. } => try_compile(child),
        Expr::Cast { expr, dtype } => {
            // As `Value::cast_to`: a BIGINT narrows to INT by wrapping, a
            // float saturates.
            let to_int = *dtype == DataType::Int;
            match (dtype, compile(expr)) {
                (DataType::Int | DataType::Long, Compiled::Long(f)) if to_int && !is_int(expr) => {
                    Some(Compiled::Long(Arc::new(move |row| {
                        f(row).map(|v| wrap(v, true))
                    })))
                }
                (DataType::Int | DataType::Long, Compiled::Long(f)) => Some(Compiled::Long(f)),
                (DataType::Int | DataType::Long, Compiled::Double(f)) => {
                    Some(Compiled::Long(Arc::new(move |row| {
                        f(row).map(|v| if to_int { v as i32 as i64 } else { v as i64 })
                    })))
                }
                (DataType::Double | DataType::Float, inner) => {
                    as_double(&inner).map(Compiled::Double)
                }
                _ => None,
            }
        }
        Expr::Negate(e) => match compile(e) {
            Compiled::Long(f) => {
                let int = is_int(e);
                Some(Compiled::Long(Arc::new(move |row| {
                    f(row).map(|v| wrap(v.wrapping_neg(), int))
                })))
            }
            Compiled::Double(f) => Some(Compiled::Double(Arc::new(move |row| f(row).map(|v| -v)))),
            _ => None,
        },
        Expr::Not(e) => {
            let f = as_bool_fn(&compile(e))?;
            Some(Compiled::Bool(Arc::new(move |row| f(row).map(|b| !b))))
        }
        Expr::IsNull(e) => {
            let c = compile(e);
            Some(Compiled::Bool(is_null_fn(c, true)))
        }
        Expr::IsNotNull(e) => {
            let c = compile(e);
            Some(Compiled::Bool(is_null_fn(c, false)))
        }
        Expr::BinaryOp { left, op, right } => compile_binary(left, *op, right),
        Expr::ScalarFn { func, args } => compile_scalar_fn(*func, args),
        // IN over constant lists: compiled membership test. (SQL
        // three-valued semantics: NULL input → NULL; a NULL in the list
        // only matters for non-matches, which the fallback handles, so we
        // only take lists with no NULLs here.)
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let negated = *negated;
            match compile(expr) {
                Compiled::Long(f) => {
                    let mut values = Vec::with_capacity(list.len());
                    for item in list {
                        match item {
                            Expr::Literal(Value::Int(v)) => values.push(*v as i64),
                            Expr::Literal(Value::Long(v)) => values.push(*v),
                            _ => return None,
                        }
                    }
                    values.sort_unstable();
                    Some(Compiled::Bool(Arc::new(move |row| {
                        f(row).map(|v| values.binary_search(&v).is_ok() != negated)
                    })))
                }
                Compiled::Str(f) => {
                    let mut values: Vec<Arc<str>> = Vec::with_capacity(list.len());
                    for item in list {
                        match item {
                            Expr::Literal(Value::Str(s)) => values.push(s.clone()),
                            _ => return None,
                        }
                    }
                    values.sort();
                    Some(Compiled::Bool(Arc::new(move |row| {
                        f(row).map(|v| {
                            values
                                .binary_search_by(|p| p.as_ref().cmp(v.as_ref()))
                                .is_ok()
                                != negated
                        })
                    })))
                }
                _ => None,
            }
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            // Pattern must be a literal for the compiled path.
            let s = as_str_fn(&compile(expr))?;
            if let Expr::Literal(Value::Str(p)) = pattern.as_ref() {
                let p: String = p.to_string();
                let negated = *negated;
                Some(Compiled::Bool(Arc::new(move |row| {
                    s(row).map(|v| interpreter::like_match(&v, &p) != negated)
                })))
            } else {
                None
            }
        }
        _ => None,
    }
}

fn is_null_fn(c: Compiled, want_null: bool) -> RowFn<bool> {
    macro_rules! arm {
        ($f:expr) => {{
            let f = $f;
            Arc::new(move |row: &Row| Some(f(row).is_none() == want_null)) as RowFn<bool>
        }};
    }
    match c {
        Compiled::Long(f) => arm!(f),
        Compiled::Double(f) => arm!(f),
        Compiled::Bool(f) => arm!(f),
        Compiled::Str(f) => arm!(f),
        Compiled::Fallback(f) => Arc::new(move |row| f(row).ok().map(|v| v.is_null() == want_null)),
    }
}

fn compile_bound_ref(index: usize, dtype: &DataType) -> Option<Compiled> {
    match dtype {
        DataType::Int | DataType::Long => Some(Compiled::Long(Arc::new(move |row| {
            match row.values().get(index) {
                Some(Value::Long(v)) => Some(*v),
                Some(Value::Int(v)) => Some(*v as i64),
                _ => None,
            }
        }))),
        DataType::Float | DataType::Double => {
            Some(Compiled::Double(Arc::new(move |row| {
                match row.values().get(index) {
                    Some(Value::Double(v)) => Some(*v),
                    Some(Value::Float(v)) => Some(*v as f64),
                    Some(Value::Long(v)) => Some(*v as f64),
                    Some(Value::Int(v)) => Some(*v as f64),
                    _ => None,
                }
            })))
        }
        DataType::Boolean => Some(Compiled::Bool(Arc::new(move |row| {
            match row.values().get(index) {
                Some(Value::Boolean(b)) => Some(*b),
                _ => None,
            }
        }))),
        DataType::String => Some(Compiled::Str(Arc::new(move |row| {
            match row.values().get(index) {
                Some(Value::Str(s)) => Some(s.clone()),
                _ => None,
            }
        }))),
        _ => None,
    }
}

macro_rules! arith {
    ($l:expr, $r:expr, $op:tt) => {{
        let (l, r) = ($l, $r);
        Arc::new(move |row: &Row| Some(l(row)? $op r(row)?))
    }};
}

/// Integral `+ - *` wrap at the declared width, as in Java (the paper-era
/// Spark and Hive rule): INT with INT wraps at 32 bits, anything with a
/// BIGINT at 64. Explicit `wrapping_*`, so debug and release agree.
macro_rules! int_arith {
    ($l:expr, $r:expr, $int:expr, $op:ident) => {{
        let (l, r, int) = ($l, $r, $int);
        Arc::new(move |row: &Row| Some(wrap(l(row)?.$op(r(row)?), int))) as RowFn<i64>
    }};
}

/// Is `e` INT-typed (integral arithmetic over it wraps at 32 bits)?
fn is_int(e: &Expr) -> bool {
    e.data_type().ok() == Some(DataType::Int)
}

/// Wrap a 64-bit integral result to 32 bits when it is INT-typed.
#[inline]
pub(crate) fn wrap(v: i64, int: bool) -> i64 {
    if int {
        v as i32 as i64
    } else {
        v
    }
}

macro_rules! cmp_fn {
    ($l:expr, $r:expr, $op:ident) => {{
        let (l, r) = ($l, $r);
        Arc::new(move |row: &Row| Some(l(row)?.$op(&r(row)?))) as RowFn<bool>
    }};
}

fn compile_binary(left: &Expr, op: BinaryOperator, right: &Expr) -> Option<Compiled> {
    use BinaryOperator::*;
    let lc = try_compile(left)?;
    let rc = try_compile(right)?;

    // Boolean connectives: three-valued logic over Option<bool>.
    if op == And || op == Or {
        let l = as_bool_fn(&lc)?;
        let r = as_bool_fn(&rc)?;
        let f: RowFn<bool> = match op {
            And => Arc::new(move |row| match (l(row), r(row)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            }),
            Or => Arc::new(move |row| match (l(row), r(row)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            }),
            _ => unreachable!(),
        };
        return Some(Compiled::Bool(f));
    }

    // Integer fast path: both sides integral.
    if let (Some(l), Some(r)) = (as_long(&lc), as_long(&rc)) {
        let int = is_int(left) && is_int(right);
        return Some(match op {
            Add => Compiled::Long(int_arith!(l, r, int, wrapping_add)),
            Sub => Compiled::Long(int_arith!(l, r, int, wrapping_sub)),
            Mul => Compiled::Long(int_arith!(l, r, int, wrapping_mul)),
            Mod => Compiled::Long(Arc::new(move |row| {
                let b = r(row)?;
                if b == 0 {
                    None
                } else {
                    Some(l(row)?.wrapping_rem(b))
                }
            })),
            Div => Compiled::Double(Arc::new(move |row| {
                let b = r(row)?;
                if b == 0 {
                    None
                } else {
                    Some(l(row)? as f64 / b as f64)
                }
            })),
            Eq => Compiled::Bool(cmp_fn!(l, r, eq)),
            NotEq => Compiled::Bool(cmp_fn!(l, r, ne)),
            Lt => Compiled::Bool(cmp_fn!(l, r, lt)),
            LtEq => Compiled::Bool(cmp_fn!(l, r, le)),
            Gt => Compiled::Bool(cmp_fn!(l, r, gt)),
            GtEq => Compiled::Bool(cmp_fn!(l, r, ge)),
            And | Or => unreachable!(),
        });
    }

    // Float path: both sides numeric.
    if let (Some(l), Some(r)) = (as_double(&lc), as_double(&rc)) {
        return Some(match op {
            Add => Compiled::Double(arith!(l, r, +)),
            Sub => Compiled::Double(arith!(l, r, -)),
            Mul => Compiled::Double(arith!(l, r, *)),
            Div => Compiled::Double(Arc::new(move |row| {
                let b = r(row)?;
                if b == 0.0 {
                    None
                } else {
                    Some(l(row)? / b)
                }
            })),
            Mod => Compiled::Double(Arc::new(move |row| {
                let b = r(row)?;
                if b == 0.0 {
                    None
                } else {
                    Some(l(row)? % b)
                }
            })),
            Eq => Compiled::Bool(cmp_fn!(l, r, eq)),
            NotEq => Compiled::Bool(cmp_fn!(l, r, ne)),
            Lt => Compiled::Bool(cmp_fn!(l, r, lt)),
            LtEq => Compiled::Bool(cmp_fn!(l, r, le)),
            Gt => Compiled::Bool(cmp_fn!(l, r, gt)),
            GtEq => Compiled::Bool(cmp_fn!(l, r, ge)),
            And | Or => unreachable!(),
        });
    }

    // String comparisons.
    if let (Some(l), Some(r)) = (as_str_fn(&lc), as_str_fn(&rc)) {
        return Some(match op {
            Eq => Compiled::Bool(cmp_fn!(l, r, eq)),
            NotEq => Compiled::Bool(cmp_fn!(l, r, ne)),
            Lt => Compiled::Bool(cmp_fn!(l, r, lt)),
            LtEq => Compiled::Bool(cmp_fn!(l, r, le)),
            Gt => Compiled::Bool(cmp_fn!(l, r, gt)),
            GtEq => Compiled::Bool(cmp_fn!(l, r, ge)),
            Add => {
                let (l, r) = (l, r);
                Compiled::Str(Arc::new(move |row| {
                    let a = l(row)?;
                    let b = r(row)?;
                    Some(Arc::from(format!("{a}{b}")))
                }))
            }
            _ => return None,
        });
    }

    None
}

fn compile_scalar_fn(func: ScalarFunc, args: &[Expr]) -> Option<Compiled> {
    use ScalarFunc::*;
    match func {
        StartsWith | EndsWith | Contains => {
            let s = as_str_fn(&try_compile(&args[0])?)?;
            let p = as_str_fn(&try_compile(&args[1])?)?;
            Some(Compiled::Bool(Arc::new(move |row| {
                let a = s(row)?;
                let b = p(row)?;
                Some(match func {
                    StartsWith => a.starts_with(b.as_ref()),
                    EndsWith => a.ends_with(b.as_ref()),
                    _ => a.contains(b.as_ref()),
                })
            })))
        }
        Length => {
            let s = as_str_fn(&try_compile(&args[0])?)?;
            Some(Compiled::Long(Arc::new(move |row| {
                Some(s(row)?.chars().count() as i64)
            })))
        }
        Substr => {
            let s = as_str_fn(&try_compile(&args[0])?)?;
            let pos = as_long(&try_compile(&args[1])?)?;
            let len = match args.get(2) {
                Some(a) => Some(as_long(&try_compile(a)?)?),
                None => None,
            };
            Some(Compiled::Str(Arc::new(move |row| {
                let v = s(row)?;
                let start = (pos(row)?.max(1) - 1) as usize;
                let take = match &len {
                    Some(l) => l(row)?.max(0) as usize,
                    None => usize::MAX,
                };
                Some(Arc::from(
                    v.chars().skip(start).take(take).collect::<String>(),
                ))
            })))
        }
        Upper | Lower | Trim => {
            let s = as_str_fn(&try_compile(&args[0])?)?;
            Some(Compiled::Str(Arc::new(move |row| {
                let v = s(row)?;
                Some(match func {
                    Upper => Arc::from(v.to_uppercase()),
                    Lower => Arc::from(v.to_lowercase()),
                    _ => Arc::from(v.trim()),
                })
            })))
        }
        Abs => match try_compile(&args[0])? {
            Compiled::Long(f) => Some(Compiled::Long(Arc::new(move |row| f(row).map(i64::abs)))),
            Compiled::Double(f) => {
                Some(Compiled::Double(Arc::new(move |row| f(row).map(f64::abs))))
            }
            _ => None,
        },
        Sqrt => {
            let f = as_double(&try_compile(&args[0])?)?;
            Some(Compiled::Double(Arc::new(move |row| f(row).map(f64::sqrt))))
        }
        _ => None,
    }
}

/// Compile a predicate to a plain `fn(&Row) -> bool` (NULL ⇒ false).
pub fn compile_predicate(expr: &Expr) -> Arc<dyn Fn(&Row) -> bool + Send + Sync> {
    match compile(expr) {
        Compiled::Bool(f) => Arc::new(move |row| f(row).unwrap_or(false)),
        other => {
            let dtype = expr.data_type().unwrap_or(DataType::Boolean);
            Arc::new(move |row| matches!(other.eval_value(row, &dtype), Ok(Value::Boolean(true))))
        }
    }
}

/// Compile a projection to a row-to-row function.
pub fn compile_projection(exprs: &[Expr]) -> Arc<dyn Fn(&Row) -> Result<Row> + Send + Sync> {
    let compiled: Vec<(Compiled, DataType)> = exprs
        .iter()
        .map(|e| (compile(e), e.data_type().unwrap_or(DataType::String)))
        .collect();
    Arc::new(move |row| {
        let mut out = Vec::with_capacity(compiled.len());
        for (c, t) in &compiled {
            out.push(c.eval_value(row, t)?);
        }
        Ok(Row::new(out))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::builders::lit;

    fn bound_long(index: usize) -> Expr {
        Expr::BoundRef {
            index,
            dtype: DataType::Long,
            nullable: true,
            name: "x".into(),
        }
    }

    #[test]
    fn compiles_x_plus_x_plus_x() {
        // The Figure 4 expression.
        let x = bound_long(0);
        let e = x.clone().add(x.clone()).add(x);
        let c = compile(&e);
        assert!(matches!(c, Compiled::Long(_)));
        let row = Row::new(vec![Value::Long(7)]);
        assert_eq!(
            c.eval_value(&row, &DataType::Long).unwrap(),
            Value::Long(21)
        );
        // Agrees with the interpreter.
        let x = bound_long(0);
        let e = x.clone().add(x.clone()).add(x);
        assert_eq!(interpreter::eval(&e, &row).unwrap(), Value::Long(21));
    }

    #[test]
    fn null_propagates_in_compiled_code() {
        let e = bound_long(0).add(lit(1i64));
        let c = compile(&e);
        let row = Row::new(vec![Value::Null]);
        assert_eq!(c.eval_value(&row, &DataType::Long).unwrap(), Value::Null);
    }

    #[test]
    fn compiled_predicate_handles_null_as_false() {
        let p = compile_predicate(&bound_long(0).gt(lit(5i64)));
        assert!(p(&Row::new(vec![Value::Long(10)])));
        assert!(!p(&Row::new(vec![Value::Long(1)])));
        assert!(!p(&Row::new(vec![Value::Null])));
    }

    #[test]
    fn string_ops_compile() {
        let s = Expr::BoundRef {
            index: 0,
            dtype: DataType::String,
            nullable: true,
            name: "s".into(),
        };
        let e = Expr::ScalarFn {
            func: ScalarFunc::StartsWith,
            args: vec![s, lit("he")],
        };
        let c = compile(&e);
        assert!(matches!(c, Compiled::Bool(_)));
        let row = Row::new(vec![Value::str("hello")]);
        assert_eq!(
            c.eval_value(&row, &DataType::Boolean).unwrap(),
            Value::Boolean(true)
        );
    }

    #[test]
    fn division_by_zero_is_null_in_compiled_code() {
        let e = bound_long(0).div(lit(0i64));
        let c = compile(&e);
        let row = Row::new(vec![Value::Long(10)]);
        assert_eq!(c.eval_value(&row, &DataType::Double).unwrap(), Value::Null);
    }

    #[test]
    fn fallback_agrees_with_interpreter_on_case() {
        use crate::expr::builders::when;
        let e = when(bound_long(0).gt(lit(0i64)), lit("pos")).otherwise(lit("neg"));
        let c = compile(&e);
        let row = Row::new(vec![Value::Long(3)]);
        assert_eq!(
            c.eval_value(&row, &DataType::String).unwrap(),
            interpreter::eval(&e, &row).unwrap()
        );
    }

    #[test]
    fn projection_emits_declared_int_type() {
        let e = Expr::BoundRef {
            index: 0,
            dtype: DataType::Int,
            nullable: false,
            name: "i".into(),
        };
        let proj = compile_projection(&[e.add(lit(1))]);
        let out = proj(&Row::new(vec![Value::Int(41)])).unwrap();
        assert_eq!(out.get(0), &Value::Int(42));
    }

    #[test]
    fn in_list_compiles_and_matches_interpreter() {
        let e = bound_long(0).in_list(vec![lit(1i64), lit(5i64), lit(9i64)]);
        let c = compile(&e);
        assert!(matches!(c, Compiled::Bool(_)));
        for v in [0i64, 1, 5, 9, 10] {
            let row = Row::new(vec![Value::Long(v)]);
            assert_eq!(
                c.eval_value(&row, &DataType::Boolean).unwrap(),
                interpreter::eval(&e, &row).unwrap(),
                "v = {v}"
            );
        }
        // NULL input stays NULL.
        let row = Row::new(vec![Value::Null]);
        assert_eq!(c.eval_value(&row, &DataType::Boolean).unwrap(), Value::Null);
        // Lists containing NULL fall back (three-valued IN).
        let e = bound_long(0).in_list(vec![lit(1i64), Expr::Literal(Value::Null)]);
        assert!(matches!(compile(&e), Compiled::Fallback(_)));
    }

    #[test]
    fn negated_in_list_compiles() {
        let e = Expr::InList {
            expr: Box::new(bound_long(0)),
            list: vec![lit(2i64)],
            negated: true,
        };
        let c = compile(&e);
        let hit = Row::new(vec![Value::Long(2)]);
        let miss = Row::new(vec![Value::Long(3)]);
        assert_eq!(
            c.eval_value(&hit, &DataType::Boolean).unwrap(),
            Value::Boolean(false)
        );
        assert_eq!(
            c.eval_value(&miss, &DataType::Boolean).unwrap(),
            Value::Boolean(true)
        );
    }

    #[test]
    fn mixed_int_float_promotes() {
        let e = bound_long(0).add(lit(0.5f64));
        let c = compile(&e);
        assert!(matches!(c, Compiled::Double(_)));
        let row = Row::new(vec![Value::Long(1)]);
        assert_eq!(
            c.eval_value(&row, &DataType::Double).unwrap(),
            Value::Double(1.5)
        );
    }
}
