//! Tree-walking expression interpreter.
//!
//! Evaluates a bound expression against a row by recursively matching on
//! node types — exactly the "large amounts of branches and virtual
//! function calls" evaluation mode that §4.3.4 of the paper contrasts
//! with code generation. The columnar kernels in [`crate::vectorized`]
//! remove that overhead; both evaluators unpack their operands and call
//! the one definition of each scalar rule in [`crate::scalar`], so they
//! differ in speed only (Figure 4 measures by how much), and the kernels
//! are tested against this evaluator lane by lane.

use crate::error::{CatalystError, Result};
use crate::expr::{BinaryOperator, ColumnRef, Expr, ScalarFunc};
use crate::row::Row;
use crate::scalar;
use crate::tree::{Transformed, TreeNode};
use crate::types::DataType;
use crate::value::Value;
use std::cmp::Ordering;
use std::sync::Arc;

/// Replace resolved [`Expr::Column`] references with positional
/// [`Expr::BoundRef`]s against `input` (the child operator's output
/// attributes). Run once per operator before execution.
pub fn bind_references(expr: Expr, input: &[ColumnRef]) -> Result<Expr> {
    let mut err = None;
    let out = expr.transform_up(&mut |e| match e {
        Expr::Column(c) => match input.iter().position(|a| a.id == c.id) {
            Some(index) => Transformed::yes(Expr::BoundRef {
                index,
                dtype: c.dtype.clone(),
                nullable: c.nullable,
                name: c.name.clone(),
            }),
            None => {
                err = Some(CatalystError::Internal(format!(
                    "column {}#{} not found in input attributes",
                    c.name, c.id
                )));
                Transformed::no(Expr::Column(c))
            }
        },
        other => Transformed::no(other),
    });
    match err {
        Some(e) => Err(e),
        None => Ok(out.data),
    }
}

/// Evaluate a bound expression against one row.
pub fn eval(expr: &Expr, row: &Row) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::BoundRef { index, .. } => row.values().get(*index).cloned().ok_or_else(|| {
            CatalystError::eval(format!("row too short for bound reference {index}"))
        }),
        Expr::Column(c) => Err(CatalystError::Internal(format!(
            "unbound column {}#{} at evaluation time",
            c.name, c.id
        ))),
        Expr::Alias { child, .. } => eval(child, row),
        Expr::BinaryOp { left, op, right } => eval_binary(left, *op, right, row),
        Expr::Not(e) => match eval(e, row)? {
            Value::Null => Ok(Value::Null),
            Value::Boolean(b) => Ok(Value::Boolean(scalar::not(b))),
            v => Err(CatalystError::eval(format!("NOT applied to {}", v.dtype()))),
        },
        Expr::Negate(e) => eval(e, row)?.neg(),
        Expr::IsNull(e) => Ok(Value::Boolean(eval(e, row)?.is_null())),
        Expr::IsNotNull(e) => Ok(Value::Boolean(!eval(e, row)?.is_null())),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, row)?;
            let p = eval(pattern, row)?;
            if v.is_null() || p.is_null() {
                return Ok(Value::Null);
            }
            match (v.as_str(), p.as_str()) {
                (Some(s), Some(pat)) => {
                    let m = like_match(s, pat);
                    Ok(Value::Boolean(if *negated { !m } else { m }))
                }
                _ => Err(CatalystError::eval("LIKE requires string operands")),
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let w = eval(item, row)?;
                if w.is_null() {
                    saw_null = true;
                } else if v.sql_cmp(&w) == Some(Ordering::Equal) {
                    return Ok(Value::Boolean(!negated));
                }
            }
            if saw_null {
                Ok(Value::Null) // SQL three-valued IN
            } else {
                Ok(Value::Boolean(*negated))
            }
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            let op_val = operand.as_ref().map(|o| eval(o, row)).transpose()?;
            for (cond, result) in branches {
                let fire = match &op_val {
                    Some(v) => {
                        let c = eval(cond, row)?;
                        !v.is_null() && v.sql_cmp(&c) == Some(Ordering::Equal)
                    }
                    None => matches!(eval(cond, row)?, Value::Boolean(true)),
                };
                if fire {
                    return eval(result, row);
                }
            }
            match else_expr {
                Some(e) => eval(e, row),
                None => Ok(Value::Null),
            }
        }
        Expr::Cast { expr, dtype } => eval(expr, row)?.cast_to(dtype),
        Expr::ScalarFn { func, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, row)?);
            }
            apply_scalar_fn(*func, &vals)
        }
        Expr::Udf { udf, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, row)?);
            }
            (udf.func)(&vals)
        }
        Expr::Agg { func, .. } => Err(CatalystError::Internal(format!(
            "aggregate {} evaluated outside an Aggregate operator",
            func.name()
        ))),
        Expr::WindowFunction { func, .. } => Err(CatalystError::Internal(format!(
            "window function {} evaluated outside a Window operator",
            func.name()
        ))),
        Expr::GetField { expr, name } => {
            let dtype = expr.data_type()?;
            let v = eval(expr, row)?;
            match (v, dtype) {
                (Value::Null, _) => Ok(Value::Null),
                (Value::Struct(vals), DataType::Struct(fields)) => {
                    match fields
                        .iter()
                        .position(|f| f.name.eq_ignore_ascii_case(name))
                    {
                        Some(i) => Ok(vals.get(i).cloned().unwrap_or(Value::Null)),
                        None => Err(CatalystError::eval(format!("no struct field '{name}'"))),
                    }
                }
                (v, _) => Err(CatalystError::eval(format!(
                    "field access on non-struct {}",
                    v.dtype()
                ))),
            }
        }
        Expr::GetItem { expr, index } => {
            let v = eval(expr, row)?;
            let i = eval(index, row)?;
            match (v, i.as_i64()) {
                (Value::Null, _) => Ok(Value::Null),
                (Value::Array(items), Some(i)) => {
                    if i < 0 || i as usize >= items.len() {
                        Ok(Value::Null)
                    } else {
                        Ok(items[i as usize].clone())
                    }
                }
                _ => Err(CatalystError::eval("array index on non-array")),
            }
        }
        Expr::UnscaledValue(e) => match eval(e, row)? {
            Value::Null => Ok(Value::Null),
            Value::Decimal(u, _, _) => Ok(Value::Long(u as i64)),
            v => Err(CatalystError::eval(format!(
                "unscaled of non-decimal {}",
                v.dtype()
            ))),
        },
        Expr::MakeDecimal {
            expr,
            precision,
            scale,
        } => match eval(expr, row)? {
            Value::Null => Ok(Value::Null),
            v => match v.as_i64() {
                Some(u) => Ok(Value::Decimal(u as i128, *precision, *scale)),
                None => Err(CatalystError::eval("make_decimal of non-integral")),
            },
        },
        Expr::UnresolvedAttribute { name, .. } => Err(CatalystError::Internal(format!(
            "unresolved attribute '{name}' at evaluation time"
        ))),
        Expr::UnresolvedFunction { name, .. } => Err(CatalystError::Internal(format!(
            "unresolved function '{name}' at evaluation time"
        ))),
        Expr::Wildcard { .. } => Err(CatalystError::Internal(
            "wildcard at evaluation time".into(),
        )),
    }
}

fn eval_binary(left: &Expr, op: BinaryOperator, right: &Expr, row: &Row) -> Result<Value> {
    if op.is_boolean() {
        let f = if op == BinaryOperator::And {
            scalar::and
        } else {
            scalar::or
        };
        let a = eval(left, row)?.as_bool();
        // Short-circuit: the right side runs only when the left does not
        // decide alone, i.e. when a NULL right side would leave it open.
        let out = match f(a, None) {
            Some(v) => Some(v),
            None => f(a, eval(right, row)?.as_bool()),
        };
        return Ok(out.map_or(Value::Null, Value::Boolean));
    }
    let l = eval(left, row)?;
    let r = eval(right, row)?;
    if let Some(test) = scalar::comparison(op) {
        return Ok(l
            .sql_cmp(&r)
            .map_or(Value::Null, |o| Value::Boolean(test(o))));
    }
    l.arith(op, &r)
}

/// Apply a built-in scalar function to already-evaluated arguments.
pub fn apply_scalar_fn(func: ScalarFunc, vals: &[Value]) -> Result<Value> {
    use ScalarFunc::*;
    match func {
        Coalesce => {
            for v in vals {
                if !v.is_null() {
                    return Ok(v.clone());
                }
            }
            return Ok(Value::Null);
        }
        Concat => {
            if vals.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let mut out = String::new();
            for v in vals {
                out.push_str(&v.to_string());
            }
            return Ok(Value::str(out));
        }
        _ => {}
    }
    if vals.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    match func {
        Substr => {
            let len = vals.get(2).map(req_i64).transpose()?;
            Ok(Value::str(scalar::substr(
                req_str(&vals[0])?,
                req_i64(&vals[1])?,
                len,
            )))
        }
        Length => Ok(Value::Int(req_str(&vals[0])?.chars().count() as i32)),
        Upper => Ok(Value::str(req_str(&vals[0])?.to_uppercase())),
        Lower => Ok(Value::str(req_str(&vals[0])?.to_lowercase())),
        Trim => Ok(Value::str(req_str(&vals[0])?.trim())),
        StartsWith => Ok(Value::Boolean(
            req_str(&vals[0])?.starts_with(req_str(&vals[1])?),
        )),
        EndsWith => Ok(Value::Boolean(
            req_str(&vals[0])?.ends_with(req_str(&vals[1])?),
        )),
        Contains => Ok(Value::Boolean(
            req_str(&vals[0])?.contains(req_str(&vals[1])?),
        )),
        Abs => match &vals[0] {
            Value::Int(v) => Ok(Value::Int(v.abs())),
            Value::Long(v) => Ok(Value::Long(v.abs())),
            Value::Float(v) => Ok(Value::Float(v.abs())),
            Value::Double(v) => Ok(Value::Double(v.abs())),
            Value::Decimal(u, p, s) => Ok(Value::Decimal(u.abs(), *p, *s)),
            v => Err(CatalystError::eval(format!("abs of {}", v.dtype()))),
        },
        Sqrt => Ok(Value::Double(req_f64(&vals[0])?.sqrt())),
        Pow => Ok(Value::Double(req_f64(&vals[0])?.powf(req_f64(&vals[1])?))),
        Round => match &vals[0] {
            v @ (Value::Int(_) | Value::Long(_)) => Ok(v.clone()),
            v => {
                let digits = vals.get(1).map(req_i64).transpose()?.unwrap_or(0);
                let m = 10f64.powi(digits as i32);
                Ok(Value::Double((req_f64(v)? * m).round() / m))
            }
        },
        Floor => Ok(Value::Long(req_f64(&vals[0])?.floor() as i64)),
        Ceil => Ok(Value::Long(req_f64(&vals[0])?.ceil() as i64)),
        Year => match &vals[0] {
            Value::Date(d) => {
                let formatted = crate::value::format_date(*d);
                let year: i32 = formatted
                    .split('-')
                    .next()
                    .and_then(|y| y.parse().ok())
                    .unwrap_or(0);
                Ok(Value::Int(year))
            }
            v => Err(CatalystError::eval(format!("year of {}", v.dtype()))),
        },
        SplitWords => {
            let s = req_str(&vals[0])?;
            let words: Vec<Value> = s.split_whitespace().map(Value::str).collect();
            Ok(Value::Array(Arc::new(words)))
        }
        Coalesce | Concat => unreachable!("handled above"),
    }
}

fn req_str(v: &Value) -> Result<&str> {
    v.as_str()
        .ok_or_else(|| CatalystError::eval(format!("expected string, got {}", v.dtype())))
}

fn req_i64(v: &Value) -> Result<i64> {
    v.as_i64()
        .ok_or_else(|| CatalystError::eval(format!("expected integer, got {}", v.dtype())))
}

fn req_f64(v: &Value) -> Result<f64> {
    v.as_f64()
        .ok_or_else(|| CatalystError::eval(format!("expected number, got {}", v.dtype())))
}

/// SQL LIKE matcher: `%` matches any run, `_` matches one character.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => (0..=s.len()).any(|i| rec(&s[i..], &p[1..])),
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

/// Evaluate a bound boolean predicate, treating NULL as false (filter
/// semantics).
pub fn eval_predicate(expr: &Expr, row: &Row) -> Result<bool> {
    Ok(matches!(eval(expr, row)?, Value::Boolean(true)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::builders::{col, lit, when};
    use crate::expr::ColumnRef;

    // Minimal resolution for tests: match unresolved names to the inputs,
    // then bind to positions.
    fn bound(input: &[ColumnRef], e: Expr) -> Expr {
        let resolved = e
            .transform_up(&mut |e| match e {
                Expr::UnresolvedAttribute { name, .. } => {
                    let c = input
                        .iter()
                        .find(|c| c.name.eq_ignore_ascii_case(&name))
                        .expect("test column");
                    Transformed::yes(Expr::Column(c.clone()))
                }
                other => Transformed::no(other),
            })
            .data;
        bind_references(resolved, input).unwrap()
    }

    fn test_input() -> Vec<ColumnRef> {
        vec![
            ColumnRef::new("x", DataType::Long, false),
            ColumnRef::new("s", DataType::String, true),
        ]
    }

    fn test_row() -> Row {
        Row::new(vec![Value::Long(10), Value::str("hello")])
    }

    #[test]
    fn arithmetic_and_comparison() {
        let input = test_input();
        let e = bound(&input, col("x").add(lit(5i64)).mul(lit(2i64)));
        assert_eq!(eval(&e, &test_row()).unwrap(), Value::Long(30));
        let p = bound(&input, col("x").lt(lit(11i64)));
        assert_eq!(eval(&p, &test_row()).unwrap(), Value::Boolean(true));
    }

    #[test]
    fn integral_arithmetic_wraps_at_the_declared_width() {
        let int = |v: i32| Expr::Literal(Value::Int(v));
        let long = |v: i64| Expr::Literal(Value::Long(v));
        let cases = [
            (int(i32::MAX).add(int(1)), Value::Int(i32::MIN)),
            (int(i32::MIN).sub(int(1)), Value::Int(i32::MAX)),
            (int(65_536).mul(int(65_536)), Value::Int(0)),
            (int(i32::MAX).add(long(1)), Value::Long(i32::MAX as i64 + 1)),
            (long(i64::MAX).add(long(1)), Value::Long(i64::MIN)),
            (Expr::Negate(Box::new(int(i32::MIN))), Value::Int(i32::MIN)),
            (long(i64::MIN).rem(long(-1)), Value::Long(0)),
        ];
        for (e, want) in cases {
            assert_eq!(eval(&e, &Row::empty()).unwrap(), want, "{e}");
        }
    }

    #[test]
    fn three_valued_logic() {
        let input = test_input();
        let null_row = Row::new(vec![Value::Null, Value::Null]);
        // NULL AND false = false; NULL OR false = NULL.
        let e = bound(&input, col("x").gt(lit(1i64)).and(lit(false)));
        assert_eq!(eval(&e, &null_row).unwrap(), Value::Boolean(false));
        let e = bound(&input, col("x").gt(lit(1i64)).or(lit(false)));
        assert_eq!(eval(&e, &null_row).unwrap(), Value::Null);
        // NULL comparison yields NULL -> predicate false.
        let p = bound(&input, col("x").eq(lit(10i64)));
        assert!(!eval_predicate(&p, &null_row).unwrap());
    }

    #[test]
    fn like_semantics() {
        assert!(like_match("hello", "he%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "%ell%"));
        assert!(like_match("hello", "h_llo"));
        assert!(!like_match("hello", "h_"));
        assert!(like_match("", "%"));
        assert!(!like_match("abc", "abd"));
    }

    #[test]
    fn in_list_three_valued() {
        let input = test_input();
        let e = bound(&input, col("x").in_list(vec![lit(1i64), lit(10i64)]));
        assert_eq!(eval(&e, &test_row()).unwrap(), Value::Boolean(true));
        // x IN (1, NULL) where x=10 → NULL (unknown).
        let e = bound(
            &input,
            col("x").in_list(vec![lit(1i64), Expr::Literal(Value::Null)]),
        );
        assert_eq!(eval(&e, &test_row()).unwrap(), Value::Null);
    }

    #[test]
    fn case_expression() {
        let input = test_input();
        let e = bound(
            &input,
            when(col("x").gt(lit(5i64)), lit("big")).otherwise(lit("small")),
        );
        assert_eq!(eval(&e, &test_row()).unwrap(), Value::str("big"));
    }

    #[test]
    fn string_functions() {
        let input = test_input();
        let e = bound(
            &input,
            crate::expr::builders::substr(col("s"), lit(1), lit(4)),
        );
        assert_eq!(eval(&e, &test_row()).unwrap(), Value::str("hell"));
        let e = bound(&input, crate::expr::builders::length(col("s")));
        assert_eq!(eval(&e, &test_row()).unwrap(), Value::Int(5));
    }

    #[test]
    fn udf_evaluation() {
        use crate::expr::UdfImpl;
        let udf = Arc::new(UdfImpl {
            name: "double_it".into(),
            return_type: DataType::Long,
            func: Box::new(|args| Ok(Value::Long(args[0].as_i64().unwrap_or(0) * 2))),
        });
        let input = test_input();
        let arg = bound(&input, col("x"));
        let e = Expr::Udf {
            udf,
            args: vec![arg],
        };
        assert_eq!(eval(&e, &test_row()).unwrap(), Value::Long(20));
    }

    #[test]
    fn decimal_helpers_roundtrip() {
        let d = Expr::Literal(Value::Decimal(12345, 10, 2));
        let unscaled = Expr::UnscaledValue(Box::new(d));
        assert_eq!(eval(&unscaled, &Row::empty()).unwrap(), Value::Long(12345));
        let back = Expr::MakeDecimal {
            expr: Box::new(unscaled),
            precision: 12,
            scale: 2,
        };
        assert_eq!(
            eval(&back, &Row::empty()).unwrap(),
            Value::Decimal(12345, 12, 2)
        );
    }

    #[test]
    fn cast_evaluation() {
        let e = Expr::Cast {
            expr: Box::new(lit("42")),
            dtype: DataType::Long,
        };
        assert_eq!(eval(&e, &Row::empty()).unwrap(), Value::Long(42));
    }

    #[test]
    fn get_field_on_struct() {
        let input = vec![ColumnRef::new(
            "loc",
            DataType::struct_type(vec![
                crate::types::StructField::new("lat", DataType::Double, false),
                crate::types::StructField::new("long", DataType::Double, false),
            ]),
            true,
        )];
        let e = bound(&input, col("loc").get_field("lat"));
        let row = Row::new(vec![Value::Struct(Arc::new(vec![
            Value::Double(45.1),
            Value::Double(90.0),
        ]))]);
        assert_eq!(eval(&e, &row).unwrap(), Value::Double(45.1));
    }
}
