//! Columnar expression kernels over [`RowBatch`] columns.
//!
//! A kernel where one exists, else the tree-walking interpreter on the
//! selected lanes only (see the module docs in
//! [`vectorized`](crate::vectorized)). The interpreter defines the
//! semantics; every kernel is tested against it lane by lane.

use super::batch::{ColumnVector, NumLanes, RowBatch, StrLane, VectorData};
use crate::error::Result;
use crate::expr::{BinaryOperator, Expr, ScalarFunc};
use crate::interpreter;
use crate::types::DataType;
use crate::value::Value;
use std::sync::Arc;

/// Evaluate `expr` over a batch, returning one output lane per physical
/// row (unselected lanes hold unspecified filler). Supported subtrees run
/// as columnar kernels; for the rest the interpreter evaluates selected
/// rows one at a time.
pub fn eval_batch(expr: &Expr, batch: &RowBatch) -> Result<Arc<ColumnVector>> {
    match eval_kernel(expr, batch)? {
        Some(v) => Ok(v),
        None => fallback_eval(expr, batch),
    }
}

/// Evaluate a projection column-at-a-time. Output columns are re-tagged
/// to each expression's declared type; the input selection carries over.
pub fn eval_projection_batch(exprs: &[Expr], batch: &RowBatch) -> Result<RowBatch> {
    let columns = exprs
        .iter()
        .map(|e| {
            let v = eval_batch(e, batch)?;
            Ok(match e.data_type() {
                Ok(declared) => v.retagged(&declared),
                Err(_) => v,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(RowBatch {
        columns,
        num_rows: batch.num_rows,
        selection: batch.selection.clone(),
    })
}

/// Evaluate a predicate and refine the batch's selection vector to the
/// lanes where it is non-NULL `TRUE`. No rows are copied.
pub fn filter_batch(pred: &Expr, batch: &RowBatch) -> Result<RowBatch> {
    let v = eval_batch(pred, batch)?;
    let mut sel = Vec::with_capacity(batch.selected_count());
    batch.for_each_selected(|i| {
        if v.is_true(i) {
            sel.push(i as u32);
        }
    });
    Ok(batch.clone().with_selection(sel))
}

/// Interpreter fallback: evaluate selected rows only; unselected lanes
/// stay NULL filler. Errors propagate exactly as in the row path.
fn fallback_eval(expr: &Expr, batch: &RowBatch) -> Result<Arc<ColumnVector>> {
    let mut out = vec![Value::Null; batch.num_rows];
    let mut err = None;
    batch.for_each_selected(|i| {
        if err.is_some() {
            return;
        }
        match interpreter::eval(expr, &batch.row(i)) {
            Ok(v) => out[i] = v,
            Err(e) => err = Some(e),
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    let dtype = expr.data_type().unwrap_or(DataType::Null);
    Ok(Arc::new(ColumnVector::from_boxed(dtype, out)))
}

/// Try to evaluate `expr` with columnar kernels; `Ok(None)` means some
/// node in the subtree has no kernel and the caller must fall back for
/// the whole subtree.
fn eval_kernel(expr: &Expr, batch: &RowBatch) -> Result<Option<Arc<ColumnVector>>> {
    match expr {
        Expr::Literal(v) => Ok(broadcast(v, batch.num_rows)),
        Expr::BoundRef { index, .. } => Ok(batch.columns.get(*index).cloned()),
        Expr::Alias { child, .. } => eval_kernel(child, batch),
        Expr::Cast { expr, dtype } => {
            let Some(c) = eval_kernel(expr, batch)? else {
                return Ok(None);
            };
            Ok(cast_kernel(&c, dtype))
        }
        Expr::Negate(e) => {
            let Some(c) = eval_kernel(e, batch)? else {
                return Ok(None);
            };
            Ok(match c.num_lanes() {
                Some(NumLanes::I(v)) => Some(int_vector(
                    v.iter().map(|x| x.wrapping_neg()),
                    c.dtype == DataType::Int,
                    c.nulls.clone(),
                )),
                Some(NumLanes::F(v)) => Some(Arc::new(ColumnVector::new(
                    DataType::Double,
                    VectorData::Double(v.iter().map(|x| -x).collect()),
                    c.nulls.clone(),
                ))),
                None => None,
            })
        }
        Expr::Not(e) => {
            let Some(c) = eval_kernel(e, batch)? else {
                return Ok(None);
            };
            Ok(c.bool_lanes().map(|v| {
                Arc::new(ColumnVector::new(
                    DataType::Boolean,
                    VectorData::Bool(v.iter().map(|b| !b).collect()),
                    c.nulls.clone(),
                ))
            }))
        }
        Expr::IsNull(e) => {
            let Some(c) = eval_kernel(e, batch)? else {
                return Ok(None);
            };
            Ok(Some(null_test(&c, batch.num_rows, true)))
        }
        Expr::IsNotNull(e) => {
            let Some(c) = eval_kernel(e, batch)? else {
                return Ok(None);
            };
            Ok(Some(null_test(&c, batch.num_rows, false)))
        }
        Expr::BinaryOp { left, op, right } => {
            let Some(l) = eval_kernel(left, batch)? else {
                return Ok(None);
            };
            let Some(r) = eval_kernel(right, batch)? else {
                return Ok(None);
            };
            Ok(binary_kernel(&l, *op, &r))
        }
        Expr::ScalarFn {
            func: ScalarFunc::Substr,
            args,
        } => substr_kernel(args, batch),
        _ => Ok(None),
    }
}

/// An integer argument of a string kernel: one value for every lane, or
/// Int/Long lanes.
enum IntArg {
    Const(i64),
    Lanes(Arc<ColumnVector>),
}

impl IntArg {
    /// The argument as a kernel takes it, or `None` (fall back): a NULL
    /// or non-integer literal, or a subtree without integer lanes.
    fn eval(e: &Expr, batch: &RowBatch) -> Result<Option<IntArg>> {
        if let Expr::Literal(v) = e {
            return Ok(match v {
                Value::Int(x) => Some(IntArg::Const(*x as i64)),
                Value::Long(x) => Some(IntArg::Const(*x)),
                _ => None,
            });
        }
        let Some(c) = eval_kernel(e, batch)? else {
            return Ok(None);
        };
        Ok(c.long_lanes().is_some().then_some(IntArg::Lanes(c)))
    }

    fn at(&self, i: usize) -> i64 {
        match self {
            IntArg::Const(x) => *x,
            IntArg::Lanes(c) => c.long_lanes().expect("checked in eval")[i],
        }
    }

    fn nulls(&self) -> Option<&[bool]> {
        match self {
            IntArg::Const(_) => None,
            IntArg::Lanes(c) => c.nulls(),
        }
    }
}

/// `SUBSTR(s, pos[, len])` over String lanes with the interpreter's char
/// semantics — 1-based, a `pos` below 1 starts at the first char, a
/// negative `len` takes nothing — slicing bytes where a lane is ASCII.
/// Only selected lanes are computed; a NULL in any argument is NULL.
fn substr_kernel(args: &[Expr], batch: &RowBatch) -> Result<Option<Arc<ColumnVector>>> {
    let [s, pos, len @ ..] = args else {
        return Ok(None);
    };
    if len.len() > 1 {
        return Ok(None);
    }
    let Some(s) = eval_kernel(s, batch)? else {
        return Ok(None);
    };
    let Some(strs) = s.str_lanes() else {
        return Ok(None);
    };
    let Some(pos) = IntArg::eval(pos, batch)? else {
        return Ok(None);
    };
    let len = match len.first() {
        Some(e) => match IntArg::eval(e, batch)? {
            Some(arg) => Some(arg),
            None => return Ok(None),
        },
        None => None,
    };
    let n = batch.num_rows;
    let mut nulls = union_nulls(s.nulls(), pos.nulls(), n);
    if let Some(len) = &len {
        nulls = union_nulls(nulls.as_deref(), len.nulls(), n);
    }
    let lane = |i: usize| {
        if nulls.as_ref().is_some_and(|m| m[i]) {
            return StrLane::default();
        }
        let start = (pos.at(i).max(1) - 1) as usize;
        let take = len.as_ref().map_or(usize::MAX, |l| l.at(i).max(0) as usize);
        let lane = &strs[i];
        if start == 0 && take >= lane.len() {
            return lane.clone(); // the whole string: no char has fewer than one byte
        }
        let s = lane.as_str();
        let (from, to) = if s.is_ascii() {
            let from = start.min(s.len());
            (from, from.saturating_add(take).min(s.len()))
        } else {
            let at = |s: &str, chars| s.char_indices().nth(chars).map_or(s.len(), |(b, _)| b);
            let from = at(s, start);
            (from, from + at(&s[from..], take))
        };
        StrLane::new(&s[from..to])
    };
    let lanes = match batch.selection() {
        None => (0..n).map(lane).collect(),
        Some(selected) => {
            let mut lanes = vec![StrLane::default(); n];
            selected
                .iter()
                .for_each(|&i| lanes[i as usize] = lane(i as usize));
            lanes
        }
    };
    Ok(Some(Arc::new(ColumnVector::new(
        DataType::String,
        VectorData::Str(lanes),
        nulls,
    ))))
}

/// Broadcast a literal into a full vector; non-primitive literals have no
/// kernel (the code generator refuses them too).
fn broadcast(v: &Value, n: usize) -> Option<Arc<ColumnVector>> {
    let (dtype, data) = match v {
        Value::Int(x) => (DataType::Int, VectorData::Long(vec![*x as i64; n])),
        Value::Long(x) => (DataType::Long, VectorData::Long(vec![*x; n])),
        Value::Float(x) => (DataType::Float, VectorData::Double(vec![*x as f64; n])),
        Value::Double(x) => (DataType::Double, VectorData::Double(vec![*x; n])),
        Value::Boolean(x) => (DataType::Boolean, VectorData::Bool(vec![*x; n])),
        Value::Str(s) => (
            DataType::String,
            VectorData::Str(vec![StrLane::shared(s.clone()); n]),
        ),
        _ => return None,
    };
    Some(Arc::new(ColumnVector::new(dtype, data, None)))
}

/// Numeric casts, as [`Value::cast_to`] does them: a BIGINT narrows to
/// INT by wrapping, a float saturates; everything else falls back.
fn cast_kernel(c: &Arc<ColumnVector>, target: &DataType) -> Option<Arc<ColumnVector>> {
    let narrow = *target == DataType::Int;
    match target {
        DataType::Int | DataType::Long => match c.num_lanes()? {
            NumLanes::I(v) if narrow && c.dtype != DataType::Int => {
                Some(int_vector(v.iter().copied(), true, c.nulls.clone()))
            }
            NumLanes::I(_) => Some(c.clone().retagged(target)),
            NumLanes::F(v) => Some(Arc::new(ColumnVector::new(
                target.clone(),
                VectorData::Long(
                    v.iter()
                        .map(|x| if narrow { *x as i32 as i64 } else { *x as i64 })
                        .collect(),
                ),
                c.nulls.clone(),
            ))),
        },
        DataType::Float | DataType::Double => match c.num_lanes()? {
            NumLanes::I(v) => Some(Arc::new(ColumnVector::new(
                target.clone(),
                VectorData::Double(v.iter().map(|x| *x as f64).collect()),
                c.nulls.clone(),
            ))),
            NumLanes::F(_) => Some(c.clone().retagged(target)),
        },
        _ => None,
    }
}

/// `IS [NOT] NULL` as a lane test (never NULL itself).
fn null_test(c: &ColumnVector, n: usize, want_null: bool) -> Arc<ColumnVector> {
    let lanes = (0..n).map(|i| c.is_null(i) == want_null).collect();
    Arc::new(ColumnVector::new(
        DataType::Boolean,
        VectorData::Bool(lanes),
        None,
    ))
}

/// Integral lanes at their declared width: INT lanes wrap to 32 bits,
/// as integral `+ - *` and unary `-` do in Java (the paper-era Spark and
/// Hive rule); anything else is BIGINT.
fn int_vector(
    lanes: impl Iterator<Item = i64>,
    int: bool,
    nulls: Option<Vec<bool>>,
) -> Arc<ColumnVector> {
    let dtype = if int { DataType::Int } else { DataType::Long };
    let lanes = lanes
        .map(|x| if int { x as i32 as i64 } else { x })
        .collect();
    Arc::new(ColumnVector::new(dtype, VectorData::Long(lanes), nulls))
}

fn union_nulls(a: Option<&[bool]>, b: Option<&[bool]>, n: usize) -> Option<Vec<bool>> {
    match (a, b) {
        (None, None) => None,
        (Some(x), None) | (None, Some(x)) => Some(x.to_vec()),
        (Some(x), Some(y)) => Some((0..n).map(|i| x[i] || y[i]).collect()),
    }
}

/// The test a comparison operator applies to an [`Ordering`], or `None`
/// for an operator that does not compare.
///
/// [`Ordering`]: std::cmp::Ordering
fn comparison(op: BinaryOperator) -> Option<fn(std::cmp::Ordering) -> bool> {
    use std::cmp::Ordering::*;
    use BinaryOperator::*;
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

/// Binary kernels with the interpreter's semantics:
/// three-valued AND/OR, an integer fast path wrapping at the declared
/// width (Hive `/` always fractional, `%`/`/` by zero ⇒ NULL), a widening
/// float path, and string comparison/concatenation. Other type
/// combinations return `None` and fall back.
fn binary_kernel(
    l: &Arc<ColumnVector>,
    op: BinaryOperator,
    r: &Arc<ColumnVector>,
) -> Option<Arc<ColumnVector>> {
    use BinaryOperator::*;
    let n = l.len();
    let test = comparison(op);

    if op == And || op == Or {
        let (lv, rv) = (l.bool_lanes()?, r.bool_lanes()?);
        let mut lanes = vec![false; n];
        let mut nulls = vec![false; n];
        let mut any_null = false;
        for i in 0..n {
            let a = (!l.nulls.as_ref().is_some_and(|m| m[i])).then(|| lv[i]);
            let b = (!r.nulls.as_ref().is_some_and(|m| m[i])).then(|| rv[i]);
            let out = match op {
                And => match (a, b) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                },
                _ => match (a, b) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                },
            };
            match out {
                Some(v) => lanes[i] = v,
                None => {
                    nulls[i] = true;
                    any_null = true;
                }
            }
        }
        return Some(Arc::new(ColumnVector::new(
            DataType::Boolean,
            VectorData::Bool(lanes),
            any_null.then_some(nulls),
        )));
    }

    // Integer fast path: arithmetic at the declared width, exact
    // comparisons.
    if let (Some(lv), Some(rv)) = (l.long_lanes(), r.long_lanes()) {
        let nulls = union_nulls(l.nulls(), r.nulls(), n);
        let int = l.dtype == DataType::Int && r.dtype == DataType::Int;
        if let Some(test) = test {
            return Some(long_cmp(lv, rv, nulls, test));
        }
        return Some(match op {
            Add => long_arith(lv, rv, nulls, int, i64::wrapping_add),
            Sub => long_arith(lv, rv, nulls, int, i64::wrapping_sub),
            Mul => long_arith(lv, rv, nulls, int, i64::wrapping_mul),
            Mod => {
                let mut nulls = nulls.unwrap_or_else(|| vec![false; n]);
                let mut lanes = vec![0i64; n];
                for i in 0..n {
                    if rv[i] == 0 {
                        nulls[i] = true;
                    } else if !nulls[i] {
                        lanes[i] = lv[i].wrapping_rem(rv[i]);
                    }
                }
                Arc::new(ColumnVector::new(
                    DataType::Long,
                    VectorData::Long(lanes),
                    Some(nulls),
                ))
            }
            Div => {
                let mut nulls = nulls.unwrap_or_else(|| vec![false; n]);
                let mut lanes = vec![0f64; n];
                for i in 0..n {
                    if rv[i] == 0 {
                        nulls[i] = true;
                    } else if !nulls[i] {
                        lanes[i] = lv[i] as f64 / rv[i] as f64;
                    }
                }
                Arc::new(ColumnVector::new(
                    DataType::Double,
                    VectorData::Double(lanes),
                    Some(nulls),
                ))
            }
            _ => unreachable!("{op:?} is neither arithmetic nor a comparison"),
        });
    }

    // Float path: both sides numeric, at least one fractional.
    if let (Some(lv), Some(rv)) = (l.num_lanes(), r.num_lanes()) {
        let nulls = union_nulls(l.nulls(), r.nulls(), n);
        // Doubles compare by `f64::total_cmp`, the order of
        // `Value::total_cmp`: NaN above every number and equal to itself,
        // -0.0 below 0.0.
        if let Some(test) = test {
            let lanes = (0..n)
                .map(|i| test(lv.f64_at(i).total_cmp(&rv.f64_at(i))))
                .collect();
            return Some(Arc::new(ColumnVector::new(
                DataType::Boolean,
                VectorData::Bool(lanes),
                nulls,
            )));
        }
        let arith = |f: fn(f64, f64) -> f64, zero_is_null: bool| {
            let mut nulls = nulls.clone().unwrap_or_else(|| vec![false; n]);
            let mut lanes = vec![0f64; n];
            for i in 0..n {
                let b = rv.f64_at(i);
                if zero_is_null && b == 0.0 {
                    nulls[i] = true;
                } else if !nulls[i] {
                    lanes[i] = f(lv.f64_at(i), b);
                }
            }
            Arc::new(ColumnVector::new(
                DataType::Double,
                VectorData::Double(lanes),
                Some(nulls),
            ))
        };
        return Some(match op {
            Add => arith(|a, b| a + b, false),
            Sub => arith(|a, b| a - b, false),
            Mul => arith(|a, b| a * b, false),
            Div => arith(|a, b| a / b, true),
            Mod => arith(|a, b| a % b, true),
            _ => unreachable!("{op:?} is neither arithmetic nor a comparison"),
        });
    }

    // String comparisons and concatenation.
    if let (Some(lv), Some(rv)) = (l.str_lanes(), r.str_lanes()) {
        let nulls = union_nulls(l.nulls(), r.nulls(), n);
        let (dtype, lanes) = match (op, test) {
            (_, Some(test)) => {
                let lanes = (0..n).map(|i| test(lv[i].as_bytes().cmp(rv[i].as_bytes())));
                (DataType::Boolean, VectorData::Bool(lanes.collect()))
            }
            (Add, None) => {
                let mut joined = String::new();
                let lanes = (0..n).map(|i| {
                    joined.clear();
                    joined.push_str(lv[i].as_str());
                    joined.push_str(rv[i].as_str());
                    StrLane::new(&joined)
                });
                (DataType::String, VectorData::Str(lanes.collect()))
            }
            _ => return None,
        };
        return Some(Arc::new(ColumnVector::new(dtype, lanes, nulls)));
    }

    None
}

fn long_arith(
    lv: &[i64],
    rv: &[i64],
    nulls: Option<Vec<bool>>,
    int: bool,
    f: impl Fn(i64, i64) -> i64,
) -> Arc<ColumnVector> {
    int_vector(lv.iter().zip(rv).map(|(a, b)| f(*a, *b)), int, nulls)
}

fn long_cmp(
    lv: &[i64],
    rv: &[i64],
    nulls: Option<Vec<bool>>,
    f: fn(std::cmp::Ordering) -> bool,
) -> Arc<ColumnVector> {
    let lanes = lv.iter().zip(rv).map(|(a, b)| f(a.cmp(b))).collect();
    Arc::new(ColumnVector::new(
        DataType::Boolean,
        VectorData::Bool(lanes),
        nulls,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(index: usize, dtype: DataType) -> Expr {
        Expr::BoundRef {
            index,
            dtype,
            nullable: true,
            name: Arc::from(format!("c{index}")),
        }
    }

    fn bin(l: Expr, op: BinaryOperator, r: Expr) -> Expr {
        Expr::BinaryOp {
            left: Box::new(l),
            op,
            right: Box::new(r),
        }
    }

    fn long_batch(vals: &[Option<i64>]) -> RowBatch {
        let values: Vec<Value> = vals
            .iter()
            .map(|v| v.map_or(Value::Null, Value::Long))
            .collect();
        RowBatch::new(
            vec![Arc::new(ColumnVector::from_values(&DataType::Long, values))],
            vals.len(),
        )
    }

    /// `expr` has a kernel, and on every selected lane of `batch` that
    /// kernel answers what the interpreter answers for the lane's row —
    /// value and tag.
    fn assert_kernel_matches_interpreter(expr: &Expr, batch: &RowBatch) {
        let out = eval_kernel(expr, batch)
            .unwrap()
            .unwrap_or_else(|| panic!("no kernel for {expr}"));
        batch.for_each_selected(|i| {
            let row = batch.row(i);
            let want = interpreter::eval(expr, &row).unwrap();
            assert_eq!(out.get(i), want, "{expr} on {row:?}");
        });
    }

    #[test]
    fn filter_refines_selection_without_copying() {
        let batch = long_batch(&[Some(1), Some(5), None, Some(9)]);
        let pred = bin(
            bound(0, DataType::Long),
            BinaryOperator::Gt,
            Expr::Literal(Value::Long(4)),
        );
        let out = filter_batch(&pred, &batch).unwrap();
        assert_eq!(out.num_rows(), 4, "lanes stay physical");
        assert_eq!(out.selection(), Some(&[1u32, 3][..]));
        let rows = out.into_selected_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(0), &Value::Long(5));
    }

    /// Every kernel, over the values where evaluators disagree if they
    /// are going to — integer extremes, zero divisors (`/` and `%` by
    /// zero are NULL), NULLs in three-valued logic — agrees
    /// with the interpreter lane by lane. Integral arithmetic wraps at the
    /// declared width: INT results at 32 bits, BIGINT at 64.
    #[test]
    fn every_kernel_matches_the_interpreter_lane_by_lane() {
        let ints = [i32::MAX, i32::MIN, -1, 0, 7, 2, 46_341];
        let ints2 = [1, -1, i32::MIN, 3, -7, 0, 46_341];
        let longs = [
            i64::MAX,
            i64::MIN,
            -1,
            0,
            2_000_000_000_000,
            5,
            3_037_000_500,
        ];
        let longs2 = [1, -1, -1, i64::MAX, 9, 0, 3_037_000_500];
        let doubles = [1.5, -2.25, 0.0, 3e9, -3e9, 7.0, 0.5];
        let strs = ["ab", "b", "", "ab", "zz", "a", "b"];
        let mut columns: Vec<(DataType, Vec<Value>)> = vec![
            (DataType::Int, ints.iter().map(|v| Value::Int(*v)).collect()),
            (
                DataType::Int,
                ints2.iter().map(|v| Value::Int(*v)).collect(),
            ),
            (
                DataType::Long,
                longs.iter().map(|v| Value::Long(*v)).collect(),
            ),
            (
                DataType::Long,
                longs2.iter().map(|v| Value::Long(*v)).collect(),
            ),
            (
                DataType::Double,
                doubles.iter().map(|v| Value::Double(*v)).collect(),
            ),
            (
                DataType::String,
                strs.iter().map(|v| Value::str(*v)).collect(),
            ),
            (
                DataType::Boolean,
                (0..7).map(|i| Value::Boolean(i % 3 == 0)).collect(),
            ),
            // Beside column 6: (T,F), (F,NULL), (NULL,NULL), (T,NULL) —
            // the three-valued AND/OR cases.
            (
                DataType::Boolean,
                [Some(false), None, None, None, Some(true), Some(false), None]
                    .map(|b| b.map_or(Value::Null, Value::Boolean))
                    .to_vec(),
            ),
            // Strings whose chars are wider than a byte, beside ASCII.
            (
                DataType::String,
                ["héllo", "日本語テキスト", "", "abcdef", "naïve", "€", "x"]
                    .map(Value::str)
                    .to_vec(),
            ),
            // Strings around the 7 bytes a lane holds inline.
            (
                DataType::String,
                [
                    "abcdefghij",
                    "seven77",
                    "eight888",
                    "äöüßéèêñ",
                    "",
                    "abcdefé",
                    "ab",
                ]
                .map(Value::str)
                .to_vec(),
            ),
        ];
        // One NULL lane per column, at a different lane each.
        for (c, (_, values)) in columns.iter_mut().enumerate() {
            values[(c + 3) % 7] = Value::Null;
        }
        let n = columns[0].1.len();
        let batch = RowBatch::new(
            columns
                .iter()
                .map(|(t, v)| Arc::new(ColumnVector::from_values(t, v.clone())))
                .collect(),
            n,
        );
        let col = |i: usize| bound(i, columns[i].0.clone());
        use BinaryOperator::*;
        let numeric_pairs = [(0, 1), (2, 3), (0, 2), (0, 4), (4, 2)];
        let mut exprs = Vec::new();
        for (l, r) in numeric_pairs {
            for op in [Add, Sub, Mul, Div, Mod, Eq, NotEq, Lt, LtEq, Gt, GtEq] {
                exprs.push(bin(col(l), op, col(r)));
            }
        }
        for op in [Add, Eq, NotEq, Lt, LtEq, Gt, GtEq] {
            exprs.push(bin(col(5), op, col(5)));
            exprs.push(bin(col(8), op, col(9)));
        }
        // A string column against a broadcast string literal, on either
        // side, with literals that fit a lane and ones that do not.
        for lit in ["", "seven77", "eight888", "ab", "äö", "naïve"] {
            let lit = || Expr::Literal(Value::str(lit));
            for op in [Eq, NotEq, Lt, LtEq, Gt, GtEq] {
                for c in [5, 8, 9] {
                    exprs.push(bin(col(c), op, lit()));
                    exprs.push(bin(lit(), op, col(c)));
                }
                exprs.push(bin(lit(), op, Expr::Literal(Value::str("b"))));
            }
            exprs.push(bin(col(9), Add, lit()));
        }
        // Literals broadcast at their own width.
        exprs.push(bin(col(0), Add, Expr::Literal(Value::Int(1))));
        exprs.push(bin(col(2), Mul, Expr::Literal(Value::Int(2))));
        // Nested INT arithmetic wraps at every step, so a comparison above
        // it sees the wrapped value.
        exprs.push(bin(
            bin(col(0), Add, col(1)),
            Gt,
            Expr::Literal(Value::Int(0)),
        ));
        // Literal divisors (zero included), and arithmetic under
        // comparisons under AND/OR.
        exprs.push(bin(col(0), Mod, Expr::Literal(Value::Int(0))));
        exprs.push(bin(col(2), Mod, Expr::Literal(Value::Long(-7))));
        exprs.push(bin(
            bin(bin(col(0), Mul, col(1)), Sub, Expr::Literal(Value::Int(3))),
            Lt,
            col(0),
        ));
        exprs.push(bin(
            bin(col(2), Eq, col(3)),
            And,
            bin(col(2), Gt, Expr::Literal(Value::Long(5))),
        ));
        exprs.push(bin(
            Expr::IsNull(Box::new(col(0))),
            Or,
            Expr::IsNotNull(Box::new(col(1))),
        ));
        for c in [0, 2, 4] {
            exprs.push(Expr::Negate(Box::new(col(c))));
            for t in [DataType::Int, DataType::Long, DataType::Double] {
                exprs.push(Expr::Cast {
                    expr: Box::new(col(c)),
                    dtype: t,
                });
            }
        }
        // SUBSTR: ASCII and wider chars; `pos` 0, negative and past the
        // end; `len` 0, negative and absent; pos/len as Int and Long lanes
        // (extremes and NULLs included) and as literals.
        let substr = |args: Vec<Expr>| Expr::ScalarFn {
            func: ScalarFunc::Substr,
            args,
        };
        let int = |v: i64| Expr::Literal(Value::Long(v));
        for s in [5, 8, 9] {
            for pos in [-3, 0, 1, 2, 4, 100] {
                exprs.push(substr(vec![col(s), int(pos)]));
                for len in [-1, 0, 1, 3, 100] {
                    exprs.push(substr(vec![col(s), int(pos), int(len)]));
                }
                exprs.push(substr(vec![col(s), int(pos), col(1)]));
            }
            exprs.push(substr(vec![col(s), Expr::Literal(Value::Int(2)), col(3)]));
            for (p, l) in [(0, 1), (2, 3), (3, 2), (1, 0)] {
                exprs.push(substr(vec![col(s), col(p), col(l)]));
            }
        }
        // Results that cross the 7 bytes a lane holds inline, from ASCII
        // and from wider chars.
        for (pos, len) in [(1, 6), (1, 7), (1, 8), (2, 7), (2, 8), (3, 9)] {
            exprs.push(substr(vec![col(9), int(pos), int(len)]));
            exprs.push(substr(vec![col(8), int(pos), int(len)]));
        }
        exprs.push(Expr::Not(Box::new(col(6))));
        exprs.push(bin(col(6), And, col(7)));
        exprs.push(bin(col(6), Or, col(7)));
        for c in 0..columns.len() {
            exprs.push(Expr::IsNull(Box::new(col(c))));
            exprs.push(Expr::IsNotNull(Box::new(col(c))));
        }
        for e in &exprs {
            assert_kernel_matches_interpreter(e, &batch);
            // And on a selection, where unselected lanes are skipped.
            assert_kernel_matches_interpreter(e, &batch.clone().with_selection(vec![1, 4, 6]));
        }
        // SUBSTR keeps String lanes typed; a NULL literal argument or a
        // non-string input falls back to the interpreter.
        let prefix = substr(vec![col(8), int(1), int(2)]);
        let out = eval_kernel(&prefix, &batch).unwrap().unwrap();
        assert!(matches!(out.data(), VectorData::Str(_)));
        assert_eq!(out.get(1), Value::str("日本"));
        for fallback in [
            substr(vec![col(5), Expr::Literal(Value::Null)]),
            substr(vec![col(5), int(1), Expr::Literal(Value::Null)]),
            substr(vec![col(0), int(1), int(2)]),
            substr(vec![col(5), col(4)]),
        ] {
            assert!(
                eval_kernel(&fallback, &batch).unwrap().is_none(),
                "{fallback}"
            );
        }
        // The INT results wrapped: i32::MAX + 1 is i32::MIN, not 2^31.
        let sum = eval_batch(&bin(col(0), Add, col(1)), &batch).unwrap();
        assert_eq!(sum.get(0), Value::Int(i32::MIN));
        let square = eval_batch(&bin(col(0), Mul, col(1)), &batch).unwrap();
        assert_eq!(square.get(6), Value::Int(46_341i32.wrapping_mul(46_341)));
    }

    #[test]
    fn fallback_only_touches_selected_lanes() {
        // CASE has no kernel; the unselected lane would divide by zero if
        // evaluated eagerly — selection must protect it like the row path.
        let batch = long_batch(&[Some(0), Some(2)]).with_selection(vec![1]);
        let case = Expr::Case {
            operand: None,
            branches: vec![(
                bin(
                    bound(0, DataType::Long),
                    BinaryOperator::Gt,
                    Expr::Literal(Value::Long(1)),
                ),
                Expr::Literal(Value::str("big")),
            )],
            else_expr: Some(Box::new(Expr::Literal(Value::str("small")))),
        };
        let v = eval_batch(&case, &batch).unwrap();
        assert_eq!(v.get(1), Value::str("big"));
        assert_eq!(v.get(0), Value::Null, "unselected lane untouched");
    }

    #[test]
    fn projection_retags_to_declared_type() {
        let vals = vec![Value::Int(3), Value::Int(4)];
        let batch = RowBatch::new(
            vec![Arc::new(ColumnVector::from_values(&DataType::Int, vals))],
            2,
        );
        // Int + Int declares Int via tightest_common_type.
        let e = bin(
            bound(0, DataType::Int),
            BinaryOperator::Add,
            bound(0, DataType::Int),
        );
        let out = eval_projection_batch(std::slice::from_ref(&e), &batch).unwrap();
        assert_eq!(out.column(0).get(0), Value::Int(6));
    }
}
