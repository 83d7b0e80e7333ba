//! Columnar expression kernels over [`RowBatch`] columns.
//!
//! A kernel where one exists, else the tree-walking interpreter on the
//! selected lanes only (see the module docs in
//! [`vectorized`](crate::vectorized)). A kernel holds no SQL rule of its
//! own: it unions its operands' NULLs and calls, lane by lane, the
//! function of [`scalar`] that the interpreter calls for one row, and
//! tags its output with the expression's declared type. Every kernel is
//! tested against the interpreter lane by lane, type tags and bits
//! included.

use super::batch::{ColumnVector, NumLanes, RowBatch, StrLane, VectorData};
use crate::error::Result;
use crate::expr::{BinaryOperator, Expr, ScalarFunc};
use crate::interpreter;
use crate::scalar::{self, Num, Numeric};
use crate::types::DataType;
use crate::value::Value;
use std::borrow::Cow;
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

/// Evaluate a projection column-at-a-time; each output column has its
/// expression's declared type, and the input selection carries over.
pub fn eval_projection_batch(exprs: &[Expr], batch: &RowBatch) -> Result<RowBatch> {
    let columns = exprs
        .iter()
        .map(|e| eval_batch(e, batch))
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
    let child = |e: &Expr| eval_kernel(e, batch);
    Ok(match expr {
        Expr::Literal(v) => broadcast(v, batch.num_rows),
        Expr::BoundRef { index, .. } => batch.columns.get(*index).cloned(),
        Expr::Alias { child: e, .. } => child(e)?,
        Expr::Cast { expr, dtype } => child(expr)?.and_then(|c| cast_kernel(&c, dtype)),
        Expr::Negate(e) => child(e)?.and_then(|c| negate_kernel(&c)),
        Expr::Not(e) => child(e)?.and_then(|c| {
            let lanes = c.bool_lanes()?.iter().map(|&b| Some(scalar::not(b)));
            Some(collect_lanes(DataType::Boolean, c.nulls.clone(), lanes))
        }),
        Expr::IsNull(e) => child(e)?.map(|c| null_test(&c, true)),
        Expr::IsNotNull(e) => child(e)?.map(|c| null_test(&c, false)),
        Expr::BinaryOp { left, op, right } => match (child(left)?, child(right)?) {
            (Some(l), Some(r)) => binary_kernel(&l, *op, &r),
            _ => None,
        },
        Expr::ScalarFn {
            func: ScalarFunc::Substr,
            args,
        } => substr_kernel(args, batch)?,
        _ => None,
    })
}

/// A lane type a kernel writes, and the storage its lanes make.
trait Lane: Clone + Default {
    fn vector(lanes: Vec<Self>) -> VectorData;
}

macro_rules! lane {
    ($($t:ty => $storage:ident),*) => {$(
        impl Lane for $t {
            fn vector(lanes: Vec<$t>) -> VectorData {
                VectorData::$storage(lanes)
            }
        }
    )*};
}

lane!(i64 => Long, f64 => Double, bool => Bool, StrLane => Str);

/// A kernel's output of `dtype` from `lanes`, one per input lane: NULL
/// where `nulls` (its operands' NULLs, unioned) is set or the lane is
/// `None`. Lanes under a NULL are computed from filler and ignored.
fn collect_lanes<T: Lane>(
    dtype: DataType,
    mut nulls: Option<Vec<bool>>,
    lanes: impl ExactSizeIterator<Item = Option<T>>,
) -> Arc<ColumnVector> {
    let n = lanes.len();
    let lanes = (lanes.enumerate())
        .map(|(i, lane)| {
            lane.unwrap_or_else(|| {
                nulls.get_or_insert_with(|| vec![false; n])[i] = true;
                T::default()
            })
        })
        .collect();
    Arc::new(ColumnVector::new(dtype, T::vector(lanes), nulls))
}

/// [`collect_lanes`] of `f` over two operands' lanes, pairwise.
fn zip_lanes<A, B, T: Lane>(
    dtype: DataType,
    nulls: Option<Vec<bool>>,
    a: &[A],
    b: &[B],
    mut f: impl FnMut(&A, &B) -> Option<T>,
) -> Arc<ColumnVector> {
    collect_lanes(dtype, nulls, a.iter().zip(b).map(|(a, b)| f(a, b)))
}

fn union_nulls(a: Option<&[bool]>, b: Option<&[bool]>, n: usize) -> Option<Vec<bool>> {
    match (a, b) {
        (None, None) => None,
        (Some(x), None) | (None, Some(x)) => Some(x.to_vec()),
        (Some(x), Some(y)) => Some((0..n).map(|i| x[i] || y[i]).collect()),
    }
}

/// `c`'s numeric lanes as floats of type `t`: its own lanes when they are
/// floats, else each integer cast to `t`.
fn floats(c: &ColumnVector, t: Numeric) -> Option<Cow<'_, [f64]>> {
    Some(match c.num_lanes()? {
        NumLanes::F(v) => Cow::Borrowed(v),
        NumLanes::I(v) => Cow::Owned(
            v.iter()
                .map(|&x| scalar::cast_to_float(Num::I(x), t))
                .collect(),
        ),
    })
}

/// Broadcast a literal into a full vector; non-primitive literals have no
/// kernel.
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

/// `IS [NOT] NULL` as a lane test (never NULL itself).
fn null_test(c: &ColumnVector, want_null: bool) -> Arc<ColumnVector> {
    let lanes = (0..c.len()).map(|i| Some(c.is_null(i) == want_null));
    collect_lanes(DataType::Boolean, None, lanes)
}

/// `CAST(c AS target)` between numeric types; a cast to `c`'s own type is
/// `c`. Other casts fall back.
fn cast_kernel(c: &Arc<ColumnVector>, target: &DataType) -> Option<Arc<ColumnVector>> {
    if c.dtype == *target {
        return Some(c.clone());
    }
    let (t, lanes, nulls) = (Numeric::of(target)?, c.num_lanes()?, c.nulls.clone());
    let x = (0..c.len()).map(|i| match lanes {
        NumLanes::I(v) => Num::I(v[i]),
        NumLanes::F(v) => Num::F(v[i]),
    });
    Some(if t.is_integral() {
        collect_lanes(
            target.clone(),
            nulls,
            x.map(|x| Some(scalar::cast_to_int(x, t))),
        )
    } else {
        collect_lanes(
            target.clone(),
            nulls,
            x.map(|x| Some(scalar::cast_to_float(x, t))),
        )
    })
}

/// Unary `-` over numeric lanes, at the operand's type.
fn negate_kernel(c: &ColumnVector) -> Option<Arc<ColumnVector>> {
    let t = Numeric::of(&c.dtype)?;
    let (dtype, nulls) = (c.dtype.clone(), c.nulls.clone());
    Some(match c.num_lanes()? {
        NumLanes::I(v) => {
            collect_lanes(dtype, nulls, v.iter().map(|&x| Some(scalar::neg_int(x, t))))
        }
        NumLanes::F(v) => {
            collect_lanes(dtype, nulls, v.iter().map(|&x| Some(scalar::neg_float(x))))
        }
    })
}

/// Binary operators over two vectors: AND/OR over Boolean lanes;
/// comparisons over two numeric (integers exactly, else as doubles), two
/// String or two Boolean vectors; arithmetic at the operation's result
/// type; `+` of two strings. Anything else falls back.
fn binary_kernel(
    l: &Arc<ColumnVector>,
    op: BinaryOperator,
    r: &Arc<ColumnVector>,
) -> Option<Arc<ColumnVector>> {
    use DataType::Boolean;
    let n = l.len();
    let nulls = union_nulls(l.nulls(), r.nulls(), n);
    if let Some(test) = scalar::comparison(op) {
        if let (Some(a), Some(b)) = (l.long_lanes(), r.long_lanes()) {
            return Some(zip_lanes(Boolean, nulls, a, b, |a, b| Some(test(a.cmp(b)))));
        }
        if let (Some(a), Some(b)) = (floats(l, Numeric::Double), floats(r, Numeric::Double)) {
            return Some(zip_lanes(Boolean, nulls, &a, &b, |a, b| {
                Some(test(scalar::cmp_double(*a, *b)))
            }));
        }
        if let (Some(a), Some(b)) = (l.str_lanes(), r.str_lanes()) {
            return Some(zip_lanes(Boolean, nulls, a, b, |a, b| {
                Some(test(scalar::cmp_str(a.as_bytes(), b.as_bytes())))
            }));
        }
        let (a, b) = (l.bool_lanes()?, r.bool_lanes()?);
        return Some(zip_lanes(Boolean, nulls, a, b, |a, b| Some(test(a.cmp(b)))));
    }
    if op.is_boolean() {
        let f = if op == BinaryOperator::And {
            scalar::and
        } else {
            scalar::or
        };
        let (a, b) = (l.bool_lanes()?, r.bool_lanes()?);
        let at = |c: &ColumnVector, v: &[bool], i| (!c.is_null(i)).then(|| v[i]);
        let lanes = (0..n).map(|i| f(at(l, a, i), at(r, b, i)));
        return Some(collect_lanes(Boolean, None, lanes));
    }
    let dtype = op.result_type(&l.dtype, &r.dtype)?;
    if let (Some(a), Some(b), BinaryOperator::Add) = (l.str_lanes(), r.str_lanes(), op) {
        let mut joined = String::new();
        return Some(zip_lanes(dtype, nulls, a, b, |a, b| {
            joined.clear();
            joined.push_str(a.as_str());
            joined.push_str(b.as_str());
            Some(StrLane::new(&joined))
        }));
    }
    let t = Numeric::of(&dtype)?;
    // A loop of its own for each of `+ - *`, so the rule inlines into it.
    use BinaryOperator::{Add, Mul, Sub};
    if t.is_integral() {
        let (a, b) = (l.long_lanes()?, r.long_lanes()?);
        let f = scalar::int_arith;
        return Some(match op {
            Add => zip_lanes(dtype, nulls, a, b, |a, b| f(Add, *a, *b, t)),
            Sub => zip_lanes(dtype, nulls, a, b, |a, b| f(Sub, *a, *b, t)),
            Mul => zip_lanes(dtype, nulls, a, b, |a, b| f(Mul, *a, *b, t)),
            _ => zip_lanes(dtype, nulls, a, b, |a, b| f(op, *a, *b, t)),
        });
    }
    let (a, b) = (floats(l, t)?, floats(r, t)?);
    let f = scalar::float_arith;
    Some(match op {
        Add => zip_lanes(dtype, nulls, &a, &b, |a, b| f(Add, *a, *b, t)),
        Sub => zip_lanes(dtype, nulls, &a, &b, |a, b| f(Sub, *a, *b, t)),
        Mul => zip_lanes(dtype, nulls, &a, &b, |a, b| f(Mul, *a, *b, t)),
        _ => zip_lanes(dtype, nulls, &a, &b, |a, b| f(op, *a, *b, t)),
    })
}

/// `SUBSTR(s, pos[, len])` over String and integer lanes,
/// [`scalar::substr`] lane by lane; a whole string is its own lane.
fn substr_kernel(args: &[Expr], batch: &RowBatch) -> Result<Option<Arc<ColumnVector>>> {
    if !(2..=3).contains(&args.len()) {
        return Ok(None);
    }
    let mut cols = Vec::with_capacity(args.len());
    for a in args {
        match eval_kernel(a, batch)? {
            Some(c) => cols.push(c),
            None => return Ok(None),
        }
    }
    let (Some(strs), Some(pos)) = (cols[0].str_lanes(), cols[1].long_lanes()) else {
        return Ok(None);
    };
    let len = match cols.get(2).map(|c| c.long_lanes()) {
        Some(None) => return Ok(None),
        len => len.flatten(),
    };
    let n = batch.num_rows;
    let nulls = (cols.iter()).fold(None, |m, c| union_nulls(m.as_deref(), c.nulls(), n));
    // Only selected lanes are computed: a result longer than a lane holds
    // inline costs an allocation.
    let mut live = vec![batch.selection().is_none(); n];
    batch.for_each_selected(|i| live[i] = true);
    let lanes = (0..n).map(|i| {
        let lane = &strs[i];
        if !live[i] {
            return Some(StrLane::default());
        }
        let out = scalar::substr(lane.as_str(), pos[i], len.map(|l| l[i]));
        Some(if out.len() == lane.len() {
            lane.clone()
        } else {
            StrLane::new(out)
        })
    });
    Ok(Some(collect_lanes(DataType::String, nulls, lanes)))
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

    /// The same value: the same type tag and, for floats, the same bits,
    /// any NaN matching any NaN (`Value`'s `==` compares across types).
    fn same(a: &Value, b: &Value) -> bool {
        let bits = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => bits((*x).into(), (*y).into()),
            (Value::Double(x), Value::Double(y)) => bits(*x, *y),
            _ => a.dtype() == b.dtype() && a == b,
        }
    }

    /// `expr` has a kernel, and on every selected lane of `batch` that
    /// kernel answers what the interpreter answers for the lane's row:
    /// the same tag and bits. Both have the type `expr` declares, and a
    /// FLOAT lane holds an `f32`.
    fn assert_kernel_matches_interpreter(expr: &Expr, batch: &RowBatch) {
        let out = eval_kernel(expr, batch)
            .unwrap()
            .unwrap_or_else(|| panic!("no kernel for {expr}"));
        let declared = expr.data_type().unwrap();
        assert_eq!(out.dtype(), &declared, "{expr}: the kernel's type");
        batch.for_each_selected(|i| {
            let row = batch.row(i);
            let (got, want) = (out.get(i), interpreter::eval(expr, &row).unwrap());
            assert!(
                same(&got, &want),
                "{expr} on {row:?}: kernel {got:?}, interpreter {want:?}"
            );
            assert!(
                want.is_null() || want.dtype() == declared,
                "{expr} on {row:?}: the interpreter's type {}",
                want.dtype()
            );
            if let (VectorData::Double(v), DataType::Float, false) =
                (out.data(), &declared, out.is_null(i))
            {
                assert!(same(
                    &Value::Double(v[i]),
                    &Value::Double((v[i] as f32).into())
                ));
            }
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
    /// are going to, agrees with the interpreter lane by lane: every
    /// operator over every pair of operand types it takes, numeric casts
    /// and negation, over integer extremes, 2^24 + 1 and 2^53 + 1 (the
    /// first integers FLOAT and DOUBLE cannot hold), NaN, ±0.0, ±∞, 0.1,
    /// zero divisors (`/` and `%` by zero are NULL), NULLs in
    /// three-valued logic and multi-byte strings. Integral arithmetic
    /// wraps at the declared width (INT at 32 bits, BIGINT at 64), FLOAT
    /// arithmetic and casts to FLOAT round to `f32`.
    #[test]
    fn every_kernel_matches_the_interpreter_lane_by_lane() {
        const NAN: f64 = f64::NAN;
        const INF: f64 = f64::INFINITY;
        const P24: i64 = 1 << 24;
        const P53: i64 = 1 << 53;
        let ints = |v: [i64; 15]| (DataType::Int, v.map(|x| Value::Int(x as i32)).to_vec());
        let longs = |v: [i64; 15]| (DataType::Long, v.map(Value::Long).to_vec());
        let floats = |v: [f64; 15]| (DataType::Float, v.map(|x| Value::Float(x as f32)).to_vec());
        let doubles = |v: [f64; 15]| (DataType::Double, v.map(Value::Double).to_vec());
        let strs = |v: [&str; 15]| (DataType::String, v.map(Value::str).to_vec());
        let bools = |v: [Option<bool>; 15]| {
            let v = v.map(|b| b.map_or(Value::Null, Value::Boolean));
            (DataType::Boolean, v.to_vec())
        };
        let (max, min) = (i32::MAX as i64, i32::MIN as i64);
        let mut columns: Vec<(DataType, Vec<Value>)> = vec![
            // 0-1: INT.
            ints([
                max,
                min,
                -1,
                0,
                7,
                2,
                46_341,
                P24 + 1,
                1,
                -7,
                3,
                100,
                -46_341,
                5,
                P24,
            ]),
            ints([1, -1, min, 3, -7, 0, 46_341, 2, max, 7, -3, 0, 46_341, 2, 1]),
            // 2-3: BIGINT.
            longs(
                [
                    i64::MAX,
                    i64::MIN,
                    -1,
                    0,
                    2_000_000_000_000,
                    5,
                    3_037_000_500,
                    P53 + 1,
                ]
                .into_iter()
                .chain([P24 + 1, -7, max + 1, min - 1, 100, 1, 9])
                .collect::<Vec<_>>()
                .try_into()
                .unwrap(),
            ),
            longs([
                1,
                -1,
                -1,
                i64::MAX,
                9,
                0,
                3_037_000_500,
                2,
                3,
                0,
                -1,
                7,
                i64::MIN,
                P53 + 1,
                -9,
            ]),
            // 4-5: FLOAT.
            floats([
                NAN,
                -0.0,
                0.0,
                INF,
                -INF,
                0.1,
                P24 as f64,
                1.5,
                -2.25,
                f32::MAX as f64,
                3e9,
                7.0,
                0.5,
                -1.0,
                (P24 + 2) as f64,
            ]),
            floats([
                0.0,
                1.0,
                -0.0,
                NAN,
                2.0,
                3.0,
                0.1,
                -0.0,
                2.0,
                f32::MAX as f64,
                1e-45,
                -7.0,
                INF,
                0.2,
                3.0,
            ]),
            // 6-7: DOUBLE.
            doubles([
                NAN,
                -0.0,
                0.0,
                INF,
                -INF,
                0.1,
                (P53 + 1) as f64,
                (P24 + 1) as f64,
                3e9,
                -3e9,
                1.5,
                7.0,
                0.5,
                1e300,
                -2.25,
            ]),
            doubles([
                -0.0, 1.0, 0.0, NAN, INF, 3.0, 0.2, 2.0, 0.0, 7.0, -1.5, 2.0, NAN, 1e300, 0.1,
            ]),
            // 8: STRING.
            strs([
                "ab", "b", "", "ab", "zz", "a", "b", "é", "abc", "", "zz", "ba", "a", "b", "ab",
            ]),
            // 9: strings whose chars are wider than a byte, beside ASCII.
            strs([
                "héllo",
                "日本語テキスト",
                "",
                "abcdef",
                "naïve",
                "€",
                "x",
                "ab",
                "é",
                "日本",
                "zz",
                "naïve",
                "€€",
                "a",
                "b",
            ]),
            // 10: strings around the 7 bytes a lane holds inline.
            strs([
                "abcdefghij",
                "seven77",
                "eight888",
                "äöüßéèêñ",
                "",
                "abcdefé",
                "ab",
                "seven77",
                "x",
                "eight888",
                "日本語",
                "abcdefg",
                "é",
                "b",
                "ab",
            ]),
            // 11-12: BOOLEAN; side by side they hold every pair of TRUE,
            // FALSE and NULL, for three-valued AND/OR.
            bools(
                [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]
                    .map(|i| [Some(true), Some(false), None][i]),
            ),
            bools(
                [0, 0, 0, 1, 1, 1, 2, 2, 2, 0, 1, 2, 2, 1, 0]
                    .map(|i| [Some(true), Some(false), None][i]),
            ),
        ];
        // One more NULL lane per column, at a different lane each.
        for (c, (_, values)) in columns.iter_mut().enumerate() {
            values.insert((5 * c + 3) % 16, Value::Null);
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
        let cast = |e: Expr, dtype: DataType| Expr::Cast {
            expr: Box::new(e),
            dtype,
        };
        use BinaryOperator::*;
        use DataType::{Double, Float, Int, Long};
        const COMPARISONS: [BinaryOperator; 6] = [Eq, NotEq, Lt, LtEq, Gt, GtEq];
        let mut exprs = Vec::new();
        // Every operator over every pair of operand types it takes.
        let (numeric, strings, booleans) = (0..8, 8..11, 11..13);
        for l in numeric.clone() {
            for r in numeric.clone() {
                for op in [Add, Sub, Mul, Div, Mod].into_iter().chain(COMPARISONS) {
                    exprs.push(bin(col(l), op, col(r)));
                }
            }
        }
        for l in strings.clone() {
            for r in strings.clone() {
                for op in [Add].into_iter().chain(COMPARISONS) {
                    exprs.push(bin(col(l), op, col(r)));
                }
            }
        }
        for l in booleans.clone() {
            for r in booleans.clone() {
                for op in [And, Or].into_iter().chain(COMPARISONS) {
                    exprs.push(bin(col(l), op, col(r)));
                }
            }
            exprs.push(Expr::Not(Box::new(col(l))));
        }
        // Negation and every numeric cast; a FLOAT cast seen through a
        // DOUBLE, as coercion leaves it beside a DOUBLE or an integer.
        for c in numeric {
            exprs.push(Expr::Negate(Box::new(col(c))));
            for t in [Int, Long, Float, Double] {
                exprs.push(cast(col(c), t));
            }
            let float = || cast(col(c), Float);
            exprs.push(bin(cast(float(), Double), Eq, cast(col(c), Double)));
            exprs.push(bin(
                cast(float(), Double),
                Add,
                Expr::Literal(Value::Double(0.0)),
            ));
            exprs.push(bin(
                cast(float(), Double),
                Mul,
                Expr::Literal(Value::Double(1.0)),
            ));
            exprs.push(bin(float(), Mul, Expr::Literal(Value::Float(2.0))));
            exprs.push(bin(Expr::Negate(Box::new(float())), Sub, float()));
        }
        // A string column against a broadcast string literal, on either
        // side, with literals that fit a lane and ones that do not.
        for lit in ["", "seven77", "eight888", "ab", "äö", "naïve"] {
            let lit = || Expr::Literal(Value::str(lit));
            for op in COMPARISONS {
                for c in strings.clone() {
                    exprs.push(bin(col(c), op, lit()));
                    exprs.push(bin(lit(), op, col(c)));
                }
                exprs.push(bin(lit(), op, Expr::Literal(Value::str("b"))));
            }
            exprs.push(bin(col(10), Add, lit()));
        }
        // Literals broadcast at their own width.
        exprs.push(bin(col(0), Add, Expr::Literal(Value::Int(1))));
        exprs.push(bin(col(2), Mul, Expr::Literal(Value::Int(2))));
        exprs.push(bin(col(4), Sub, Expr::Literal(Value::Float(0.1))));
        exprs.push(bin(col(6), Div, Expr::Literal(Value::Double(-0.0))));
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
        // SUBSTR: ASCII and wider chars; `pos` 0, negative and past the
        // end; `len` 0, negative and absent; pos/len as Int and Long lanes
        // (extremes and NULLs included) and as literals.
        let substr = |args: Vec<Expr>| Expr::ScalarFn {
            func: ScalarFunc::Substr,
            args,
        };
        let int = |v: i64| Expr::Literal(Value::Long(v));
        for s in strings.clone() {
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
            exprs.push(substr(vec![col(10), int(pos), int(len)]));
            exprs.push(substr(vec![col(9), int(pos), int(len)]));
        }
        for c in 0..columns.len() {
            exprs.push(Expr::IsNull(Box::new(col(c))));
            exprs.push(Expr::IsNotNull(Box::new(col(c))));
        }
        for e in &exprs {
            assert_kernel_matches_interpreter(e, &batch);
            // And on a selection, where unselected lanes are skipped.
            let selected = batch.clone().with_selection(vec![1, 4, 6, 9, 14]);
            assert_kernel_matches_interpreter(e, &selected);
        }
        // SUBSTR keeps String lanes typed; a NULL literal argument or a
        // non-string input falls back to the interpreter.
        let prefix = substr(vec![col(9), int(1), int(2)]);
        let out = eval_kernel(&prefix, &batch).unwrap().unwrap();
        assert!(matches!(out.data(), VectorData::Str(_)));
        assert_eq!(out.get(2), Value::str("日本"));
        for fallback in [
            substr(vec![col(8), Expr::Literal(Value::Null)]),
            substr(vec![col(8), int(1), Expr::Literal(Value::Null)]),
            substr(vec![col(0), int(1), int(2)]),
            substr(vec![col(8), col(6)]),
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
        assert_eq!(
            square.get(13),
            Value::Int((-46_341i32).wrapping_mul(46_341))
        );
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
