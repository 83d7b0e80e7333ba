//! Aggregate accumulators: the one partial-state definition ([`Acc`])
//! and the typed lanes ([`AccLane`]) the batch kernel fills it from.
//!
//! [`Acc`] is the per-group, per-call partial state of the GROUP BY
//! pipeline: the row kernel folds argument values into it directly
//! ([`Acc::update`]), its shuffle carries it, the reduce side merges it
//! ([`Acc::merge`]) and spills it ([`Acc::to_value`]), and the final
//! projection reads [`Acc::finish`]. NULL skipping, Int→Long widening and
//! tie-breaking are therefore defined here once.
//!
//! The batch pipeline keeps the same states in lanes end to end: a map
//! task ships lanes ([`AccLane::gather`] splits them by reducer), the
//! reducer folds them with [`AccLane::merge`] — [`Acc::merge`] lane by
//! lane — and finishes them as columns ([`AccLane::finish_column`],
//! [`Acc::finish`] lane by lane). A reduce side denied memory spills its
//! lanes as typed columns ([`AccLane::state_columns`]) and reads them
//! back as lanes ([`AccLane::from_state`]): the batch pipeline builds no
//! [`Acc`] at any budget.
//!
//! One [`AccLane`] holds the accumulator state of one aggregate call for
//! *every* group, as primitive lanes indexed by group id. Updates run in
//! row-arrival order over `(lane, group)` assignments produced by
//! [`BatchGroups`](super::hash::BatchGroups), so the resulting partials
//! are exactly what [`Acc::update`] would have produced row by row for
//! the same partition:
//!
//! * COUNT(\*) counts every row; every other aggregate skips NULL
//!   arguments.
//! * SUM/AVG over Int/Long lanes are exact 64-bit sums with
//!   [`Value::add`]'s sticky Int→Long widening (an Int sum that ever
//!   leaves i32 range stays Long), and fail on 64-bit overflow with its
//!   error.
//! * MIN/MAX compare with [`Value::total_cmp`] semantics (`i64::cmp`,
//!   [`f64::total_cmp`], byte-wise string compare) and keep the
//!   first-seen extreme on ties.
//!
//! Unsupported aggregate/type combinations (and every DISTINCT call)
//! make [`AccLane::for_input`] return `None`; the caller then runs the
//! row kernel.

use super::batch::{ColumnVector, StrLane, VectorData};
use crate::error::{CatalystError, Result};
use crate::expr::AggFunc;
use crate::types::DataType;
use crate::value::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;

/// Partial state of one aggregate call for one group.
#[derive(Debug, Clone)]
pub enum Acc {
    /// COUNT (of non-null args, or all rows for COUNT(*)).
    Count(i64),
    /// SUM (None = no non-NULL input seen).
    Sum(Option<Value>),
    /// MIN.
    Min(Option<Value>),
    /// MAX.
    Max(Option<Value>),
    /// AVG: running sum + non-NULL count.
    Avg(Option<Value>, i64),
    /// Any DISTINCT aggregate: collect the distinct set, finish by func.
    Distinct(HashSet<Value>, AggFunc),
}

impl Acc {
    /// The empty state for `func` (`DISTINCT func` when `distinct`).
    pub fn new(func: AggFunc, distinct: bool) -> Acc {
        if distinct {
            return Acc::Distinct(HashSet::new(), func);
        }
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(None),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg(None, 0),
        }
    }

    /// Fold one argument value in. NULLs are skipped; COUNT(\*) passes a
    /// non-NULL constant for every row. Fails as [`Value::add`] does.
    pub fn update(&mut self, v: Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum(s) => *s = merge_opt_add(s.take(), Some(v))?,
            Acc::Min(m) => {
                if m.as_ref().is_none_or(|cur| v < *cur) {
                    *m = Some(v);
                }
            }
            Acc::Max(m) => {
                if m.as_ref().is_none_or(|cur| v > *cur) {
                    *m = Some(v);
                }
            }
            Acc::Avg(s, n) => {
                *s = merge_opt_add(s.take(), Some(v))?;
                *n += 1;
            }
            Acc::Distinct(set, _) => {
                set.insert(v);
            }
        }
        Ok(())
    }

    /// Combine two partials of the same call (`self` arrived first, so it
    /// wins MIN/MAX ties). Fails as [`Value::add`] does.
    pub fn merge(self, other: Acc) -> Result<Acc> {
        Ok(match (self, other) {
            (Acc::Count(x), Acc::Count(y)) => Acc::Count(x + y),
            (Acc::Sum(x), Acc::Sum(y)) => Acc::Sum(merge_opt_add(x, y)?),
            (Acc::Min(x), Acc::Min(y)) => Acc::Min(merge_opt_by(x, y, |a, b| a <= b)),
            (Acc::Max(x), Acc::Max(y)) => Acc::Max(merge_opt_by(x, y, |a, b| a >= b)),
            (Acc::Avg(xs, xn), Acc::Avg(ys, yn)) => Acc::Avg(merge_opt_add(xs, ys)?, xn + yn),
            (Acc::Distinct(mut xa, f), Acc::Distinct(yb, _)) => {
                xa.extend(yb);
                Acc::Distinct(xa, f)
            }
            (x, y) => {
                let msg = format!("mismatched accumulators {x:?} and {y:?}");
                return Err(CatalystError::Internal(msg));
            }
        })
    }

    /// The aggregate's result value.
    pub fn finish(self) -> Value {
        match self {
            Acc::Count(n) => Value::Long(n),
            Acc::Sum(v) | Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Value::Null),
            Acc::Avg(Some(sum), n) if n > 0 => sum
                .as_f64()
                .map_or(Value::Null, |f| Value::Double(f / n as f64)),
            Acc::Avg(..) => Value::Null,
            Acc::Distinct(set, f) => match f {
                AggFunc::Count => Value::Long(set.len() as i64),
                AggFunc::Sum => set
                    .into_iter()
                    .try_fold(None::<Value>, |acc, v| match acc {
                        Some(cur) => cur.add(&v).map(Some),
                        None => Ok(Some(v)),
                    })
                    .ok()
                    .flatten()
                    .unwrap_or(Value::Null),
                AggFunc::Min => set.into_iter().min().unwrap_or(Value::Null),
                AggFunc::Max => set.into_iter().max().unwrap_or(Value::Null),
                AggFunc::Avg => {
                    let n = set.len();
                    if n == 0 {
                        Value::Null
                    } else {
                        let sum: f64 = set.iter().filter_map(Value::as_f64).sum();
                        Value::Double(sum / n as f64)
                    }
                }
            },
        }
    }

    /// Encode for spilling as a self-describing tagged array. Inverse of
    /// [`Acc::from_value`]; round-trips exactly through the spill codec.
    pub fn to_value(&self) -> Value {
        let items: Vec<Value> = match self {
            Acc::Count(n) => vec![Value::Long(0), Value::Long(*n)],
            Acc::Sum(s) => vec![Value::Long(1), s.clone().unwrap_or(Value::Null)],
            Acc::Min(m) => vec![Value::Long(2), m.clone().unwrap_or(Value::Null)],
            Acc::Max(m) => vec![Value::Long(3), m.clone().unwrap_or(Value::Null)],
            Acc::Avg(s, n) => {
                vec![
                    Value::Long(4),
                    s.clone().unwrap_or(Value::Null),
                    Value::Long(*n),
                ]
            }
            Acc::Distinct(set, f) => {
                let mut items = vec![Value::Long(5), Value::Long(agg_func_tag(*f))];
                items.extend(set.iter().cloned());
                items
            }
        };
        Value::Array(Arc::new(items))
    }

    /// Decode a spilled accumulator. A value that is not one is an
    /// error.
    pub fn from_value(v: &Value) -> Result<Acc> {
        let corrupt = || CatalystError::Internal(format!("corrupt spilled accumulator {v:?}"));
        let Value::Array(items) = v else {
            return Err(corrupt());
        };
        let opt = |v: &Value| if v.is_null() { None } else { Some(v.clone()) };
        Ok(match (items.first(), items.get(1), items.get(2)) {
            (Some(Value::Long(0)), Some(Value::Long(n)), _) => Acc::Count(*n),
            (Some(Value::Long(1)), Some(s), _) => Acc::Sum(opt(s)),
            (Some(Value::Long(2)), Some(m), _) => Acc::Min(opt(m)),
            (Some(Value::Long(3)), Some(m), _) => Acc::Max(opt(m)),
            (Some(Value::Long(4)), Some(s), Some(Value::Long(n))) => Acc::Avg(opt(s), *n),
            (Some(Value::Long(5)), Some(Value::Long(tag)), _) => {
                let f = agg_func_from_tag(*tag).ok_or_else(corrupt)?;
                Acc::Distinct(items[2..].iter().cloned().collect(), f)
            }
            _ => return Err(corrupt()),
        })
    }

    /// Rough in-memory footprint, for reservation accounting.
    pub fn approx_bytes(&self) -> u64 {
        match self {
            Acc::Count(_) => 16,
            Acc::Sum(v) | Acc::Min(v) | Acc::Max(v) => {
                16 + v.as_ref().map_or(0, Value::approx_bytes)
            }
            Acc::Avg(v, _) => 24 + v.as_ref().map_or(0, Value::approx_bytes),
            Acc::Distinct(set, _) => 32 + set.iter().map(|v| 16 + v.approx_bytes()).sum::<u64>(),
        }
    }
}

fn agg_func_tag(f: AggFunc) -> i64 {
    match f {
        AggFunc::Count => 0,
        AggFunc::Sum => 1,
        AggFunc::Min => 2,
        AggFunc::Max => 3,
        AggFunc::Avg => 4,
    }
}

fn agg_func_from_tag(t: i64) -> Option<AggFunc> {
    Some(match t {
        0 => AggFunc::Count,
        1 => AggFunc::Sum,
        2 => AggFunc::Min,
        3 => AggFunc::Max,
        4 => AggFunc::Avg,
        _ => return None,
    })
}

fn merge_opt_add(a: Option<Value>, b: Option<Value>) -> Result<Option<Value>> {
    Ok(match (a, b) {
        (Some(x), Some(y)) => Some(x.add(&y)?),
        (x, None) => x,
        (None, y) => y,
    })
}

/// A 64-bit lane sum, failing with [`Value::add`]'s overflow error.
fn lane_add(a: i64, b: i64) -> Result<i64> {
    a.checked_add(b)
        .ok_or_else(|| CatalystError::eval("integer overflow in '+'"))
}

fn merge_opt_by(
    a: Option<Value>,
    b: Option<Value>,
    keep_left: fn(&Value, &Value) -> bool,
) -> Option<Value> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if keep_left(&x, &y) { x } else { y }),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Which aggregate a lane accumulates (non-DISTINCT only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneAgg {
    /// `COUNT(*)` — counts every row.
    CountStar,
    /// `COUNT(col)` — counts non-NULL arguments.
    Count,
    /// `SUM(col)`.
    Sum,
    /// `AVG(col)` — sum plus non-NULL count.
    Avg,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
}

/// Typed accumulator lanes for one aggregate call across all groups.
#[derive(Debug, Clone)]
pub enum AccLane {
    /// COUNT(*) / COUNT(col): one count per group.
    Count {
        /// Per-group row (or non-NULL argument) counts.
        counts: Vec<i64>,
        /// True for COUNT(*): NULL arguments still count.
        all_rows: bool,
    },
    /// SUM/AVG over Int/Long lanes (exact 64-bit arithmetic).
    SumLong {
        /// Per-group running sums.
        sums: Vec<i64>,
        /// Per-group "saw a non-NULL value" flags.
        seen: Vec<bool>,
        /// Sticky per-group Int→Long widening flags (Int input only).
        wide: Vec<bool>,
        /// True when the argument type is Int (enables widening logic).
        int_input: bool,
        /// Per-group non-NULL counts (present for AVG).
        avg_counts: Option<Vec<i64>>,
    },
    /// SUM/AVG over Double lanes (f64 accumulation in arrival order).
    SumDouble {
        /// Per-group running sums.
        sums: Vec<f64>,
        /// Per-group "saw a non-NULL value" flags.
        seen: Vec<bool>,
        /// Per-group non-NULL counts (present for AVG).
        avg_counts: Option<Vec<i64>>,
    },
    /// MIN/MAX over Int/Long/Date/Timestamp lanes.
    ExtremeLong {
        /// Per-group current extreme.
        vals: Vec<i64>,
        /// Per-group "saw a non-NULL value" flags.
        seen: Vec<bool>,
        /// True for MIN, false for MAX.
        is_min: bool,
        /// Declared argument type, for re-tagging the finished value.
        dtype: DataType,
    },
    /// MIN/MAX over Double lanes ([`f64::total_cmp`] order).
    ExtremeDouble {
        /// Per-group current extreme.
        vals: Vec<f64>,
        /// Per-group "saw a non-NULL value" flags.
        seen: Vec<bool>,
        /// True for MIN, false for MAX.
        is_min: bool,
    },
    /// MIN/MAX over String lanes.
    ExtremeStr {
        /// Per-group current extreme (None = no non-NULL value yet).
        vals: Vec<Option<StrLane>>,
        /// True for MIN, false for MAX.
        is_min: bool,
    },
}

impl AccLane {
    /// Build a lane for `agg` over an argument of type `dtype`, or `None`
    /// when the combination has no typed lane (caller falls back to the
    /// row path). `dtype` is ignored for `CountStar`.
    pub fn for_input(agg: LaneAgg, dtype: &DataType) -> Option<AccLane> {
        match agg {
            LaneAgg::CountStar => Some(AccLane::Count {
                counts: Vec::new(),
                all_rows: true,
            }),
            LaneAgg::Count => Some(AccLane::Count {
                counts: Vec::new(),
                all_rows: false,
            }),
            LaneAgg::Sum | LaneAgg::Avg => {
                let avg = agg == LaneAgg::Avg;
                match dtype {
                    DataType::Int | DataType::Long => Some(AccLane::SumLong {
                        sums: Vec::new(),
                        seen: Vec::new(),
                        wide: Vec::new(),
                        int_input: matches!(dtype, DataType::Int),
                        avg_counts: avg.then(Vec::new),
                    }),
                    DataType::Double => Some(AccLane::SumDouble {
                        sums: Vec::new(),
                        seen: Vec::new(),
                        avg_counts: avg.then(Vec::new),
                    }),
                    _ => None,
                }
            }
            LaneAgg::Min | LaneAgg::Max => {
                let is_min = agg == LaneAgg::Min;
                match dtype {
                    DataType::Int | DataType::Long | DataType::Date | DataType::Timestamp => {
                        Some(AccLane::ExtremeLong {
                            vals: Vec::new(),
                            seen: Vec::new(),
                            is_min,
                            dtype: dtype.clone(),
                        })
                    }
                    DataType::Double => Some(AccLane::ExtremeDouble {
                        vals: Vec::new(),
                        seen: Vec::new(),
                        is_min,
                    }),
                    DataType::String => Some(AccLane::ExtremeStr {
                        vals: Vec::new(),
                        is_min,
                    }),
                    _ => None,
                }
            }
        }
    }

    /// Grow every per-group vector to `n` groups.
    fn ensure_groups(&mut self, n: usize) {
        match self {
            AccLane::Count { counts, .. } => counts.resize(n, 0),
            AccLane::SumLong {
                sums,
                seen,
                wide,
                avg_counts,
                ..
            } => {
                sums.resize(n, 0);
                seen.resize(n, false);
                wide.resize(n, false);
                if let Some(c) = avg_counts {
                    c.resize(n, 0);
                }
            }
            AccLane::SumDouble {
                sums,
                seen,
                avg_counts,
            } => {
                sums.resize(n, 0.0);
                seen.resize(n, false);
                if let Some(c) = avg_counts {
                    c.resize(n, 0);
                }
            }
            AccLane::ExtremeLong { vals, seen, .. } => {
                vals.resize(n, 0);
                seen.resize(n, false);
            }
            AccLane::ExtremeDouble { vals, seen, .. } => {
                vals.resize(n, 0.0);
                seen.resize(n, false);
            }
            AccLane::ExtremeStr { vals, .. } => vals.resize(n, None),
        }
    }

    /// Apply one batch worth of `(lane, group)` assignments (in arrival
    /// order). `arg` is the evaluated argument column; `None` only for
    /// COUNT(*). `num_groups` is the group count after assignment.
    /// Fails as [`Acc::update`] does.
    pub fn update(
        &mut self,
        arg: Option<&ColumnVector>,
        assignments: &[(u32, u32)],
        num_groups: usize,
    ) -> Result<()> {
        self.ensure_groups(num_groups);
        match self {
            AccLane::Count { counts, all_rows } => {
                if *all_rows {
                    for &(_, g) in assignments {
                        counts[g as usize] += 1;
                    }
                } else {
                    let col = arg.expect("COUNT(col) needs its argument column");
                    for &(i, g) in assignments {
                        if !col.is_null(i as usize) {
                            counts[g as usize] += 1;
                        }
                    }
                }
            }
            AccLane::SumLong {
                sums,
                seen,
                wide,
                int_input,
                avg_counts,
            } => {
                let col = arg.expect("SUM/AVG needs its argument column");
                let lanes = long_lane_view(col);
                for &(i, g) in assignments {
                    let (i, g) = (i as usize, g as usize);
                    if col.is_null(i) {
                        continue;
                    }
                    let v = lane_i64(col, lanes, i);
                    if seen[g] {
                        let s = lane_add(sums[g], v)?;
                        // Value::add widens Int sums to Long once — and
                        // only once — a running value leaves i32 range.
                        if *int_input && !wide[g] && i32::try_from(s).is_err() {
                            wide[g] = true;
                        }
                        sums[g] = s;
                    } else {
                        sums[g] = v;
                        seen[g] = true;
                    }
                    if let Some(c) = avg_counts {
                        c[g] += 1;
                    }
                }
            }
            AccLane::SumDouble {
                sums,
                seen,
                avg_counts,
            } => {
                let col = arg.expect("SUM/AVG needs its argument column");
                let lanes = double_lane_view(col);
                for &(i, g) in assignments {
                    let (i, g) = (i as usize, g as usize);
                    if col.is_null(i) {
                        continue;
                    }
                    let v = lane_f64(col, lanes, i);
                    if seen[g] {
                        sums[g] += v;
                    } else {
                        sums[g] = v;
                        seen[g] = true;
                    }
                    if let Some(c) = avg_counts {
                        c[g] += 1;
                    }
                }
            }
            AccLane::ExtremeLong {
                vals, seen, is_min, ..
            } => {
                let col = arg.expect("MIN/MAX needs its argument column");
                let lanes = long_lane_view(col);
                let want = replacing(*is_min);
                for &(i, g) in assignments {
                    let (i, g) = (i as usize, g as usize);
                    if col.is_null(i) {
                        continue;
                    }
                    let v = lane_i64(col, lanes, i);
                    if !seen[g] || v.cmp(&vals[g]) == want {
                        vals[g] = v;
                        seen[g] = true;
                    }
                }
            }
            AccLane::ExtremeDouble { vals, seen, is_min } => {
                let col = arg.expect("MIN/MAX needs its argument column");
                let lanes = double_lane_view(col);
                let want = replacing(*is_min);
                for &(i, g) in assignments {
                    let (i, g) = (i as usize, g as usize);
                    if col.is_null(i) {
                        continue;
                    }
                    let v = lane_f64(col, lanes, i);
                    if !seen[g] || v.total_cmp(&vals[g]) == want {
                        vals[g] = v;
                        seen[g] = true;
                    }
                }
            }
            AccLane::ExtremeStr { vals, is_min } => {
                let col = arg.expect("MIN/MAX needs its argument column");
                let want = replacing(*is_min);
                let lanes = col.str_lanes();
                for &(i, g) in assignments {
                    let (i, g) = (i as usize, g as usize);
                    if col.is_null(i) {
                        continue;
                    }
                    let s = match lanes {
                        Some(lanes) => Cow::Borrowed(&lanes[i]),
                        None => match col.get(i) {
                            Value::Str(s) => Cow::Owned(StrLane::shared(s)),
                            other => panic!("MIN/MAX string lane got {other:?}"),
                        },
                    };
                    match &vals[g] {
                        Some(cur) if s.as_ref().cmp(cur) != want => {}
                        _ => vals[g] = Some(s.into_owned()),
                    }
                }
            }
        }
        Ok(())
    }

    /// Fold the partial states of `other` (a lane of the same call,
    /// indexed by its own rows) into this lane's groups: each
    /// `(row, group)` assignment merges `other`'s row into `group`
    /// exactly as [`Acc::merge`] merges the two partials, this lane's
    /// state first. Counts add; sums add with the sticky Int→Long
    /// widening of [`Value::add`]; MIN/MAX keep the earlier state on ties.
    /// Fails as [`Acc::merge`] does.
    pub fn merge(
        &mut self,
        other: &AccLane,
        assignments: &[(u32, u32)],
        num_groups: usize,
    ) -> Result<()> {
        self.ensure_groups(num_groups);
        match (self, other) {
            (AccLane::Count { counts, .. }, AccLane::Count { counts: theirs, .. }) => {
                for &(i, g) in assignments {
                    counts[g as usize] += theirs[i as usize];
                }
            }
            (
                AccLane::SumLong {
                    sums,
                    seen,
                    wide,
                    int_input,
                    avg_counts,
                },
                AccLane::SumLong {
                    sums: their_sums,
                    seen: their_seen,
                    wide: their_wide,
                    avg_counts: their_counts,
                    ..
                },
            ) => {
                for &(i, g) in assignments {
                    let (i, g) = (i as usize, g as usize);
                    if let (Some(c), Some(t)) = (avg_counts.as_mut(), their_counts) {
                        c[g] += t[i];
                    }
                    if !their_seen[i] {
                        continue;
                    }
                    if seen[g] {
                        let s = lane_add(sums[g], their_sums[i])?;
                        // Int + Int stays Int while it fits; a Long on
                        // either side makes a Long.
                        wide[g] |= their_wide[i] || (*int_input && i32::try_from(s).is_err());
                        sums[g] = s;
                    } else {
                        (sums[g], seen[g], wide[g]) = (their_sums[i], true, their_wide[i]);
                    }
                }
            }
            (
                AccLane::SumDouble {
                    sums,
                    seen,
                    avg_counts,
                },
                AccLane::SumDouble {
                    sums: their_sums,
                    seen: their_seen,
                    avg_counts: their_counts,
                },
            ) => {
                for &(i, g) in assignments {
                    let (i, g) = (i as usize, g as usize);
                    if let (Some(c), Some(t)) = (avg_counts.as_mut(), their_counts) {
                        c[g] += t[i];
                    }
                    if !their_seen[i] {
                        continue;
                    }
                    if seen[g] {
                        sums[g] += their_sums[i];
                    } else {
                        (sums[g], seen[g]) = (their_sums[i], true);
                    }
                }
            }
            (
                AccLane::ExtremeLong {
                    vals, seen, is_min, ..
                },
                AccLane::ExtremeLong {
                    vals: theirs,
                    seen: their_seen,
                    ..
                },
            ) => {
                let want = replacing(*is_min);
                for &(i, g) in assignments {
                    let (i, g) = (i as usize, g as usize);
                    if their_seen[i] && (!seen[g] || theirs[i].cmp(&vals[g]) == want) {
                        (vals[g], seen[g]) = (theirs[i], true);
                    }
                }
            }
            (
                AccLane::ExtremeDouble { vals, seen, is_min },
                AccLane::ExtremeDouble {
                    vals: theirs,
                    seen: their_seen,
                    ..
                },
            ) => {
                let want = replacing(*is_min);
                for &(i, g) in assignments {
                    let (i, g) = (i as usize, g as usize);
                    if their_seen[i] && (!seen[g] || theirs[i].total_cmp(&vals[g]) == want) {
                        (vals[g], seen[g]) = (theirs[i], true);
                    }
                }
            }
            (AccLane::ExtremeStr { vals, is_min }, AccLane::ExtremeStr { vals: theirs, .. }) => {
                let want = replacing(*is_min);
                for &(i, g) in assignments {
                    let (i, g) = (i as usize, g as usize);
                    let Some(s) = &theirs[i] else { continue };
                    match &vals[g] {
                        Some(cur) if s.cmp(cur) != want => {}
                        _ => vals[g] = Some(s.clone()),
                    }
                }
            }
            (this, other) => unreachable!("merging {other:?} into {this:?}"),
        }
        Ok(())
    }

    /// The states of `groups`, in that order, as a lane of their own.
    pub fn gather(&self, groups: &[u32]) -> AccLane {
        fn pick<T: Clone>(v: &[T], groups: &[u32]) -> Vec<T> {
            groups.iter().map(|&g| v[g as usize].clone()).collect()
        }
        match self {
            AccLane::Count { counts, all_rows } => AccLane::Count {
                counts: pick(counts, groups),
                all_rows: *all_rows,
            },
            AccLane::SumLong {
                sums,
                seen,
                wide,
                int_input,
                avg_counts,
            } => AccLane::SumLong {
                sums: pick(sums, groups),
                seen: pick(seen, groups),
                wide: pick(wide, groups),
                int_input: *int_input,
                avg_counts: avg_counts.as_deref().map(|c| pick(c, groups)),
            },
            AccLane::SumDouble {
                sums,
                seen,
                avg_counts,
            } => AccLane::SumDouble {
                sums: pick(sums, groups),
                seen: pick(seen, groups),
                avg_counts: avg_counts.as_deref().map(|c| pick(c, groups)),
            },
            AccLane::ExtremeLong {
                vals,
                seen,
                is_min,
                dtype,
            } => AccLane::ExtremeLong {
                vals: pick(vals, groups),
                seen: pick(seen, groups),
                is_min: *is_min,
                dtype: dtype.clone(),
            },
            AccLane::ExtremeDouble { vals, seen, is_min } => AccLane::ExtremeDouble {
                vals: pick(vals, groups),
                seen: pick(seen, groups),
                is_min: *is_min,
            },
            AccLane::ExtremeStr { vals, is_min } => AccLane::ExtremeStr {
                vals: pick(vals, groups),
                is_min: *is_min,
            },
        }
    }

    /// The lane's per-group state as columns, so it can cross the disk
    /// boundary typed: [`from_state`](Self::from_state) with a lane of
    /// the same call as its template rebuilds it exactly. A value
    /// column's null mask marks the groups that saw no value, so their
    /// lanes keep whatever filler they held; the call's fixed parts
    /// (MIN or MAX, input type, SUM or AVG) stay with the template.
    pub fn state_columns(&self) -> Vec<ColumnVector> {
        let unseen = |seen: &[bool]| Some(seen.iter().map(|s| !s).collect());
        let long = |lanes: &[i64], nulls| {
            ColumnVector::new(DataType::Long, VectorData::Long(lanes.to_vec()), nulls)
        };
        let double = |lanes: &[f64], seen: &[bool]| {
            let data = VectorData::Double(lanes.to_vec());
            ColumnVector::new(DataType::Double, data, unseen(seen))
        };
        let counts = |c: &Option<Vec<i64>>| c.as_deref().map(|c| long(c, None));
        match self {
            AccLane::Count { counts, .. } => vec![long(counts, None)],
            AccLane::SumLong {
                sums,
                seen,
                wide,
                avg_counts,
                ..
            } => {
                let wide =
                    ColumnVector::new(DataType::Boolean, VectorData::Bool(wide.clone()), None);
                let mut cols = vec![long(sums, unseen(seen)), wide];
                cols.extend(counts(avg_counts));
                cols
            }
            AccLane::SumDouble {
                sums,
                seen,
                avg_counts,
            } => {
                let mut cols = vec![double(sums, seen)];
                cols.extend(counts(avg_counts));
                cols
            }
            AccLane::ExtremeLong { vals, seen, .. } => vec![long(vals, unseen(seen))],
            AccLane::ExtremeDouble { vals, seen, .. } => vec![double(vals, seen)],
            AccLane::ExtremeStr { vals, .. } => {
                let lanes = vals.iter().map(|v| v.clone().unwrap_or_default());
                let nulls = vals.iter().map(Option::is_none).collect();
                vec![ColumnVector::new(
                    DataType::String,
                    VectorData::Str(lanes.collect()),
                    Some(nulls),
                )]
            }
        }
    }

    /// The lane of `rows` groups whose [`state_columns`](Self::state_columns)
    /// are the next columns of `cols`, for `template`'s call. Fails when
    /// a column is missing or has the wrong storage or length: state read
    /// back from disk may be corrupt.
    pub fn from_state(
        template: &AccLane,
        rows: usize,
        cols: &mut impl Iterator<Item = ColumnVector>,
    ) -> Result<AccLane> {
        let mut next = || state_column(cols, rows);
        let seen = |nulls: Vec<bool>| nulls.into_iter().map(|n| !n).collect();
        let longs = |col: (VectorData, Vec<bool>)| match col {
            (VectorData::Long(v), nulls) => Ok((v, nulls)),
            (other, _) => Err(corrupt_state(format!(
                "expected integer lanes, got {other:?}"
            ))),
        };
        Ok(match template {
            AccLane::Count { all_rows, .. } => AccLane::Count {
                counts: longs(next()?)?.0,
                all_rows: *all_rows,
            },
            AccLane::SumLong {
                int_input,
                avg_counts,
                ..
            } => {
                let (sums, unseen) = longs(next()?)?;
                let VectorData::Bool(wide) = next()?.0 else {
                    return Err(corrupt_state("expected the widening flags"));
                };
                AccLane::SumLong {
                    sums,
                    seen: seen(unseen),
                    wide,
                    int_input: *int_input,
                    avg_counts: match avg_counts {
                        Some(_) => Some(longs(next()?)?.0),
                        None => None,
                    },
                }
            }
            AccLane::SumDouble { avg_counts, .. } => {
                let (VectorData::Double(sums), unseen) = next()? else {
                    return Err(corrupt_state("expected float sums"));
                };
                AccLane::SumDouble {
                    sums,
                    seen: seen(unseen),
                    avg_counts: match avg_counts {
                        Some(_) => Some(longs(next()?)?.0),
                        None => None,
                    },
                }
            }
            AccLane::ExtremeLong { is_min, dtype, .. } => {
                let (vals, unseen) = longs(next()?)?;
                AccLane::ExtremeLong {
                    vals,
                    seen: seen(unseen),
                    is_min: *is_min,
                    dtype: dtype.clone(),
                }
            }
            AccLane::ExtremeDouble { is_min, .. } => {
                let (VectorData::Double(vals), unseen) = next()? else {
                    return Err(corrupt_state("expected float extremes"));
                };
                AccLane::ExtremeDouble {
                    vals,
                    seen: seen(unseen),
                    is_min: *is_min,
                }
            }
            AccLane::ExtremeStr { is_min, .. } => {
                let (VectorData::Str(lanes), unseen) = next()? else {
                    return Err(corrupt_state("expected string extremes"));
                };
                let vals = (lanes.into_iter().zip(unseen))
                    .map(|(s, null)| (!null).then_some(s))
                    .collect();
                AccLane::ExtremeStr {
                    vals,
                    is_min: *is_min,
                }
            }
        })
    }

    /// The finished values of groups `0..n` as one column — lane by lane
    /// what [`partial`](Self::partial)`(g).`[`finish`](Acc::finish)`()`
    /// returns. The column is typed when every value has the `declared`
    /// type; otherwise (an INT sum, whose groups finish INT or BIGINT) it
    /// is boxed, so every value keeps its own tag.
    pub fn finish_column(&self, n: usize, declared: &DataType) -> ColumnVector {
        let unseen = |seen: &[bool]| {
            let nulls: Vec<bool> = seen[..n].iter().map(|s| !s).collect();
            nulls.contains(&true).then_some(nulls)
        };
        let typed = match self {
            AccLane::Count { counts, .. } => {
                ColumnVector::new(DataType::Long, VectorData::Long(counts[..n].to_vec()), None)
            }
            AccLane::SumLong {
                sums,
                seen,
                avg_counts: Some(c),
                ..
            } => avg_column(n, |g| {
                (seen[g] && c[g] > 0).then(|| sums[g] as f64 / c[g] as f64)
            }),
            AccLane::SumDouble {
                sums,
                seen,
                avg_counts: Some(c),
            } => avg_column(n, |g| (seen[g] && c[g] > 0).then(|| sums[g] / c[g] as f64)),
            AccLane::SumLong {
                sums,
                seen,
                wide,
                int_input,
                ..
            } => {
                // An INT sum finishes INT in every group it never widened.
                if *int_input && (0..n).any(|g| seen[g] && !wide[g]) {
                    return self.boxed_finish(n, declared);
                }
                ColumnVector::new(
                    DataType::Long,
                    VectorData::Long(sums[..n].to_vec()),
                    unseen(seen),
                )
            }
            AccLane::SumDouble { sums, seen, .. } => ColumnVector::new(
                DataType::Double,
                VectorData::Double(sums[..n].to_vec()),
                unseen(seen),
            ),
            AccLane::ExtremeLong {
                vals, seen, dtype, ..
            } => ColumnVector::new(
                dtype.clone(),
                VectorData::Long(vals[..n].to_vec()),
                unseen(seen),
            ),
            AccLane::ExtremeDouble { vals, seen, .. } => ColumnVector::new(
                DataType::Double,
                VectorData::Double(vals[..n].to_vec()),
                unseen(seen),
            ),
            AccLane::ExtremeStr { vals, .. } => {
                let nulls: Vec<bool> = vals[..n].iter().map(Option::is_none).collect();
                let lanes = vals[..n].iter().map(|v| v.clone().unwrap_or_default());
                ColumnVector::new(
                    DataType::String,
                    VectorData::Str(lanes.collect()),
                    nulls.contains(&true).then_some(nulls),
                )
            }
        };
        if typed.dtype() == declared {
            typed
        } else {
            self.boxed_finish(n, declared)
        }
    }

    /// [`finish_column`](Self::finish_column) as boxed values.
    fn boxed_finish(&self, n: usize, declared: &DataType) -> ColumnVector {
        ColumnVector::from_boxed(
            declared.clone(),
            (0..n).map(|g| self.partial(g).finish()).collect(),
        )
    }

    /// The finished partial for group `g`.
    pub fn partial(&self, g: usize) -> Acc {
        match self {
            AccLane::Count { counts, .. } => Acc::Count(counts.get(g).copied().unwrap_or(0)),
            AccLane::SumLong {
                sums,
                seen,
                wide,
                int_input,
                avg_counts,
            } => {
                let v = seen.get(g).copied().unwrap_or(false).then(|| {
                    let s = sums[g];
                    if *int_input && !wide[g] {
                        Value::Int(s as i32)
                    } else {
                        Value::Long(s)
                    }
                });
                match avg_counts {
                    Some(c) => Acc::Avg(v, c.get(g).copied().unwrap_or(0)),
                    None => Acc::Sum(v),
                }
            }
            AccLane::SumDouble {
                sums,
                seen,
                avg_counts,
            } => {
                let v = seen
                    .get(g)
                    .copied()
                    .unwrap_or(false)
                    .then(|| Value::Double(sums[g]));
                match avg_counts {
                    Some(c) => Acc::Avg(v, c.get(g).copied().unwrap_or(0)),
                    None => Acc::Sum(v),
                }
            }
            AccLane::ExtremeLong {
                vals,
                seen,
                is_min,
                dtype,
            } => {
                let v = seen.get(g).copied().unwrap_or(false).then(|| {
                    let x = vals[g];
                    match dtype {
                        DataType::Int => Value::Int(x as i32),
                        DataType::Date => Value::Date(x as i32),
                        DataType::Timestamp => Value::Timestamp(x),
                        _ => Value::Long(x),
                    }
                });
                if *is_min {
                    Acc::Min(v)
                } else {
                    Acc::Max(v)
                }
            }
            AccLane::ExtremeDouble { vals, seen, is_min } => {
                let v = seen
                    .get(g)
                    .copied()
                    .unwrap_or(false)
                    .then(|| Value::Double(vals[g]));
                if *is_min {
                    Acc::Min(v)
                } else {
                    Acc::Max(v)
                }
            }
            AccLane::ExtremeStr { vals, is_min } => {
                let v = (vals.get(g).and_then(Option::as_ref)).map(|s| Value::Str(s.to_arc()));
                if *is_min {
                    Acc::Min(v)
                } else {
                    Acc::Max(v)
                }
            }
        }
    }

    /// `self.partial(g).approx_bytes()`, without building the [`Acc`].
    pub fn approx_bytes(&self, g: usize) -> u64 {
        let seen = |flags: &[bool]| flags.get(g).copied().unwrap_or(false);
        // A present fixed-width value costs what `Value::approx_bytes` says.
        let scalar = |present: bool| if present { 8 } else { 0 };
        match self {
            AccLane::Count { .. } => 16,
            AccLane::SumLong {
                seen: s,
                avg_counts,
                ..
            }
            | AccLane::SumDouble {
                seen: s,
                avg_counts,
                ..
            } => match avg_counts {
                Some(_) => 24 + scalar(seen(s)),
                None => 16 + scalar(seen(s)),
            },
            AccLane::ExtremeLong { seen: s, .. } | AccLane::ExtremeDouble { seen: s, .. } => {
                16 + scalar(seen(s))
            }
            AccLane::ExtremeStr { vals, .. } => {
                16 + vals
                    .get(g)
                    .and_then(Option::as_ref)
                    .map_or(0, |s| Value::str_bytes(s.as_str()))
            }
        }
    }
}

/// The next state column of `rows` lanes, as lanes and a null mask.
fn state_column(
    cols: &mut impl Iterator<Item = ColumnVector>,
    rows: usize,
) -> Result<(VectorData, Vec<bool>)> {
    let col = cols
        .next()
        .ok_or_else(|| corrupt_state("a column is missing"))?;
    let lanes = col.len();
    let nulls = col.nulls.unwrap_or_else(|| vec![false; rows]);
    if lanes != rows || nulls.len() != rows {
        return Err(corrupt_state(format!(
            "a column has {lanes} lanes, not {rows}"
        )));
    }
    Ok((col.data, nulls))
}

/// The error of accumulator state that does not read back.
fn corrupt_state(msg: impl Into<String>) -> CatalystError {
    CatalystError::Internal(format!("corrupt accumulator state: {}", msg.into()))
}

/// How a value must compare with a MIN (`is_min`) or MAX state to
/// replace it: strictly, so ties keep the earlier value.
fn replacing(is_min: bool) -> Ordering {
    if is_min {
        Ordering::Less
    } else {
        Ordering::Greater
    }
}

/// A Double column of AVG results, NULL where `avg` is `None`.
fn avg_column(n: usize, avg: impl Fn(usize) -> Option<f64>) -> ColumnVector {
    let values: Vec<Option<f64>> = (0..n).map(avg).collect();
    let nulls: Vec<bool> = values.iter().map(Option::is_none).collect();
    ColumnVector::new(
        DataType::Double,
        VectorData::Double(values.iter().map(|v| v.unwrap_or(0.0)).collect()),
        nulls.contains(&true).then_some(nulls),
    )
}

/// Typed integer lanes when the column stores them natively; `None`
/// falls back to boxed [`ColumnVector::get`] per lane.
fn long_lane_view(col: &ColumnVector) -> Option<&[i64]> {
    match col.data() {
        VectorData::Long(v) => Some(v),
        _ => None,
    }
}

fn double_lane_view(col: &ColumnVector) -> Option<&[f64]> {
    match col.data() {
        VectorData::Double(v) => Some(v),
        _ => None,
    }
}

fn lane_i64(col: &ColumnVector, lanes: Option<&[i64]>, i: usize) -> i64 {
    match lanes {
        Some(v) => v[i],
        None => match col.get(i) {
            Value::Int(x) => x as i64,
            Value::Long(x) | Value::Timestamp(x) => x,
            Value::Date(x) => x as i64,
            other => panic!("integer aggregate lane got {other:?}"),
        },
    }
}

fn lane_f64(col: &ColumnVector, lanes: Option<&[f64]>, i: usize) -> f64 {
    match lanes {
        Some(v) => v[i],
        None => match col.get(i) {
            Value::Double(x) => x,
            other => panic!("double aggregate lane got {other:?}"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn long_col(vals: &[Option<i64>]) -> ColumnVector {
        let values: Vec<Value> = vals
            .iter()
            .map(|v| v.map_or(Value::Null, Value::Long))
            .collect();
        ColumnVector::from_values(&DataType::Long, values)
    }

    #[test]
    fn count_star_counts_nulls_count_col_skips_them() {
        let col = long_col(&[Some(1), None, Some(3)]);
        let asg = [(0u32, 0u32), (1, 0), (2, 1)];
        let mut star = AccLane::for_input(LaneAgg::CountStar, &DataType::Long).unwrap();
        star.update(None, &asg, 2).unwrap();
        let mut cnt = AccLane::for_input(LaneAgg::Count, &DataType::Long).unwrap();
        cnt.update(Some(&col), &asg, 2).unwrap();
        assert!(matches!(star.partial(0), Acc::Count(2)));
        assert!(matches!(cnt.partial(0), Acc::Count(1)));
        assert!(matches!(cnt.partial(1), Acc::Count(1)));
    }

    #[test]
    fn int_sum_widens_stickily_like_value_add() {
        let values = vec![Value::Int(i32::MAX), Value::Int(1), Value::Int(-i32::MAX)];
        let col = ColumnVector::from_values(&DataType::Int, values);
        let asg = [(0u32, 0u32), (1, 0), (2, 0)];
        let mut sum = AccLane::for_input(LaneAgg::Sum, &DataType::Int).unwrap();
        sum.update(Some(&col), &asg, 1).unwrap();
        // The running sum left i32 range at step 2, so it stays Long even
        // though the final value (1) fits an Int again.
        match sum.partial(0) {
            Acc::Sum(Some(Value::Long(1))) => {}
            other => panic!("expected sticky Long(1), got {other:?}"),
        }
    }

    #[test]
    fn double_min_uses_total_cmp_order() {
        let values = vec![Value::Double(0.0), Value::Double(-0.0)];
        let col = ColumnVector::from_values(&DataType::Double, values);
        let asg = [(0u32, 0u32), (1, 0)];
        let mut min = AccLane::for_input(LaneAgg::Min, &DataType::Double).unwrap();
        min.update(Some(&col), &asg, 1).unwrap();
        // total_cmp orders -0.0 below 0.0, so -0.0 replaces the first.
        match min.partial(0) {
            Acc::Min(Some(Value::Double(d))) => assert!(d.is_sign_negative()),
            other => panic!("expected Min(-0.0), got {other:?}"),
        }
    }

    /// `AccLane::merge` is `Acc::merge` on every partial, and
    /// `finish_column` is `Acc::finish` on every merged group, for every
    /// lane kind and input type: Int sums that widen only once two
    /// partials merge, NULL-only partials on either side, MIN/MAX ties,
    /// AVG, two partials merged into one group in one call, and a group
    /// nothing merges into.
    #[test]
    fn lane_merge_matches_acc_merge() {
        let ints = |v: &[Option<i64>], f: fn(i64) -> Value| -> Vec<Value> {
            v.iter().map(|x| x.map_or(Value::Null, f)).collect()
        };
        let (a, b) = (
            [Some(0), Some(5), None, Some(-7), Some(3), Some(2)],
            [Some(4), Some(4), Some(9), None, Some(5), Some(5), None],
        );
        let shift = |v: [Option<i64>; 6], base: i64| v.map(|x| x.map(|x| x + base));
        let strs = |v: &[Option<&str>]| -> Vec<Value> {
            v.iter()
                .map(|x| x.map_or(Value::Null, Value::str))
                .collect()
        };
        let cases: Vec<(DataType, Vec<Value>, Vec<Value>)> = vec![
            // A's group 0 sums to i32::MAX - 7 and B's group 0 to 8: both
            // partials are INT, their merge is not.
            (
                DataType::Int,
                ints(&shift(a, i32::MAX as i64 - 10)[..1], |x| {
                    Value::Int(x as i32)
                })
                .into_iter()
                .chain(ints(&a[1..], |x| Value::Int(x as i32)))
                .collect(),
                ints(&b, |x| Value::Int(x as i32)),
            ),
            (
                DataType::Long,
                ints(&shift(a, 1 << 40), Value::Long),
                ints(&b, Value::Long),
            ),
            (
                DataType::Double,
                [
                    Some(0.0),
                    Some(1.5),
                    None,
                    Some(-2.25),
                    Some(-0.0),
                    Some(1.5),
                ]
                .map(|x| x.map_or(Value::Null, Value::Double))
                .to_vec(),
                [
                    Some(-0.0),
                    Some(0.5),
                    Some(1.5),
                    None,
                    Some(1.5),
                    Some(2.0),
                    None,
                ]
                .map(|x| x.map_or(Value::Null, Value::Double))
                .to_vec(),
            ),
            (
                DataType::String,
                strs(&[Some("b"), Some("a"), None, Some("c"), Some("b"), Some("a")]),
                strs(&[
                    Some("a"),
                    Some("b"),
                    Some("a"),
                    None,
                    Some("c"),
                    Some("a"),
                    None,
                ]),
            ),
            (
                DataType::Date,
                ints(&a, |x| Value::Date(x as i32)),
                ints(&b, |x| Value::Date(x as i32)),
            ),
            (
                DataType::Timestamp,
                ints(&a, Value::Timestamp),
                ints(&b, Value::Timestamp),
            ),
        ];
        let a_groups = [0u32, 1, 2, 3, 0, 1];
        let b_groups = [0u32, 0, 1, 2, 3, 3, 4];
        // B's group i merges into A's group into[i]: 5 and 4 are new to
        // A, two of B's groups land on A's group 1, A's group 3 gets
        // nothing, and B's group 4 (NULL only) lands on A's group 4.
        let into = [0u32, 1, 5, 1, 4];
        let aggs = [
            LaneAgg::CountStar,
            LaneAgg::Count,
            LaneAgg::Sum,
            LaneAgg::Avg,
            LaneAgg::Min,
            LaneAgg::Max,
        ];
        let mut checked = 0;
        for (dtype, va, vb) in &cases {
            for agg in aggs {
                let Some(mut lane) = AccLane::for_input(agg, dtype) else {
                    continue;
                };
                let mut other = AccLane::for_input(agg, dtype).unwrap();
                let ca = ColumnVector::from_values(dtype, va.clone());
                let cb = ColumnVector::from_values(dtype, vb.clone());
                let asg = |groups: &[u32]| -> Vec<(u32, u32)> {
                    (0..).zip(groups.iter().copied()).collect()
                };
                let arg = |c| (agg != LaneAgg::CountStar).then_some(c);
                lane.update(arg(&ca), &asg(&a_groups), 4).unwrap();
                other.update(arg(&cb), &asg(&b_groups), 5).unwrap();
                let mut expect: Vec<Acc> = (0..6).map(|g| lane.partial(g)).collect();
                for (i, &g) in into.iter().enumerate() {
                    let merged = expect[g as usize].clone().merge(other.partial(i)).unwrap();
                    expect[g as usize] = merged;
                }
                lane.merge(&other, &asg(&into), 6).unwrap();
                let what = format!("{agg:?} over {dtype:?}");
                for (g, want) in expect.iter().enumerate() {
                    assert_eq!(
                        format!("{:?}", lane.partial(g)),
                        format!("{want:?}"),
                        "{what}, group {g}"
                    );
                    assert_eq!(
                        lane.approx_bytes(g),
                        want.approx_bytes(),
                        "{what}, group {g}"
                    );
                }
                let declared = match (agg, dtype) {
                    (LaneAgg::CountStar | LaneAgg::Count, _) => DataType::Long,
                    (LaneAgg::Avg, _) => DataType::Double,
                    (LaneAgg::Sum, DataType::Int) => DataType::Long,
                    _ => dtype.clone(),
                };
                let finished = lane.finish_column(6, &declared);
                assert_eq!(finished.dtype(), &declared, "{what}");
                for (g, want) in expect.into_iter().enumerate() {
                    assert_eq!(
                        format!("{:?}", finished.get(g)),
                        format!("{:?}", want.finish()),
                        "{what}, group {g}"
                    );
                }
                checked += 1;
            }
        }
        assert_eq!(checked, 3 * 6 + 3 * 4, "every lane kind × input type");
        // The widening happened in the merge, not before it.
        let mut sum = AccLane::for_input(LaneAgg::Sum, &DataType::Int).unwrap();
        let mut other = AccLane::for_input(LaneAgg::Sum, &DataType::Int).unwrap();
        let col = |v| ColumnVector::from_values(&DataType::Int, vec![Value::Int(v)]);
        sum.update(Some(&col(i32::MAX)), &[(0, 0)], 1).unwrap();
        other.update(Some(&col(1)), &[(0, 0)], 1).unwrap();
        assert!(matches!(
            sum.partial(0),
            Acc::Sum(Some(Value::Int(i32::MAX)))
        ));
        sum.merge(&other, &[(0, 0)], 1).unwrap();
        assert!(
            matches!(sum.partial(0), Acc::Sum(Some(Value::Long(x))) if x == i32::MAX as i64 + 1)
        );
    }

    #[test]
    fn lane_state_round_trips_through_columns() {
        let cases = [
            (
                DataType::Int,
                vec![
                    Value::Int(i32::MAX),
                    Value::Null,
                    Value::Int(3),
                    Value::Int(5),
                ],
            ),
            (
                DataType::Long,
                vec![Value::Long(-4), Value::Null, Value::Long(9), Value::Long(1)],
            ),
            (
                DataType::Date,
                vec![Value::Date(7), Value::Null, Value::Date(2), Value::Date(8)],
            ),
            (
                DataType::Double,
                vec![
                    Value::Double(0.1),
                    Value::Null,
                    Value::Double(-0.0),
                    Value::Double(0.2),
                ],
            ),
            (
                DataType::String,
                vec![
                    Value::str("b"),
                    Value::Null,
                    Value::str(""),
                    Value::str("a"),
                ],
            ),
        ];
        // Group 1 sees only a NULL; group 0 folds two values (an INT sum
        // widens there).
        let asg = [(0u32, 0u32), (1, 1), (2, 0), (3, 2)];
        let aggs = [
            LaneAgg::CountStar,
            LaneAgg::Count,
            LaneAgg::Sum,
            LaneAgg::Avg,
            LaneAgg::Min,
            LaneAgg::Max,
        ];
        let mut checked = 0;
        for (dtype, values) in &cases {
            for agg in aggs {
                let Some(mut lane) = AccLane::for_input(agg, dtype) else {
                    continue;
                };
                let col = ColumnVector::from_values(dtype, values.clone());
                let arg = (agg != LaneAgg::CountStar).then_some(&col);
                lane.update(arg, &asg, 3).unwrap();
                let template = AccLane::for_input(agg, dtype).unwrap();
                let mut cols = lane.state_columns().into_iter();
                let back = AccLane::from_state(&template, 3, &mut cols).unwrap();
                assert!(cols.next().is_none(), "{agg:?} over {dtype:?}");
                assert_eq!(format!("{back:?}"), format!("{lane:?}"));
                // State that does not fit its template does not read back.
                let short =
                    AccLane::from_state(&template, 4, &mut lane.state_columns().into_iter());
                assert!(short.is_err(), "{agg:?} over {dtype:?}");
                assert!(AccLane::from_state(&template, 3, &mut std::iter::empty()).is_err());
                checked += 1;
            }
        }
        assert_eq!(checked, 3 * 6 + 2 * 4, "every lane kind × input type");
        let wide = AccLane::for_input(LaneAgg::Sum, &DataType::Int).unwrap();
        let strings = vec![ColumnVector::from_values(
            &DataType::String,
            vec![Value::str("x")],
        )];
        assert!(AccLane::from_state(&wide, 1, &mut strings.into_iter()).is_err());
    }

    #[test]
    fn all_null_group_finishes_empty() {
        let col = long_col(&[None, None]);
        let asg = [(0u32, 0u32), (1, 0)];
        for agg in [LaneAgg::Sum, LaneAgg::Avg, LaneAgg::Min, LaneAgg::Max] {
            let mut lane = AccLane::for_input(agg, &DataType::Long).unwrap();
            lane.update(Some(&col), &asg, 1).unwrap();
            match lane.partial(0) {
                Acc::Sum(None) | Acc::Min(None) | Acc::Max(None) => {}
                Acc::Avg(None, 0) => {}
                other => panic!("expected empty partial, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_lane_sum_overflows_with_value_adds_error() {
        let add_err = Value::Long(i64::MAX).add(&Value::Long(1)).unwrap_err();
        let col =
            ColumnVector::from_values(&DataType::Long, vec![Value::Long(i64::MAX), Value::Long(1)]);
        let mut lane = AccLane::for_input(LaneAgg::Sum, &DataType::Long).unwrap();
        assert_eq!(
            lane.update(Some(&col), &[(0, 0), (1, 0)], 1),
            Err(add_err.clone())
        );
        let mut acc = Acc::new(AggFunc::Sum, false);
        acc.update(Value::Long(i64::MAX)).unwrap();
        assert_eq!(acc.update(Value::Long(1)), Err(add_err));
    }
}
