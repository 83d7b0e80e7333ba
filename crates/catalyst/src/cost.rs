//! Statistics-driven cardinality estimation — the cost model behind the
//! CBO phase (run in production, skipped by the reference configuration).
//!
//! [`physical::stats::estimate`](crate::physical::stats) answers "how
//! many bytes" for the broadcast decision; this module answers "how many
//! rows" with per-column statistics: NDV sketches give equi-join
//! selectivity (`|L|·|R| / max(ndv_l, ndv_r)`), min/max bound range
//! predicates, and null counts price `IS [NOT] NULL`. Estimates flow
//! bottom-up through an attribute-id index built from the plan's leaves,
//! so a column keeps its statistics across projections, aliases, and
//! join reorderings.
//!
//! Partial statistics (a partially evicted cache) are *lower bounds*:
//! row counts and NDVs still feed estimation (undercounting both mostly
//! cancels in selectivity ratios), but min/max and null fractions are
//! not used — they describe only the resident subset.

use crate::expr::{BinaryOperator, ColumnRef, Expr, ExprId};
use crate::plan::{JoinType, LogicalPlan};
use crate::source::{ColumnStatistics, ColumnStats};
use crate::tree::TreeNode;
use crate::value::Value;
use std::collections::HashMap;

/// Default selectivity for predicates the model cannot price.
pub const DEFAULT_SELECTIVITY: f64 = 0.5;

/// Per-attribute statistics index for one plan, keyed by attribute id.
#[derive(Debug, Default, Clone)]
pub struct StatsIndex {
    cols: HashMap<ExprId, ColumnStatistics>,
}

impl StatsIndex {
    /// Gather column statistics from every leaf of `plan`. Attributes
    /// produced by intermediate operators (aggregates, window columns,
    /// projected expressions) simply have no entry and fall back to
    /// heuristics.
    pub fn build(plan: &LogicalPlan) -> StatsIndex {
        let mut idx = StatsIndex::default();
        plan.for_each(&mut |node| match node {
            LogicalPlan::Scan {
                relation, output, ..
            } => {
                if let Some(stats) = relation.column_statistics() {
                    let schema = relation.schema();
                    for c in output {
                        if let Ok(i) = schema.index_of(&c.name) {
                            if let Some(s) = stats.get(i) {
                                idx.cols.insert(c.id, s.clone());
                            }
                        }
                    }
                }
            }
            LogicalPlan::LocalRelation { output, rows } if rows.len() <= 65_536 => {
                for (i, c) in output.iter().enumerate() {
                    let mut fold = ColumnStats::default();
                    rows.iter().for_each(|r| fold.update(r.get(i)));
                    idx.cols.insert(c.id, fold.into_statistics());
                }
            }
            _ => {}
        });
        idx
    }

    /// Statistics for attribute `id`, if any leaf supplied them.
    pub fn get(&self, id: ExprId) -> Option<&ColumnStatistics> {
        self.cols.get(&id)
    }

    /// NDV for an attribute, clamped to at least 1.
    fn ndv(&self, id: ExprId) -> Option<f64> {
        self.get(id)
            .and_then(|s| s.ndv)
            .map(|n| (n as f64).max(1.0))
    }
}

/// Estimated output rows of `plan`, or `None` when no leaf statistics
/// reach it. Estimates are heuristic — good enough to *order* joins,
/// never trusted for correctness decisions.
pub fn estimate_rows(plan: &LogicalPlan, idx: &StatsIndex) -> Option<f64> {
    match plan {
        LogicalPlan::UnresolvedRelation { .. } | LogicalPlan::External { .. } => None,
        LogicalPlan::Scan {
            relation, filters, ..
        } => {
            let base = relation.row_count().map(|r| r as f64).or_else(|| {
                relation
                    .column_statistics()?
                    .first()
                    .and_then(|s| s.row_count)
                    .map(|r| r as f64)
            })?;
            let mut sel = 1.0;
            for f in filters {
                sel *= selectivity(f, idx);
            }
            Some(base * sel)
        }
        LogicalPlan::LocalRelation { rows, .. } => Some(rows.len() as f64),
        LogicalPlan::Filter { input, predicate } => {
            Some(estimate_rows(input, idx)? * selectivity(predicate, idx))
        }
        LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::SubqueryAlias { input, .. }
        | LogicalPlan::Window { input, .. } => estimate_rows(input, idx),
        LogicalPlan::Join {
            left,
            right,
            join_type,
            condition,
        } => {
            let l = estimate_rows(left, idx)?;
            let r = estimate_rows(right, idx)?;
            Some(join_cardinality(l, r, *join_type, condition.as_ref(), idx))
        }
        LogicalPlan::Aggregate {
            input, groupings, ..
        } => {
            let inp = estimate_rows(input, idx)?;
            if groupings.is_empty() {
                return Some(1.0);
            }
            Some(group_count(groupings, inp, idx))
        }
        LogicalPlan::Distinct { input } => {
            let inp = estimate_rows(input, idx)?;
            let groupings: Vec<Expr> = input.output().into_iter().map(Expr::Column).collect();
            Some(group_count(&groupings, inp, idx))
        }
        LogicalPlan::Limit { input, n } => {
            Some(estimate_rows(input, idx).map_or(*n as f64, |r| r.min(*n as f64)))
        }
        LogicalPlan::Union { inputs } => {
            let mut total = 0.0;
            for i in inputs {
                total += estimate_rows(i, idx)?;
            }
            Some(total)
        }
        LogicalPlan::Sample {
            input, fraction, ..
        } => Some(estimate_rows(input, idx)? * fraction),
    }
}

/// Estimated distinct combinations of `groupings` among `input_rows`.
fn group_count(groupings: &[Expr], input_rows: f64, idx: &StatsIndex) -> f64 {
    let mut combos = 1.0f64;
    let mut any = false;
    for g in groupings {
        if let Expr::Column(c) = g {
            if let Some(n) = idx.ndv(c.id) {
                combos *= n;
                any = true;
                continue;
            }
        }
        // Unknown grouping key: assume it multiplies groups modestly.
        combos *= 8.0;
    }
    if !any {
        return (input_rows * crate::physical::stats::AGGREGATE_RATIO).max(1.0);
    }
    combos.min(input_rows).max(1.0)
}

/// Estimated output rows of a join given its input estimates.
pub fn join_cardinality(
    left_rows: f64,
    right_rows: f64,
    join_type: JoinType,
    condition: Option<&Expr>,
    idx: &StatsIndex,
) -> f64 {
    let cross = left_rows * right_rows;
    let inner = match condition {
        None => cross,
        Some(cond) => {
            let mut card = cross;
            let mut priced_any = false;
            for (l, r) in equi_pairs(cond) {
                match (idx.ndv(l.id), idx.ndv(r.id)) {
                    (Some(nl), Some(nr)) => {
                        card /= nl.max(nr);
                        priced_any = true;
                    }
                    _ => {
                        // Unpriceable key: assume FK-style (output no
                        // larger than the bigger input).
                        card = card.min(left_rows.max(right_rows));
                    }
                }
            }
            if !priced_any && equi_pairs(cond).is_empty() {
                // Pure theta join: default selectivity.
                card *= DEFAULT_SELECTIVITY;
            }
            card
        }
    };
    match join_type {
        JoinType::Inner => inner.max(0.0),
        // Outer joins emit at least the preserved side(s).
        JoinType::Left => inner.max(left_rows),
        JoinType::Right => inner.max(right_rows),
        JoinType::Full => inner.max(left_rows + right_rows),
        JoinType::Cross => cross,
    }
}

/// The `left_col = right_col` conjuncts of a join condition, as column
/// pairs with the left plan's attribute first *as written* (callers
/// resolve sides themselves).
pub fn equi_pairs(cond: &Expr) -> Vec<(&ColumnRef, &ColumnRef)> {
    let mut out = Vec::new();
    collect_equi_pairs(cond, &mut out);
    out
}

fn collect_equi_pairs<'a>(e: &'a Expr, out: &mut Vec<(&'a ColumnRef, &'a ColumnRef)>) {
    match e {
        Expr::BinaryOp {
            left,
            op: BinaryOperator::And,
            right,
        } => {
            collect_equi_pairs(left, out);
            collect_equi_pairs(right, out);
        }
        Expr::BinaryOp {
            left,
            op: BinaryOperator::Eq,
            right,
        } => {
            if let (Expr::Column(a), Expr::Column(b)) = (left.as_ref(), right.as_ref()) {
                out.push((a, b));
            }
        }
        _ => {}
    }
}

/// Fraction of rows a predicate keeps, in `[0, 1]`.
pub fn selectivity(pred: &Expr, idx: &StatsIndex) -> f64 {
    match pred {
        Expr::Literal(Value::Boolean(true)) => 1.0,
        Expr::Literal(Value::Boolean(false)) | Expr::Literal(Value::Null) => 0.0,
        Expr::BinaryOp { left, op, right } => match op {
            BinaryOperator::And => selectivity(left, idx) * selectivity(right, idx),
            BinaryOperator::Or => {
                let a = selectivity(left, idx);
                let b = selectivity(right, idx);
                (a + b - a * b).clamp(0.0, 1.0)
            }
            BinaryOperator::Eq => column_literal(left, right)
                .and_then(|(c, _)| {
                    // Exact-ish NDV ⇒ uniform-frequency assumption.
                    idx.ndv(c.id).map(|n| 1.0 / n)
                })
                .unwrap_or(0.1),
            BinaryOperator::NotEq => 1.0 - selectivity(&eq_of(left, right), idx),
            BinaryOperator::Lt | BinaryOperator::LtEq => range_fraction(left, right, idx, true),
            BinaryOperator::Gt | BinaryOperator::GtEq => range_fraction(left, right, idx, false),
            _ => DEFAULT_SELECTIVITY,
        },
        Expr::Not(inner) => (1.0 - selectivity(inner, idx)).clamp(0.0, 1.0),
        Expr::IsNull(inner) => null_fraction(inner, idx).unwrap_or(0.1),
        Expr::IsNotNull(inner) => 1.0 - null_fraction(inner, idx).unwrap_or(0.1),
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let one = column_literal_expr(expr)
                .and_then(|c| idx.ndv(c.id).map(|n| 1.0 / n))
                .unwrap_or(0.1);
            let s = (one * list.len() as f64).clamp(0.0, 1.0);
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        _ => DEFAULT_SELECTIVITY,
    }
}

fn eq_of(l: &Expr, r: &Expr) -> Expr {
    Expr::BinaryOp {
        left: Box::new(l.clone()),
        op: BinaryOperator::Eq,
        right: Box::new(r.clone()),
    }
}

/// `(column, literal)` when the comparison is column-vs-literal either
/// way around.
fn column_literal<'a>(l: &'a Expr, r: &'a Expr) -> Option<(&'a ColumnRef, &'a Value)> {
    match (l, r) {
        (Expr::Column(c), Expr::Literal(v)) | (Expr::Literal(v), Expr::Column(c)) => Some((c, v)),
        _ => None,
    }
}

fn column_literal_expr(e: &Expr) -> Option<&ColumnRef> {
    match e {
        Expr::Column(c) => Some(c),
        _ => None,
    }
}

/// Fraction of a column's [min, max] interval below (`below=true`) or
/// above the literal, for numeric columns with exact statistics.
fn range_fraction(l: &Expr, r: &Expr, idx: &StatsIndex, below: bool) -> f64 {
    let Some((c, v)) = column_literal(l, r) else {
        return DEFAULT_SELECTIVITY;
    };
    // `lit < col` flips the direction.
    let below = if matches!(l, Expr::Literal(_)) {
        !below
    } else {
        below
    };
    let Some(s) = idx.get(c.id).filter(|s| !s.partial) else {
        return DEFAULT_SELECTIVITY;
    };
    let (Some(min), Some(max), Some(x)) = (
        s.min.as_ref().and_then(numeric),
        s.max.as_ref().and_then(numeric),
        numeric(v),
    ) else {
        return DEFAULT_SELECTIVITY;
    };
    if max <= min {
        return DEFAULT_SELECTIVITY;
    }
    let f = ((x - min) / (max - min)).clamp(0.0, 1.0);
    if below {
        f
    } else {
        1.0 - f
    }
}

/// Null fraction of a column, for exact statistics only.
fn null_fraction(e: &Expr, idx: &StatsIndex) -> Option<f64> {
    let c = column_literal_expr(e)?;
    let s = idx.get(c.id).filter(|s| !s.partial)?;
    let (nulls, rows) = (s.null_count? as f64, s.row_count? as f64);
    if rows == 0.0 {
        return Some(0.0);
    }
    Some((nulls / rows).clamp(0.0, 1.0))
}

fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Int(x) => Some(*x as f64),
        Value::Long(x) => Some(*x as f64),
        Value::Float(x) => Some(*x as f64),
        Value::Double(x) => Some(*x),
        _ => None,
    }
}
