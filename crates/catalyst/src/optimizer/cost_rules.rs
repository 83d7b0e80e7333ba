//! Cost-based optimizer rules (production runs them): join
//! reordering by estimated cardinality, aggregates answered from source
//! statistics, and common-subexpression elimination.
//!
//! All three sit after the constraint batch in [`super::Optimizer`]'s one
//! rule list, under the same [`crate::validation`] monitor — a rewrite
//! that breaks a plan invariant is rolled back. Estimates
//! come from [`crate::cost`]; they pick *plans*, never results, so a bad
//! estimate costs performance (and adaptive execution claws some of it
//! back at runtime) but never correctness.

use crate::cost::{self, StatsIndex};
use crate::expr::{AggFunc, ColumnRef, Expr, ExprId};
use crate::optimizer::expr_rules::is_null_literal;
use crate::optimizer::plan_rules::{conjunction, split_conjuncts};
use crate::plan::{JoinType, LogicalPlan};
use crate::row::Row;
use crate::rules::Rule;
use crate::tree::{Transformed, TreeNode};
use crate::types::DataType;
use crate::value::Value;
use std::collections::HashSet;
use std::sync::Arc;

/// Attribute ids referenced by an expression.
fn attr_ids(e: &Expr) -> HashSet<ExprId> {
    let mut out = HashSet::new();
    e.for_each(&mut |n| {
        if let Expr::Column(c) = n {
            out.insert(c.id);
        }
    });
    out
}

// ---------------------------------------------------------------------
// Join reordering
// ---------------------------------------------------------------------

/// Reorder chains of inner equi-joins by estimated output cardinality.
///
/// A maximal subtree of `Inner` joins with conditions is flattened into
/// its relations and conjuncts, then rebuilt left-deep greedily: start
/// from the smallest estimated relation, repeatedly join the connected
/// relation that minimizes the estimated intermediate cardinality
/// (NDV-based equi-join selectivity). A `Project` restores the original
/// column order, so the rewrite is invisible to parents. Chains where
/// any relation lacks a row estimate, or where the greedy order would
/// introduce a cross product, are left untouched.
pub struct ReorderJoins;

/// True for a node that roots (part of) a reorderable chain.
fn is_chain_join(plan: &LogicalPlan) -> bool {
    matches!(
        plan,
        LogicalPlan::Join {
            join_type: JoinType::Inner,
            condition: Some(_),
            ..
        }
    )
}

/// Flatten a chain of inner joins into `(leaves, conjuncts)`. Bare
/// column-pruning projections interposed by the standard batches are
/// transparent: the rebuilt chain re-derives column flow from its
/// leaves, and the restoring `Project` on top keeps the schema parents
/// see unchanged.
fn flatten_chain(plan: &LogicalPlan, leaves: &mut Vec<LogicalPlan>, conjuncts: &mut Vec<Expr>) {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            join_type: JoinType::Inner,
            condition: Some(cond),
        } => {
            flatten_chain(left, leaves, conjuncts);
            flatten_chain(right, leaves, conjuncts);
            conjuncts.extend(split_conjuncts(cond));
        }
        LogicalPlan::Project { exprs, input }
            if exprs.iter().all(|e| matches!(e, Expr::Column(_))) && is_chain_join(input) =>
        {
            flatten_chain(input, leaves, conjuncts);
        }
        other => leaves.push(other.clone()),
    }
}

struct ChainLeaf {
    plan: LogicalPlan,
    rows: f64,
    attrs: HashSet<ExprId>,
}

/// Greedy left-deep reorder. Returns `None` when the chain cannot or
/// need not be reordered.
fn reorder(
    original: &LogicalPlan,
    leaf_plans: Vec<LogicalPlan>,
    conjuncts: Vec<Expr>,
    idx: &StatsIndex,
) -> Option<LogicalPlan> {
    let mut leaves = Vec::with_capacity(leaf_plans.len());
    for plan in leaf_plans {
        let rows = cost::estimate_rows(&plan, idx)?;
        let attrs = plan.output().into_iter().map(|c| c.id).collect();
        leaves.push(ChainLeaf { plan, rows, attrs });
    }
    let conj_attrs: Vec<HashSet<ExprId>> = conjuncts.iter().map(attr_ids).collect();

    // Greedy order: smallest relation first, then the connected relation
    // with the smallest estimated join output.
    let n = leaves.len();
    let mut remaining: HashSet<usize> = (0..n).collect();
    let start = (0..n).min_by(|&a, &b| leaves[a].rows.total_cmp(&leaves[b].rows))?;
    remaining.remove(&start);
    let mut order = vec![start];
    let mut placed: HashSet<usize> = HashSet::new();
    let mut cur_attrs = leaves[start].attrs.clone();
    let mut cur_rows = leaves[start].rows;

    while !remaining.is_empty() {
        let mut best: Option<(usize, f64, Vec<usize>)> = None;
        for &j in &remaining {
            // Conjuncts that become fully evaluable by adding leaf j and
            // actually connect it to the current prefix.
            let applicable: Vec<usize> = (0..conjuncts.len())
                .filter(|&k| !placed.contains(&k))
                .filter(|&k| {
                    let a = &conj_attrs[k];
                    a.iter()
                        .all(|id| cur_attrs.contains(id) || leaves[j].attrs.contains(id))
                })
                .collect();
            let connects = applicable.iter().any(|&k| {
                let a = &conj_attrs[k];
                a.iter().any(|id| cur_attrs.contains(id))
                    && a.iter().any(|id| leaves[j].attrs.contains(id))
            });
            if !connects {
                continue;
            }
            let cond = conjunction(applicable.iter().map(|&k| conjuncts[k].clone()).collect());
            let card = cost::join_cardinality(
                cur_rows,
                leaves[j].rows,
                JoinType::Inner,
                cond.as_ref(),
                idx,
            );
            if best.as_ref().is_none_or(|(_, c, _)| card < *c) {
                best = Some((j, card, applicable));
            }
        }
        // A disconnected remainder would force a cross product — bail.
        let (j, card, applicable) = best?;
        remaining.remove(&j);
        placed.extend(applicable);
        cur_attrs.extend(leaves[j].attrs.iter().copied());
        cur_rows = card;
        order.push(j);
    }

    if order.iter().copied().eq(0..n) {
        return None; // already in the best order found
    }

    // Rebuild left-deep along `order`, attaching each conjunct at the
    // first join where all its attributes are available.
    let mut placed: HashSet<usize> = HashSet::new();
    let mut avail = leaves[order[0]].attrs.clone();
    let mut built = leaves[order[0]].plan.clone();
    for &j in &order[1..] {
        avail.extend(leaves[j].attrs.iter().copied());
        let here: Vec<usize> = (0..conjuncts.len())
            .filter(|k| !placed.contains(k))
            .filter(|&k| conj_attrs[k].iter().all(|id| avail.contains(id)))
            .collect();
        let cond = conjunction(here.iter().map(|&k| conjuncts[k].clone()).collect())?;
        placed.extend(here);
        built = LogicalPlan::Join {
            left: Arc::new(built),
            right: Arc::new(leaves[j].plan.clone()),
            join_type: JoinType::Inner,
            condition: Some(cond),
        };
    }
    if placed.len() != conjuncts.len() {
        return None; // a conjunct found no home — keep the original plan
    }

    // Restore the original column order (and schema) for parents.
    Some(LogicalPlan::Project {
        exprs: original.output().into_iter().map(Expr::Column).collect(),
        input: Arc::new(built),
    })
}

fn reorder_walk(plan: LogicalPlan, idx: &StatsIndex) -> Transformed<LogicalPlan> {
    if is_chain_join(&plan) {
        let mut leaves = Vec::new();
        let mut conjuncts = Vec::new();
        flatten_chain(&plan, &mut leaves, &mut conjuncts);
        if leaves.len() >= 3 {
            // Optimize *inside* each relation first (nested chains under
            // aggregates, projections, …), then order the chain itself.
            let mut rewritten = Vec::with_capacity(leaves.len());
            for l in leaves {
                rewritten.push(reorder_walk(l, idx).data);
            }
            if let Some(new_plan) = reorder(&plan, rewritten, conjuncts, idx) {
                return Transformed::yes(new_plan);
            }
        }
    }
    plan.map_children(&mut |c| reorder_walk(c, idx))
}

impl Rule<LogicalPlan> for ReorderJoins {
    fn name(&self) -> &str {
        "ReorderJoins"
    }

    fn apply(&self, tree: LogicalPlan) -> Transformed<LogicalPlan> {
        let idx = StatsIndex::build(&tree);
        reorder_walk(tree, &idx)
    }
}

// ---------------------------------------------------------------------
// Aggregates answered from statistics
// ---------------------------------------------------------------------

/// Answer global `COUNT(*)` / `COUNT(col)` / `MIN(col)` / `MAX(col)`
/// straight from source statistics, replacing the scan with a one-row
/// [`LogicalPlan::LocalRelation`].
///
/// Fires only when the statistics are *exact*: complete (not the
/// partial stats of a half-evicted cache), with known row and null
/// counts, over an unfiltered scan. MIN/MAX additionally require a type
/// whose statistics ordering matches SQL ordering (floats are excluded:
/// NaN sorts differently in stats than in aggregation).
pub struct AggregateFromStats;

/// Types whose stats min/max equal SQL MIN/MAX.
fn minmax_safe(dtype: &DataType) -> bool {
    matches!(
        dtype,
        DataType::Int
            | DataType::Long
            | DataType::String
            | DataType::Boolean
            | DataType::Date
            | DataType::Timestamp
    )
}

/// The statistics entry for column `name` of `relation`, if exact.
fn exact_stats<'a>(
    stats: &'a [crate::source::ColumnStatistics],
    schema: &crate::schema::Schema,
    name: &str,
) -> Option<&'a crate::source::ColumnStatistics> {
    let i = schema.index_of(name).ok()?;
    stats.get(i).filter(|s| !s.partial)
}

/// Compute one aggregate from stats, or `None` if it cannot be proven.
fn answer_from_stats(
    func: AggFunc,
    arg: Option<&Expr>,
    distinct: bool,
    stats: &[crate::source::ColumnStatistics],
    schema: &crate::schema::Schema,
    total_rows: u64,
) -> Option<Value> {
    if distinct {
        return None;
    }
    match (func, arg) {
        (AggFunc::Count, None) => Some(Value::Long(total_rows as i64)),
        (AggFunc::Count, Some(Expr::Column(c))) => {
            let s = exact_stats(stats, schema, &c.name)?;
            let (rows, nulls) = (s.row_count?, s.null_count?);
            Some(Value::Long(rows.saturating_sub(nulls) as i64))
        }
        (AggFunc::Min | AggFunc::Max, Some(Expr::Column(c))) => {
            if !minmax_safe(&c.dtype) {
                return None;
            }
            let s = exact_stats(stats, schema, &c.name)?;
            let (rows, nulls) = (s.row_count?, s.null_count?);
            let bound = if func == AggFunc::Min { &s.min } else { &s.max };
            match bound {
                Some(v) => Some(v.clone()),
                // No recorded bound is only provable when there are no
                // non-null values: MIN/MAX of nothing is NULL.
                None if nulls == rows => Some(Value::Null),
                None => None,
            }
        }
        _ => None,
    }
}

impl Rule<LogicalPlan> for AggregateFromStats {
    fn name(&self) -> &str {
        "AggregateFromStats"
    }

    fn apply(&self, tree: LogicalPlan) -> Transformed<LogicalPlan> {
        tree.transform_up(&mut |plan| {
            let LogicalPlan::Aggregate {
                input,
                groupings,
                aggregates,
            } = &plan
            else {
                return Transformed::no(plan);
            };
            if !groupings.is_empty() {
                return Transformed::no(plan);
            }
            // Unfiltered scan, possibly under pass-through (pruning)
            // projections of bare columns.
            let mut source = input.as_ref();
            while let LogicalPlan::Project { exprs, input: next } = source {
                if !exprs.iter().all(|e| matches!(e, Expr::Column(_))) {
                    return Transformed::no(plan);
                }
                source = next.as_ref();
            }
            let LogicalPlan::Scan {
                relation, filters, ..
            } = source
            else {
                return Transformed::no(plan);
            };
            if !filters.is_empty() {
                return Transformed::no(plan);
            }
            let Some(stats) = relation.column_statistics() else {
                return Transformed::no(plan);
            };
            if stats.iter().any(|s| s.partial) {
                return Transformed::no(plan);
            }
            let Some(total_rows) = relation
                .row_count()
                .or_else(|| stats.first().and_then(|s| s.row_count))
            else {
                return Transformed::no(plan);
            };
            let schema = relation.schema();

            let mut out_attrs: Vec<ColumnRef> = Vec::with_capacity(aggregates.len());
            let mut values: Vec<Value> = Vec::with_capacity(aggregates.len());
            for agg in aggregates {
                let (inner, attr) = match (agg, agg.to_attribute()) {
                    (Expr::Alias { child, .. }, Ok(attr)) => (child.as_ref(), attr),
                    _ => return Transformed::no(plan),
                };
                let Expr::Agg {
                    func,
                    arg,
                    distinct,
                } = inner
                else {
                    return Transformed::no(plan);
                };
                let Some(v) = answer_from_stats(
                    *func,
                    arg.as_deref(),
                    *distinct,
                    &stats,
                    schema.as_ref(),
                    total_rows,
                ) else {
                    return Transformed::no(plan);
                };
                out_attrs.push(attr);
                values.push(v);
            }
            Transformed::yes(LogicalPlan::LocalRelation {
                output: out_attrs,
                rows: Arc::new(vec![Row::new(values)]),
            })
        })
    }
}

// ---------------------------------------------------------------------
// Common-subexpression elimination
// ---------------------------------------------------------------------

/// Hoist subexpressions that occur more than once — across one
/// projection's expressions, or shared between a projection and the
/// filter directly beneath it — into a project below, so each is
/// evaluated once per row instead of once per occurrence.
///
/// Only deterministic, side-effect-free expressions are hoisted (no
/// UDFs, aggregates, or window functions). It runs last, after the
/// operator batch, whose `CollapseProjects` and `PushDownPredicate` would
/// inline the hoisted expressions right back.
pub struct CommonSubexprElimination;

/// Cheap leaf expressions that are never worth hoisting; a typed NULL
/// counts as a literal.
fn trivial(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Literal(_) | Expr::Column(_) | Expr::BoundRef { .. } | Expr::Wildcard { .. }
    ) || is_null_literal(e)
}

/// Expressions that may not be duplicated-or-hoisted safely.
fn hoistable(e: &Expr) -> bool {
    let mut ok = true;
    e.for_each(&mut |n| match n {
        Expr::Udf { .. }
        | Expr::Agg { .. }
        | Expr::WindowFunction { .. }
        | Expr::UnresolvedAttribute { .. }
        | Expr::UnresolvedFunction { .. }
        | Expr::Wildcard { .. } => ok = false,
        _ => {}
    });
    ok && e.data_type().is_ok()
}

/// Count how often each non-trivial subexpression occurs across `exprs`.
fn repeated_subexprs(exprs: &[&Expr]) -> Vec<Expr> {
    let mut counts: Vec<(Expr, usize)> = Vec::new();
    for e in exprs {
        e.for_each(&mut |n| {
            // Skip the alias wrapper itself; its child is visited too.
            if trivial(n) || matches!(n, Expr::Alias { .. }) {
                return;
            }
            match counts.iter_mut().find(|(c, _)| c == n) {
                Some((_, k)) => *k += 1,
                None => counts.push((n.clone(), 1)),
            }
        });
    }
    let repeated: Vec<Expr> = counts
        .iter()
        .filter(|(e, k)| *k >= 2 && hoistable(e))
        .map(|(e, _)| e.clone())
        .collect();
    // Keep only maximal candidates: a repeated subexpression of another
    // repeated expression is eliminated for free when its parent is.
    repeated
        .iter()
        .filter(|e| {
            !repeated.iter().any(|other| {
                if other == *e {
                    return false;
                }
                let mut contained = false;
                other.for_each(&mut |n| contained |= *n == **e);
                contained
            })
        })
        .cloned()
        .collect()
}

/// Replace occurrences of each `(pattern, replacement)` in `e`.
fn substitute(e: Expr, subs: &[(Expr, Expr)]) -> Expr {
    e.transform_up(&mut |n| match subs.iter().find(|(p, _)| *p == n) {
        Some((_, r)) => Transformed::yes(r.clone()),
        None => Transformed::no(n),
    })
    .data
}

impl Rule<LogicalPlan> for CommonSubexprElimination {
    fn name(&self) -> &str {
        "CommonSubexprElimination"
    }

    fn apply(&self, tree: LogicalPlan) -> Transformed<LogicalPlan> {
        tree.transform_up(&mut |plan| {
            let LogicalPlan::Project { exprs, input } = &plan else {
                return Transformed::no(plan);
            };
            // Share across the filter directly beneath, when present.
            let (filter_pred, base) = match input.as_ref() {
                LogicalPlan::Filter { predicate, input } => (Some(predicate), input.clone()),
                _ => (None, input.clone()),
            };
            let mut scan_list: Vec<&Expr> = exprs.iter().collect();
            if let Some(p) = filter_pred {
                scan_list.push(p);
            }
            let candidates = repeated_subexprs(&scan_list);
            // Hoisted expressions must be computable from the base input
            // (everything the filter and projection see comes from it).
            let base_ids: HashSet<ExprId> = base.output().into_iter().map(|c| c.id).collect();
            let candidates: Vec<Expr> = candidates
                .into_iter()
                .filter(|e| attr_ids(e).is_subset(&base_ids))
                .collect();
            if candidates.is_empty() {
                return Transformed::no(plan);
            }

            let mut inner_exprs: Vec<Expr> = base.output().into_iter().map(Expr::Column).collect();
            let mut subs: Vec<(Expr, Expr)> = Vec::with_capacity(candidates.len());
            for (i, sub) in candidates.into_iter().enumerate() {
                let aliased = sub.clone().alias(format!("_cse{i}"));
                let Ok(attr) = aliased.to_attribute() else {
                    continue;
                };
                inner_exprs.push(aliased);
                subs.push((sub, Expr::Column(attr)));
            }
            if subs.is_empty() {
                return Transformed::no(plan);
            }

            let inner = LogicalPlan::Project {
                exprs: inner_exprs,
                input: Arc::new(base.as_ref().clone()),
            };
            let below: LogicalPlan = match filter_pred {
                Some(p) => LogicalPlan::Filter {
                    predicate: substitute(p.clone(), &subs),
                    input: Arc::new(inner),
                },
                None => inner,
            };
            let out_exprs: Vec<Expr> = exprs.iter().map(|e| substitute(e.clone(), &subs)).collect();
            Transformed::yes(LogicalPlan::Project {
                exprs: out_exprs,
                input: Arc::new(below),
            })
        })
    }
}
