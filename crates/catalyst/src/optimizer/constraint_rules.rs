//! Constraint-driven optimizations: rules that consume the bottom-up
//! abstract interpretation in [`crate::analysis::constraints`].
//!
//! Their batch runs *after* the operator batch (production runs it, the
//! reference does not), because they want to see the plan in its settled
//! shape — constants folded, filters combined and pushed — before
//! reasoning about nullability and value domains. They are the only rules
//! that prune filters.
//!
//! Soundness notes that every rule here leans on:
//!
//! * Domains describe the **non-NULL** values an attribute can take;
//!   nullability is tracked separately. An outer join therefore only
//!   flips nullability, never widens a domain.
//! * Filter semantics drop rows whose predicate is NULL, so a conjunct
//!   that can *never be TRUE* (`Determination::never_true`) empties the
//!   filter even when it could evaluate to NULL.
//! * A global aggregate over an empty input still returns one row, which
//!   [`constraints::node_facts`] already accounts for: such a node is
//!   never marked `always_empty`, so [`PropagateEmptyRelations`] cannot
//!   prune it.

use crate::analysis::constraints::{
    self, determine, null_rejected_columns, Determination, NodeFacts,
};
use crate::expr::{BinaryOperator, ColumnRef, Expr};
use crate::plan::{JoinType, LogicalPlan};
use crate::rules::Rule;
use crate::tree::{Transformed, TreeNode};
use crate::value::Value;

use super::{conjunction, split_conjuncts};

/// Merged facts of a node's children — the frame its expressions
/// evaluate against.
fn child_frame(plan: &LogicalPlan) -> NodeFacts {
    constraints::input_facts(plan)
}

// ---------------------------------------------------------------------------
// PruneConstrainedFilters
// ---------------------------------------------------------------------------

/// Drop filter conjuncts the constraint pass proves always-TRUE, and
/// rewrite filters with a never-TRUE conjunct (definitely FALSE *or*
/// NULL — either way the row is dropped) to an empty relation.
pub struct PruneConstrainedFilters;

impl Rule<LogicalPlan> for PruneConstrainedFilters {
    fn name(&self) -> &str {
        "PruneConstrainedFilters"
    }

    fn apply(&self, plan: LogicalPlan) -> Transformed<LogicalPlan> {
        plan.transform_up(&mut |p| {
            let LogicalPlan::Filter { input, predicate } = p else {
                return Transformed::no(p);
            };
            // Judge each conjunct against the input facts refined by the
            // conjuncts already accepted, so pairwise contradictions
            // (`a > 10 AND a < 5`) surface as an empty frame even though
            // neither conjunct is decidable alone.
            let mut frame = constraints::facts(&input);
            let conjuncts = split_conjuncts(&predicate);
            let mut kept = Vec::with_capacity(conjuncts.len());
            let mut changed = false;
            for c in conjuncts {
                match determine(&c, &frame) {
                    Determination::AlwaysTrue => changed = true,
                    d if d.never_true() => {
                        // Filter output == input output; an empty relation
                        // with the same attributes keeps parents resolved.
                        return Transformed::yes(LogicalPlan::empty(input.output()));
                    }
                    _ => {
                        constraints::apply_conjunct(&mut frame, &c);
                        if frame.always_empty {
                            return Transformed::yes(LogicalPlan::empty(input.output()));
                        }
                        kept.push(c);
                    }
                }
            }
            if !changed {
                return Transformed::no(LogicalPlan::Filter { input, predicate });
            }
            match conjunction(kept) {
                Some(pred) => Transformed::yes(LogicalPlan::Filter {
                    input,
                    predicate: pred,
                }),
                None => Transformed::yes(input.as_ref().clone()),
            }
        })
    }
}

// ---------------------------------------------------------------------------
// PropagateEmptyRelations
// ---------------------------------------------------------------------------

/// Replace subtrees the constraint pass proves empty (contradictory
/// filters, zero-row scans, inner joins against empty inputs, …) with an
/// empty [`LogicalPlan::LocalRelation`] carrying the same output
/// attributes.
pub struct PropagateEmptyRelations;

fn is_empty_relation(p: &LogicalPlan) -> bool {
    matches!(p, LogicalPlan::LocalRelation { rows, .. } if rows.is_empty())
}

impl Rule<LogicalPlan> for PropagateEmptyRelations {
    fn name(&self) -> &str {
        "PropagateEmptyRelations"
    }

    fn apply(&self, plan: LogicalPlan) -> Transformed<LogicalPlan> {
        plan.transform_up(&mut |p| {
            if is_empty_relation(&p) || matches!(p, LogicalPlan::External { .. }) {
                return Transformed::no(p);
            }
            if constraints::facts(&p).always_empty {
                let out = p.output();
                return Transformed::yes(LogicalPlan::empty(out));
            }
            Transformed::no(p)
        })
    }
}

// ---------------------------------------------------------------------------
// InferIsNotNullFilters
// ---------------------------------------------------------------------------

/// Materialize inferred non-nullness as explicit `IS NOT NULL` filters:
///
/// * on the null-rejecting side(s) of a join condition — both inputs of
///   an inner join, only the preserved side of an outer join — so the
///   standard pushdown batch can sink them into scans and skip
///   null-keyed rows before the shuffle;
/// * ahead of filter predicates that null-reject a column, so the same
///   pushdown applies.
///
/// Idempotent by construction: a column whose input facts already prove
/// non-nullness (including via a previously inserted filter) is skipped.
pub struct InferIsNotNullFilters;

/// `IS NOT NULL c1 AND ... AND cN` over `input`, skipping columns the
/// input already proves non-null. Returns `None` when nothing new.
fn not_null_guard(input: &LogicalPlan, cols: &[ColumnRef]) -> Option<Expr> {
    let facts = constraints::facts(input);
    let fresh: Vec<Expr> = cols
        .iter()
        .filter(|c| !facts.is_non_null(c))
        .map(|c| Expr::IsNotNull(Box::new(Expr::Column(c.clone()))))
        .collect();
    conjunction(fresh)
}

impl Rule<LogicalPlan> for InferIsNotNullFilters {
    fn name(&self) -> &str {
        "InferIsNotNullFilters"
    }

    fn apply(&self, plan: LogicalPlan) -> Transformed<LogicalPlan> {
        plan.transform_up(&mut |p| match p {
            LogicalPlan::Join {
                left,
                right,
                join_type,
                condition: Some(cond),
            } => {
                let rejected = null_rejected_columns(&cond);
                let left_out = left.output();
                let right_out = right.output();
                let on_side = |out: &[ColumnRef]| -> Vec<ColumnRef> {
                    rejected
                        .iter()
                        .filter(|c| out.iter().any(|o| o.id == c.id))
                        .cloned()
                        .collect()
                };
                // The null-supplying side of an outer join keeps its NULL
                // keys (they surface as unmatched rows), so only the
                // side(s) whose rows must satisfy the condition to appear
                // at all may be filtered.
                let (filter_left, filter_right) = match join_type {
                    JoinType::Inner => (true, true),
                    JoinType::Left => (false, true),
                    JoinType::Right => (true, false),
                    JoinType::Full | JoinType::Cross => (false, false),
                };
                let mut changed = false;
                let left = if filter_left {
                    match not_null_guard(&left, &on_side(&left_out)) {
                        Some(g) => {
                            changed = true;
                            std::sync::Arc::new(left.as_ref().clone().filter(g))
                        }
                        None => left,
                    }
                } else {
                    left
                };
                let right = if filter_right {
                    match not_null_guard(&right, &on_side(&right_out)) {
                        Some(g) => {
                            changed = true;
                            std::sync::Arc::new(right.as_ref().clone().filter(g))
                        }
                        None => right,
                    }
                } else {
                    right
                };
                let rebuilt = LogicalPlan::Join {
                    left,
                    right,
                    join_type,
                    condition: Some(cond),
                };
                if changed {
                    Transformed::yes(rebuilt)
                } else {
                    Transformed::no(rebuilt)
                }
            }
            LogicalPlan::Filter { input, predicate } => {
                let rejected = null_rejected_columns(&predicate);
                let already: Vec<Expr> = split_conjuncts(&predicate);
                let facts = constraints::facts(&input);
                let fresh: Vec<Expr> = rejected
                    .iter()
                    .filter(|c| !facts.is_non_null(c))
                    .map(|c| Expr::IsNotNull(Box::new(Expr::Column(c.clone()))))
                    .filter(|e| !already.contains(e))
                    .collect();
                match conjunction(fresh) {
                    Some(extra) => Transformed::yes(LogicalPlan::Filter {
                        input,
                        predicate: extra.and(predicate),
                    }),
                    None => Transformed::no(LogicalPlan::Filter { input, predicate }),
                }
            }
            other => Transformed::no(other),
        })
    }
}

// ---------------------------------------------------------------------------
// SimplifyDomainComparisons
// ---------------------------------------------------------------------------

/// Replace comparison / null-test subexpressions the constraint pass
/// fully decides with literal `TRUE` / `FALSE`.
///
/// Only the two *definite* verdicts rewrite: `AlwaysTrue` and
/// `AlwaysFalse` guarantee a non-NULL boolean on every row. `NeverTrue`
/// (false **or** NULL) is not equivalent to `FALSE` in expression
/// position — `(a > 5) IS NULL` distinguishes them — so it is left for
/// [`PruneConstrainedFilters`], where filter semantics make the two
/// interchangeable.
pub struct SimplifyDomainComparisons;

fn is_decidable_shape(e: &Expr) -> bool {
    matches!(
        e,
        Expr::BinaryOp {
            op: BinaryOperator::Eq
                | BinaryOperator::NotEq
                | BinaryOperator::Lt
                | BinaryOperator::LtEq
                | BinaryOperator::Gt
                | BinaryOperator::GtEq,
            ..
        } | Expr::IsNull(_)
            | Expr::IsNotNull(_)
    )
}

impl Rule<LogicalPlan> for SimplifyDomainComparisons {
    fn name(&self) -> &str {
        "SimplifyDomainComparisons"
    }

    fn apply(&self, plan: LogicalPlan) -> Transformed<LogicalPlan> {
        plan.transform_up(&mut |p| {
            // Scan filters evaluate against the base relation, not a
            // child node; leave them to the scan's own machinery.
            if matches!(p, LogicalPlan::Scan { .. }) {
                return Transformed::no(p);
            }
            let frame = child_frame(&p);
            p.map_expressions(&mut |e| {
                e.transform_up(&mut |sub| {
                    if !is_decidable_shape(&sub) || sub.foldable() {
                        return Transformed::no(sub);
                    }
                    match determine(&sub, &frame) {
                        Determination::AlwaysTrue => {
                            Transformed::yes(Expr::Literal(Value::Boolean(true)))
                        }
                        Determination::AlwaysFalse => {
                            Transformed::yes(Expr::Literal(Value::Boolean(false)))
                        }
                        _ => Transformed::no(sub),
                    }
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::builders::lit;
    use crate::row::Row;
    use crate::types::DataType;
    use std::sync::Arc;

    fn leaf(cols: &[(&str, DataType, bool)], rows: Vec<Row>) -> (LogicalPlan, Vec<ColumnRef>) {
        let output: Vec<ColumnRef> = cols
            .iter()
            .map(|(n, t, nl)| ColumnRef::new(*n, t.clone(), *nl))
            .collect();
        (
            LogicalPlan::LocalRelation {
                output: output.clone(),
                rows: Arc::new(rows),
            },
            output,
        )
    }

    fn long_rows(vals: &[i64]) -> Vec<Row> {
        vals.iter()
            .map(|v| Row::new(vec![Value::Long(*v)]))
            .collect()
    }

    /// One NULL row plus a value row, so stats seeding cannot prove the
    /// column non-null.
    fn nullable_rows(val: i64) -> Vec<Row> {
        vec![
            Row::new(vec![Value::Null]),
            Row::new(vec![Value::Long(val)]),
        ]
    }

    #[test]
    fn contradictory_filter_becomes_empty() {
        let (p, out) = leaf(&[("a", DataType::Long, true)], long_rows(&[1, 100]));
        let a = out[0].clone();
        let plan = p.filter(
            Expr::Column(a.clone())
                .gt(lit(10i64))
                .and(Expr::Column(a).lt(lit(5i64))),
        );
        let rewritten = PruneConstrainedFilters.apply(plan).data;
        assert!(is_empty_relation(&rewritten), "{rewritten:?}");
        assert_eq!(rewritten.output(), out);
    }

    #[test]
    fn redundant_conjunct_dropped() {
        let (p, out) = leaf(&[("a", DataType::Long, true)], long_rows(&[1, 100]));
        let a = out[0].clone();
        // a > 10 implies a > 5: the second conjunct is decided by the
        // constraint set of the first.
        let inner = p.filter(Expr::Column(a.clone()).gt(lit(10i64)));
        let plan = inner.filter(Expr::Column(a).gt(lit(10i64)));
        let rewritten = PruneConstrainedFilters.apply(plan).data;
        let mut filters = 0;
        rewritten.for_each(&mut |n| {
            if matches!(n, LogicalPlan::Filter { .. }) {
                filters += 1;
            }
        });
        assert_eq!(
            filters, 1,
            "duplicate filter should collapse: {rewritten:?}"
        );
    }

    #[test]
    fn empty_propagates_through_project_but_not_global_agg() {
        let (p, out) = leaf(&[("a", DataType::Long, true)], vec![]);
        let a = out[0].clone();
        let proj = p.clone().project(vec![Expr::Column(a.clone()).alias("x")]);
        let rewritten = PropagateEmptyRelations.apply(proj).data;
        assert!(is_empty_relation(&rewritten), "{rewritten:?}");

        // A global aggregate over empty input still yields one row.
        let agg = p.aggregate(
            vec![],
            vec![crate::expr::builders::count(Expr::Column(a)).alias("c")],
        );
        let kept = PropagateEmptyRelations.apply(agg).data;
        assert!(
            matches!(kept, LogicalPlan::Aggregate { .. }),
            "global aggregate must survive: {kept:?}"
        );
    }

    #[test]
    fn inner_join_gains_not_null_filters() {
        let (l, lout) = leaf(&[("a", DataType::Long, true)], nullable_rows(1));
        let (r, rout) = leaf(&[("k", DataType::Long, true)], nullable_rows(1));
        let a = lout[0].clone();
        let k = rout[0].clone();
        let plan = l.join(
            r,
            JoinType::Inner,
            Some(Expr::Column(a).eq(Expr::Column(k))),
        );
        let rewritten = InferIsNotNullFilters.apply(plan).data;
        let mut not_null_filters = 0;
        rewritten.for_each(&mut |n| {
            if let LogicalPlan::Filter { predicate, .. } = n {
                if matches!(predicate, Expr::IsNotNull(_)) {
                    not_null_filters += 1;
                }
            }
        });
        assert_eq!(not_null_filters, 2, "{rewritten:?}");
        // Idempotent: a second application adds nothing.
        let again = InferIsNotNullFilters.apply(rewritten);
        assert!(!again.changed, "{:?}", again.data);
    }

    #[test]
    fn left_join_guards_only_right_side() {
        let (l, lout) = leaf(&[("a", DataType::Long, true)], nullable_rows(1));
        let (r, rout) = leaf(&[("k", DataType::Long, true)], nullable_rows(1));
        let plan = l.join(
            r,
            JoinType::Left,
            Some(Expr::Column(lout[0].clone()).eq(Expr::Column(rout[0].clone()))),
        );
        let rewritten = InferIsNotNullFilters.apply(plan).data;
        let LogicalPlan::Join { left, right, .. } = &rewritten else {
            panic!("expected join: {rewritten:?}");
        };
        assert!(
            matches!(**left, LogicalPlan::LocalRelation { .. }),
            "preserved side untouched"
        );
        assert!(
            matches!(**right, LogicalPlan::Filter { .. }),
            "null-supplying side guarded"
        );
    }

    #[test]
    fn domain_decided_comparison_becomes_literal() {
        let (p, out) = leaf(&[("a", DataType::Long, true)], long_rows(&[1, 100]));
        let a = out[0].clone();
        let plan = p
            .filter(Expr::Column(a.clone()).gt(lit(10i64)))
            .project(vec![Expr::Column(a).gt(lit(5i64)).alias("always")]);
        let rewritten = SimplifyDomainComparisons.apply(plan).data;
        let LogicalPlan::Project { exprs, .. } = &rewritten else {
            panic!("expected project: {rewritten:?}");
        };
        let Expr::Alias { child: expr, .. } = &exprs[0] else {
            panic!("expected alias: {:?}", exprs[0]);
        };
        assert_eq!(**expr, Expr::Literal(Value::Boolean(true)), "{rewritten:?}");
    }
}
