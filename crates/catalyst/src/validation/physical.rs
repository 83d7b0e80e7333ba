//! Physical-plan invariant checks (the `check_physical` half of
//! [`super::PlanValidator`]): reference binding against the right child,
//! shuffle-boundary expectations at hash joins and every other exchange,
//! broadcast build-side legality, and union shape.

use super::{hash_compatible, Invariant, Violation};
use crate::expr::{ColumnRef, Expr};
use crate::physical::{BuildSide, Partitioning, PhysicalPlan};
use crate::plan::JoinType;
use crate::types::DataType;

/// Run every physical invariant over the plan tree.
pub(super) fn check_plan(plan: &PhysicalPlan) -> Vec<Violation> {
    let mut v = Vec::new();
    if matches!(plan, PhysicalPlan::Exchange { .. }) {
        v.push(misplaced_exchange("the plan root"));
    }
    walk(plan, &mut v);
    v
}

fn walk(plan: &PhysicalPlan, v: &mut Vec<Violation>) {
    check_node(plan, v);
    check_exchanges(plan, v);
    for c in plan.children() {
        walk(&c, v);
    }
}

fn misplaced_exchange(what: &str) -> Violation {
    Violation::new(
        Invariant::ExchangeRequirements,
        format!("{what} is an Exchange no operator requires"),
    )
}

/// The partitioning of `plan` when it is an exchange.
fn exchange_of(plan: &PhysicalPlan) -> Option<&Partitioning> {
    match plan {
        PhysicalPlan::Exchange { partitioning, .. } => Some(partitioning),
        _ => None,
    }
}

fn hashes_on(p: &Partitioning, keys: &[Expr]) -> bool {
    matches!(p, Partitioning::Hash { keys: k, .. } if k == keys)
}

/// Each co-location point reads the exchange it requires, and no other
/// node reads one.
fn check_exchanges(plan: &PhysicalPlan, v: &mut Vec<Violation>) {
    let children = plan.children();
    let mut expect = |child: usize, what: String, ok: &dyn Fn(&Partitioning) -> bool| {
        let found = exchange_of(&children[child]);
        if !found.is_some_and(ok) {
            let found = found.map_or("no exchange".to_string(), |p| p.to_string());
            v.push(Violation::new(
                Invariant::ExchangeRequirements,
                format!("{what}; found {found}"),
            ));
        }
    };
    match plan {
        PhysicalPlan::ShuffledHashJoin {
            left_keys,
            right_keys,
            ..
        } => {
            let need = |side| {
                format!("ShuffledHashJoin {side} input must be hash-partitioned on the {side} keys")
            };
            expect(0, need("left"), &|p| hashes_on(p, left_keys));
            expect(1, need("right"), &|p| hashes_on(p, right_keys));
            if let (
                Some(Partitioning::Hash { partitions: l, .. }),
                Some(Partitioning::Hash { partitions: r, .. }),
            ) = (exchange_of(&children[0]), exchange_of(&children[1]))
            {
                if l != r {
                    v.push(Violation::new(
                        Invariant::ExchangeRequirements,
                        format!(
                            "ShuffledHashJoin sides are hash-partitioned into {l} and {r} \
                             partitions — rows cannot co-partition"
                        ),
                    ));
                }
            }
        }
        PhysicalPlan::HashAggregate { groupings, .. } if !groupings.is_empty() => expect(
            0,
            "grouped HashAggregate input must be hash-partitioned on its groupings".into(),
            &|p| hashes_on(p, groupings),
        ),
        PhysicalPlan::Window { partition_by, .. } => expect(
            0,
            "Window input must be hash-partitioned on its partition keys, or one partition".into(),
            &|p| match p {
                Partitioning::Single => partition_by.is_empty(),
                _ => hashes_on(p, partition_by),
            },
        ),
        PhysicalPlan::Sort { orders, .. } => expect(
            0,
            "Sort input must be range-partitioned on its orders".into(),
            &|p| matches!(p, Partitioning::Range { orders: o, .. } if o == orders),
        ),
        _ => {
            for _ in children.iter().filter(|c| exchange_of(c).is_some()) {
                let what = format!("an input of {}", plan.node_description());
                v.push(misplaced_exchange(&what));
            }
        }
    }
}

/// Every `Column` reference in `e` must be produced by `available`.
fn refs_within(e: &Expr, available: &[ColumnRef], what: &str, v: &mut Vec<Violation>) {
    for r in e.references() {
        if !available.iter().any(|a| a.id == r.id) {
            v.push(Violation::new(
                Invariant::PhysicalReferences,
                format!(
                    "{what} references '{}'#{} which its input does not produce",
                    r.name, r.id
                ),
            ));
        }
    }
}

fn well_typed(e: &Expr, what: &str, v: &mut Vec<Violation>) {
    if e.is_resolved() {
        if let Err(err) = e.data_type() {
            v.push(Violation::new(
                Invariant::WellTypedExpressions,
                format!("{what} '{e}' fails to type-check: {err}"),
            ));
        }
    }
}

/// Every key references `input` and type-checks.
fn check_keys(keys: &[Expr], input: &PhysicalPlan, what: &str, v: &mut Vec<Violation>) {
    let avail = input.output();
    for (i, k) in keys.iter().enumerate() {
        refs_within(k, &avail, &format!("{what} {i}"), v);
        well_typed(k, &format!("{what} {i}"), v);
    }
}

/// Both key lists are present, equal in length and pairwise comparable.
/// (Each key's binding to its side is checked where the side is read: by
/// a broadcast join itself, by a shuffled join's exchanges.)
fn check_hash_join_keys(op: &str, left_keys: &[Expr], right_keys: &[Expr], v: &mut Vec<Violation>) {
    if left_keys.is_empty() || right_keys.is_empty() {
        v.push(Violation::new(
            Invariant::JoinKeysAligned,
            format!("{op} has no equi-join keys — nothing to hash-partition on"),
        ));
        return;
    }
    if left_keys.len() != right_keys.len() {
        v.push(Violation::new(
            Invariant::JoinKeysAligned,
            format!(
                "{op} has {} left keys but {} right keys",
                left_keys.len(),
                right_keys.len()
            ),
        ));
        return;
    }
    for (i, (lk, rk)) in left_keys.iter().zip(right_keys.iter()).enumerate() {
        if let (Ok(lt), Ok(rt)) = (lk.data_type(), rk.data_type()) {
            if !hash_compatible(&lt, &rt) {
                v.push(Violation::new(
                    Invariant::JoinKeysAligned,
                    format!(
                        "{op} key pair {i} compares incomparable types {lt} and {rt} — \
                         rows cannot co-partition"
                    ),
                ));
            }
        }
    }
}

fn check_node(plan: &PhysicalPlan, v: &mut Vec<Violation>) {
    match plan {
        PhysicalPlan::Scan {
            residual, output, ..
        } => {
            if let Some(r) = residual {
                refs_within(r, output, "Scan residual", v);
                well_typed(r, "Scan residual", v);
            }
        }
        PhysicalPlan::Project { input, exprs } => {
            let avail = input.output();
            for e in exprs {
                refs_within(e, &avail, "Project expression", v);
                well_typed(e, "Project expression", v);
                if e.is_resolved() && e.to_attribute().is_err() {
                    v.push(Violation::new(
                        Invariant::NamedOutputs,
                        format!("physical Project output '{e}' has no stable name"),
                    ));
                }
            }
        }
        PhysicalPlan::Filter { input, predicate } => {
            refs_within(predicate, &input.output(), "Filter predicate", v);
            well_typed(predicate, "Filter predicate", v);
            if let Ok(t) = predicate.data_type() {
                if !matches!(t, DataType::Boolean | DataType::Null) {
                    v.push(Violation::new(
                        Invariant::BooleanPredicates,
                        format!("physical Filter predicate '{predicate}' has type {t}"),
                    ));
                }
            }
        }
        PhysicalPlan::HashAggregate {
            input,
            groupings,
            output_exprs,
        } => {
            let avail = input.output();
            for e in groupings {
                refs_within(e, &avail, "HashAggregate grouping", v);
                well_typed(e, "HashAggregate grouping", v);
            }
            for e in output_exprs {
                refs_within(e, &avail, "HashAggregate output", v);
                well_typed(e, "HashAggregate output", v);
                if e.is_resolved() && e.to_attribute().is_err() {
                    v.push(Violation::new(
                        Invariant::NamedOutputs,
                        format!("HashAggregate output '{e}' has no stable name"),
                    ));
                }
            }
        }
        PhysicalPlan::Window {
            input,
            window_exprs,
            partition_by,
            order_by,
        } => {
            let avail = input.output();
            for e in window_exprs {
                refs_within(e, &avail, "Window expression", v);
                well_typed(e, "Window expression", v);
                if e.is_resolved() && e.to_attribute().is_err() {
                    v.push(Violation::new(
                        Invariant::NamedOutputs,
                        format!("Window output '{e}' has no stable name"),
                    ));
                }
            }
            for e in partition_by {
                refs_within(e, &avail, "Window partition key", v);
                well_typed(e, "Window partition key", v);
            }
            for o in order_by {
                refs_within(&o.expr, &avail, "Window order key", v);
                well_typed(&o.expr, "Window order key", v);
            }
        }
        PhysicalPlan::Sort { input, orders } | PhysicalPlan::TakeOrdered { input, orders, .. } => {
            let avail = input.output();
            for o in orders {
                refs_within(&o.expr, &avail, "sort key", v);
                well_typed(&o.expr, "sort key", v);
            }
        }
        PhysicalPlan::BroadcastHashJoin {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
            build_side,
            residual,
        } => {
            check_hash_join_keys("BroadcastHashJoin", left_keys, right_keys, v);
            check_keys(left_keys, left, "BroadcastHashJoin left key", v);
            check_keys(right_keys, right, "BroadcastHashJoin right key", v);
            // Broadcasting the build side replicates it to every stream
            // partition; if the build side is the null-producing side of
            // an outer join, unmatched build rows cannot be emitted
            // exactly once. Mirrors the planner's `can_build_*` logic.
            let legal = match build_side {
                BuildSide::Right => matches!(join_type, JoinType::Inner | JoinType::Left),
                BuildSide::Left => matches!(join_type, JoinType::Inner | JoinType::Right),
            };
            if !legal {
                v.push(Violation::new(
                    Invariant::BuildSideLegal,
                    format!(
                        "BroadcastHashJoin builds {build_side:?} for a {} join — the \
                         null-producing side must be streamed",
                        join_type.keyword()
                    ),
                ));
            }
            if let Some(r) = residual {
                let mut avail = left.output();
                avail.extend(right.output());
                refs_within(r, &avail, "join residual", v);
                well_typed(r, "join residual", v);
            }
        }
        PhysicalPlan::ShuffledHashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            ..
        } => {
            check_hash_join_keys("ShuffledHashJoin", left_keys, right_keys, v);
            if let Some(r) = residual {
                let mut avail = left.output();
                avail.extend(right.output());
                refs_within(r, &avail, "join residual", v);
                well_typed(r, "join residual", v);
            }
        }
        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            condition,
            ..
        } => {
            if let Some(c) = condition {
                let mut avail = left.output();
                avail.extend(right.output());
                refs_within(c, &avail, "NestedLoopJoin condition", v);
                well_typed(c, "NestedLoopJoin condition", v);
            }
        }
        PhysicalPlan::Union { inputs } => {
            let Some(first) = inputs.first() else { return };
            let head = first.output();
            for (i, inp) in inputs.iter().enumerate().skip(1) {
                let o = inp.output();
                if o.len() != head.len() {
                    v.push(Violation::new(
                        Invariant::UnionShape,
                        format!(
                            "physical Union input {i} has {} columns, expected {}",
                            o.len(),
                            head.len()
                        ),
                    ));
                    continue;
                }
                for (a, b) in head.iter().zip(o.iter()) {
                    if !hash_compatible(&a.dtype, &b.dtype) {
                        v.push(Violation::new(
                            Invariant::UnionShape,
                            format!(
                                "physical Union input {i} column '{}' has type {} \
                                 incompatible with {}",
                                b.name, b.dtype, a.dtype
                            ),
                        ));
                    }
                }
            }
        }
        PhysicalPlan::Exchange {
            input,
            partitioning,
        } => match partitioning {
            Partitioning::Hash { keys, .. } => check_keys(keys, input, "Exchange hash key", v),
            Partitioning::Range { orders, .. } => {
                let keys: Vec<Expr> = orders.iter().map(|o| o.expr.clone()).collect();
                check_keys(&keys, input, "Exchange range key", v);
            }
            Partitioning::Single => {}
        },
        PhysicalPlan::ExternalScan { .. }
        | PhysicalPlan::LocalData { .. }
        | PhysicalPlan::Limit { .. }
        | PhysicalPlan::Sample { .. }
        | PhysicalPlan::Extension { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::builders::lit;
    use std::sync::Arc;

    fn local(cols: Vec<ColumnRef>) -> PhysicalPlan {
        PhysicalPlan::LocalData {
            rows: Arc::new(vec![]),
            output: cols,
        }
    }

    fn attr(name: &str, dtype: DataType) -> ColumnRef {
        ColumnRef::new(name, dtype, false)
    }

    #[test]
    fn clean_physical_plan_passes() {
        let a = attr("a", DataType::Long);
        let p = PhysicalPlan::Filter {
            input: Arc::new(local(vec![a.clone()])),
            predicate: Expr::Column(a).gt(lit(1i64)),
        };
        assert!(check_plan(&p).is_empty(), "{:?}", check_plan(&p));
    }

    #[test]
    fn unbound_reference_is_flagged() {
        let a = attr("a", DataType::Long);
        let ghost = attr("ghost", DataType::Long);
        let p = PhysicalPlan::Filter {
            input: Arc::new(local(vec![a])),
            predicate: Expr::Column(ghost).gt(lit(1i64)),
        };
        let v = check_plan(&p);
        assert!(
            v.iter()
                .any(|x| x.invariant == Invariant::PhysicalReferences),
            "{v:?}"
        );
    }

    #[test]
    fn illegal_broadcast_build_side_is_flagged() {
        let a = attr("a", DataType::Long);
        let b = attr("b", DataType::Long);
        // LEFT join building (broadcasting) the left side: the stream side
        // cannot emit unmatched left rows — illegal.
        let p = PhysicalPlan::BroadcastHashJoin {
            left: Arc::new(local(vec![a.clone()])),
            right: Arc::new(local(vec![b.clone()])),
            left_keys: vec![Expr::Column(a)],
            right_keys: vec![Expr::Column(b)],
            join_type: JoinType::Left,
            build_side: BuildSide::Left,
            residual: None,
        };
        let v = check_plan(&p);
        assert!(
            v.iter().any(|x| x.invariant == Invariant::BuildSideLegal),
            "{v:?}"
        );
    }

    #[test]
    fn misaligned_join_keys_are_flagged() {
        let a = attr("a", DataType::Long);
        let b = attr("b", DataType::Long);
        let p = PhysicalPlan::ShuffledHashJoin {
            left: Arc::new(local(vec![a.clone()])),
            right: Arc::new(local(vec![b.clone()])),
            left_keys: vec![Expr::Column(a.clone()), Expr::Column(a)],
            right_keys: vec![Expr::Column(b)],
            join_type: JoinType::Inner,
            build_side: BuildSide::Right,
            residual: None,
        };
        let v = check_plan(&p);
        assert!(
            v.iter().any(|x| x.invariant == Invariant::JoinKeysAligned),
            "{v:?}"
        );
    }

    #[test]
    fn empty_hash_join_keys_are_flagged() {
        let a = attr("a", DataType::Long);
        let b = attr("b", DataType::Long);
        let p = PhysicalPlan::ShuffledHashJoin {
            left: Arc::new(local(vec![a])),
            right: Arc::new(local(vec![b])),
            left_keys: vec![],
            right_keys: vec![],
            join_type: JoinType::Inner,
            build_side: BuildSide::Right,
            residual: None,
        };
        let v = check_plan(&p);
        assert!(
            v.iter().any(|x| x.invariant == Invariant::JoinKeysAligned),
            "{v:?}"
        );
    }

    #[test]
    fn incomparable_key_types_are_flagged() {
        let a = attr("a", DataType::Boolean);
        let b = attr("b", DataType::Long);
        let p = PhysicalPlan::ShuffledHashJoin {
            left: Arc::new(local(vec![a.clone()])),
            right: Arc::new(local(vec![b.clone()])),
            left_keys: vec![Expr::Column(a)],
            right_keys: vec![Expr::Column(b)],
            join_type: JoinType::Inner,
            build_side: BuildSide::Right,
            residual: None,
        };
        let v = check_plan(&p);
        assert!(
            v.iter().any(|x| x.invariant == Invariant::JoinKeysAligned),
            "{v:?}"
        );
    }

    fn exchange(input: PhysicalPlan, keys: Vec<Expr>, partitions: usize) -> Arc<PhysicalPlan> {
        Arc::new(PhysicalPlan::Exchange {
            input: Arc::new(input),
            partitioning: Partitioning::Hash { keys, partitions },
        })
    }

    /// `a = b` shuffled, each side hash-partitioned on `(lk, lp)` and
    /// `(rk, rp)`.
    fn shuffled_join(
        [a, b]: &[ColumnRef; 2],
        (lk, lp): (&ColumnRef, usize),
        (rk, rp): (&ColumnRef, usize),
    ) -> PhysicalPlan {
        PhysicalPlan::ShuffledHashJoin {
            left: exchange(local(vec![a.clone()]), vec![Expr::Column(lk.clone())], lp),
            right: exchange(local(vec![b.clone()]), vec![Expr::Column(rk.clone())], rp),
            left_keys: vec![Expr::Column(a.clone())],
            right_keys: vec![Expr::Column(b.clone())],
            join_type: JoinType::Inner,
            build_side: BuildSide::Right,
            residual: None,
        }
    }

    fn exchange_violations(p: &PhysicalPlan) -> Vec<Violation> {
        (check_plan(p).into_iter())
            .filter(|x| x.invariant == Invariant::ExchangeRequirements)
            .collect()
    }

    #[test]
    fn planned_exchanges_pass_and_the_demotion_candidate_too() {
        let ab = [attr("a", DataType::Long), attr("b", DataType::Long)];
        let join = shuffled_join(&ab, (&ab[0], 4), (&ab[1], 4));
        let [a, _] = ab;
        assert!(check_plan(&join).is_empty(), "{:?}", check_plan(&join));
        let demoted = crate::adaptive::rules::broadcast_candidate(&join, BuildSide::Right).unwrap();
        assert!(
            check_plan(&demoted).is_empty(),
            "{:?}",
            check_plan(&demoted)
        );
        let planned = crate::physical::ensure_requirements(
            &PhysicalPlan::Sort {
                input: Arc::new(local(vec![a.clone()])),
                orders: vec![crate::expr::SortOrder {
                    expr: Expr::Column(a),
                    ascending: false,
                }],
            },
            3,
        );
        assert!(
            check_plan(&planned).is_empty(),
            "{:?}",
            check_plan(&planned)
        );
    }

    #[test]
    fn a_missing_exchange_is_flagged() {
        let a = attr("a", DataType::Long);
        let aggregate = PhysicalPlan::HashAggregate {
            input: Arc::new(local(vec![a.clone()])),
            groupings: vec![Expr::Column(a.clone())],
            output_exprs: vec![Expr::Column(a.clone())],
        };
        assert_eq!(exchange_violations(&aggregate).len(), 1);
        let sort = PhysicalPlan::Sort {
            input: Arc::new(local(vec![a.clone()])),
            orders: vec![],
        };
        assert_eq!(exchange_violations(&sort).len(), 1);
        // A shuffled join over bare inputs misses one per side.
        let b = attr("b", DataType::Long);
        let bare = PhysicalPlan::ShuffledHashJoin {
            left: Arc::new(local(vec![a.clone()])),
            right: Arc::new(local(vec![b.clone()])),
            left_keys: vec![Expr::Column(a)],
            right_keys: vec![Expr::Column(b)],
            join_type: JoinType::Inner,
            build_side: BuildSide::Right,
            residual: None,
        };
        assert_eq!(exchange_violations(&bare).len(), 2);
    }

    #[test]
    fn an_exchange_on_other_keys_is_flagged() {
        let ab = [attr("a", DataType::Long), attr("b", DataType::Long)];
        // The right side is partitioned on a column of the left.
        let v = exchange_violations(&shuffled_join(&ab, (&ab[0], 4), (&ab[0], 4)));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("right"), "{v:?}");
        // A grouped aggregate over an exchange on something else.
        let [a, b] = ab;
        let aggregate = PhysicalPlan::HashAggregate {
            input: exchange(local(vec![a.clone(), b.clone()]), vec![Expr::Column(b)], 4),
            groupings: vec![Expr::Column(a.clone())],
            output_exprs: vec![Expr::Column(a)],
        };
        assert_eq!(exchange_violations(&aggregate).len(), 1);
    }

    #[test]
    fn mismatched_partition_counts_are_flagged() {
        let ab = [attr("a", DataType::Long), attr("b", DataType::Long)];
        let v = exchange_violations(&shuffled_join(&ab, (&ab[0], 4), (&ab[1], 8)));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("4 and 8"), "{v:?}");
    }

    #[test]
    fn an_exchange_nothing_requires_is_flagged() {
        let a = attr("a", DataType::Long);
        let limit = PhysicalPlan::Limit {
            input: exchange(local(vec![a.clone()]), vec![Expr::Column(a.clone())], 2),
            n: 1,
        };
        assert_eq!(exchange_violations(&limit).len(), 1);
        let root = exchange(local(vec![a.clone()]), vec![Expr::Column(a)], 2);
        assert_eq!(exchange_violations(&root).len(), 1);
    }
}
