//! Logical-plan invariant checks (the `check_logical` / `check_rewrite`
//! half of [`super::PlanValidator`]).

use super::{Invariant, Violation};
use crate::expr::{ColumnRef, Expr, ExprId};
use crate::plan::LogicalPlan;
use crate::tree::TreeNode;
use crate::types::DataType;
use std::collections::HashMap;
use std::sync::Arc;

/// Short node label for messages.
fn node_name(plan: &LogicalPlan) -> &'static str {
    match plan {
        LogicalPlan::UnresolvedRelation { .. } => "UnresolvedRelation",
        LogicalPlan::Scan { .. } => "Scan",
        LogicalPlan::External { .. } => "External",
        LogicalPlan::LocalRelation { .. } => "LocalRelation",
        LogicalPlan::Project { .. } => "Project",
        LogicalPlan::Filter { .. } => "Filter",
        LogicalPlan::Join { .. } => "Join",
        LogicalPlan::Aggregate { .. } => "Aggregate",
        LogicalPlan::Sort { .. } => "Sort",
        LogicalPlan::Window { .. } => "Window",
        LogicalPlan::Limit { .. } => "Limit",
        LogicalPlan::Union { .. } => "Union",
        LogicalPlan::Distinct { .. } => "Distinct",
        LogicalPlan::SubqueryAlias { .. } => "SubqueryAlias",
        LogicalPlan::Sample { .. } => "Sample",
    }
}

/// Run every standalone invariant over the plan.
pub(super) fn check_plan(plan: &LogicalPlan) -> Vec<Violation> {
    let mut v = Vec::new();
    check_no_unresolved(plan, &mut v);
    check_reachable_references(plan, &mut v);
    check_unique_ids(plan, &mut v);
    check_named_outputs(plan, &mut v);
    check_types(plan, &mut v);
    check_unions(plan, &mut v);
    check_join_children(plan, &mut v);
    check_windows(plan, &mut v);
    v
}

/// The cross-rewrite invariant: an optimizer rule must not change the
/// plan's output row shape — same width, and per position the same name,
/// type, and attribute id (nullability may legitimately tighten).
pub(super) fn check_schema_preserved(before: &LogicalPlan, after: &LogicalPlan) -> Vec<Violation> {
    let b = before.output();
    let a = after.output();
    if b.len() != a.len() {
        return vec![Violation::new(
            Invariant::SchemaPreserved,
            format!(
                "rewrite changed output width from {} to {} columns",
                b.len(),
                a.len()
            ),
        )];
    }
    let mut v = Vec::new();
    for (i, (x, y)) in b.iter().zip(a.iter()).enumerate() {
        if x.id != y.id || x.name != y.name || x.dtype != y.dtype {
            v.push(Violation::new(
                Invariant::SchemaPreserved,
                format!(
                    "rewrite changed output column {i} from '{}'#{} {} to '{}'#{} {}",
                    x.name, x.id, x.dtype, y.name, y.id, y.dtype
                ),
            ));
        }
    }
    v
}

fn check_no_unresolved(plan: &LogicalPlan, v: &mut Vec<Violation>) {
    plan.for_each(&mut |p| {
        if let LogicalPlan::UnresolvedRelation { name } = p {
            v.push(Violation::new(
                Invariant::NoUnresolvedPlaceholders,
                format!("unresolved relation '{name}'"),
            ));
        }
        for e in p.expressions() {
            e.for_each_node(&mut |x| match x {
                Expr::UnresolvedAttribute { name, .. } => v.push(Violation::new(
                    Invariant::NoUnresolvedPlaceholders,
                    format!("unresolved attribute '{name}' in {}", node_name(p)),
                )),
                Expr::UnresolvedFunction { name, .. } => v.push(Violation::new(
                    Invariant::NoUnresolvedPlaceholders,
                    format!("unresolved function '{name}' in {}", node_name(p)),
                )),
                Expr::Wildcard { .. } => v.push(Violation::new(
                    Invariant::NoUnresolvedPlaceholders,
                    format!("unexpanded wildcard in {}", node_name(p)),
                )),
                _ => {}
            });
        }
    });
}

fn check_reachable_references(plan: &LogicalPlan, v: &mut Vec<Violation>) {
    plan.for_each(&mut |p| {
        // A scan's pushed filters evaluate against its own output; every
        // other node's expressions see the union of its children's
        // outputs.
        let available: Vec<ColumnRef> = match p {
            LogicalPlan::Scan { output, .. } => output.clone(),
            other => other.children().iter().flat_map(|c| c.output()).collect(),
        };
        for e in p.expressions() {
            for r in e.references() {
                if !available.iter().any(|a| a.id == r.id) {
                    v.push(Violation::new(
                        Invariant::ReachableReferences,
                        format!(
                            "{} references '{}'#{} which no child produces (available: {})",
                            node_name(p),
                            r.name,
                            r.id,
                            fmt_attrs(&available)
                        ),
                    ));
                }
            }
        }
    });
}

fn fmt_attrs(attrs: &[ColumnRef]) -> String {
    if attrs.is_empty() {
        return "<none>".into();
    }
    attrs
        .iter()
        .map(|a| format!("'{}'#{}", a.name, a.id))
        .collect::<Vec<_>>()
        .join(", ")
}

fn note_id(
    seen: &mut HashMap<ExprId, (Arc<str>, DataType)>,
    id: ExprId,
    name: &Arc<str>,
    dtype: &DataType,
    v: &mut Vec<Violation>,
) {
    match seen.get(&id) {
        Some((n, t)) => {
            if n.as_ref() != name.as_ref() || t != dtype {
                v.push(Violation::new(
                    Invariant::UniqueAttributeIds,
                    format!("attribute id {id} maps to both '{n}' {t} and '{name}' {dtype}"),
                ));
            }
        }
        None => {
            seen.insert(id, (name.clone(), dtype.clone()));
        }
    }
}

fn check_unique_ids(plan: &LogicalPlan, v: &mut Vec<Violation>) {
    let mut seen: HashMap<ExprId, (Arc<str>, DataType)> = HashMap::new();
    plan.for_each(&mut |p| {
        for c in p.output() {
            note_id(&mut seen, c.id, &c.name, &c.dtype, v);
        }
        for e in p.expressions() {
            e.for_each_node(&mut |x| match x {
                Expr::Column(c) => note_id(&mut seen, c.id, &c.name, &c.dtype, v),
                Expr::Alias { child, name, id } => {
                    if let Ok(t) = child.data_type() {
                        note_id(&mut seen, *id, name, &t, v);
                    }
                }
                _ => {}
            });
        }
    });
    v.dedup();
}

fn check_named_outputs(plan: &LogicalPlan, v: &mut Vec<Violation>) {
    plan.for_each(&mut |p| {
        let exprs: &[Expr] = match p {
            LogicalPlan::Project { exprs, .. } => exprs,
            LogicalPlan::Aggregate { aggregates, .. } => aggregates,
            LogicalPlan::Window { window_exprs, .. } => window_exprs,
            _ => return,
        };
        for e in exprs {
            if e.is_resolved() && e.to_attribute().is_err() {
                v.push(Violation::new(
                    Invariant::NamedOutputs,
                    format!(
                        "{} output expression '{e}' has no stable name — it would silently \
                         vanish from the schema; alias it",
                        node_name(p)
                    ),
                ));
            }
        }
    });
}

fn check_bool(e: &Expr, what: &str, v: &mut Vec<Violation>) {
    if let Ok(t) = e.data_type() {
        if !matches!(t, DataType::Boolean | DataType::Null) {
            v.push(Violation::new(
                Invariant::BooleanPredicates,
                format!("{what} '{e}' has type {t}, expected BOOLEAN"),
            ));
        }
    }
}

fn check_types(plan: &LogicalPlan, v: &mut Vec<Violation>) {
    plan.for_each(&mut |p| {
        for e in p.expressions() {
            // Unresolved expressions are already reported by
            // `NoUnresolvedPlaceholders`; don't double-flag them here.
            if e.is_resolved() {
                if let Err(err) = e.data_type() {
                    v.push(Violation::new(
                        Invariant::WellTypedExpressions,
                        format!(
                            "expression '{e}' in {} fails to type-check: {err}",
                            node_name(p)
                        ),
                    ));
                }
            }
        }
        match p {
            LogicalPlan::Filter { predicate, .. } => check_bool(predicate, "Filter predicate", v),
            LogicalPlan::Join {
                condition: Some(c), ..
            } => check_bool(c, "Join condition", v),
            LogicalPlan::Scan { filters, .. } => {
                for f in filters {
                    check_bool(f, "pushed scan filter", v);
                }
            }
            _ => {}
        }
    });
}

fn check_unions(plan: &LogicalPlan, v: &mut Vec<Violation>) {
    plan.for_each(&mut |p| {
        if let LogicalPlan::Union { inputs } = p {
            let Some(first) = inputs.first() else { return };
            let head = first.output();
            for (i, inp) in inputs.iter().enumerate().skip(1) {
                let o = inp.output();
                if o.len() != head.len() {
                    v.push(Violation::new(
                        Invariant::UnionShape,
                        format!(
                            "union input {i} has {} columns, expected {}",
                            o.len(),
                            head.len()
                        ),
                    ));
                    continue;
                }
                for (a, b) in head.iter().zip(o.iter()) {
                    if !super::hash_compatible(&a.dtype, &b.dtype) {
                        v.push(Violation::new(
                            Invariant::UnionShape,
                            format!(
                                "union input {i} column '{}' has type {} incompatible with {}",
                                b.name, b.dtype, a.dtype
                            ),
                        ));
                    }
                }
            }
        }
    });
}

/// Frame start must not lie after frame end.
fn frame_is_ordered(frame: &crate::expr::WindowFrame) -> bool {
    use crate::expr::FrameBound as B;
    // Rank each bound on a coarse axis; offsets of the same kind compare
    // by magnitude.
    fn rank(b: B) -> i64 {
        match b {
            B::UnboundedPreceding => i64::MIN,
            B::Preceding(n) => -(n.min(i64::MAX as u64 - 1) as i64),
            B::CurrentRow => 0,
            B::Following(n) => n.min(i64::MAX as u64 - 1) as i64,
            B::UnboundedFollowing => i64::MAX,
        }
    }
    rank(frame.start) <= rank(frame.end)
}

fn check_windows(plan: &LogicalPlan, v: &mut Vec<Violation>) {
    plan.for_each(&mut |p| {
        if let LogicalPlan::Window { window_exprs, .. } = p {
            for e in window_exprs {
                // Each output must be a window call at the top (under the
                // naming alias), with no further nesting inside it.
                let inner = match e {
                    Expr::Alias { child, .. } => child.as_ref(),
                    other => other,
                };
                match inner {
                    Expr::WindowFunction {
                        args,
                        partition_by,
                        order_by,
                        frame,
                        ..
                    } => {
                        if !frame_is_ordered(frame) {
                            v.push(Violation::new(
                                Invariant::WindowShape,
                                format!("window frame of '{e}' starts after it ends"),
                            ));
                        }
                        let nested = args
                            .iter()
                            .chain(partition_by)
                            .chain(order_by.iter().map(|o| &o.expr));
                        for n in nested {
                            n.for_each_node(&mut |x| {
                                if matches!(x, Expr::WindowFunction { .. }) {
                                    v.push(Violation::new(
                                        Invariant::WindowShape,
                                        format!("window function nested inside '{e}'"),
                                    ));
                                }
                            });
                        }
                    }
                    _ => v.push(Violation::new(
                        Invariant::WindowShape,
                        format!("Window output '{e}' is not a window-function call"),
                    )),
                }
            }
        } else {
            // Window calls are illegal in every other node's expressions.
            for e in p.expressions() {
                e.for_each_node(&mut |x| {
                    if matches!(x, Expr::WindowFunction { .. }) {
                        v.push(Violation::new(
                            Invariant::WindowShape,
                            format!(
                                "window function '{x}' outside a Window node in {}",
                                node_name(p)
                            ),
                        ));
                    }
                });
            }
        }
    });
}

fn check_join_children(plan: &LogicalPlan, v: &mut Vec<Violation>) {
    plan.for_each(&mut |p| {
        if let LogicalPlan::Join { left, right, .. } = p {
            let lout = left.output();
            for c in right.output() {
                if lout.iter().any(|l| l.id == c.id) {
                    v.push(Violation::new(
                        Invariant::DistinctJoinChildren,
                        format!(
                            "attribute '{}'#{} is produced by both join inputs — references \
                             to it are ambiguous (self-join without re-aliasing?)",
                            c.name, c.id
                        ),
                    ));
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::builders::{col, lit};
    use crate::value::Value;

    fn rel() -> LogicalPlan {
        LogicalPlan::LocalRelation {
            output: vec![
                ColumnRef::new("a", DataType::Long, false),
                ColumnRef::new("b", DataType::String, true),
            ],
            rows: Arc::new(vec![]),
        }
    }

    #[test]
    fn clean_plan_has_no_violations() {
        let base = rel();
        let a = base.output()[0].clone();
        let p = base
            .filter(Expr::Column(a.clone()).gt(lit(1i64)))
            .project(vec![Expr::Column(a)]);
        assert!(check_plan(&p).is_empty(), "{:?}", check_plan(&p));
    }

    #[test]
    fn unresolved_attribute_is_flagged() {
        let p = rel().filter(col("missing").gt(lit(1i64)));
        let v = check_plan(&p);
        assert!(
            v.iter()
                .any(|x| x.invariant == Invariant::NoUnresolvedPlaceholders),
            "{v:?}"
        );
    }

    #[test]
    fn unreachable_reference_is_flagged() {
        let phantom = ColumnRef::new("ghost", DataType::Int, true);
        let p = rel().filter(Expr::Column(phantom).gt(lit(1i64)));
        let v = check_plan(&p);
        assert!(
            v.iter()
                .any(|x| x.invariant == Invariant::ReachableReferences),
            "{v:?}"
        );
    }

    #[test]
    fn conflicting_ids_are_flagged() {
        let base = rel();
        let a = base.output()[0].clone();
        // Same id, different name and type.
        let impostor = ColumnRef {
            name: "zzz".into(),
            dtype: DataType::String,
            ..a.clone()
        };
        let p = LogicalPlan::Join {
            left: Arc::new(base),
            right: Arc::new(LogicalPlan::LocalRelation {
                output: vec![impostor],
                rows: Arc::new(vec![]),
            }),
            join_type: crate::plan::JoinType::Inner,
            condition: None,
        };
        let v = check_plan(&p);
        assert!(
            v.iter()
                .any(|x| x.invariant == Invariant::UniqueAttributeIds),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|x| x.invariant == Invariant::DistinctJoinChildren),
            "{v:?}"
        );
    }

    #[test]
    fn unnamed_project_output_is_flagged() {
        let base = rel();
        let a = base.output()[0].clone();
        // a + 1 with no alias: to_attribute() fails, output silently shrinks.
        let p = base.project(vec![Expr::Column(a).add(lit(1i64))]);
        let v = check_plan(&p);
        assert!(
            v.iter().any(|x| x.invariant == Invariant::NamedOutputs),
            "{v:?}"
        );
    }

    #[test]
    fn non_boolean_filter_is_flagged() {
        let base = rel();
        let a = base.output()[0].clone();
        let p = base.filter(Expr::Column(a).add(lit(1i64)));
        let v = check_plan(&p);
        assert!(
            v.iter()
                .any(|x| x.invariant == Invariant::BooleanPredicates),
            "{v:?}"
        );
    }

    #[test]
    fn union_width_mismatch_is_flagged() {
        let wide = rel();
        let narrow = LogicalPlan::LocalRelation {
            output: vec![ColumnRef::new("x", DataType::Long, false)],
            rows: Arc::new(vec![]),
        };
        let p = wide.union(vec![narrow]);
        let v = check_plan(&p);
        assert!(
            v.iter().any(|x| x.invariant == Invariant::UnionShape),
            "{v:?}"
        );
    }

    #[test]
    fn schema_preserved_detects_drops_and_retypes() {
        let base = rel();
        let out = base.output();
        let narrowed = LogicalPlan::empty(vec![out[0].clone()]);
        let v = check_schema_preserved(&base, &narrowed);
        assert!(
            v.iter().any(|x| x.invariant == Invariant::SchemaPreserved),
            "{v:?}"
        );

        let mut retyped = out.clone();
        retyped[0].dtype = DataType::String;
        let v = check_schema_preserved(&base, &LogicalPlan::empty(retyped));
        assert!(
            v.iter().any(|x| x.invariant == Invariant::SchemaPreserved),
            "{v:?}"
        );

        // Identity rewrite is fine.
        assert!(check_schema_preserved(&base, &LogicalPlan::empty(out)).is_empty());
    }

    #[test]
    fn literal_null_predicate_is_tolerated() {
        // Constraint pruning empties NULL-literal predicates; they type as Null.
        let p = rel().filter(Expr::Literal(Value::Null));
        let v = check_plan(&p);
        assert!(
            !v.iter()
                .any(|x| x.invariant == Invariant::BooleanPredicates),
            "{v:?}"
        );
    }
}
