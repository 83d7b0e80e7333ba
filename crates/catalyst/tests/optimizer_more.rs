//! Additional optimizer tests: alias elimination, join-condition
//! absorption, null propagation, boolean simplification, the unique-id
//! `col = col` rewrite, and rule tracing. They check the operator batch,
//! so they run the reference's prefix of the rule list, where a folded
//! filter keeps its literal predicate; the tests that also expect that
//! filter to disappear check it separately on the whole list, where the
//! constraint rules prune it.

use catalyst::analysis::{Analyzer, FunctionRegistry, SimpleCatalog};
use catalyst::expr::builders::{col, lit};
use catalyst::expr::{BinaryOperator, ColumnRef, Expr};
use catalyst::optimizer::Optimizer;
use catalyst::plan::{JoinType, LogicalPlan};
use catalyst::row::Row;
use catalyst::rules::ExecutionMonitor;
use catalyst::tree::TreeNode;
use catalyst::types::DataType;
use catalyst::value::Value;
use std::sync::Arc;

/// A table with two rows: 1 and 9 in `Long` columns, `true` and `false`
/// in `Boolean` ones.
fn table(cols: &[(&str, DataType, bool)]) -> LogicalPlan {
    let row = |first: bool| {
        Row::new(
            cols.iter()
                .map(|(_, t, _)| match t {
                    DataType::Boolean => Value::Boolean(first),
                    _ => Value::Long(if first { 1 } else { 9 }),
                })
                .collect(),
        )
    };
    LogicalPlan::LocalRelation {
        output: cols
            .iter()
            .map(|(n, t, nullable)| ColumnRef::new(*n, t.clone(), *nullable))
            .collect(),
        rows: Arc::new(vec![row(true), row(false)]),
    }
}

fn analyze(plan: LogicalPlan, tables: Vec<(&str, LogicalPlan)>) -> LogicalPlan {
    let catalog = Arc::new(SimpleCatalog::default());
    for (n, p) in tables {
        catalog.register(n, p);
    }
    Analyzer::new(catalog, Arc::new(FunctionRegistry::default()))
        .analyze(plan)
        .unwrap()
}

/// The predicate of the plan's one Filter.
fn filter_predicate(plan: &LogicalPlan) -> Expr {
    let mut predicates = Vec::new();
    plan.for_each(&mut |p| {
        if let LogicalPlan::Filter { predicate, .. } = p {
            predicates.push(predicate.clone());
        }
    });
    match <[Expr; 1]>::try_from(predicates) {
        Ok([p]) => p,
        Err(_) => panic!("expected one filter:\n{plan}"),
    }
}

/// The operator batch folds the plan's one filter to `TRUE` or `FALSE`;
/// the whole list then drops that filter (`TRUE`) or empties the plan
/// (`FALSE`).
fn assert_filter_folds_to(plan: LogicalPlan, expected: bool) {
    let opt = Optimizer::new().optimize(plan.clone(), true);
    assert_eq!(
        filter_predicate(&opt),
        Expr::Literal(Value::Boolean(expected)),
        "{opt}"
    );
    let opt = Optimizer::new().optimize(plan, false);
    assert_eq!(
        count_nodes(&opt, |p| matches!(p, LogicalPlan::Filter { .. })),
        0,
        "{opt}"
    );
    if !expected {
        assert_eq!(
            count_nodes(
                &opt,
                |p| matches!(p, LogicalPlan::LocalRelation { rows, .. } if rows.is_empty())
            ),
            1,
            "{opt}"
        );
    }
}

fn count_nodes(plan: &LogicalPlan, pred: impl Fn(&LogicalPlan) -> bool) -> usize {
    let mut n = 0;
    plan.for_each(&mut |p| {
        if pred(p) {
            n += 1;
        }
    });
    n
}

#[test]
fn subquery_aliases_are_eliminated() {
    let t = table(&[("x", DataType::Long, false)]);
    let plan = analyze(
        LogicalPlan::UnresolvedRelation { name: "t".into() }
            .subquery_alias("a")
            .subquery_alias("b"),
        vec![("t", t)],
    );
    let opt = Optimizer::new().optimize(plan, true);
    assert_eq!(
        count_nodes(&opt, |p| matches!(p, LogicalPlan::SubqueryAlias { .. })),
        0,
        "{opt}"
    );
}

#[test]
fn cross_side_equality_moves_into_join_condition() {
    // FROM a, b WHERE a.x = b.y AND a.x > 1 — the equality must become an
    // inner-join condition (so physical planning can hash-join), the
    // single-sided conjunct must push to its side.
    let a = table(&[("x", DataType::Long, false)]);
    let b = table(&[("y", DataType::Long, false)]);
    let plan = analyze(
        LogicalPlan::UnresolvedRelation { name: "a".into() }
            .join(
                LogicalPlan::UnresolvedRelation { name: "b".into() },
                JoinType::Cross,
                None,
            )
            .filter(col("x").eq(col("y")).and(col("x").gt(lit(1i64)))),
        vec![("a", a), ("b", b)],
    );
    let opt = Optimizer::new().optimize(plan, true);
    let mut join_conditions = 0;
    let mut join_type = None;
    opt.for_each(&mut |p| {
        if let LogicalPlan::Join {
            condition,
            join_type: jt,
            ..
        } = p
        {
            join_type = Some(*jt);
            if condition.is_some() {
                join_conditions += 1;
            }
        }
    });
    assert_eq!(join_conditions, 1, "{opt}");
    assert_eq!(join_type, Some(JoinType::Inner), "{opt}");
    // x > 1 pushed below the join.
    assert_eq!(
        count_nodes(&opt, |p| matches!(p, LogicalPlan::Filter { .. })),
        1,
        "{opt}"
    );
}

#[test]
fn col_eq_col_on_nonnullable_folds_to_true() {
    let t = table(&[("x", DataType::Long, false)]);
    let resolved = analyze(
        LogicalPlan::UnresolvedRelation { name: "t".into() },
        vec![("t", t)],
    );
    // Build x = x with the *same* resolved attribute (same unique id).
    let x = resolved.output()[0].clone();
    let plan = resolved.filter(Expr::Column(x.clone()).eq(Expr::Column(x)));
    assert_filter_folds_to(plan, true);
}

#[test]
fn col_eq_col_on_nullable_is_kept() {
    // NULL = NULL is NULL, not true: the rewrite must not fire.
    let t = table(&[("x", DataType::Long, true)]);
    let resolved = analyze(
        LogicalPlan::UnresolvedRelation { name: "t".into() },
        vec![("t", t)],
    );
    let x = resolved.output()[0].clone();
    let plan = resolved.filter(Expr::Column(x.clone()).eq(Expr::Column(x)));
    let opt = Optimizer::new().optimize(plan, true);
    assert_eq!(
        count_nodes(&opt, |p| matches!(p, LogicalPlan::Filter { .. })),
        1,
        "{opt}"
    );
}

#[test]
fn null_propagation_and_boolean_simplification() {
    let t = table(&[
        ("x", DataType::Long, false),
        ("b", DataType::Boolean, false),
    ]);
    // (x + NULL > 0) OR true  →  true  →  filter removed.
    let plan = analyze(
        LogicalPlan::UnresolvedRelation { name: "t".into() }.filter(
            col("x")
                .add(Expr::Literal(Value::Null))
                .gt(lit(0i64))
                .or(lit(true)),
        ),
        vec![("t", t.clone())],
    );
    assert_filter_folds_to(plan, true);

    // NOT(NOT(b)) AND true → b.
    let plan = analyze(
        LogicalPlan::UnresolvedRelation { name: "t".into() }
            .filter(col("b").not().not().and(lit(true))),
        vec![("t", t)],
    );
    let opt = Optimizer::new().optimize(plan, true);
    match filter_predicate(&opt) {
        Expr::Column(c) => assert_eq!(c.name.as_ref(), "b"),
        other => panic!("expected bare column, got {other:?}"),
    }
}

#[test]
fn is_null_on_nonnullable_column_folds() {
    let t = table(&[("x", DataType::Long, false)]);
    let plan = analyze(
        LogicalPlan::UnresolvedRelation { name: "t".into() }.filter(col("x").is_null()),
        vec![("t", t)],
    );
    // IS NULL(non-nullable) → false → empty relation.
    assert_filter_folds_to(plan, false);
}

#[test]
fn between_sugar_folds_with_constants() {
    let t = table(&[("x", DataType::Long, false)]);
    // 5 BETWEEN 1 AND 10 → true.
    let plan = analyze(
        LogicalPlan::UnresolvedRelation { name: "t".into() }
            .filter(lit(5i64).between(lit(1i64), lit(10i64))),
        vec![("t", t)],
    );
    assert_filter_folds_to(plan, true);
}

#[test]
fn trace_names_every_fired_rule() {
    let a = table(&[("x", DataType::Long, false)]);
    let b = table(&[("y", DataType::Long, false)]);
    let plan = analyze(
        LogicalPlan::UnresolvedRelation { name: "a".into() }
            .join(
                LogicalPlan::UnresolvedRelation { name: "b".into() },
                JoinType::Cross,
                None,
            )
            .filter(
                col("x")
                    .eq(col("y"))
                    .and(col("x").like(lit("1%")).or(lit(true))),
            ),
        vec![("a", a), ("b", b)],
    );
    let out = Optimizer::new().optimize_monitored(plan, true, ExecutionMonitor::new());
    let rules: Vec<&str> = out.trace.iter().map(|e| e.rule.as_str()).collect();
    assert!(rules.contains(&"EliminateSubqueryAliases"), "{rules:?}");
    assert!(rules.contains(&"PushDownPredicate"), "{rules:?}");
    assert!(rules.contains(&"BooleanSimplification"), "{rules:?}");
}

#[test]
fn not_comparisons_fold_via_constant_folding() {
    let t = table(&[("x", DataType::Long, false)]);
    let plan = analyze(
        LogicalPlan::UnresolvedRelation { name: "t".into() }
            .project(vec![lit(3i64).lt(lit(5i64)).not().alias("f")]),
        vec![("t", t)],
    );
    let opt = Optimizer::new().optimize(plan, true);
    let mut found = false;
    opt.for_each(&mut |p| {
        for e in p.expressions() {
            e.for_each_node(&mut |e| {
                if matches!(e, Expr::Literal(Value::Boolean(false))) {
                    found = true;
                }
            });
        }
    });
    assert!(found, "{opt}");
}

#[test]
fn pushdown_respects_outer_join_null_side() {
    // Filter on the right (null-producing) side of a LEFT join must stay
    // above the join.
    let a = table(&[("x", DataType::Long, false)]);
    let b = table(&[("y", DataType::Long, true)]);
    let plan = analyze(
        LogicalPlan::UnresolvedRelation { name: "a".into() }
            .join(
                LogicalPlan::UnresolvedRelation { name: "b".into() },
                JoinType::Left,
                Some(col("x").eq(col("y"))),
            )
            .filter(col("y").gt(lit(0i64))),
        vec![("a", a), ("b", b)],
    );
    let opt = Optimizer::new().optimize(plan, true);
    // The filter must sit above the Join, not below it.
    let mut filter_above_join = false;
    opt.for_each(&mut |p| {
        if let LogicalPlan::Filter { input, .. } = p {
            if matches!(&**input, LogicalPlan::Join { .. }) {
                filter_above_join = true;
            }
        }
    });
    assert!(filter_above_join, "{opt}");
}

#[test]
fn in_list_with_literals_folds() {
    let t = table(&[("x", DataType::Long, false)]);
    let plan = analyze(
        LogicalPlan::UnresolvedRelation { name: "t".into() }.filter(lit(2i64).in_list(vec![
            lit(1i64),
            lit(2i64),
            lit(3i64),
        ])),
        vec![("t", t)],
    );
    assert_filter_folds_to(plan, true);
}

#[test]
fn equality_operator_symbol_roundtrip() {
    // Guard against symbol/display drift used in the remote query log.
    assert_eq!(BinaryOperator::Eq.symbol(), "=");
    assert_eq!(BinaryOperator::NotEq.symbol(), "<>");
    assert!(BinaryOperator::And.is_boolean());
    assert!(BinaryOperator::Lt.is_comparison());
    assert!(BinaryOperator::Mul.is_arithmetic());
}

/// Folding to NULL keeps the type: `x + NULL` becomes a BIGINT NULL and
/// `CAST(NULL AS INT) + 1` an INT one, not an untyped NULL that would
/// change the output schema. A typed NULL still propagates, so
/// `(x + NULL) + y` folds to NULL too. A NULL filter still empties the
/// plan.
#[test]
fn nulls_folded_from_typed_expressions_keep_their_type() {
    let t = table(&[("x", DataType::Long, false), ("y", DataType::Long, false)]);
    let plan = analyze(
        LogicalPlan::UnresolvedRelation { name: "t".into() }.project(vec![
            col("x").add(Expr::Literal(Value::Null)).alias("s"),
            Expr::Literal(Value::Null)
                .cast(DataType::Int)
                .add(lit(1i32))
                .alias("z"),
            col("x")
                .add(Expr::Literal(Value::Null))
                .add(col("y"))
                .alias("w"),
        ]),
        vec![("t", t.clone())],
    );
    let before = plan.output();
    for reference in [true, false] {
        let opt = Optimizer::new().optimize(plan.clone(), reference);
        assert_eq!(opt.output(), before, "{opt}");
        let LogicalPlan::Project { exprs, .. } = &opt else {
            panic!("expected a projection:\n{opt}");
        };
        assert_eq!(exprs.len(), 3, "{opt}");
        for (e, dtype) in exprs
            .iter()
            .zip([DataType::Long, DataType::Int, DataType::Long])
        {
            let Expr::Alias { child, .. } = e else {
                panic!("expected an alias: {e}");
            };
            assert!(
                matches!(&**child, Expr::Cast { expr, dtype: t }
                    if *t == dtype && matches!(**expr, Expr::Literal(Value::Null))),
                "{opt}"
            );
        }
    }

    let plan = analyze(
        LogicalPlan::UnresolvedRelation { name: "t".into() }
            .filter(col("x").gt(Expr::Literal(Value::Null))),
        vec![("t", t)],
    );
    let opt = Optimizer::new().optimize(plan.clone(), true);
    assert_eq!(
        filter_predicate(&opt),
        Expr::Literal(Value::Null).cast(DataType::Boolean),
        "{opt}"
    );
    let opt = Optimizer::new().optimize(plan, false);
    assert!(
        matches!(&opt, LogicalPlan::LocalRelation { rows, .. } if rows.is_empty()),
        "{opt}"
    );
}
