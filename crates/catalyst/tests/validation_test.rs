//! Acceptance tests for the plan-integrity checker: schema-breaking
//! rules are rejected with a full report (batch, rule, iteration,
//! invariant, plan diff), violating rewrites roll back, non-converging
//! batches surface in the rule-health report, and the regression the
//! validator originally caught (`ConstantFolding` folding aliases away)
//! stays fixed.

use catalyst::analysis::{Analyzer, FunctionRegistry, SimpleCatalog};
use catalyst::expr::builders::{col, lit};
use catalyst::expr::{ColumnRef, Expr};
use catalyst::optimizer::{OptimizeOutcome, Optimizer};
use catalyst::plan::LogicalPlan;
use catalyst::row::Row;
use catalyst::rules::{Batch, ExecutionMonitor, FnRule, TraceKind};
use catalyst::tree::Transformed;
use catalyst::types::DataType;
use catalyst::validation::PlanValidator;
use catalyst::value::Value;
use std::sync::Arc;

/// A table of `Long` columns with two rows, 1 and 9 in every column.
fn table(cols: &[(&str, DataType)]) -> LogicalPlan {
    let row = |v: i64| Row::new(vec![Value::Long(v); cols.len()]);
    LogicalPlan::LocalRelation {
        output: cols
            .iter()
            .map(|(n, t)| ColumnRef::new(*n, t.clone(), false))
            .collect(),
        rows: Arc::new(vec![row(1), row(9)]),
    }
}

/// The whole rule list under a validating monitor.
fn optimize_monitored(opt: &Optimizer, plan: LogicalPlan) -> OptimizeOutcome {
    opt.optimize_monitored(
        plan,
        false,
        ExecutionMonitor::with_validator(&PlanValidator::new()),
    )
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

/// A rule that silently drops the first output column of every Project —
/// the crafted schema-breaking rule from the acceptance criteria.
fn drop_first_column_rule() -> Box<dyn catalyst::rules::Rule<LogicalPlan>> {
    Box::new(FnRule::new("DropFirstColumn", |p: LogicalPlan| match p {
        LogicalPlan::Project { input, exprs } if exprs.len() > 1 => {
            Transformed::yes(LogicalPlan::Project {
                input,
                exprs: exprs[1..].to_vec(),
            })
        }
        other => Transformed::no(other),
    }))
}

fn two_column_projection() -> LogicalPlan {
    let t = table(&[("x", DataType::Long), ("y", DataType::Long)]);
    analyze(
        LogicalPlan::UnresolvedRelation { name: "t".into() }.project(vec![col("x"), col("y")]),
        vec![("t", t)],
    )
}

/// Regression test for the bug the validator flushed out of the seed
/// corpus: `ConstantFolding` used to fold `(NOT (3 < 5)) AS f` down to a
/// bare literal, dropping the alias that carries the output name and
/// attribute id — `Project::output()` then silently lost the column.
#[test]
fn constant_folding_keeps_aliased_literal_outputs() {
    let t = table(&[("x", DataType::Long)]);
    let plan = analyze(
        LogicalPlan::UnresolvedRelation { name: "t".into() }
            .project(vec![lit(3i64).lt(lit(5i64)).not().alias("f")]),
        vec![("t", t)],
    );
    let before = plan.output();
    let out = optimize_monitored(&Optimizer::new(), plan);
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    let after = out.plan.output();
    assert_eq!(
        after.len(),
        1,
        "aliased literal column vanished:\n{}",
        out.plan
    );
    assert_eq!(after[0].name, before[0].name);
    assert_eq!(after[0].id, before[0].id);
    // The fold itself must still happen under the alias.
    let folded = matches!(
        &out.plan,
        LogicalPlan::Project { exprs, .. }
            if matches!(&exprs[0], Expr::Alias { child, .. } if matches!(**child, Expr::Literal(_)))
    );
    assert!(folded, "literal not folded under alias:\n{}", out.plan);
}

#[test]
fn schema_breaking_rule_is_rejected_with_full_report() {
    let plan = two_column_projection();
    let expected_output = plan.output();

    let mut opt = Optimizer::new();
    opt.add_batch(Batch::once("user-bad", vec![drop_first_column_rule()]));
    let out = optimize_monitored(&opt, plan);

    // The report names the batch, rule, iteration, and invariant.
    let v = out
        .violations
        .iter()
        .find(|v| v.invariant == "schema-preserved")
        .expect("schema-preserved violation not reported");
    assert_eq!(v.batch, "user-bad");
    assert_eq!(v.rule, "DropFirstColumn");
    assert_eq!(v.iteration, 0);
    assert!(v.message.contains("width"), "{}", v.message);
    // ... and carries a structural before/after plan diff.
    assert!(
        v.diff.lines().any(|l| l.starts_with("- ")),
        "diff:\n{}",
        v.diff
    );
    assert!(
        v.diff.lines().any(|l| l.starts_with("+ ")),
        "diff:\n{}",
        v.diff
    );
    let rendered = v.to_string();
    for needle in [
        "schema-preserved",
        "DropFirstColumn",
        "user-bad",
        "plan diff:",
    ] {
        assert!(
            rendered.contains(needle),
            "missing {needle:?} in:\n{rendered}"
        );
    }

    // The violating rewrite was rolled back: the plan keeps its schema.
    assert_eq!(out.plan.output(), expected_output, "{}", out.plan);

    // And the health report counts the rejection, not a fire.
    let h = out
        .health
        .health_for("user-bad", "DropFirstColumn")
        .unwrap();
    assert_eq!(h.rejected, 1);
    assert_eq!(h.fires, 0);
}

/// In debug builds (validation on by default) the plain `optimize` entry
/// point refuses to return a corrupted plan.
#[test]
#[should_panic(expected = "broke a plan invariant")]
fn optimize_panics_on_schema_breaking_rule() {
    let plan = two_column_projection();
    let mut opt = Optimizer::new();
    opt.add_batch(Batch::once("user-bad", vec![drop_first_column_rule()]));
    let _ = opt.optimize(plan, false);
}

#[test]
fn oscillating_user_batch_is_reported_non_converged() {
    let t = table(&[("x", DataType::Long)]);
    let plan = analyze(
        LogicalPlan::UnresolvedRelation { name: "t".into() }.limit(7),
        vec![("t", t)],
    );
    let mut opt = Optimizer::new();
    // Toggles LIMIT 7 <-> LIMIT 8 forever: schema-safe but oscillating.
    opt.add_batch(Batch::fixed_point(
        "user-oscillating",
        vec![Box::new(FnRule::new(
            "ToggleLimit",
            |p: LogicalPlan| match p {
                LogicalPlan::Limit { input, n: 7 } => {
                    Transformed::yes(LogicalPlan::Limit { input, n: 8 })
                }
                LogicalPlan::Limit { input, n: 8 } => {
                    Transformed::yes(LogicalPlan::Limit { input, n: 7 })
                }
                other => Transformed::no(other),
            },
        ))],
    ));
    let out = optimize_monitored(&opt, plan);
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert!(
        out.health
            .non_converged
            .iter()
            .any(|nc| nc.batch == "user-oscillating"),
        "non-convergence not recorded: {:?}",
        out.health.non_converged
    );
    assert!(
        out.trace
            .iter()
            .any(|e| e.kind == TraceKind::NonConvergence && e.batch == "user-oscillating"),
        "no NonConvergence trace event"
    );
    let rendered = out.health.render();
    assert!(rendered.contains("user-oscillating"), "{rendered}");
}

#[test]
fn rule_health_counts_fires_and_renders() {
    let t = table(&[("x", DataType::Long)]);
    let plan = analyze(
        LogicalPlan::UnresolvedRelation { name: "t".into() }.filter(lit(1i64).lt(lit(2i64))),
        vec![("t", t)],
    );
    let out = optimize_monitored(&Optimizer::new(), plan);
    assert!(out.violations.is_empty(), "{:?}", out.violations);

    let cf = out
        .health
        .health_for("Operator Optimizations", "ConstantFolding")
        .expect("ConstantFolding ran");
    assert!(cf.fires >= 1, "{cf:?}");
    assert!(cf.applications >= cf.fires);
    assert!(cf.effectiveness() > 0.0);

    let pf = out
        .health
        .health_for("Constraint Optimizations", "PruneConstrainedFilters")
        .expect("PruneConstrainedFilters ran");
    assert!(pf.fires >= 1, "{pf:?}");

    let rendered = out.health.render();
    for needle in [
        "== Rule Health ==",
        "ConstantFolding",
        "PruneConstrainedFilters",
        "non-converged",
    ] {
        assert!(
            rendered.contains(needle),
            "missing {needle:?} in:\n{rendered}"
        );
    }

    // Every fired rule left a before/after entry in the plan-change log.
    for e in out.trace.iter().filter(|e| e.kind == TraceKind::RuleFired) {
        let change = e.change.as_ref().expect("fired rule without plan change");
        assert_ne!(change.before, change.after, "{e:?}");
        assert!(!change.diff.is_empty());
    }
}

/// `check_rewrite` only blames a rule for violations it introduced:
/// pre-existing quirks in the input plan are filtered out.
#[test]
fn check_rewrite_ignores_preexisting_violations() {
    // A plan referencing an attribute its child never produces.
    let ghost = ColumnRef::new("ghost", DataType::Long, false);
    let t = table(&[("x", DataType::Long)]);
    let bad = LogicalPlan::Filter {
        input: Arc::new(t),
        predicate: Expr::Column(ghost).is_not_null(),
    };
    let validator = PlanValidator::new();
    assert!(!validator.check_logical(&bad).is_empty());
    // An identity "rewrite" over the already-broken plan is not blamed.
    assert!(validator.check_rewrite(&bad, &bad.clone()).is_empty());
}
