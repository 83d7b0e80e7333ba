//! Logical optimization (§4.3.2): rule-based rewrites over resolved
//! plans, executed in fixed-point batches.
//!
//! The optimizer is one list of batches, run by one executor loop:
//!
//! 1. `Finish Analysis`, once: drop subquery aliases.
//! 2. `Operator Optimizations`, to a fixed point: the expression and
//!    operator rewrites.
//! 3. User batches ([`Optimizer::add_batch`]). **The reference stops
//!    here.**
//! 4. `Constraint Optimizations`, to a fixed point: rules that read the
//!    [`crate::analysis::constraints`] abstract interpretation, once the
//!    plan has settled.
//! 5. `Operator Optimizations` again — the same batch, no copy — if a
//!    rewrite was kept since it last ran (step 4, or a user batch), to
//!    fold, push and prune what that exposed. Join reordering needs the
//!    inferred `IS NOT NULL` filters pushed first.
//! 6. `Statistics`, once: aggregates answered from source statistics,
//!    then join reordering, so estimates see the settled plan.
//! 7. `Operator Optimizations` again if step 6 changed the plan: it
//!    collapses and narrows the projections around reordered joins.
//! 8. `Subexpression Elimination`, once and last: `CollapseProjects` and
//!    `PushDownPredicate` would inline what it hoists.

pub mod constraint_rules;
pub mod cost_rules;
pub mod expr_rules;
pub mod plan_rules;
pub mod window_rules;

pub use constraint_rules::{
    InferIsNotNullFilters, PropagateEmptyRelations, PruneConstrainedFilters,
    SimplifyDomainComparisons,
};
pub use cost_rules::{AggregateFromStats, CommonSubexprElimination, ReorderJoins};
pub use expr_rules::{
    BooleanSimplification, ConstantFolding, DecimalAggregates, NullPropagation, SimplifyLike,
};
pub use plan_rules::{
    conjunction, split_conjuncts, CollapseProjects, ColumnPruning, CombineFilters, CombineLimits,
    EliminateSubqueryAliases, PushDownLimit, PushDownPredicate,
};
pub use window_rules::NarrowWindowFrames;

use crate::plan::LogicalPlan;
use crate::rules::{
    Batch, ExecutionMonitor, InvariantViolation, Rule, RuleExecutor, RuleHealthReport, TraceEvent,
};
use crate::validation::PlanValidator;

const OPERATOR_OPTIMIZATIONS: &str = "Operator Optimizations";

/// The logical optimizer: one rule list, plus any user-registered
/// extension batches (§4.4) in the middle of it.
pub struct Optimizer {
    executor: RuleExecutor<LogicalPlan>,
    /// How many batches the reference runs: `Finish Analysis`,
    /// `Operator Optimizations` and the user batches.
    reference_batches: usize,
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer::new()
    }
}

impl Optimizer {
    /// The rule list, in the order of the module documentation.
    pub fn new() -> Self {
        let executor = RuleExecutor::new(vec![
            Batch::once("Finish Analysis", vec![Box::new(EliminateSubqueryAliases)]),
            Batch::fixed_point(
                OPERATOR_OPTIMIZATIONS,
                vec![
                    Box::new(ConstantFolding),
                    Box::new(NullPropagation),
                    Box::new(BooleanSimplification),
                    Box::new(SimplifyLike),
                    Box::new(CombineFilters),
                    Box::new(PushDownPredicate),
                    Box::new(CollapseProjects),
                    Box::new(ColumnPruning),
                    Box::new(CombineLimits),
                    Box::new(PushDownLimit),
                    Box::new(DecimalAggregates),
                    Box::new(NarrowWindowFrames),
                ],
            ),
            Batch::fixed_point(
                "Constraint Optimizations",
                vec![
                    Box::new(SimplifyDomainComparisons),
                    Box::new(InferIsNotNullFilters),
                    Box::new(PruneConstrainedFilters),
                    Box::new(PropagateEmptyRelations),
                ],
            ),
            Batch::rerun(OPERATOR_OPTIMIZATIONS),
            Batch::once(
                "Statistics",
                vec![Box::new(AggregateFromStats), Box::new(ReorderJoins)],
            ),
            Batch::rerun(OPERATOR_OPTIMIZATIONS),
            Batch::once(
                "Subexpression Elimination",
                vec![Box::new(CommonSubexprElimination)],
            ),
        ]);
        Optimizer {
            executor,
            reference_batches: 2,
        }
    }

    /// Add a user batch (extension point). It runs after the earlier user
    /// batches, in the reference too.
    pub fn add_batch(&mut self, batch: Batch<LogicalPlan>) {
        self.executor.insert_batch(self.reference_batches, batch);
        self.reference_batches += 1;
    }

    /// Every rule in the list, in order, user batches included. A batch
    /// that reruns another holds no rules, so each rule appears once.
    pub fn rules(&self) -> impl Iterator<Item = &dyn Rule<LogicalPlan>> + '_ {
        self.executor
            .batches()
            .iter()
            .flat_map(|b| b.rules.iter().map(|r| r.as_ref()))
    }

    /// Optimize a resolved plan: the whole list, or with `reference` the
    /// prefix the reference runs.
    ///
    /// When plan validation is enabled ([`crate::validation::enabled`] —
    /// default in debug builds, `CATALYST_VALIDATE=1` in release), every
    /// rewrite is checked as a post-condition and the process panics with
    /// a full report (batch, rule, iteration, invariant, plan diff) if
    /// any rule breaks a plan invariant. Use [`Optimizer::optimize_monitored`]
    /// for a non-panicking variant that returns the violations.
    pub fn optimize(&self, plan: LogicalPlan, reference: bool) -> LogicalPlan {
        let validator = PlanValidator::new();
        let monitor = if crate::validation::enabled() {
            ExecutionMonitor::with_validator(&validator)
        } else {
            ExecutionMonitor::silent()
        };
        let out = self.optimize_monitored(plan, reference, monitor);
        if !out.violations.is_empty() {
            let mut report = String::from("optimizer rule broke a plan invariant:\n");
            for v in &out.violations {
                report.push_str(&v.to_string());
                report.push('\n');
            }
            panic!("{report}");
        }
        out.plan
    }

    /// Optimize under `monitor`, which decides what is recorded: nothing
    /// ([`ExecutionMonitor::silent`]), per-rule health and the trace
    /// ([`ExecutionMonitor::new`]), or all that plus invariant validation
    /// with rollback ([`ExecutionMonitor::with_validator`]). A rewrite
    /// that violates an invariant is discarded (the plan keeps its
    /// pre-rule shape) and reported in [`OptimizeOutcome::violations`];
    /// this never panics.
    pub fn optimize_monitored(
        &self,
        plan: LogicalPlan,
        reference: bool,
        mut monitor: ExecutionMonitor<'_, LogicalPlan>,
    ) -> OptimizeOutcome {
        let batches = if reference {
            self.reference_batches
        } else {
            self.executor.batches().len()
        };
        let plan = self.executor.execute_monitored(batches, plan, &mut monitor);
        OptimizeOutcome {
            plan,
            trace: monitor.trace,
            health: monitor.health,
            violations: monitor.violations,
        }
    }
}

/// Everything one monitored optimizer run produces.
pub struct OptimizeOutcome {
    /// The optimized plan (violating rewrites rolled back).
    pub plan: LogicalPlan,
    /// Plan-change log: every fired rule with its before/after diff, plus
    /// non-convergence markers.
    pub trace: Vec<TraceEvent>,
    /// Per-rule fire counts, effectiveness, idempotence probes, and
    /// non-converged batches.
    pub health: RuleHealthReport,
    /// Rewrites rejected by the validator, with full context.
    pub violations: Vec<InvariantViolation>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Analyzer, FunctionRegistry, SimpleCatalog};
    use crate::expr::builders::{col, lit, sum};
    use crate::expr::{ColumnRef, Expr, ScalarFunc};
    use crate::plan::JoinType;
    use crate::row::Row;
    use crate::tree::{Transformed, TreeNode};
    use crate::types::DataType;
    use crate::value::Value;
    use std::sync::Arc;

    fn table(cols: &[(&str, DataType)]) -> LogicalPlan {
        LogicalPlan::LocalRelation {
            output: cols
                .iter()
                .map(|(n, t)| ColumnRef::new(*n, t.clone(), false))
                .collect(),
            rows: Arc::new(vec![Row::new(vec![])]),
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
    fn constant_folding_folds_arithmetic() {
        let t = table(&[("x", DataType::Long)]);
        let plan = analyze(
            LogicalPlan::UnresolvedRelation { name: "t".into() }
                .project(vec![col("x").add(lit(1i64).add(lit(2i64))).alias("y")]),
            vec![("t", t)],
        );
        let opt = Optimizer::new().optimize(plan, true);
        let mut saw_three = false;
        opt.for_each(&mut |p| {
            for e in p.expressions() {
                e.for_each_node(&mut |e| {
                    if matches!(e, Expr::Literal(Value::Long(3))) {
                        saw_three = true;
                    }
                });
            }
        });
        assert!(saw_three, "{opt}");
    }

    /// `t(x)` with two rows, so the constraint rules see a real domain.
    fn table_with_rows() -> LogicalPlan {
        LogicalPlan::LocalRelation {
            output: vec![ColumnRef::new("x", DataType::Long, false)],
            rows: Arc::new(vec![
                Row::new(vec![Value::Long(1)]),
                Row::new(vec![Value::Long(9)]),
            ]),
        }
    }

    #[test]
    fn filter_true_is_removed_filter_false_becomes_empty() {
        // The operator batch folds each predicate to a literal, which the
        // reference evaluates row by row; production then drops the
        // `true` filter and empties the plan under the `false` one.
        let predicates = |p: &LogicalPlan| {
            let mut out = Vec::new();
            p.for_each(&mut |p| {
                if let LogicalPlan::Filter { predicate, .. } = p {
                    out.push(predicate.clone());
                }
            });
            out
        };
        let empty = |p: &LogicalPlan| {
            count_nodes(
                p,
                |p| matches!(p, LogicalPlan::LocalRelation { rows, .. } if rows.is_empty()),
            )
        };
        for (predicate, folded) in [
            (lit(1i64).lt(lit(2i64)), true),
            (lit(1i64).gt(lit(2i64)), false),
        ] {
            let plan = analyze(
                LogicalPlan::UnresolvedRelation { name: "t".into() }.filter(predicate),
                vec![("t", table_with_rows())],
            );
            let opt = Optimizer::new().optimize(plan.clone(), true);
            assert_eq!(predicates(&opt), vec![lit(folded)], "{opt}");
            let opt = Optimizer::new().optimize(plan, false);
            assert!(predicates(&opt).is_empty(), "{opt}");
            assert_eq!(empty(&opt), usize::from(!folded), "{opt}");
        }
    }

    #[test]
    fn like_prefix_becomes_starts_with() {
        let t = table(&[("s", DataType::String)]);
        let plan = analyze(
            LogicalPlan::UnresolvedRelation { name: "t".into() }.filter(col("s").like(lit("abc%"))),
            vec![("t", t)],
        );
        let opt = Optimizer::new().optimize(plan, true);
        let mut saw = false;
        opt.for_each(&mut |p| {
            for e in p.expressions() {
                e.for_each_node(&mut |e| {
                    if matches!(
                        e,
                        Expr::ScalarFn {
                            func: ScalarFunc::StartsWith,
                            ..
                        }
                    ) {
                        saw = true;
                    }
                });
            }
        });
        assert!(saw, "{opt}");
    }

    #[test]
    fn like_infix_becomes_contains_and_exact_becomes_eq() {
        let t = table(&[("s", DataType::String)]);
        let plan = analyze(
            LogicalPlan::UnresolvedRelation { name: "t".into() }
                .filter(col("s").like(lit("%mid%")).and(col("s").like(lit("exact")))),
            vec![("t", t)],
        );
        let opt = Optimizer::new().optimize(plan, true);
        let (mut contains, mut eq) = (false, false);
        opt.for_each(&mut |p| {
            for e in p.expressions() {
                e.for_each_node(&mut |e| match e {
                    Expr::ScalarFn {
                        func: ScalarFunc::Contains,
                        ..
                    } => contains = true,
                    Expr::BinaryOp {
                        op: crate::expr::BinaryOperator::Eq,
                        ..
                    } => eq = true,
                    _ => {}
                });
            }
        });
        assert!(contains && eq, "{opt}");
    }

    fn depth_of(p: &LogicalPlan, f: &dyn Fn(&LogicalPlan) -> bool, d: usize) -> Option<usize> {
        if f(p) {
            return Some(d);
        }
        for c in p.children() {
            if let Some(found) = depth_of(&c, f, d + 1) {
                return Some(found);
            }
        }
        None
    }

    #[test]
    fn predicate_pushes_through_projection() {
        let t = table(&[("x", DataType::Long), ("y", DataType::Long)]);
        let plan = analyze(
            LogicalPlan::UnresolvedRelation { name: "t".into() }
                .project(vec![col("x"), col("y")])
                .filter(col("x").gt(lit(5i64))),
            vec![("t", t)],
        );
        let opt = Optimizer::new().optimize(plan, true);
        let proj_depth = depth_of(&opt, &|p| matches!(p, LogicalPlan::Project { .. }), 0);
        let filter_depth = depth_of(&opt, &|p| matches!(p, LogicalPlan::Filter { .. }), 0);
        match (proj_depth, filter_depth) {
            (Some(pd), Some(fd)) => {
                assert!(
                    fd > pd,
                    "filter ({fd}) should be below project ({pd}) in\n{opt}"
                )
            }
            _ => panic!("missing nodes in\n{opt}"),
        }
    }

    #[test]
    fn predicate_splits_across_join() {
        let l = table(&[("a", DataType::Long)]);
        let r = table(&[("b", DataType::Long)]);
        let join = LogicalPlan::UnresolvedRelation { name: "l".into() }.join(
            LogicalPlan::UnresolvedRelation { name: "r".into() },
            JoinType::Inner,
            Some(col("a").eq(col("b"))),
        );
        let plan = analyze(
            join.filter(col("a").gt(lit(1i64)).and(col("b").lt(lit(10i64)))),
            vec![("l", l), ("r", r)],
        );
        let opt = Optimizer::new().optimize(plan, true);
        fn top_filter(p: &LogicalPlan) -> bool {
            match p {
                LogicalPlan::Filter { input, .. } => matches!(&**input, LogicalPlan::Join { .. }),
                _ => false,
            }
        }
        assert_eq!(count_nodes(&opt, top_filter), 0, "{opt}");
        assert_eq!(
            count_nodes(&opt, |p| matches!(p, LogicalPlan::Filter { .. })),
            2,
            "{opt}"
        );
    }

    #[test]
    fn column_pruning_narrows_join_inputs() {
        let l = table(&[("a", DataType::Long), ("unused1", DataType::String)]);
        let r = table(&[("b", DataType::Long), ("unused2", DataType::String)]);
        let plan = analyze(
            LogicalPlan::UnresolvedRelation { name: "l".into() }
                .join(
                    LogicalPlan::UnresolvedRelation { name: "r".into() },
                    JoinType::Inner,
                    Some(col("a").eq(col("b"))),
                )
                .project(vec![col("a")]),
            vec![("l", l), ("r", r)],
        );
        let opt = Optimizer::new().optimize(plan, true);
        let mut join_input_widths = vec![];
        opt.for_each(&mut |p| {
            if let LogicalPlan::Join { left, right, .. } = p {
                join_input_widths.push((left.output().len(), right.output().len()));
            }
        });
        assert_eq!(join_input_widths, vec![(1, 1)], "{opt}");
    }

    #[test]
    fn column_pruning_narrows_window_input() {
        use crate::expr::{ColumnRef, SortOrder, WindowFrame, WindowFunc};
        use crate::rules::Rule;
        let cols: Vec<ColumnRef> = ["part", "ord", "arg", "shown", "unused1", "unused2"]
            .iter()
            .map(|n| ColumnRef::new(*n, DataType::Long, false))
            .collect();
        let c = |i: usize| Expr::Column(cols[i].clone());
        let order_by = vec![SortOrder {
            expr: c(1),
            ascending: true,
        }];
        let w = Expr::WindowFunction {
            func: WindowFunc::Agg(crate::expr::AggFunc::Sum),
            args: vec![c(2)],
            partition_by: vec![c(0)],
            order_by: order_by.clone(),
            frame: WindowFrame::default_for(true),
        }
        .alias("w");
        let w_attr = Expr::Column(w.to_attribute().unwrap());
        let base = LogicalPlan::LocalRelation {
            output: cols.clone(),
            rows: Arc::new(vec![]),
        };
        let plan = base
            .window(vec![w], vec![c(0)], order_by)
            .project(vec![c(3), w_attr]);
        let before = plan.output();

        let out = ColumnPruning.apply(plan);
        assert!(out.changed);
        assert_eq!(out.data.output(), before, "{}", out.data);
        let mut window_input = vec![];
        out.data.for_each(&mut |p| {
            if let LogicalPlan::Window { input, .. } = p {
                window_input = input.output().iter().map(|c| c.name.to_string()).collect();
            }
        });
        // Partition, order, argument, and what the projection shows.
        assert_eq!(
            window_input,
            ["part", "ord", "arg", "shown"],
            "{}",
            out.data
        );
        // Nothing left to prune the second time.
        assert!(!ColumnPruning.apply(out.data).changed);
    }

    #[test]
    fn decimal_aggregates_rewrites_small_precision_sums() {
        let t = table(&[("d", DataType::Decimal(6, 2))]);
        let plan = analyze(
            LogicalPlan::UnresolvedRelation { name: "t".into() }
                .aggregate(vec![], vec![sum(col("d")).alias("s")]),
            vec![("t", t)],
        );
        let opt = Optimizer::new().optimize(plan, true);
        let mut saw_make_decimal = false;
        let mut saw_unscaled = false;
        opt.for_each(&mut |p| {
            for e in p.expressions() {
                e.for_each_node(&mut |e| match e {
                    Expr::MakeDecimal {
                        precision: 16,
                        scale: 2,
                        ..
                    } => saw_make_decimal = true,
                    Expr::UnscaledValue(_) => saw_unscaled = true,
                    _ => {}
                });
            }
        });
        assert!(saw_make_decimal && saw_unscaled, "{opt}");
    }

    #[test]
    fn decimal_aggregates_skips_large_precision() {
        let t = table(&[("d", DataType::Decimal(12, 2))]);
        let plan = analyze(
            LogicalPlan::UnresolvedRelation { name: "t".into() }
                .aggregate(vec![], vec![sum(col("d")).alias("s")]),
            vec![("t", t)],
        );
        let opt = Optimizer::new().optimize(plan, true);
        let mut saw_make_decimal = false;
        opt.for_each(&mut |p| {
            for e in p.expressions() {
                e.for_each_node(&mut |e| {
                    if matches!(e, Expr::MakeDecimal { .. }) {
                        saw_make_decimal = true;
                    }
                });
            }
        });
        assert!(!saw_make_decimal, "{opt}");
    }

    #[test]
    fn limits_combine_and_push_through_projects() {
        let t = table(&[("x", DataType::Long)]);
        let plan = analyze(
            LogicalPlan::UnresolvedRelation { name: "t".into() }
                .limit(100)
                .project(vec![col("x")])
                .limit(10),
            vec![("t", t)],
        );
        let opt = Optimizer::new().optimize(plan, true);
        let mut limits = vec![];
        opt.for_each(&mut |p| {
            if let LogicalPlan::Limit { n, .. } = p {
                limits.push(*n);
            }
        });
        assert_eq!(limits, vec![10], "{opt}");
    }

    #[test]
    fn user_batches_extend_the_optimizer() {
        use crate::rules::{Batch, FnRule};
        let t = table(&[("x", DataType::Long)]);
        let plan = analyze(
            LogicalPlan::UnresolvedRelation { name: "t".into() }.limit(7),
            vec![("t", t)],
        );
        let mut opt = Optimizer::new();
        opt.add_batch(Batch::once(
            "user",
            vec![Box::new(FnRule::new("DoubleLimit", |p: LogicalPlan| {
                p.transform_up(&mut |p| match p {
                    LogicalPlan::Limit { input, n } => {
                        Transformed::yes(LogicalPlan::Limit { input, n: n * 2 })
                    }
                    other => Transformed::no(other),
                })
            }))],
        ));
        let out = opt.optimize(plan, true);
        let mut limits = vec![];
        out.for_each(&mut |p| {
            if let LogicalPlan::Limit { n, .. } = p {
                limits.push(*n);
            }
        });
        assert_eq!(limits, vec![14]);
    }

    #[test]
    fn trace_reports_fired_rules() {
        let plan = analyze(
            LogicalPlan::UnresolvedRelation { name: "t".into() }.filter(lit(1i64).lt(lit(2i64))),
            vec![("t", table_with_rows())],
        );
        let out = Optimizer::new().optimize_monitored(plan, false, ExecutionMonitor::new());
        assert!(out.trace.iter().any(|e| e.rule == "ConstantFolding"));
        assert!(out
            .trace
            .iter()
            .any(|e| e.rule == "PruneConstrainedFilters"));
    }

    #[test]
    fn one_list_of_twenty_rules_each_in_one_slot() {
        let opt = Optimizer::new();
        let mut names: Vec<&str> = opt.rules().map(|r| r.name()).collect();
        assert_eq!(names.len(), 20, "{names:?}");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20, "a rule sits in two batches");
    }

    #[test]
    fn the_reference_runs_a_prefix_that_ends_with_the_user_batches() {
        use crate::rules::FnRule;
        let plan = analyze(
            LogicalPlan::UnresolvedRelation { name: "t".into() }.filter(col("x").gt(lit(5i64))),
            vec![("t", table_with_rows())],
        );
        let mut opt = Optimizer::new();
        opt.add_batch(Batch::once(
            "user",
            vec![Box::new(FnRule::new("Noop", Transformed::no))],
        ));
        let batches = |reference: bool| {
            let out = opt.optimize_monitored(plan.clone(), reference, ExecutionMonitor::new());
            let mut names: Vec<String> = out.health.rules.iter().map(|h| h.batch.clone()).collect();
            names.dedup();
            names
        };
        assert_eq!(
            batches(true),
            ["Finish Analysis", "Operator Optimizations", "user"]
        );
        assert_eq!(
            batches(false),
            [
                "Finish Analysis",
                "Operator Optimizations",
                "user",
                "Constraint Optimizations",
                "Statistics",
                "Subexpression Elimination",
            ]
        );
    }
}
