//! Property tests for the plan-integrity checker: every rule the logical
//! optimizer registers, applied to randomly generated analyzed plans,
//! must preserve the output schema and keep the plan fully resolved — the
//! §4.3 contract that makes rule composition safe.
//!
//! Deterministic seeded sweeps in the style of `value_props.rs` (the
//! build environment vendors only a minimal rand shim).

use catalyst::analysis::{Analyzer, FunctionRegistry, SimpleCatalog};
use catalyst::expr::builders::{col, count, lit, max, min, sum};
use catalyst::expr::{ColumnRef, Expr};
use catalyst::optimizer::Optimizer;
use catalyst::plan::{JoinType, LogicalPlan};
use catalyst::row::Row;
use catalyst::rules::ExecutionMonitor;
use catalyst::types::DataType;
use catalyst::validation::PlanValidator;
use catalyst::value::Value;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// A visible column while generating: name plus enough type info to
/// build well-typed expressions over it.
#[derive(Clone)]
struct GenCol {
    name: String,
    dtype: DataType,
}

fn arb_dtype(rng: &mut StdRng) -> DataType {
    match rng.random_range(0u32..5) {
        0 => DataType::Long,
        1 => DataType::Int,
        2 => DataType::Double,
        3 => DataType::String,
        _ => DataType::Boolean,
    }
}

/// A value of `dtype`, or NULL when the column allows it.
fn arb_value(rng: &mut StdRng, dtype: &DataType, nullable: bool) -> Value {
    if nullable && rng.random_bool(0.2) {
        return Value::Null;
    }
    let n = rng.random_range(0i64..100);
    match dtype {
        DataType::Long => Value::Long(n),
        DataType::Int => Value::Int(n as i32),
        DataType::Double => Value::Double(n as f64 / 4.0),
        DataType::String => Value::str(["ab", "abc", "xyz", ""][n as usize % 4]),
        _ => Value::Boolean(n % 2 == 0),
    }
}

/// 0..=5 rows that match `output`: typed values, NULLs only where the
/// column is nullable. The constraint rules read them as value domains.
fn arb_rows(rng: &mut StdRng, output: &[ColumnRef]) -> Arc<Vec<Row>> {
    let rows = (0..rng.random_range(0usize..6))
        .map(|_| {
            Row::new(
                output
                    .iter()
                    .map(|c| arb_value(rng, &c.dtype, c.nullable))
                    .collect(),
            )
        })
        .collect();
    Arc::new(rows)
}

/// A base table: a guaranteed Long key column (so joins always have a
/// usable equi-key) plus 1..4 random columns.
fn arb_table(rng: &mut StdRng, prefix: &str) -> (Vec<GenCol>, LogicalPlan) {
    let mut cols = vec![GenCol {
        name: format!("{prefix}_k"),
        dtype: DataType::Long,
    }];
    for i in 0..rng.random_range(1usize..4) {
        cols.push(GenCol {
            name: format!("{prefix}_c{i}"),
            dtype: arb_dtype(rng),
        });
    }
    let output: Vec<ColumnRef> = cols
        .iter()
        .map(|c| ColumnRef::new(c.name.as_str(), c.dtype.clone(), rng.random_bool(0.5)))
        .collect();
    let rows = arb_rows(rng, &output);
    (cols, LogicalPlan::LocalRelation { output, rows })
}

/// A well-typed boolean predicate over one of the visible columns.
fn arb_predicate(rng: &mut StdRng, cols: &[GenCol]) -> Expr {
    let c = &cols[rng.random_range(0..cols.len() as u32) as usize];
    let base = match &c.dtype {
        DataType::Long => col(&c.name).gt(lit(rng.random_range(0i64..100))),
        DataType::Int => col(&c.name).lt_eq(lit(rng.random_range(0i64..100) as i32)),
        DataType::Double => col(&c.name).lt(lit(rng.random_range(0i64..100) as f64)),
        DataType::String => {
            if rng.random_bool(0.5) {
                col(&c.name).like(lit("ab%"))
            } else {
                col(&c.name).eq(lit("abc"))
            }
        }
        _ => col(&c.name).is_not_null(),
    };
    match rng.random_range(0u32..4) {
        0 => base.and(lit(true)),
        1 => base.or(lit(1i64).gt(lit(2i64))),
        2 => base.not().not(),
        _ => base,
    }
}

/// Grow a random operator chain over `input`, keeping the visible-column
/// list in sync so every generated expression resolves.
fn grow(rng: &mut StdRng, mut plan: LogicalPlan, mut cols: Vec<GenCol>) -> LogicalPlan {
    let mut computed = 0usize;
    for _ in 0..rng.random_range(1u32..5) {
        match rng.random_range(0u32..8) {
            0 => plan = plan.filter(arb_predicate(rng, &cols)),
            1 => {
                // Random nonempty column subset, sometimes plus a
                // computed alias over a Long column.
                let keep: Vec<usize> = (0..cols.len()).filter(|_| rng.random_bool(0.6)).collect();
                let keep = if keep.is_empty() { vec![0] } else { keep };
                let mut exprs: Vec<Expr> = keep.iter().map(|&i| col(&cols[i].name)).collect();
                let mut new_cols: Vec<GenCol> = keep.iter().map(|&i| cols[i].clone()).collect();
                if let Some(l) = cols.iter().find(|c| c.dtype == DataType::Long) {
                    if rng.random_bool(0.5) {
                        let name = format!("e{computed}");
                        computed += 1;
                        exprs.push(
                            col(&l.name)
                                .add(lit(rng.random_range(1i64..10)))
                                .alias(name.as_str()),
                        );
                        new_cols.push(GenCol {
                            name,
                            dtype: DataType::Long,
                        });
                    }
                }
                plan = plan.project(exprs);
                cols = new_cols;
            }
            2 => {
                // Aggregate: group by one column, aggregate the rest.
                let g = cols[rng.random_range(0..cols.len() as u32) as usize].clone();
                let mut aggs = vec![col(&g.name)];
                let mut new_cols = vec![g.clone()];
                for (i, c) in cols.iter().enumerate().take(2) {
                    if c.name == g.name {
                        continue;
                    }
                    let name = format!("a{i}");
                    let agg = match &c.dtype {
                        DataType::Long | DataType::Int | DataType::Double => {
                            match rng.random_range(0u32..3) {
                                0 => sum(col(&c.name)),
                                1 => min(col(&c.name)),
                                _ => max(col(&c.name)),
                            }
                        }
                        _ => count(col(&c.name)),
                    };
                    aggs.push(agg.alias(name.as_str()));
                    // Aggregate result types are rule-irrelevant here;
                    // mark them String-typed-unknown by never reusing
                    // them in later typed expressions.
                    new_cols.push(GenCol {
                        name,
                        dtype: DataType::Null,
                    });
                }
                plan = plan.aggregate(vec![col(&g.name)], aggs);
                cols = new_cols;
            }
            3 => plan = plan.limit(rng.random_range(1u32..50) as usize),
            4 => plan = plan.distinct(),
            5 => {
                let c = &cols[rng.random_range(0..cols.len() as u32) as usize];
                let order = if rng.random_bool(0.5) {
                    col(&c.name).asc()
                } else {
                    col(&c.name).desc()
                };
                plan = plan.sort(vec![order]);
            }
            6 => {
                let c = &cols[rng.random_range(0..cols.len() as u32) as usize];
                plan = plan.filter(col(&c.name).is_not_null());
            }
            _ => plan = plan.subquery_alias(format!("sq{computed}")),
        }
        // After an aggregate the tracked types for agg outputs are
        // approximate; drop them from the typed-expression pool.
        cols.retain(|c| c.dtype != DataType::Null);
        if cols.is_empty() {
            break;
        }
    }
    plan
}

/// Generate one random analyzed plan: a single-table chain, a two-table
/// equi-join, or a union of two same-shape tables.
fn arb_analyzed_plan(rng: &mut StdRng) -> LogicalPlan {
    let catalog = Arc::new(SimpleCatalog::default());
    let (plan, cols) = match rng.random_range(0u32..4) {
        // Join of two tables on their Long key columns.
        0 => {
            let (lcols, lt) = arb_table(rng, "l");
            let (rcols, rt) = arb_table(rng, "r");
            catalog.register("l", lt);
            catalog.register("r", rt);
            let join = LogicalPlan::UnresolvedRelation { name: "l".into() }.join(
                LogicalPlan::UnresolvedRelation { name: "r".into() },
                if rng.random_bool(0.7) {
                    JoinType::Inner
                } else {
                    JoinType::Left
                },
                Some(col("l_k").eq(col("r_k"))),
            );
            let mut cols = lcols;
            cols.extend(rcols);
            (join, cols)
        }
        // Union of two tables with identical shapes.
        1 => {
            let (cols, t1) = arb_table(rng, "u");
            let output: Vec<ColumnRef> = cols
                .iter()
                .map(|c| ColumnRef::new(format!("v_{}", c.name), c.dtype.clone(), true))
                .collect();
            let rows = arb_rows(rng, &output);
            let t2 = LogicalPlan::LocalRelation { output, rows };
            catalog.register("u1", t1);
            catalog.register("u2", t2);
            let union = LogicalPlan::UnresolvedRelation { name: "u1".into() }
                .union(vec![LogicalPlan::UnresolvedRelation { name: "u2".into() }]);
            (union, cols)
        }
        // Single-table chain.
        _ => {
            let (cols, t) = arb_table(rng, "t");
            catalog.register("t", t);
            (LogicalPlan::UnresolvedRelation { name: "t".into() }, cols)
        }
    };
    let plan = grow(rng, plan, cols);
    Analyzer::new(catalog, Arc::new(FunctionRegistry::default()))
        .analyze(plan)
        .expect("generated plan failed analysis")
}

/// Generated plans are themselves valid: analysis output passes every
/// logical invariant (the generator is sound, so failures below mean a
/// rule is at fault, not the input).
#[test]
fn generated_analyzed_plans_pass_all_invariants() {
    let validator = PlanValidator::new();
    let mut rng = StdRng::seed_from_u64(0x5EED_CA70);
    for i in 0..256 {
        let plan = arb_analyzed_plan(&mut rng);
        let violations = validator.check_logical(&plan);
        assert!(
            violations.is_empty(),
            "iteration {i}: {violations:?}\n{plan}"
        );
    }
}

/// Every rule the optimizer registers, applied on its own, preserves the
/// output schema (names, types, attribute ids) and keeps the plan
/// resolved.
#[test]
fn every_rule_preserves_schema_and_resolution() {
    let validator = PlanValidator::new();
    let optimizer = Optimizer::new();
    let rules: Vec<_> = optimizer.rules().collect();
    let mut rng = StdRng::seed_from_u64(0x5EED_CA71);
    let mut rewrites = vec![0usize; rules.len()];
    for i in 0..256 {
        let before = arb_analyzed_plan(&mut rng);
        for (rule, n) in rules.iter().zip(&mut rewrites) {
            let out = rule.apply(before.clone());
            if !out.changed {
                continue;
            }
            *n += 1;
            let after = out.data;
            let violations = validator.check_rewrite(&before, &after);
            assert!(
                violations.is_empty(),
                "iteration {i}, rule {}: {violations:?}\nbefore:\n{before}\nafter:\n{after}",
                rule.name(),
            );
            assert!(
                after.is_resolved(),
                "iteration {i}, rule {} unresolved:\n{after}",
                rule.name()
            );
        }
    }
    for (rule, n) in rules.iter().zip(&rewrites) {
        eprintln!("{:<28} {n:>4}", rule.name());
    }
    // The sweep is only meaningful if rules actually rewrote plans.
    let total: usize = rewrites.iter().sum();
    assert!(
        total > 100,
        "sweep barely exercised the rules: {total} rewrites"
    );
    // The generated rows give the constraint rules domains to read.
    for (rule, n) in rules.iter().zip(&rewrites) {
        if [
            "SimplifyDomainComparisons",
            "InferIsNotNullFilters",
            "PruneConstrainedFilters",
            "PropagateEmptyRelations",
        ]
        .contains(&rule.name())
        {
            assert!(*n >= 10, "{} rewrote only {n} plans", rule.name());
        }
    }
}

/// The whole rule list production runs, monitored end to end: zero
/// invariant violations, no non-converged batches, and the final plan
/// exposes the exact schema the analyzed plan promised.
#[test]
fn full_pipeline_is_violation_free_on_random_plans() {
    let optimizer = Optimizer::new();
    let validator = PlanValidator::new();
    let mut rng = StdRng::seed_from_u64(0x5EED_CA72);
    let mut total_fires = 0usize;
    for i in 0..256 {
        let analyzed = arb_analyzed_plan(&mut rng);
        let schema = analyzed.output();
        let out = optimizer.optimize_monitored(
            analyzed,
            false,
            ExecutionMonitor::with_validator(&validator),
        );
        assert!(
            out.violations.is_empty(),
            "iteration {i}: {:?}\n{}",
            out.violations,
            out.plan
        );
        assert!(
            out.health.non_converged.is_empty(),
            "iteration {i}: {:?}",
            out.health.non_converged
        );
        let final_schema = out.plan.output();
        assert_eq!(
            final_schema.len(),
            schema.len(),
            "iteration {i}:\n{}",
            out.plan
        );
        for (b, a) in schema.iter().zip(&final_schema) {
            assert_eq!(b.id, a.id, "iteration {i}:\n{}", out.plan);
            assert_eq!(b.name, a.name, "iteration {i}:\n{}", out.plan);
            assert_eq!(b.dtype, a.dtype, "iteration {i}:\n{}", out.plan);
        }
        let end_violations = validator.check_logical(&out.plan);
        assert!(
            end_violations.is_empty(),
            "iteration {i}: {end_violations:?}\n{}",
            out.plan
        );
        total_fires += out.health.rules.iter().map(|h| h.fires).sum::<usize>();
    }
    assert!(
        total_fires > 256,
        "optimizer barely fired on the sweep: {total_fires}"
    );
}
