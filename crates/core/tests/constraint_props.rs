//! Differential property tests for the constraint-based optimizer rules:
//! randomly generated plans — filters with occasional deliberate
//! contradictions, lossless-cast comparisons, joins, aggregates, sorts —
//! executed in production, which runs the constraint batch, must produce
//! results byte-identical to the reference, which does not — unbounded
//! and under a memory budget.
//!
//! Same deterministic seeded-sweep style as `spill_props.rs` (the build
//! vendors only a minimal rand shim). Meaningfulness floors, read from
//! the production handle's rule health, prove the constraint rules
//! actually rewrote plans — including pruning whole subtrees to an empty
//! relation — instead of vacuously comparing identical plans.

use catalyst::plan::LogicalPlan;
use catalyst::rules::RuleHealthReport;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spark_sql::prelude::*;
use std::sync::Arc;

const ITERS: u64 = 64;

fn fact_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("k", DataType::Long, true),
        StructField::new("i", DataType::Int, true),
        StructField::new("v", DataType::Long, true),
        StructField::new("s", DataType::String, true),
    ]))
}

fn dim_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("dk", DataType::Long, true),
        StructField::new("w", DataType::String, true),
    ]))
}

const STR_POOL: &[&str] = &["alpha", "beta", "", "gamma", "δέλτα"];

/// Fact rows with NULLs in every column so IS NOT NULL inference and the
/// null-extension rules have something to bite on; `i` is an Int column
/// so cast comparisons against Long literals exercise domain propagation
/// through lossless casts.
fn arb_fact_rows(rng: &mut StdRng) -> Vec<Row> {
    let n = rng.random_range(50usize..400);
    (0..n)
        .map(|idx| {
            let k = if rng.random_bool(0.15) {
                Value::Null
            } else {
                Value::Long(rng.random_range(0i64..24))
            };
            let i = if rng.random_bool(0.1) {
                Value::Null
            } else {
                Value::Int(rng.random_range(0i64..40) as i32)
            };
            let s = if rng.random_bool(0.1) {
                Value::Null
            } else {
                Value::str(STR_POOL[rng.random_range(0..STR_POOL.len())])
            };
            Row::new(vec![k, i, Value::Long(idx as i64), s])
        })
        .collect()
}

fn arb_dim_rows(rng: &mut StdRng) -> Vec<Row> {
    let m = rng.random_range(1usize..32);
    (0..m)
        .map(|_| {
            let dk = if rng.random_bool(0.15) {
                Value::Null
            } else {
                Value::Long(rng.random_range(0i64..24))
            };
            Row::new(vec![
                dk,
                Value::str(STR_POOL[rng.random_range(0..STR_POOL.len())]),
            ])
        })
        .collect()
}

/// One random filter conjunct. Contradictions arise both naturally (two
/// range conjuncts with an empty intersection) and deliberately (the
/// last arm), and cast comparisons carry domains through lossless casts.
fn arb_conjunct(rng: &mut StdRng) -> Expr {
    match rng.random_range(0u32..8) {
        0 => col("k").gt(lit(rng.random_range(-2i64..16))),
        1 => col("k").lt(lit(rng.random_range(-2i64..16))),
        2 => col("i")
            .cast(DataType::Long)
            .gt_eq(lit(rng.random_range(0i64..30))),
        3 => col("i")
            .cast(DataType::Long)
            .lt(lit(rng.random_range(0i64..30))),
        4 => col("v").is_not_null(),
        5 => col("s").is_null(),
        6 => col("k").eq(lit(rng.random_range(0i64..24))),
        // Deliberate pairwise contradiction: only the conjunction is
        // unsatisfiable, so single-conjunct analysis cannot see it.
        _ => {
            let hi = rng.random_range(8i64..14);
            let lo = rng.random_range(0i64..6);
            col("k").gt(lit(hi)).and(col("k").lt(lit(lo)))
        }
    }
}

struct GenQuery {
    fact_rows: Vec<Row>,
    dim_rows: Vec<Row>,
    conjuncts: Vec<Expr>,
    join: Option<JoinType>,
    aggregate: bool,
    sort: bool,
    budget: u64,
}

fn arb_query(rng: &mut StdRng) -> GenQuery {
    let join = match rng.random_range(0u32..8) {
        0..=2 => None,
        3..=5 => Some(JoinType::Inner),
        6 => Some(JoinType::Left),
        _ => Some(JoinType::Full),
    };
    let conjuncts: Vec<Expr> = (0..rng.random_range(1usize..4))
        .map(|_| arb_conjunct(rng))
        .collect();
    GenQuery {
        fact_rows: arb_fact_rows(rng),
        dim_rows: arb_dim_rows(rng),
        conjuncts,
        join,
        aggregate: rng.random_bool(0.4),
        sort: rng.random_bool(0.4),
        budget: if rng.random_bool(0.3) { 8 << 10 } else { 0 },
    }
}

struct Outcome {
    rows: Vec<String>,
    optimized: LogicalPlan,
    health: RuleHealthReport,
}

/// Execute `q` on a fresh context, in production or in the reference.
fn run(q: &GenQuery, reference: bool) -> Outcome {
    let ctx = SQLContext::new_local(2);
    ctx.set_conf(|c| {
        c.reference = reference;
        c.memory_budget_bytes = q.budget;
        c.shuffle_partitions = 4;
    });
    let fact = ctx
        .create_dataframe(fact_schema(), q.fact_rows.clone())
        .expect("fact");
    let mut df = fact;
    let pred = q
        .conjuncts
        .iter()
        .cloned()
        .reduce(|a, b| a.and(b))
        .expect("at least one conjunct");
    df = df.filter(pred).expect("filter");
    if let Some(jt) = q.join {
        let dim = ctx
            .create_dataframe(dim_schema(), q.dim_rows.clone())
            .expect("dim");
        df = df
            .join(&dim, jt, Some(col("k").eq(col("dk"))))
            .expect("join");
    }
    if q.aggregate {
        df = df
            .group_by(vec![col("k")])
            .agg(vec![
                count_star().alias("n"),
                sum(col("v")).alias("sv"),
                min(col("s")).alias("ms"),
            ])
            .expect("aggregate");
    }
    if q.sort {
        let orders = if q.aggregate {
            vec![col("n").desc(), col("k").asc()]
        } else {
            vec![col("v").asc()]
        };
        df = df.order_by(orders).expect("sort");
    }
    let qe = df.query_execution().expect("query_execution");
    let optimized = qe.optimized().clone();
    let health = qe.rule_health().clone();
    let mut rows: Vec<String> = qe
        .collect()
        .expect("collect")
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    rows.sort();
    Outcome {
        rows,
        optimized,
        health,
    }
}

#[test]
fn constraint_rules_preserve_results_exactly() {
    let mut nonempty = 0u32;
    let mut rewritten = 0u32;
    let mut emptied = 0u32;

    for seed in 0..ITERS {
        let mut rng = StdRng::seed_from_u64(0xC0_5717 ^ seed.wrapping_mul(0x9E37_79B9));
        let q = arb_query(&mut rng);

        let baseline = run(&q, true);
        let constrained = run(&q, false);
        assert_eq!(
            constrained.rows,
            baseline.rows,
            "seed {seed}: constraint rules changed results (join={:?}, agg={}, sort={}, \
             budget={}, pred={:?})",
            q.join,
            q.aggregate,
            q.sort,
            q.budget,
            q.conjuncts
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>(),
        );

        if !baseline.rows.is_empty() {
            nonempty += 1;
        }
        // The floors count what the constraint rules did to the plan
        // production ran.
        let fired = |rule: &str| {
            constrained
                .health
                .health_for("Constraint Optimizations", rule)
                .is_some_and(|h| h.fires > 0)
        };
        if [
            "SimplifyDomainComparisons",
            "InferIsNotNullFilters",
            "PruneConstrainedFilters",
            "PropagateEmptyRelations",
        ]
        .into_iter()
        .any(fired)
        {
            rewritten += 1;
        }
        let base = baseline.optimized.to_string();
        let prod = constrained.optimized.to_string();
        if (fired("PruneConstrainedFilters") || fired("PropagateEmptyRelations"))
            && prod.contains("(0 rows)")
            && !base.contains("(0 rows)")
        {
            emptied += 1;
        }
    }

    eprintln!(
        "constraint sweep: rewritten={rewritten}/{ITERS} emptied={emptied} \
         nonempty={nonempty}"
    );
    // Meaningfulness floors: the sweep must actually trigger the rules —
    // plans rewritten and whole subtrees pruned to an empty relation —
    // not just compare no-ops.
    assert!(
        nonempty > ITERS as u32 / 4,
        "only {nonempty} non-empty results"
    );
    assert!(
        rewritten >= ITERS as u32 / 4,
        "constraint rules rewrote only {rewritten} plans"
    );
    assert!(emptied >= 4, "only {emptied} plans pruned to empty");
}

/// The lint pass must stay silent on idiomatic queries — zero false
/// positives over a corpus of well-formed plans shaped like the ones the
/// end-to-end suites run.
#[test]
fn lint_is_silent_on_clean_queries() {
    let ctx = SQLContext::new_local(2);
    // Most sensitive threshold: even info-level findings count as a
    // false positive on this corpus.
    ctx.set_conf(|c| c.lint_level = "info".into());
    let rows: Vec<Row> = (0..100)
        .map(|idx| {
            Row::new(vec![
                Value::Long(idx % 7),
                Value::Int(idx as i32),
                Value::Long(idx),
                if idx % 9 == 0 {
                    Value::Null
                } else {
                    Value::str(STR_POOL[idx as usize % STR_POOL.len()])
                },
            ])
        })
        .collect();
    ctx.create_dataframe(fact_schema(), rows)
        .expect("fact")
        .register_temp_table("fact");
    let dim_rows: Vec<Row> = (0..7)
        .map(|d| Row::new(vec![Value::Long(d), Value::str(format!("d{d}"))]))
        .collect();
    ctx.create_dataframe(dim_schema(), dim_rows)
        .expect("dim")
        .register_temp_table("dim");

    let corpus = [
        "SELECT k, v FROM fact WHERE v > 10",
        "SELECT k, COUNT(*) AS n, SUM(v) AS sv FROM fact GROUP BY k",
        "SELECT f.k, d.w FROM fact f JOIN dim d ON f.k = d.dk WHERE f.v < 50",
        "SELECT k, v FROM fact WHERE s IS NOT NULL ORDER BY v LIMIT 10",
        "SELECT DISTINCT k FROM fact",
        "SELECT k, CAST(i AS BIGINT) AS wide FROM fact",
        "SELECT k, v / 2 AS half FROM fact WHERE k IS NOT NULL",
        "SELECT MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS mean FROM fact",
    ];
    for sql in corpus {
        let df = ctx.sql(sql).expect(sql);
        let diags = df.lint();
        assert!(
            diags.is_empty(),
            "false positive on `{sql}`: {:?}",
            diags.iter().map(|d| d.render()).collect::<Vec<_>>()
        );
    }
}

/// Acceptance: an always-false predicate is both *reported* (L001 in the
/// `== Lint ==` section) and *acted on* — the optimizer rewrites the
/// subtree to an empty relation, visible in `EXPLAIN ANALYZE`.
#[test]
fn always_false_predicate_prunes_to_empty_relation() {
    let ctx = SQLContext::new_local(2);
    let rows: Vec<Row> = (0..50)
        .map(|idx| {
            Row::new(vec![
                Value::Long(idx % 20),
                Value::Int(0),
                Value::Long(idx),
                Value::str("x"),
            ])
        })
        .collect();
    ctx.create_dataframe(fact_schema(), rows)
        .expect("fact")
        .register_temp_table("fact");

    // k is provably in [0, 19]: `k > 100` can never be true.
    let df = ctx.sql("SELECT k, v FROM fact WHERE k > 100").expect("sql");

    // The optimizer prunes the whole subtree to an empty relation…
    let qe = df.query_execution().expect("qe");
    let optimized = format!("{}", qe.optimized());
    assert!(
        optimized.contains("(0 rows)"),
        "expected empty relation in optimized plan:\n{optimized}"
    );

    // …and explain_analyze shows both the pruned plan and the L001 lint.
    let report = qe.explain_analyze().expect("explain_analyze");
    assert!(
        report.contains("LocalData (0 rows)"),
        "expected pruned physical scan in:\n{report}"
    );
    assert!(
        report.contains("== Lint =="),
        "missing lint section:\n{report}"
    );
    assert!(
        report.contains("warn[L001]"),
        "missing always-false diagnostic:\n{report}"
    );
    assert!(report.contains("output rows: 0"), "{report}");

    // The reference keeps the filter.
    let ctx2 = SQLContext::new_local(2);
    ctx2.set_conf(|c| c.reference = true);
    let rows: Vec<Row> = (0..50)
        .map(|idx| {
            Row::new(vec![
                Value::Long(idx % 20),
                Value::Int(0),
                Value::Long(idx),
                Value::str("x"),
            ])
        })
        .collect();
    ctx2.create_dataframe(fact_schema(), rows)
        .expect("fact")
        .register_temp_table("fact");
    let df2 = ctx2
        .sql("SELECT k, v FROM fact WHERE k > 100")
        .expect("sql");
    let qe2 = df2.query_execution().expect("qe");
    assert!(
        !format!("{}", qe2.optimized()).contains("(0 rows)"),
        "the reference did not keep the filter"
    );
    assert!(qe2.collect().expect("collect").is_empty());
}

/// `EXPLAIN LINT` surfaces diagnostics as a result set with severity,
/// stable code, and node provenance columns.
#[test]
fn explain_lint_statement_returns_diagnostics() {
    let ctx = SQLContext::new_local(2);
    let rows = vec![Row::new(vec![
        Value::Long(1),
        Value::Int(2),
        Value::Long(3),
        Value::str("x"),
    ])];
    ctx.create_dataframe(fact_schema(), rows)
        .expect("fact")
        .register_temp_table("fact");

    let out = ctx
        .sql("EXPLAIN LINT SELECT k AS x, v AS x FROM fact WHERE v = NULL")
        .expect("explain lint")
        .collect()
        .expect("collect");
    let rendered: Vec<String> = out.iter().map(|r| format!("{r:?}")).collect();
    assert!(
        rendered.iter().any(|r| r.contains("L004")),
        "missing NULL-comparison diagnostic: {rendered:?}"
    );
    assert!(
        rendered.iter().any(|r| r.contains("L006")),
        "missing duplicate-projection diagnostic: {rendered:?}"
    );

    // `spark.sql.lint.level = off` silences the pass.
    ctx.set_conf(|c| c.lint_level = "off".into());
    let out = ctx
        .sql("EXPLAIN LINT SELECT k AS x, v AS x FROM fact WHERE v = NULL")
        .expect("explain lint")
        .collect()
        .expect("collect");
    assert!(out.is_empty(), "lint level off must silence: {out:?}");
}
