//! Differential property tests for adaptive query execution: randomly
//! generated join/aggregate plans over skewed key distributions must
//! produce *identical* results in production — stage by stage with
//! runtime re-planning (partition coalescing, dynamic broadcast demotion,
//! skew splitting) over the vectorized path — and in the reference,
//! which plans statically and runs row at a time.
//!
//! Same deterministic seeded-sweep style as `vectorized_diff_props.rs`
//! (the build environment vendors only a minimal rand shim). Each
//! iteration runs the same plan in both configurations and asserts the
//! sorted result multisets match. Meaningfulness floors assert the sweep
//! actually triggers adaptive decisions instead of vacuously comparing
//! static runs.

mod common;

use catalyst::adaptive::AdaptiveRule;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spark_sql::prelude::*;
use std::sync::Arc;

const ITERS: u64 = 100;

fn fact_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("k", DataType::Long, true),
        StructField::new("v", DataType::Long, true),
    ]))
}

fn dim_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("dk", DataType::Long, true),
        StructField::new("w", DataType::String, true),
    ]))
}

/// Skewed fact rows: a hot key draws `hot_frac` of the keys, ~10% of the
/// keys are NULL (exercising the NULL-sentinel path through shuffles and
/// outer joins), the rest are uniform over a small domain.
fn arb_fact_rows(rng: &mut StdRng, hot_frac: f64) -> Vec<Row> {
    let n = rng.random_range(0usize..600);
    (0..n)
        .map(|i| {
            let k = if rng.random_bool(0.1) {
                Value::Null
            } else if rng.random_bool(hot_frac) {
                Value::Long(0)
            } else {
                Value::Long(rng.random_range(0i64..20))
            };
            Row::new(vec![k, Value::Long(i as i64)])
        })
        .collect()
}

const STR_POOL: &[&str] = &["eng", "sales", "hr", "", "ops"];

fn arb_dim_rows(rng: &mut StdRng) -> Vec<Row> {
    let m = rng.random_range(0usize..40);
    (0..m)
        .map(|_| {
            let dk = if rng.random_bool(0.1) {
                Value::Null
            } else {
                Value::Long(rng.random_range(0i64..20))
            };
            Row::new(vec![
                dk,
                Value::str(STR_POOL[rng.random_range(0..STR_POOL.len())]),
            ])
        })
        .collect()
}

struct GenQuery {
    fact_rows: Vec<Row>,
    dim_rows: Vec<Row>,
    join_type: JoinType,
    /// Register the dim over a bare RDD (unknown statistics, so the
    /// static planner cannot broadcast it) instead of a local relation.
    dim_unknown_stats: bool,
    aggregate: bool,
    broadcast_threshold: u64,
    target_partition_bytes: u64,
}

fn arb_query(rng: &mut StdRng) -> GenQuery {
    let join_type = match rng.random_range(0u32..10) {
        0..=3 => JoinType::Inner,
        4 | 5 => JoinType::Left,
        6 | 7 => JoinType::Right,
        _ => JoinType::Full,
    };
    let hot_frac = if rng.random_bool(0.5) { 0.7 } else { 0.2 };
    GenQuery {
        fact_rows: arb_fact_rows(rng, hot_frac),
        dim_rows: arb_dim_rows(rng),
        join_type,
        dim_unknown_stats: rng.random_bool(0.5),
        aggregate: rng.random_bool(0.4),
        // Tiny threshold forces the shuffled path (coalesce/skew
        // territory); the default-sized one lets demotion fire.
        broadcast_threshold: if rng.random_bool(0.5) {
            64
        } else {
            10 * 1024 * 1024
        },
        // Target of 1 B disables coalescing; 1 MiB merges everything.
        target_partition_bytes: if rng.random_bool(0.5) { 1 } else { 1 << 20 },
    }
}

/// Execute in production or in the reference; return the sorted result
/// multiset and the adaptive changes the run recorded.
fn run(
    q: &GenQuery,
    reference: bool,
) -> (Vec<String>, Vec<catalyst::adaptive::AdaptivePlanChange>) {
    let ctx = SQLContext::new_local(2);
    ctx.set_conf(|c| {
        c.reference = reference;
        c.broadcast_threshold = q.broadcast_threshold;
        c.adaptive_target_partition_bytes = q.target_partition_bytes;
    });
    // The fact side always comes from a bare RDD: unknown statistics keep
    // the static planner honest (it must not broadcast it), so shuffled
    // joins actually occur and adaptive execution has decisions to make.
    let fact_rdd = ctx.spark_context().parallelize(q.fact_rows.clone(), 4);
    let fact = ctx
        .dataframe_from_rdd("fact", fact_schema(), fact_rdd)
        .expect("fact");
    let dim = if q.dim_unknown_stats {
        let rdd = ctx.spark_context().parallelize(q.dim_rows.clone(), 2);
        ctx.dataframe_from_rdd("dim", dim_schema(), rdd)
            .expect("dim")
    } else {
        ctx.create_dataframe(dim_schema(), q.dim_rows.clone())
            .expect("dim")
    };
    let mut df = fact
        .join(&dim, q.join_type, Some(col("k").eq(col("dk"))))
        .expect("join");
    if q.aggregate {
        df = df
            .group_by(vec![col("k").rem(lit(4i64)).alias("g")])
            .agg(vec![count_star().alias("n"), sum(col("v")).alias("s")])
            .expect("aggregate");
    }
    let qe = df.query_execution().expect("query_execution");
    let mut out: Vec<String> = common::collect_attributed(&ctx, &qe)
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    out.sort();
    (out, qe.adaptive_changes())
}

#[test]
fn adaptive_and_static_plans_agree_on_random_joins() {
    let mut nonempty = 0u32;
    let mut with_changes = 0u32;
    let mut demotions = 0u32;
    let mut coalesces = 0u32;
    let mut skew_splits = 0u32;
    for seed in 0..ITERS {
        let mut rng = StdRng::seed_from_u64(0xADA9 ^ (seed * 0x9E37_79B9));
        let q = arb_query(&mut rng);
        let (baseline, static_changes) = run(&q, true);
        assert!(
            static_changes.is_empty(),
            "seed {seed}: static run recorded changes"
        );
        let (adaptive_rows, changes) = run(&q, false);
        assert_eq!(
            adaptive_rows, baseline,
            "seed {seed}: adaptive diverged (join={:?}, agg={}, thresh={}, target={})",
            q.join_type, q.aggregate, q.broadcast_threshold, q.target_partition_bytes
        );

        if !baseline.is_empty() {
            nonempty += 1;
        }
        if !changes.is_empty() {
            with_changes += 1;
        }
        for c in &changes {
            match c.rule {
                AdaptiveRule::BroadcastDemotion => demotions += 1,
                AdaptiveRule::CoalescePartitions => coalesces += 1,
                AdaptiveRule::SkewSplit => skew_splits += 1,
            }
        }
    }
    // Meaningfulness floors: the sweep must actually exercise adaptive
    // decisions, not just compare static plans with themselves.
    assert!(
        nonempty > ITERS as u32 / 2,
        "only {nonempty} non-empty results"
    );
    assert!(
        with_changes > ITERS as u32 / 4,
        "only {with_changes} runs recorded adaptive changes"
    );
    assert!(
        demotions > ITERS as u32 / 8,
        "only {demotions} broadcast demotions"
    );
    // Shuffled joins are the only site that coalesces.
    assert!(
        coalesces > ITERS as u32 / 8,
        "only {coalesces} join-site partition coalescings"
    );
    let _ = skew_splits; // covered deterministically below

    // Every adaptive change event renders with its marker string.
    let mut rng = StdRng::seed_from_u64(0xADA9);
    let q = arb_query(&mut rng);
    let (_, changes) = run(&q, false);
    for c in &changes {
        assert!(format!("{c}").starts_with("AdaptivePlanChange["), "{c}");
    }
}

/// A heavily skewed shuffled join must trigger skew splitting (the hot
/// reduce partition splits by map ranges) and still match the static
/// plan's results exactly.
#[test]
fn skewed_join_splits_and_matches_static_results() {
    let fact_rows: Vec<Row> = (0..2000i64)
        .map(|i| {
            // 85% of the rows share one hot key; the rest spread thin.
            let k = if i % 20 < 17 { 3 } else { i % 19 };
            Row::new(vec![Value::Long(k), Value::Long(i)])
        })
        .collect();
    let q = GenQuery {
        fact_rows,
        dim_rows: (0..20)
            .map(|i| Row::new(vec![Value::Long(i), Value::str(format!("d{i}"))]))
            .collect(),
        join_type: JoinType::Inner,
        dim_unknown_stats: true,
        aggregate: false,
        broadcast_threshold: 0,     // never demote: stay on the shuffled path
        target_partition_bytes: 64, // tiny target: the hot partition is "skewed"
    };
    let (baseline, _) = run(&q, true);
    let (got, changes) = run(&q, false);
    assert_eq!(got, baseline, "skew-split results diverged");
    assert!(
        changes.iter().any(|c| c.rule == AdaptiveRule::SkewSplit),
        "no skew split fired: {changes:?}"
    );
}

/// The acceptance scenario: a skewed join whose build side turns out
/// small. `explain_analyze` must show the initial (shuffled) plan, at
/// least one `AdaptivePlanChange`, and a final plan that differs.
#[test]
fn explain_analyze_shows_initial_and_final_plans() {
    let ctx = SQLContext::new_local(2);
    let fact_rows: Vec<Row> = (0..2000)
        .map(|i| {
            let k = if i % 10 < 8 { 0 } else { i % 16 };
            Row::new(vec![Value::Long(k), Value::Long(i)])
        })
        .collect();
    let dim_rows: Vec<Row> = (0..16)
        .map(|i| Row::new(vec![Value::Long(i), Value::str(format!("d{i}"))]))
        .collect();
    // Both sides over bare RDDs: statistics unknown, so the static
    // planner must pick a shuffled hash join.
    let fact_rdd = ctx.spark_context().parallelize(fact_rows, 4);
    let fact = ctx
        .dataframe_from_rdd("fact", fact_schema(), fact_rdd)
        .unwrap();
    let dim_rdd = ctx.spark_context().parallelize(dim_rows, 2);
    let dim = ctx
        .dataframe_from_rdd("dim", dim_schema(), dim_rdd)
        .unwrap();
    let df = fact
        .join(&dim, JoinType::Inner, Some(col("k").eq(col("dk"))))
        .unwrap();

    let qe = df.query_execution().unwrap();
    assert!(format!("{}", qe.physical()).contains("ShuffledHashJoin"));
    let text = qe.explain_analyze().unwrap();
    assert!(text.contains("== Initial Physical Plan =="), "{text}");
    assert!(text.contains("AdaptivePlanChange"), "{text}");
    assert!(text.contains("broadcast-demotion"), "{text}");
    assert!(
        text.contains("== Final Physical Plan (executed) =="),
        "{text}"
    );
    let initial = text.split("== Adaptive Plan Changes ==").next().unwrap();
    let fin = text
        .split("== Final Physical Plan (executed) ==")
        .nth(1)
        .unwrap();
    assert!(initial.contains("ShuffledHashJoin"), "{text}");
    assert!(fin.contains("BroadcastHashJoin"), "{text}");
    assert!(!fin.contains("ShuffledHashJoin"), "{text}");
    // The demoted build side's measured size is metered on the join node.
    assert!(fin.contains("build_rows="), "{text}");
    // The broadcast join reads no exchange, and every line carries the
    // metrics of the node it shows.
    assert!(!fin.contains("Exchange"), "{text}");
    assert!(fin.contains("ExternalScan rdd:fact (rows=2000,"), "{text}");
    assert!(fin.contains("ExternalScan rdd:dim (rows=16,"), "{text}");

    // The plan accessor agrees with the rendering.
    assert!(format!("{}", qe.final_physical()).contains("BroadcastHashJoin"));

    // The reference plans the same query statically, with identical
    // results.
    let ctx2 = SQLContext::new_local(2);
    ctx2.set_conf(|c| c.reference = true);
    let fact2 = ctx2
        .dataframe_from_rdd(
            "fact",
            fact_schema(),
            ctx2.spark_context().parallelize(
                (0..2000)
                    .map(|i| {
                        let k = if i % 10 < 8 { 0 } else { i % 16 };
                        Row::new(vec![Value::Long(k), Value::Long(i)])
                    })
                    .collect(),
                4,
            ),
        )
        .unwrap();
    let dim2 = ctx2
        .dataframe_from_rdd(
            "dim",
            dim_schema(),
            ctx2.spark_context().parallelize(
                (0..16)
                    .map(|i| Row::new(vec![Value::Long(i), Value::str(format!("d{i}"))]))
                    .collect(),
                2,
            ),
        )
        .unwrap();
    let df2 = fact2
        .join(&dim2, JoinType::Inner, Some(col("k").eq(col("dk"))))
        .unwrap();
    let qe2 = df2.query_execution().unwrap();
    let static_rows = qe2.collect().unwrap();
    assert!(qe2.adaptive_changes().is_empty());
    let mut a: Vec<String> = qe
        .collect()
        .unwrap()
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    let mut b: Vec<String> = static_rows.iter().map(|r| format!("{r:?}")).collect();
    a.sort();
    b.sort();
    assert_eq!(a, b);
}
