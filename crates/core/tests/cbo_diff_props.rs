//! Differential property tests for the cost-based optimizer rules:
//! randomly generated join chains and aggregates executed in production,
//! which runs them, must produce results byte-identical to the
//! reference, which does not — unbounded and under a memory budget.
//!
//! Same deterministic seeded-sweep style as `constraint_props.rs`.
//! Meaningfulness floors, read from the production handle's rule health
//! and physical plan, prove the rules actually fired: join chains
//! reordered by estimated cardinality, global aggregates answered
//! straight from source statistics, and shuffled-hash-join build sides
//! flipped to the smaller input — not vacuous comparisons of identical
//! plans.

use catalyst::plan::LogicalPlan;
use catalyst::rules::RuleHealthReport;
use catalyst::source::MemoryTable;
use datasources::colfile::{write_colfile, ColFileRelation};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spark_sql::prelude::*;
use std::sync::Arc;

const ITERS: u64 = 64;

fn fact_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("fk1", DataType::Long, true),
        StructField::new("fk2", DataType::Long, true),
        StructField::new("fv", DataType::Long, false),
    ]))
}

fn d1_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("d1k", DataType::Long, false),
        StructField::new("d1e", DataType::Long, false),
        StructField::new("d1w", DataType::String, false),
    ]))
}

fn d2_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("d2k", DataType::Long, false),
        StructField::new("d2v", DataType::Long, false),
    ]))
}

/// Wide fact table: keys land in the dimension domains, with NULL keys
/// sprinkled in so reordering never changes NULL-key semantics.
fn arb_fact_rows(rng: &mut StdRng, d1_n: usize, d2_n: usize) -> Vec<Row> {
    let n = rng.random_range(120usize..400);
    (0..n)
        .map(|idx| {
            let fk1 = if rng.random_bool(0.1) {
                Value::Null
            } else {
                Value::Long(rng.random_range(0i64..(d1_n as i64 + 2)))
            };
            let fk2 = if rng.random_bool(0.1) {
                Value::Null
            } else {
                Value::Long(rng.random_range(0i64..(d2_n as i64 + 2)))
            };
            Row::new(vec![fk1, fk2, Value::Long(idx as i64)])
        })
        .collect()
}

fn arb_d1_rows(rng: &mut StdRng, n: usize, d2_n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Long(i as i64),
                Value::Long(rng.random_range(0i64..(d2_n as i64).max(1))),
                Value::str(format!("w{}", i % 5)),
            ])
        })
        .collect()
}

fn arb_d2_rows(_rng: &mut StdRng, n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| Row::new(vec![Value::Long(i as i64), Value::Long((i as i64) * 10)]))
        .collect()
}

/// Query shapes the sweep alternates between.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    /// Global COUNT/MIN/MAX over the unfiltered fact table — the
    /// aggregate-from-statistics rule's target.
    StatsAgg,
    /// fact ⋈ d1 ⋈ d2 as a star, written large-side-first so the naive
    /// left-deep order is the bad one.
    Star,
    /// fact ⋈ d1 ⋈ d2 where d2 only connects through d1 — reordering
    /// must respect connectivity (no cross products).
    Snowflake,
    /// Two-table join: too short for the reorderer, but the build-side
    /// pick and broadcast decisions still apply.
    Pair,
}

struct GenQuery {
    fact_rows: Vec<Row>,
    d1_rows: Vec<Row>,
    d2_rows: Vec<Row>,
    shape: Shape,
    /// Write the chain with the (large) fact table leftmost.
    big_first: bool,
    filter: bool,
    aggregate: bool,
    budget: u64,
    /// Force every join to hash-shuffle (broadcast threshold 0) so the
    /// build-side pick is observable.
    force_shuffled: bool,
}

fn arb_query(rng: &mut StdRng) -> GenQuery {
    let d1_n = rng.random_range(4usize..32);
    let d2_n = rng.random_range(4usize..32);
    let shape = match rng.random_range(0u32..8) {
        0..=1 => Shape::StatsAgg,
        2..=4 => Shape::Star,
        5..=6 => Shape::Snowflake,
        _ => Shape::Pair,
    };
    GenQuery {
        fact_rows: arb_fact_rows(rng, d1_n, d2_n),
        d1_rows: arb_d1_rows(rng, d1_n, d2_n),
        d2_rows: arb_d2_rows(rng, d2_n),
        shape,
        big_first: rng.random_bool(0.7),
        filter: rng.random_bool(0.4),
        aggregate: rng.random_bool(0.4),
        budget: if rng.random_bool(0.25) { 16 << 10 } else { 0 },
        force_shuffled: rng.random_bool(0.5),
    }
}

struct Outcome {
    rows: Vec<String>,
    optimized: LogicalPlan,
    physical: String,
    health: RuleHealthReport,
}

/// The sequence of scan leaves in an optimized plan rendering — the
/// observable signature of a join reorder.
fn scan_sequence(optimized: &str) -> Vec<String> {
    optimized
        .lines()
        .filter(|l| l.trim_start().starts_with("Scan "))
        .map(|l| l.trim().to_string())
        .collect()
}

fn run(q: &GenQuery, reference: bool) -> Outcome {
    let ctx = SQLContext::new_local(2);
    ctx.set_conf(|c| {
        c.reference = reference;
        c.memory_budget_bytes = q.budget;
        c.shuffle_partitions = 4;
        if q.force_shuffled {
            c.broadcast_threshold = 0;
        }
    });
    // Registered as source relations (not literal rows) so scans carry
    // row counts and per-column statistics — what the CBO runs on.
    ctx.register_relation(
        "fact",
        Arc::new(MemoryTable::new(
            "fact",
            fact_schema(),
            q.fact_rows.clone(),
            3,
        )),
    );
    ctx.register_relation(
        "d1",
        Arc::new(MemoryTable::new("d1", d1_schema(), q.d1_rows.clone(), 2)),
    );
    ctx.register_relation(
        "d2",
        Arc::new(MemoryTable::new("d2", d2_schema(), q.d2_rows.clone(), 2)),
    );
    let fact = ctx.table("fact").expect("fact");
    let d1 = ctx.table("d1").expect("d1");
    let d2 = ctx.table("d2").expect("d2");

    let mut df = match q.shape {
        Shape::StatsAgg => fact
            .group_by(vec![])
            .agg(vec![
                count_star().alias("n"),
                min(col("fv")).alias("lo"),
                max(col("fv")).alias("hi"),
            ])
            .expect("stats agg"),
        Shape::Pair => {
            let (l, r, cond) = if q.big_first {
                (fact, d1, col("fk1").eq(col("d1k")))
            } else {
                (d1, fact, col("d1k").eq(col("fk1")))
            };
            l.join(&r, JoinType::Inner, Some(cond)).expect("pair join")
        }
        Shape::Star => {
            let base = if q.big_first {
                fact.join(&d1, JoinType::Inner, Some(col("fk1").eq(col("d1k"))))
                    .expect("join d1")
            } else {
                d1.join(&fact, JoinType::Inner, Some(col("d1k").eq(col("fk1"))))
                    .expect("join d1")
            };
            base.join(&d2, JoinType::Inner, Some(col("fk2").eq(col("d2k"))))
                .expect("join d2")
        }
        Shape::Snowflake => fact
            .join(&d1, JoinType::Inner, Some(col("fk1").eq(col("d1k"))))
            .expect("join d1")
            .join(&d2, JoinType::Inner, Some(col("d1e").eq(col("d2k"))))
            .expect("join d2"),
    };
    if q.filter && q.shape != Shape::StatsAgg {
        df = df.filter(col("fv").gt(lit(20i64))).expect("filter");
    }
    if q.aggregate && q.shape != Shape::StatsAgg && q.shape != Shape::Pair {
        df = df
            .group_by(vec![col("d1w")])
            .agg(vec![count_star().alias("n"), sum(col("fv")).alias("sv")])
            .expect("aggregate");
    }
    let qe = df.query_execution().expect("query_execution");
    let optimized = qe.optimized().clone();
    let physical = format!("{}", qe.physical());
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
        physical,
        health,
    }
}

#[test]
fn cbo_preserves_results_exactly() {
    let mut nonempty = 0u32;
    let mut reorders = 0u32;
    let mut stats_answered = 0u32;
    let mut build_flips = 0u32;

    for seed in 0..ITERS {
        let mut rng = StdRng::seed_from_u64(0xCB_0D1F ^ seed.wrapping_mul(0x9E37_79B9));
        let q = arb_query(&mut rng);

        let baseline = run(&q, true);
        let optimized_run = run(&q, false);
        assert_eq!(
            optimized_run.rows,
            baseline.rows,
            "seed {seed}: cbo changed results (shape={:?}, big_first={}, filter={}, agg={}, \
             budget={}, shuffled={})\nreference plan:\n{}\nproduction plan:\n{}",
            q.shape,
            q.big_first,
            q.filter,
            q.aggregate,
            q.budget,
            q.force_shuffled,
            baseline.optimized,
            optimized_run.optimized,
        );

        if !baseline.rows.is_empty() {
            nonempty += 1;
        }
        // The floors count what the statistics rules did to the plan
        // production ran.
        let fired = |rule: &str| {
            optimized_run
                .health
                .health_for("Statistics", rule)
                .is_some_and(|h| h.fires > 0)
        };
        if fired("ReorderJoins") {
            reorders += 1;
        }
        if fired("AggregateFromStats") {
            stats_answered += 1;
        }
        if optimized_run
            .physical
            .lines()
            .any(|l| l.contains("ShuffledHashJoin") && l.contains("build=Left"))
        {
            build_flips += 1;
        }
        // The reference must never pick a left build side.
        assert!(
            !baseline
                .physical
                .lines()
                .any(|l| l.contains("ShuffledHashJoin") && l.contains("build=Left")),
            "seed {seed}: reference plan built a left side:\n{}",
            baseline.physical
        );
    }

    eprintln!(
        "cbo sweep: reorders={reorders}/{ITERS} stats_answered={stats_answered} \
         build_flips={build_flips} nonempty={nonempty}"
    );
    // Meaningfulness floors: the sweep must actually exercise all three
    // cost-based decisions, not compare no-op plans.
    assert!(
        nonempty > ITERS as u32 / 4,
        "only {nonempty} non-empty results"
    );
    assert!(reorders >= 6, "only {reorders} join chains reordered");
    assert!(
        stats_answered >= 6,
        "only {stats_answered} aggregates answered from statistics"
    );
    assert!(
        build_flips >= 6,
        "only {build_flips} shuffled joins flipped their build side"
    );
}

/// A partially evicted cache exposes statistics for its *resident*
/// partitions only. Those are lower bounds, and the cost-based rewrites
/// must refuse them: no aggregate answered from stats, no filter proven
/// always-empty — otherwise a query would silently return answers for a
/// subset of the table.
#[test]
fn partially_evicted_cache_suppresses_stats_rewrites() {
    let schema: SchemaRef = Arc::new(Schema::new(vec![StructField::new(
        "v",
        DataType::Long,
        false,
    )]));
    let rows: Vec<Row> = (0..200i64)
        .map(|i| Row::new(vec![Value::Long(i)]))
        .collect();

    let ctx = SQLContext::new_local(2);
    // Exact block-residency bookkeeping: no injected executor deaths.
    ctx.spark_context().set_chaos(None);
    ctx.register_relation(
        "t",
        Arc::new(MemoryTable::new("t", schema.clone(), rows, 2)),
    );
    ctx.sql("CACHE TABLE t")
        .expect("cache")
        .collect()
        .expect("cache run");
    // Warm-up scan materializes the cache (2 partitions, one per
    // executor slot: values 0..100 on slot 0, 100..200 on slot 1).
    ctx.sql("SELECT count(*) FROM t")
        .expect("warmup")
        .collect()
        .expect("warmup run");

    // Positive control — with every partition resident the stats are
    // exact: the global aggregate is answered without a scan, and a
    // filter above the true maximum is proven always-empty.
    let agg_sql = "SELECT count(*) AS n, min(v) AS lo, max(v) AS hi FROM t";
    let qe = ctx
        .sql(agg_sql)
        .expect("agg")
        .query_execution()
        .expect("qe");
    assert!(
        scan_sequence(&format!("{}", qe.optimized())).is_empty(),
        "full cache should answer the aggregate from stats:\n{}",
        qe.optimized()
    );
    let rows = qe.collect().expect("agg run");
    assert_eq!(
        format!("{:?}", rows[0].values()),
        "[Long(200), Long(0), Long(199)]"
    );

    let empty_sql = "SELECT v FROM t WHERE v > 1000";
    let qe = ctx
        .sql(empty_sql)
        .expect("empty")
        .query_execution()
        .expect("qe");
    assert!(
        scan_sequence(&format!("{}", qe.optimized())).is_empty(),
        "v > 1000 exceeds the exact max, should be pruned:\n{}",
        qe.optimized()
    );
    assert!(qe.collect().expect("empty run").is_empty());

    // Evict the high partition: resident stats now claim max(v) = 99.
    // Trusting them would answer MAX as 99 and prune `v > 150` to
    // nothing — both wrong. The partial flag must suppress the rewrites
    // and fall back to a real scan, which transparently refills.
    ctx.spark_context().lose_executor(1);
    let qe = ctx
        .sql(agg_sql)
        .expect("agg")
        .query_execution()
        .expect("qe");
    assert!(
        !scan_sequence(&format!("{}", qe.optimized())).is_empty(),
        "partial stats must not answer aggregates:\n{}",
        qe.optimized()
    );
    let rows = qe.collect().expect("agg run");
    assert_eq!(
        format!("{:?}", rows[0].values()),
        "[Long(200), Long(0), Long(199)]"
    );

    ctx.spark_context().lose_executor(1);
    let qe = ctx
        .sql("SELECT v FROM t WHERE v > 150")
        .expect("tail")
        .query_execution()
        .expect("qe");
    assert!(
        !scan_sequence(&format!("{}", qe.optimized())).is_empty(),
        "partial stats must not prove emptiness:\n{}",
        qe.optimized()
    );
    assert_eq!(qe.collect().expect("tail run").len(), 49);
}

/// A three-table chain written dimension-first, so the naive left-deep
/// plan hash-builds the expanded fact side and probes it with the
/// dimension. Production reorders by estimated cardinality and builds
/// the smaller side of a shuffle (`build=Left`); the reference keeps the
/// written order and builds the right side. That plan shape is what made
/// the reordered chain ≥1.5× faster than the naive one (1.67×, 283 →
/// 169 ms, on 60 k fact rows).
#[test]
fn production_builds_the_small_side_of_a_chain_the_reference_builds_right() {
    let long = |v: u64| Value::Long(v as i64);
    let q = GenQuery {
        fact_rows: (0..6_000u64)
            .map(|i| Row::new(vec![long(i * 7 % 300), long(i * 13 % 200), long(i)]))
            .collect(),
        d1_rows: (0..1_500u64)
            .map(|i| Row::new(vec![long(i % 300), long(i), Value::str(format!("a{i}"))]))
            .collect(),
        d2_rows: (0..50u64)
            .map(|i| Row::new(vec![long(i), long(i)]))
            .collect(),
        shape: Shape::Star,
        big_first: false,
        filter: false,
        aggregate: false,
        budget: 0,
        force_shuffled: true,
    };
    let (reference, production) = (run(&q, true), run(&q, false));
    assert!(!reference.rows.is_empty());
    assert_eq!(production.rows, reference.rows);
    let plan = &reference.physical;
    assert!(
        plan.contains("build=Right") && !plan.contains("build=Left"),
        "{plan}"
    );
    assert!(
        production.physical.contains("build=Left"),
        "{}",
        production.physical
    );
}

/// A global COUNT/MIN/MAX over a colfile table: production answers it
/// from the row-group footers and decodes no group; the reference scans.
#[test]
fn production_answers_a_global_aggregate_from_footers_the_reference_scans() {
    let schema: SchemaRef = Arc::new(Schema::new(vec![
        StructField::new("k", DataType::Long, false),
        StructField::new("v", DataType::Long, false),
    ]));
    let rows: Vec<Row> = (0..20_000i64)
        .map(|i| Row::new(vec![Value::Long(i * 7 % 97), Value::Long(i)]))
        .collect();
    let colfile =
        Arc::new(ColFileRelation::from_bytes("agg", write_colfile(&schema, &rows, 1_000)).unwrap());
    let groups_read = |reference: bool| {
        let ctx = SQLContext::new_local(2);
        ctx.set_conf(|c| c.reference = reference);
        ctx.register_relation("agg", colfile.clone());
        let before = colfile.groups_read();
        let rows = ctx
            .sql("SELECT count(*) AS n, min(v) AS lo, max(v) AS hi FROM agg")
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(
            format!("{:?}", rows[0].values()),
            "[Long(20000), Long(0), Long(19999)]",
            "reference={reference}"
        );
        colfile.groups_read() - before
    };
    assert_eq!(groups_read(false), 0, "production decoded row groups");
    assert!(groups_read(true) > 0, "the reference should scan");
}
