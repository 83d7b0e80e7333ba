//! Differential property tests for memory-governed execution: randomly
//! generated join/aggregate/sort plans executed under a byte budget small
//! enough to force spilling must produce results byte-identical to an
//! unbounded all-in-memory run of the other configuration — a bounded
//! production run against the unbounded reference, and a bounded
//! reference run against unbounded production — while the pool's
//! high-water mark never exceeds the budget and every spill file written
//! is deleted by the end of the run, including runs with chaos-injected
//! task failures.
//!
//! Same deterministic seeded-sweep style as `adaptive_diff_props.rs` and
//! `chaos_props.rs` (the build vendors only a minimal rand shim).
//! Meaningfulness floors prove the sweep actually spilled — in all three
//! governed operators — instead of vacuously comparing in-memory runs.

use engine::{ChaosConf, ChaosPlan, MemoryStats};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spark_sql::prelude::*;
use std::sync::Arc;

const ITERS: u64 = 48;

fn fact_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("k", DataType::Long, true),
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

const STR_POOL: &[&str] = &["engineering", "sales", "", "operations", "человек", "hr"];

/// Fact rows with a string payload so buffered bytes grow fast enough to
/// overrun small budgets; ~10% NULL keys exercise the null-bucket and
/// null-sentinel paths through spilling joins and aggregates.
fn arb_fact_rows(rng: &mut StdRng) -> Vec<Row> {
    let n = rng.random_range(100usize..700);
    (0..n)
        .map(|i| {
            let k = if rng.random_bool(0.1) {
                Value::Null
            } else {
                Value::Long(rng.random_range(0i64..24))
            };
            let s = if rng.random_bool(0.05) {
                Value::Null
            } else {
                Value::str(STR_POOL[rng.random_range(0..STR_POOL.len())])
            };
            Row::new(vec![k, Value::Long(i as i64), s])
        })
        .collect()
}

fn arb_dim_rows(rng: &mut StdRng, m: usize) -> Vec<Row> {
    (0..m)
        .map(|_| {
            let dk = if rng.random_bool(0.1) {
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

struct GenQuery {
    fact_rows: Vec<Row>,
    dim_rows: Vec<Row>,
    /// Which side of the join the dim table is on. Its size is known and
    /// the fact RDD's is not, so production builds the dim side: this is
    /// the plan's `build=` side, and the join under test must build it.
    /// (The reference always builds the right side.)
    dim_left: bool,
    join: Option<JoinType>,
    aggregate: bool,
    sort: bool,
    /// Run the budgeted (or chaotic) side in the reference; its unbounded
    /// baseline then runs in production.
    reference: bool,
    budget: u64,
    /// Group by `(g, s)`, a Long and a String key, instead of `(g, k)`.
    string_key: bool,
}

fn arb_query(rng: &mut StdRng) -> GenQuery {
    let join = match rng.random_range(0u32..10) {
        0 | 1 => None,
        2..=5 => Some(JoinType::Inner),
        6 | 7 => Some(JoinType::Left),
        8 => Some(JoinType::Right),
        _ => Some(JoinType::Full),
    };
    let aggregate = rng.random_bool(0.5);
    let mut sort = rng.random_bool(0.5);
    if join.is_none() && !aggregate {
        sort = true; // always at least one governed operator
    }
    let fact_rows = arb_fact_rows(rng);
    let small = rng.random_range(1usize..48);
    let mut dim_rows = arb_dim_rows(rng, small);
    let budget = [4u64 << 10, 8 << 10, 16 << 10][rng.random_range(0usize..3)];
    // Half the build sides outgrow any of the budgets, so the join goes
    // grace with either side built; the rest fit and must not spill.
    if rng.random_bool(0.5) {
        let more = rng.random_range(150usize..400);
        dim_rows.extend(arb_dim_rows(rng, more));
    }
    GenQuery {
        fact_rows,
        dim_rows,
        dim_left: rng.random_bool(0.5),
        join,
        aggregate,
        sort,
        reference: rng.random_bool(0.25),
        budget,
        string_key: rng.random_bool(0.5),
    }
}

struct Outcome {
    rows: Vec<String>,
    /// The physical plan as planned (before any adaptive change).
    plan: String,
    stats: Option<MemoryStats>,
    /// Physical-operator names that recorded a nonzero `spill_count`.
    spilled_ops: Vec<String>,
    /// Task attempts that panicked (the engine's `task_panics`).
    task_panics: u64,
}

/// Execute `q` on a fresh context under `budget` bytes (0 = unbounded),
/// in production or in the reference.
fn run(q: &GenQuery, reference: bool, budget: u64, chaos: Option<Arc<ChaosPlan>>) -> Outcome {
    let ctx = SQLContext::new_local(2);
    ctx.spark_context().set_chaos(chaos);
    ctx.set_conf(|c| {
        c.reference = reference;
        // Broadcast joins are bounded by the planner's threshold, not the
        // pool; pin the shuffled (governed) path so the sweep means something.
        c.broadcast_threshold = 0;
        c.memory_budget_bytes = budget;
        c.shuffle_partitions = 4;
    });
    // Fact over a bare RDD: unknown statistics keep the planner honest.
    let fact_rdd = ctx.spark_context().parallelize(q.fact_rows.clone(), 3);
    let fact = ctx
        .dataframe_from_rdd("fact", fact_schema(), fact_rdd)
        .expect("fact");
    let mut df = match q.join {
        Some(jt) => {
            let dim = ctx
                .create_dataframe(dim_schema(), q.dim_rows.clone())
                .expect("dim");
            let on = Some(col("dk").eq(col("k")));
            if q.dim_left {
                dim.join(&fact, jt, on).expect("join")
            } else {
                fact.join(&dim, jt, on).expect("join")
            }
        }
        None => fact,
    };
    if q.aggregate {
        // A DOUBLE sum compares bit for bit, so its fold order must be the
        // same at every budget. Over the bare fact table it is: a map
        // partition holds fewer than 257 rows, so at most one row of each
        // group, and partials merge in map order. A join repeats and
        // reorders rows, so there the DOUBLE is dyadic and sums exactly.
        let scale = if q.join.is_some() { 0.5 } else { 0.1 };
        let second_key = if q.string_key { col("s") } else { col("k") };
        df = df
            // High-cardinality grouping (hundreds of groups) so the
            // aggregation hash table actually outgrows small budgets.
            .group_by(vec![col("v").rem(lit(257i64)).alias("g"), second_key])
            .agg(vec![
                count_star().alias("n"),
                count(col("s")).alias("cs"),
                sum(col("v")).alias("sv"),
                sum(col("v").mul(lit(scale))).alias("sd"),
                // INT sums that widen to BIGINT once two rows meet.
                sum(col("v").add(lit(2_147_482_000i64)).cast(DataType::Int)).alias("si"),
                avg(col("v")).alias("av"),
                min(col("s")).alias("ms"),
                max(col("s")).alias("xs"),
            ])
            .expect("aggregate");
    }
    if q.sort {
        let orders = if q.aggregate {
            vec![col("n").desc(), col("g").asc()]
        } else {
            vec![col("s").asc(), col("v").desc()]
        };
        df = df.order_by(orders).expect("sort");
    }
    let qe = df.query_execution().expect("query_execution");
    let mut rows: Vec<String> = qe
        .collect()
        .expect("collect")
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    rows.sort();
    let spilled_ops = ctx
        .query_log()
        .last()
        .map(|e| {
            e.operators
                .iter()
                .filter(|op| op.extras.iter().any(|(k, v)| k == "spill_count" && *v > 0))
                .map(|op| op.operator.clone())
                .collect()
        })
        .unwrap_or_default();
    Outcome {
        rows,
        plan: qe.physical().to_string(),
        stats: qe.memory_stats(),
        spilled_ops,
        task_panics: ctx.spark_context().metrics().snapshot().task_panics,
    }
}

#[test]
fn spilling_plans_match_unbounded_results() {
    let mut nonempty = 0u32;
    let mut spilled_runs = 0u32;
    let mut join_spills = 0u32;
    // Per planned build side: [joins seen, joins that spilled].
    let (mut build_left, mut build_right) = ([0u32; 2], [0u32; 2]);
    let mut build_left_types: Vec<JoinType> = Vec::new();
    let mut agg_spills = 0u32;
    let mut sort_spills = 0u32;
    let mut total_spill_count = 0u64;

    for seed in 0..ITERS {
        let mut rng = StdRng::seed_from_u64(0x5B11 ^ seed.wrapping_mul(0x9E37_79B9));
        let q = arb_query(&mut rng);

        let baseline = run(&q, !q.reference, 0, None);
        assert!(
            baseline.stats.is_none(),
            "seed {seed}: unbounded run reported pool stats"
        );
        assert!(
            baseline.spilled_ops.is_empty(),
            "seed {seed}: unbounded run spilled"
        );

        let bounded = run(&q, q.reference, q.budget, None);
        assert_eq!(
            bounded.rows, baseline.rows,
            "seed {seed}: bounded run diverged (join={:?}, agg={}, sort={}, reference={}, \
             budget={})",
            q.join, q.aggregate, q.sort, q.reference, q.budget
        );
        let stats = bounded.stats.expect("bounded run must report pool stats");
        assert_eq!(stats.budget, q.budget, "seed {seed}");
        assert!(
            stats.peak <= stats.budget,
            "seed {seed}: peak {} exceeded budget {}",
            stats.peak,
            stats.budget
        );
        assert_eq!(
            stats.spill_files_created,
            stats.spill_files_deleted,
            "seed {seed}: leaked {} spill files",
            stats.spill_files_created - stats.spill_files_deleted
        );

        if !baseline.rows.is_empty() {
            nonempty += 1;
        }
        if stats.spill_count > 0 {
            spilled_runs += 1;
        }
        total_spill_count += stats.spill_count;
        if let Some(jt) = q.join {
            let planned_left = bounded.plan.contains("build=Left");
            assert_eq!(
                planned_left,
                q.dim_left && !q.reference,
                "seed {seed}: {}",
                bounded.plan
            );
            let side = if planned_left {
                if !build_left_types.contains(&jt) {
                    build_left_types.push(jt);
                }
                &mut build_left
            } else {
                &mut build_right
            };
            side[0] += 1;
            if bounded.spilled_ops.iter().any(|op| op.contains("Join")) {
                side[1] += 1;
            }
        }
        for op in &bounded.spilled_ops {
            if op.contains("Join") {
                join_spills += 1;
            }
            if op.contains("Aggregate") {
                agg_spills += 1;
            }
            if op.contains("Sort") {
                sort_spills += 1;
            }
        }
    }

    eprintln!(
        "spill sweep: spilled_runs={spilled_runs}/{ITERS} total_spills={total_spill_count} \
         join={join_spills} agg={agg_spills} sort={sort_spills} \
         build_left={build_left:?} build_right={build_right:?} (joins, spilled)"
    );
    // Meaningfulness floors: the budgets must actually force disk spills,
    // and all three governed operators must have taken their spill path.
    assert!(
        nonempty > ITERS as u32 / 2,
        "only {nonempty} non-empty results"
    );
    assert!(
        spilled_runs > ITERS as u32 / 3,
        "only {spilled_runs} runs spilled"
    );
    assert!(
        join_spills >= 3,
        "hash join spilled in only {join_spills} runs"
    );
    // Both build sides were planned, over every join type, and each went
    // grace some of the time and fit some of the time.
    assert!(
        build_left[0] >= 8,
        "only {} build=Left joins",
        build_left[0]
    );
    assert_eq!(
        build_left_types.len(),
        4,
        "build=Left joins covered only {build_left_types:?}"
    );
    for (side, [joins, spilled]) in [("Left", build_left), ("Right", build_right)] {
        assert!(spilled >= 3, "build={side}: only {spilled} joins spilled");
        assert!(
            joins - spilled >= 3,
            "build={side}: only {} joins fit",
            joins - spilled
        );
    }
    assert!(
        agg_spills >= 3,
        "hash aggregate spilled in only {agg_spills} runs"
    );
    assert!(sort_spills >= 3, "sort spilled in only {sort_spills} runs");
}

/// External sort must reproduce the in-memory sort *exactly* — including
/// the order of rows with equal keys (stable, arrival order) — when sort
/// is the only operator, so both paths see the same input sequence.
#[test]
fn external_sort_reproduces_in_memory_order_exactly() {
    let mut rng = StdRng::seed_from_u64(0x50FA);
    let q = GenQuery {
        // Heavy key duplication: the string pool has 6 values over ~600
        // rows, so ties dominate and any instability would reorder them.
        fact_rows: (0..600)
            .map(|_| {
                Row::new(vec![
                    Value::Long(rng.random_range(0i64..4)),
                    Value::Long(rng.random_range(0i64..3)),
                    Value::str(STR_POOL[rng.random_range(0..STR_POOL.len())]),
                ])
            })
            .chain((0..600).map(|i| Row::new(vec![Value::Null, Value::Long(i % 2), Value::Null])))
            .collect(),
        dim_rows: vec![],
        dim_left: true,
        join: None,
        aggregate: false,
        sort: false, // ordered below, un-sorted comparison
        reference: true,
        budget: 4 << 10,
        string_key: false,
    };
    let order = |budget: u64| {
        let ctx = SQLContext::new_local(2);
        ctx.set_conf(|c| {
            c.memory_budget_bytes = budget;
            c.reference = true;
        });
        let rdd = ctx.spark_context().parallelize(q.fact_rows.clone(), 3);
        let df = ctx
            .dataframe_from_rdd("fact", fact_schema(), rdd)
            .unwrap()
            .order_by(vec![col("s").asc(), col("k").desc()])
            .unwrap();
        let qe = df.query_execution().unwrap();
        let rows: Vec<String> = qe
            .collect()
            .unwrap()
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        (rows, qe.memory_stats())
    };
    let (expect, none) = order(0);
    assert!(none.is_none());
    let (got, stats) = order(q.budget);
    let stats = stats.unwrap();
    assert!(stats.spill_count > 0, "external sort never spilled");
    assert!(stats.peak <= stats.budget);
    // Exact sequence equality — not a sorted multiset.
    assert_eq!(got, expect, "external sort reordered equal-key rows");
}

/// ORDER BY is one operator whatever the budget: over keys with heavy
/// ties, NULLs and mixed directions, the row *sequence* — equal keys in
/// arrival order — is the same unbounded, under a budget that spills every
/// few dozen rows, and under one that rarely denies, in production and in
/// the reference.
#[test]
fn order_by_sequence_is_the_same_at_every_budget() {
    let mut spilled = 0u32;
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x0DE2 ^ seed.wrapping_mul(0x9E37_79B9));
        let maybe_null = |rng: &mut StdRng, v: Value| {
            if rng.random_bool(0.15) {
                Value::Null
            } else {
                v
            }
        };
        let rows: Vec<Row> = (0..rng.random_range(300usize..900))
            .map(|_| {
                let k = Value::Long(rng.random_range(0i64..4));
                let v = Value::Long(rng.random_range(0i64..3));
                let s = Value::str(STR_POOL[rng.random_range(0..STR_POOL.len())]);
                Row::new(vec![
                    maybe_null(&mut rng, k),
                    maybe_null(&mut rng, v),
                    maybe_null(&mut rng, s),
                ])
            })
            .collect();
        // One to three of the columns, each ascending or descending; the
        // columns left out make every key heavily tied.
        let mut orders = Vec::new();
        for c in ["k", "v", "s"] {
            if rng.random_bool(0.6) {
                orders.push(if rng.random_bool(0.5) {
                    col(c).asc()
                } else {
                    col(c).desc()
                });
            }
        }
        if orders.is_empty() {
            orders.push(col("s").desc());
        }
        let sequence = |budget: u64, reference: bool| {
            let ctx = SQLContext::new_local(2);
            ctx.set_conf(|c| {
                c.memory_budget_bytes = budget;
                c.reference = reference;
                c.shuffle_partitions = 3;
            });
            let rdd = ctx.spark_context().parallelize(rows.clone(), 3);
            let qe = ctx
                .dataframe_from_rdd("fact", fact_schema(), rdd)
                .unwrap()
                .order_by(orders.clone())
                .unwrap()
                .query_execution()
                .unwrap();
            let rows: Vec<String> = qe
                .collect()
                .unwrap()
                .iter()
                .map(|r| format!("{r:?}"))
                .collect();
            (rows, qe.memory_stats().map_or(0, |s| s.spill_count))
        };
        let (expect, _) = sequence(0, true);
        assert_eq!(expect.len(), rows.len());
        for budget in [0u64, 4 << 10, 64 << 10] {
            for reference in [true, false] {
                let (got, spills) = sequence(budget, reference);
                assert_eq!(
                    got, expect,
                    "seed {seed}: budget={budget} reference={reference} reordered rows \
                     (ORDER BY {orders:?})"
                );
                spilled += (spills > 0) as u32;
            }
        }
    }
    assert!(spilled >= 12, "only {spilled} bounded sorts spilled");
}

/// Spilling under chaos-injected task faults, fetch failures, and
/// executor deaths: results still match a fault-free unbounded run of the
/// other configuration, no task panics, and no spill file outlives the
/// query even when a task fails mid-spill (the failing task ends its
/// stream and drops its files, the stage waits for its siblings before
/// it is retried, and the retry re-creates them). Static plans run only
/// in the sweep's reference rows.
#[test]
fn chaotic_spilling_runs_leak_nothing_and_match() {
    const CHAOS_ITERS: u64 = 24;
    let mut faulted = 0u32;
    let mut spilled = 0u32;
    for seed in 0..CHAOS_ITERS {
        let mut rng = StdRng::seed_from_u64(0xC506 ^ seed.wrapping_mul(0x85EB_CA6B));
        let mut q = arb_query(&mut rng);
        q.budget = 6 << 10;
        let baseline = run(&q, !q.reference, 0, None);

        let plan = Arc::new(ChaosPlan::new(ChaosConf {
            task_fault_prob: 0.08,
            fetch_fault_prob: 0.08,
            max_task_panics: 2,
            max_executor_deaths: 1,
            max_fetch_failures: 2,
            ..ChaosConf::seeded(0xFA11 ^ seed.wrapping_mul(0x9E37_79B9))
        }));
        let chaotic = run(&q, q.reference, q.budget, Some(plan.clone()));
        assert_eq!(
            chaotic.rows, baseline.rows,
            "seed {seed}: chaotic spilling run diverged (join={:?}, agg={}, sort={}, \
             reference={})",
            q.join, q.aggregate, q.sort, q.reference
        );
        let stats = chaotic.stats.expect("bounded run must report pool stats");
        assert!(stats.peak <= stats.budget, "seed {seed}: peak above budget");
        assert_eq!(
            stats.spill_files_created, stats.spill_files_deleted,
            "seed {seed}: chaos run leaked spill files"
        );
        assert_eq!(chaotic.task_panics, 0, "seed {seed}: a task panicked");
        let s = plan.stats();
        if s.task_panics + s.executor_deaths + s.fetch_failures > 0 {
            faulted += 1;
        }
        if stats.spill_count > 0 {
            spilled += 1;
        }
    }
    eprintln!("chaos spill sweep: faulted={faulted}/{CHAOS_ITERS} spilled={spilled}/{CHAOS_ITERS}");
    assert!(
        faulted >= CHAOS_ITERS as u32 / 3,
        "only {faulted} runs saw a fault"
    );
    assert!(
        spilled >= CHAOS_ITERS as u32 / 3,
        "only {spilled} runs spilled"
    );
}
