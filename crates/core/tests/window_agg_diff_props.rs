//! Differential property tests for the vectorized back half of the
//! pipeline: batch-native hash aggregation, vectorized sort, and the
//! window-function operator must produce results byte-identical to the
//! reference's row-at-a-time path — unbounded, under a memory budget,
//! and under chaos-injected task faults — including null-heavy and
//! all-NULL partition keys.
//!
//! Same deterministic seeded-sweep style as `vectorized_diff_props.rs`
//! and `spill_props.rs` (the build vendors only a minimal rand shim).
//! Doubles are generated as exact halves so sums associate exactly and
//! partial-aggregate merge order cannot manufacture divergence; window
//! ORDER BY keys always end in the unique row id `k`, so every frame is
//! totally ordered and results are deterministic.

use engine::{ChaosConf, ChaosPlan};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spark_sql::prelude::*;
use std::sync::Arc;

const ITERS: u64 = 72;

fn t_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("k", DataType::Long, false),
        StructField::new("g", DataType::Long, true),
        StructField::new("v", DataType::Long, true),
        StructField::new("d", DataType::Double, true),
        StructField::new("s", DataType::String, true),
    ]))
}

const STR_POOL: &[&str] = &["ab", "abc", "", "xyz", "zz", "человек"];

/// How the partition/group key column `g` is populated.
#[derive(Clone, Copy, Debug, PartialEq)]
enum KeyMode {
    /// Every `g` is NULL: one big NULL partition.
    AllNull,
    /// ~50% NULL keys.
    NullHeavy,
    /// ~10% NULL keys.
    Sparse,
}

/// Random rows: unique non-null `k`, group key `g` per `mode`, Long `v`,
/// Double `d` restricted to exact halves (so f64 sums associate exactly
/// no matter how partials split), and a nullable string payload.
fn arb_rows(rng: &mut StdRng, mode: KeyMode, card: i64) -> Vec<Row> {
    let n = rng.random_range(40usize..320);
    (0..n)
        .map(|i| {
            let null_g = match mode {
                KeyMode::AllNull => true,
                KeyMode::NullHeavy => rng.random_bool(0.5),
                KeyMode::Sparse => rng.random_bool(0.1),
            };
            let g = if null_g {
                Value::Null
            } else {
                Value::Long(rng.random_range(0i64..card.max(1)))
            };
            let v = if rng.random_bool(0.15) {
                Value::Null
            } else {
                Value::Long(rng.random_range(0i64..100) - 50)
            };
            let d = if rng.random_bool(0.1) {
                Value::Null
            } else {
                Value::Double(rng.random_range(0i64..64) as f64 / 2.0 - 16.0)
            };
            let s = if rng.random_bool(0.1) {
                Value::Null
            } else {
                Value::str(STR_POOL[rng.random_range(0..STR_POOL.len())])
            };
            Row::new(vec![Value::Long(i as i64), g, v, d, s])
        })
        .collect()
}

/// Which back-half operator the generated query exercises.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Grouped aggregation (batch-native hash-agg candidate).
    Aggregate,
    /// Ranking + offset window functions over sorted partitions.
    WindowRank,
    /// Framed window aggregates: running, sliding, and whole-partition.
    WindowFrames,
}

impl Shape {
    fn sql(self) -> &'static str {
        match self {
            Shape::Aggregate => {
                "SELECT g, count(*) AS n, count(v) AS cv, sum(v) AS sv, \
                 avg(d) AS ad, min(s) AS ms, max(v) AS xv \
                 FROM t GROUP BY g"
            }
            Shape::WindowRank => {
                "SELECT k, g, v, \
                 rank() OVER (PARTITION BY g ORDER BY v) AS rnk, \
                 dense_rank() OVER (PARTITION BY g ORDER BY v DESC) AS drnk, \
                 row_number() OVER (PARTITION BY g ORDER BY v, k) AS rn, \
                 lag(v, 1, -1) OVER (PARTITION BY g ORDER BY v, k) AS lg, \
                 lead(v) OVER (PARTITION BY g ORDER BY v, k) AS ld \
                 FROM t"
            }
            Shape::WindowFrames => {
                "SELECT k, g, v, \
                 sum(v) OVER (PARTITION BY g ORDER BY v, k) AS rs, \
                 avg(d) OVER (PARTITION BY g ORDER BY v, k \
                 ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS ma, \
                 sum(v) OVER (PARTITION BY g ORDER BY v, k \
                 ROWS BETWEEN 1 FOLLOWING AND 3 FOLLOWING) AS fs, \
                 count(*) OVER (PARTITION BY g) AS cnt \
                 FROM t"
            }
        }
    }
}

struct GenQuery {
    rows: Vec<Row>,
    mode: KeyMode,
    shape: Shape,
    budget: u64,
}

fn arb_query(rng: &mut StdRng) -> GenQuery {
    let mode = match rng.random_range(0u32..10) {
        0 => KeyMode::AllNull,
        1..=3 => KeyMode::NullHeavy,
        _ => KeyMode::Sparse,
    };
    let card = rng.random_range(1i64..8);
    let shape = match rng.random_range(0u32..3) {
        0 => Shape::Aggregate,
        1 => Shape::WindowRank,
        _ => Shape::WindowFrames,
    };
    GenQuery {
        rows: arb_rows(rng, mode, card),
        mode,
        shape,
        budget: [4u64 << 10, 8 << 10, 16 << 10][rng.random_range(0usize..3)],
    }
}

struct Outcome {
    rows: Vec<String>,
    /// Did any operator of the run record a nonzero `spill_count`?
    spilled: bool,
}

/// Execute `q` on a fresh context, in production or in the reference.
/// `budget` of 0 keeps the pool unbounded; `chaos: Some` installs a
/// seeded fault plan before the run.
fn run(q: &GenQuery, reference: bool, budget: u64, chaos: Option<Arc<ChaosPlan>>) -> Outcome {
    let ctx = SQLContext::new_local(2);
    ctx.spark_context().set_chaos(chaos);
    ctx.set_conf(|c| {
        c.reference = reference;
        c.memory_budget_bytes = budget;
        c.shuffle_partitions = 4;
    });
    // The table sits on a bare multi-partition RDD: unknown statistics,
    // real shuffles for the window/aggregate exchanges (chaos needs map
    // stages to hit).
    let rdd = ctx.spark_context().parallelize(q.rows.clone(), 3);
    let df = ctx
        .dataframe_from_rdd("t", t_schema(), rdd)
        .expect("dataframe");
    df.register_temp_table("t");
    let qe = ctx
        .sql(q.shape.sql())
        .expect("sql")
        .query_execution()
        .expect("query_execution");
    let mut rows: Vec<String> = qe
        .collect()
        .expect("collect")
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    rows.sort();
    let spilled = ctx
        .query_log()
        .last()
        .map(|e| {
            e.operators
                .iter()
                .any(|op| op.extras.iter().any(|(k, v)| k == "spill_count" && *v > 0))
        })
        .unwrap_or(false);
    Outcome { rows, spilled }
}

#[test]
fn batch_agg_sort_and_window_paths_agree() {
    let mut nonempty = 0u32;
    let mut window_runs = 0u32;
    let mut agg_runs = 0u32;
    let mut all_null = 0u32;
    let mut spilled_runs = 0u32;
    let mut chaos_runs = 0u32;
    for seed in 0..ITERS {
        let mut rng = StdRng::seed_from_u64(0x11D0 ^ (seed.wrapping_mul(0x9E37_79B9)));
        let q = arb_query(&mut rng);
        let baseline = run(&q, true, 0, None);

        // Production, unbounded memory.
        let got = run(&q, false, 0, None);
        assert_eq!(
            got.rows, baseline.rows,
            "seed {seed}: production diverged from the reference (shape={:?}, mode={:?})",
            q.shape, q.mode
        );

        // Bounded pool: spill-safe paths must stay byte-identical in
        // production and in the reference.
        for reference in [false, true] {
            let got = run(&q, reference, q.budget, None);
            assert_eq!(
                got.rows, baseline.rows,
                "seed {seed}: bounded budget={} reference={reference} diverged \
                 (shape={:?}, mode={:?})",
                q.budget, q.shape, q.mode
            );
            if got.spilled {
                spilled_runs += 1;
            }
        }

        // Chaos: seeded task faults during a production run must recover
        // to the exact baseline.
        if seed % 3 == 0 {
            let plan = Arc::new(ChaosPlan::new(ChaosConf {
                task_fault_prob: 0.08,
                fetch_fault_prob: 0.08,
                ..ChaosConf::seeded(0x5EED ^ seed.wrapping_mul(0x85EB_CA6B))
            }));
            let got = run(&q, false, 0, Some(plan));
            assert_eq!(
                got.rows, baseline.rows,
                "seed {seed}: chaos run diverged (shape={:?}, mode={:?})",
                q.shape, q.mode
            );
            chaos_runs += 1;
        }

        if !baseline.rows.is_empty() {
            nonempty += 1;
        }
        match q.shape {
            Shape::Aggregate => agg_runs += 1,
            Shape::WindowRank | Shape::WindowFrames => window_runs += 1,
        }
        if q.mode == KeyMode::AllNull {
            all_null += 1;
        }
    }
    // Meaningfulness floors: the sweep must actually exercise every
    // interesting path, not vacuously compare empty results.
    assert!(
        nonempty > ITERS as u32 / 2,
        "only {nonempty} non-empty results"
    );
    assert!(
        window_runs > ITERS as u32 / 4,
        "only {window_runs} window runs"
    );
    assert!(
        agg_runs > ITERS as u32 / 8,
        "only {agg_runs} aggregate runs"
    );
    assert!(all_null >= 2, "only {all_null} all-NULL key sweeps");
    assert!(
        spilled_runs > ITERS as u32 / 8,
        "only {spilled_runs} bounded runs actually spilled"
    );
    assert!(
        chaos_runs >= ITERS as u32 / 3,
        "only {chaos_runs} chaos runs"
    );
}

/// Deterministic end-to-end check: exact expected values for ranking,
/// offset, and running-aggregate window functions from SQL.
#[test]
fn window_functions_compute_expected_values() {
    let ctx = SQLContext::new_local(2);
    let schema = Arc::new(Schema::new(vec![
        StructField::new("dept", DataType::String, false),
        StructField::new("salary", DataType::Long, false),
    ]));
    let rows = vec![
        Row::new(vec![Value::str("eng"), Value::Long(100)]),
        Row::new(vec![Value::str("eng"), Value::Long(80)]),
        Row::new(vec![Value::str("eng"), Value::Long(100)]),
        Row::new(vec![Value::str("sales"), Value::Long(60)]),
        Row::new(vec![Value::str("sales"), Value::Long(70)]),
    ];
    ctx.register_rows("emp", schema, rows).unwrap();
    let mut got: Vec<String> = ctx
        .sql(
            "SELECT dept, salary, \
             rank() OVER (PARTITION BY dept ORDER BY salary DESC) AS r, \
             row_number() OVER (PARTITION BY dept ORDER BY salary DESC) AS rn, \
             lag(salary) OVER (PARTITION BY dept ORDER BY salary DESC) AS prev, \
             sum(salary) OVER (PARTITION BY dept ORDER BY salary DESC) AS run \
             FROM emp",
        )
        .unwrap()
        .collect()
        .unwrap()
        .iter()
        .map(|r| format!("{r}"))
        .collect();
    got.sort();
    let mut expect: Vec<String> = vec![
        // eng: 100, 100 are rank-1 peers (running sum covers both), 80 is rank 3.
        "[eng, 100, 1, 1, NULL, 200]".to_string(),
        "[eng, 100, 1, 2, 100, 200]".to_string(),
        "[eng, 80, 3, 3, 100, 280]".to_string(),
        "[sales, 70, 1, 1, NULL, 70]".to_string(),
        "[sales, 60, 2, 2, 70, 130]".to_string(),
    ];
    expect.sort();
    assert_eq!(got, expect);
}
