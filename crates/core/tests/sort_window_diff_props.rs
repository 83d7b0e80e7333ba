//! Differential property test for the batch `Sort` and `Window`: random
//! ORDER BY and window queries must return the reference's rows in the
//! reference's order — the reference keys rows one at a time, range- or
//! hash-shuffles `(key, row)` pairs and sorts them, production ships
//! columnar blocks and sorts a lane permutation.
//!
//! Keys cover Int and Long columns side by side, NULLs, NaN, −0.0 and
//! 0.0, non-ASCII strings and computed keys (`substr`, arithmetic), with
//! one to three keys in mixed directions and no unique tiebreaker, so
//! the tie order (map partition, then arrival) is compared too. Each
//! query runs with 1, 3 or 8 reducers, batches of 4, 16 or 1024 lanes,
//! and once more under a 64 KiB budget, where some reducers take the
//! spill fallback.

mod common;

use catalyst::error::CatalystError;
use catalyst::physical::PhysicalPlan;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spark_sql::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const ITERS: u64 = 64;

fn schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("id", DataType::Long, false),
        StructField::new("i", DataType::Int, true),
        StructField::new("l", DataType::Long, true),
        StructField::new("d", DataType::Double, true),
        StructField::new("s", DataType::String, true),
        StructField::new("g", DataType::Long, true),
    ]))
}

const STR_POOL: &[&str] = &["", "a", "ab", "abc", "zz", "é", "éa", "человек", "чел", "Z"];
const DOUBLES: &[f64] = &[f64::NAN, -0.0, 0.0, 1.5, -2.25, f64::INFINITY, 7.0];

/// `n` rows: `i` and `l` over one small domain (so Int and Long keys
/// tie), doubles over the edge values, strings with multi-byte
/// characters, and a small partition column `g`.
fn arb_rows(rng: &mut StdRng, n: usize) -> Vec<Row> {
    (0..n)
        .map(|id| {
            let i = match rng.random_bool(0.12) {
                true => Value::Null,
                false => Value::Int(rng.random_range(-3i64..4) as i32),
            };
            let l = match rng.random_bool(0.12) {
                true => Value::Null,
                false => Value::Long(rng.random_range(-3i64..4)),
            };
            let d = match rng.random_bool(0.1) {
                true => Value::Null,
                false => Value::Double(DOUBLES[rng.random_range(0..DOUBLES.len())]),
            };
            let s = match rng.random_bool(0.1) {
                true => Value::Null,
                false => Value::str(STR_POOL[rng.random_range(0..STR_POOL.len())]),
            };
            let g = match rng.random_bool(0.1) {
                true => Value::Null,
                false => Value::Long(rng.random_range(0i64..5)),
            };
            Row::new(vec![Value::Long(id as i64), i, l, d, s, g])
        })
        .collect()
}

/// Sort keys: bare columns of every type, and computed ones.
const KEYS: &[&str] = &[
    "i",
    "l",
    "d",
    "s",
    "g",
    "substr(s, 1, 1)",
    "i + l",
    "l * 2 - i",
    "d * 2",
    "i % 3",
];

/// PARTITION BY keys.
const PARTITIONS: &[&str] = &["g", "i", "substr(s, 1, 1)", "d", "l % 2"];

/// Window calls; `{o}` is replaced by the window's OVER clause.
const CALLS: &[&str] = &[
    "rank() OVER ({o})",
    "dense_rank() OVER ({o})",
    "row_number() OVER ({o})",
    "lag(l) OVER ({o})",
    "lag(i, 2, -1) OVER ({o})",
    "lead(s, 1, 'none') OVER ({o})",
    "lead(d, 3) OVER ({o})",
    "sum(l) OVER ({o})",
    "sum(i) OVER ({o} ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)",
    "avg(d) OVER ({o} ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING)",
    "min(s) OVER ({o} RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)",
    "count(*) OVER ({o} RANGE BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING)",
    "count(i) OVER ({o} ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)",
    "sum(d) OVER ({o} ROWS BETWEEN 1 FOLLOWING AND 3 FOLLOWING)",
];

struct Query {
    schema: SchemaRef,
    sql: String,
    rows: Vec<Row>,
    window: bool,
    partitioned: bool,
    keys: usize,
    reducers: usize,
    batch_size: usize,
}

/// 1–3 distinct ORDER BY keys, each ASC or DESC.
fn arb_order_by(rng: &mut StdRng) -> (usize, String) {
    let mut pool: Vec<&str> = KEYS.to_vec();
    let keys = rng.random_range(1usize..4);
    let order: Vec<String> = (0..keys)
        .map(|_| {
            let key = pool.remove(rng.random_range(0..pool.len()));
            let dir = if rng.random_bool(0.5) { "ASC" } else { "DESC" };
            format!("{key} {dir}")
        })
        .collect();
    (keys, order.join(", "))
}

fn arb_query(rng: &mut StdRng) -> Query {
    let n = rng.random_range(0usize..1500);
    let rows = arb_rows(rng, n);
    let (keys, order_by) = arb_order_by(rng);
    let window = rng.random_bool(0.5);
    let partitioned = window && rng.random_bool(0.6);
    let sql = if window {
        let over = match partitioned {
            true => format!(
                "PARTITION BY {} ORDER BY {order_by}",
                PARTITIONS[rng.random_range(0..PARTITIONS.len())]
            ),
            false => format!("ORDER BY {order_by}"),
        };
        let calls: Vec<String> = (0..rng.random_range(1usize..4))
            .enumerate()
            .map(|(j, _)| {
                let call = CALLS[rng.random_range(0..CALLS.len())];
                format!("{} AS w{j}", call.replace("{o}", &over))
            })
            .collect();
        format!("SELECT id, i, l, d, s, {} FROM t", calls.join(", "))
    } else {
        format!("SELECT id, i, l, d, s, g FROM t ORDER BY {order_by}")
    };
    Query {
        schema: schema(),
        sql,
        rows,
        window,
        partitioned,
        keys,
        reducers: [1usize, 3, 8][rng.random_range(0..3)],
        batch_size: [4usize, 16, 1024][rng.random_range(0..3)],
    }
}

struct Outcome {
    rows: Vec<String>,
    /// Did the Sort or Window run as batches (report `batches`)?
    batches: bool,
    spilled: bool,
    /// Comparisons whose key prefixes tied and fell to lanes.
    prefix_ties: u64,
}

/// Pre-order ids of `plan`'s Sort and Window nodes.
fn sort_and_window_ids(plan: &PhysicalPlan, next: &mut usize, out: &mut Vec<usize>) {
    if matches!(
        plan,
        PhysicalPlan::Sort { .. } | PhysicalPlan::Window { .. }
    ) {
        out.push(*next);
    }
    *next += 1;
    for child in plan.children() {
        sort_and_window_ids(&child, next, out);
    }
}

fn run(q: &Query, reference: bool, budget: u64) -> Outcome {
    let ctx = SQLContext::new_local(2);
    ctx.set_conf(|c| {
        c.reference = reference;
        c.memory_budget_bytes = budget;
        c.shuffle_partitions = q.reducers;
        c.vectorize_batch_size = q.batch_size;
    });
    let rdd = ctx.spark_context().parallelize(q.rows.clone(), 3);
    ctx.dataframe_from_rdd("t", q.schema.clone(), rdd)
        .unwrap()
        .register_temp_table("t");
    let qe = ctx.sql(&q.sql).unwrap().query_execution().unwrap();
    let rows = common::collect_attributed(&ctx, &qe)
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    let mut ids = Vec::new();
    sort_and_window_ids(qe.physical(), &mut 0, &mut ids);
    assert!(!ids.is_empty(), "no Sort or Window in:\n{}", qe.physical());
    let extras: Vec<BTreeMap<String, u64>> = ids
        .iter()
        .map(|&id| qe.metrics().node(id).extras())
        .collect();
    Outcome {
        rows,
        batches: extras.iter().all(|e| e.contains_key("batches")),
        spilled: extras
            .iter()
            .any(|e| e.get("spill_count").is_some_and(|&n| n > 0)),
        prefix_ties: extras.iter().filter_map(|e| e.get("prefix_ties")).sum(),
    }
}

#[test]
fn sorts_and_windows_agree_with_the_reference_in_order() {
    let mut seen: BTreeMap<String, u32> = BTreeMap::new();
    for seed in 0..ITERS {
        let mut rng = StdRng::seed_from_u64(0x5027 ^ seed.wrapping_mul(0x9E37_79B9));
        let q = arb_query(&mut rng);
        let what = format!(
            "seed {seed}: {} (reducers={}, batch={}, rows={})",
            q.sql,
            q.reducers,
            q.batch_size,
            q.rows.len()
        );
        let expect = run(&q, true, 0);
        assert!(!expect.batches, "the reference ran batches: {what}");
        for budget in [0, 64 << 10] {
            let got = run(&q, false, budget);
            assert!(got.batches, "production skipped the batch path: {what}");
            assert_eq!(got.rows, expect.rows, "budget {budget}: {what}");
            if got.spilled {
                *seen.entry("spilled".into()).or_default() += 1;
            }
        }
        let mut count = |what: String| *seen.entry(what).or_default() += 1;
        count(format!("window={}", q.window));
        count(format!("partitioned={}", q.partitioned));
        count(format!("keys={}", q.keys));
        count(format!("reducers={}", q.reducers));
        count(format!("batch={}", q.batch_size));
        if expect.rows.len() > 200 {
            count("over 200 rows".into());
        }
    }
    // Meaningfulness floors: every shape shows up, and the fallback runs.
    for (want, floor) in [
        ("window=true", 10),
        ("window=false", 10),
        ("partitioned=true", 5),
        ("keys=1", 5),
        ("keys=2", 5),
        ("keys=3", 5),
        ("reducers=1", 5),
        ("reducers=3", 5),
        ("reducers=8", 5),
        ("batch=4", 5),
        ("batch=16", 5),
        ("batch=1024", 5),
        ("over 200 rows", 10),
        ("spilled", 5),
    ] {
        let n = seen.get(want).copied().unwrap_or(0);
        assert!(n >= floor, "only {n} queries with {want}: {seen:?}");
    }
}

/// A SUM that overflows fails the same way in production and the
/// reference — `Eval("integer overflow in '+'")`, the interpreter's
/// `Value::add` error — whether the row kernel, the accumulator lanes or
/// the window frames add, at every reducer count and budget. The error
/// is deterministic, so no task is launched twice and none is retried.
#[test]
fn overflowing_sums_fail_alike_once_per_task() {
    let overflow = CatalystError::Eval("integer overflow in '+'".into());
    let sum_schema: SchemaRef = Arc::new(Schema::new(vec![
        StructField::new("g", DataType::Long, false),
        StructField::new("a", DataType::Long, false),
    ]));
    // 2 000 rows; ten of them are i64::MAX, all in group 0.
    let rows: Vec<Row> = (0..2000i64)
        .map(|i| {
            let a = if i % 200 == 0 { i64::MAX } else { i % 97 };
            Row::new(vec![
                Value::Long(if a == i64::MAX { 0 } else { i % 7 }),
                Value::Long(a),
            ])
        })
        .collect();
    let queries = [
        "SELECT SUM(a) FROM t",
        "SELECT g, SUM(a) FROM t GROUP BY g",
        "SELECT g, SUM(a) OVER (PARTITION BY g ORDER BY a \
         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) FROM t",
        "SELECT g, SUM(a) OVER (PARTITION BY g ORDER BY a \
         ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) FROM t",
    ];
    for sql in queries {
        for reducers in [1usize, 3, 8] {
            for (reference, budget) in [(true, 0), (false, 0), (false, 64 << 10)] {
                let what =
                    format!("{sql} (reducers={reducers}, reference={reference}, budget={budget})");
                let ctx = SQLContext::new_local(4);
                ctx.set_conf(|c| {
                    c.reference = reference;
                    c.memory_budget_bytes = budget;
                    c.shuffle_partitions = reducers;
                });
                let sc = ctx.spark_context().clone();
                sc.set_chaos(None);
                let rdd = sc.parallelize(rows.clone(), 3);
                ctx.dataframe_from_rdd("t", sum_schema.clone(), rdd)
                    .unwrap()
                    .register_temp_table("t");
                // Every launch passes the injector: record its site.
                let launches = Arc::new(std::sync::Mutex::new(Vec::new()));
                let log = launches.clone();
                sc.set_failure_injector(Some(Arc::new(move |site| {
                    log.lock()
                        .unwrap()
                        .push((site.stage_id, site.partition, site.attempt));
                    false
                })));
                let before = sc.metrics().snapshot();
                let got = ctx.sql(sql).unwrap().collect();
                let after = sc.metrics().snapshot();
                assert_eq!(got.err(), Some(overflow.clone()), "{what}");
                assert_eq!(after.task_failures, before.task_failures, "{what}");
                assert_eq!(after.task_panics, before.task_panics, "{what}");
                let mut sites = launches.lock().unwrap().clone();
                assert!(sites.iter().all(|s| s.2 == 0), "a retried task: {what}");
                sites.sort_unstable();
                let n = sites.len();
                sites.dedup();
                assert_eq!(sites.len(), n, "a task launched twice: {what}");
            }
        }
    }
}

/// Strings whose 8-byte sort prefixes tie or nearly tie: equal in their
/// first 7 to 9 bytes, with embedded and trailing NULs, a character
/// straddling byte 7, and `""`.
const SHARED_PREFIX: &[&str] = &[
    "",
    "abcdef",
    "abcdefg",
    "abcdefg\0",
    "abcdefgh",
    "abcdefgh\0",
    "abcdefghi",
    "abcdefghj",
    "abcdefgi",
    "abcdefé",
    "abcdefgé",
    "abc\0defgh",
];

/// Long keys around `i64::MIN`, whose prefix word is NULL's.
const EDGE_LONGS: &[i64] = &[i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX];

fn shared_prefix_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("id", DataType::Long, false),
        StructField::new("s", DataType::String, true),
        StructField::new("t", DataType::String, true),
        StructField::new("l", DataType::Long, true),
    ]))
}

fn arb_shared_prefix_rows(rng: &mut StdRng, n: usize) -> Vec<Row> {
    let string = |rng: &mut StdRng| match rng.random_bool(0.1) {
        true => Value::Null,
        false => Value::str(SHARED_PREFIX[rng.random_range(0..SHARED_PREFIX.len())]),
    };
    (0..n)
        .map(|id| {
            let (s, t) = (string(rng), string(rng));
            let l = match rng.random_bool(0.1) {
                true => Value::Null,
                false => Value::Long(EDGE_LONGS[rng.random_range(0..EDGE_LONGS.len())]),
            };
            Row::new(vec![Value::Long(id as i64), s, t, l])
        })
        .collect()
}

/// Keys whose prefix words tie leave the order to the lanes: ORDER BY
/// and PARTITION BY (one or two columns) over strings sharing their
/// first bytes, NULL and `""`, and Long keys at `i64::MIN` return the
/// reference's rows in its order, unbounded and under a 64 KiB budget.
#[test]
fn shared_prefix_keys_agree_with_the_reference() {
    const KEYS: &[&str] = &["s", "t", "l", "substr(s, 2, 8)"];
    const CALLS: &[&str] = &[
        "rank() OVER ({o})",
        "dense_rank() OVER ({o})",
        "row_number() OVER ({o})",
        "lag(id) OVER ({o})",
        "lead(s, 1, 'none') OVER ({o})",
        "count(*) OVER ({o} RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)",
        "min(t) OVER ({o} ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING)",
    ];
    let mut seen: BTreeMap<String, u32> = BTreeMap::new();
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0x8B17 ^ seed.wrapping_mul(0x9E37_79B9));
        let n = rng.random_range(200usize..1500);
        let rows = arb_shared_prefix_rows(&mut rng, n);
        let mut pool: Vec<&str> = KEYS.to_vec();
        let mut pick = |rng: &mut StdRng| pool.remove(rng.random_range(0..pool.len()));
        let shape = ["order by", "partition by 1", "partition by 2"][seed as usize % 3];
        let partitions = match shape {
            "order by" => Vec::new(),
            "partition by 1" => vec![pick(&mut rng)],
            _ => vec![pick(&mut rng), pick(&mut rng)],
        };
        let order: Vec<String> = (0..rng.random_range(1usize..3))
            .map(|_| {
                let dir = if rng.random_bool(0.5) { "ASC" } else { "DESC" };
                format!("{} {dir}", pick(&mut rng))
            })
            .collect();
        let order = order.join(", ");
        let sql = if partitions.is_empty() {
            format!("SELECT id, s, t, l FROM t ORDER BY {order}")
        } else {
            let over = format!("PARTITION BY {} ORDER BY {order}", partitions.join(", "));
            let calls: Vec<String> = (0..rng.random_range(1usize..4))
                .map(|j| {
                    let call = CALLS[rng.random_range(0..CALLS.len())];
                    format!("{} AS w{j}", call.replace("{o}", &over))
                })
                .collect();
            format!("SELECT id, s, t, l, {} FROM t", calls.join(", "))
        };
        let q = Query {
            schema: shared_prefix_schema(),
            sql,
            rows,
            window: !partitions.is_empty(),
            partitioned: !partitions.is_empty(),
            keys: partitions.len() + 1,
            reducers: [1usize, 3, 8][rng.random_range(0..3)],
            batch_size: [4usize, 16, 1024][rng.random_range(0..3)],
        };
        let what = format!(
            "seed {seed}: {} (reducers={}, batch={}, rows={})",
            q.sql,
            q.reducers,
            q.batch_size,
            q.rows.len()
        );
        let expect = run(&q, true, 0);
        for budget in [0, 64 << 10] {
            let got = run(&q, false, budget);
            assert!(got.batches, "production skipped the batch path: {what}");
            assert_eq!(got.rows, expect.rows, "budget {budget}: {what}");
            let mut count = |what: &str| *seen.entry(what.into()).or_default() += 1;
            count(shape);
            if got.prefix_ties > 0 {
                count("prefix ties");
            }
            if got.spilled {
                count("spilled");
            }
        }
    }
    // Meaningfulness floors: every shape runs, prefix ties fall to the
    // lanes, and reducers spill.
    for (want, floor) in [
        ("order by", 10),
        ("partition by 1", 10),
        ("partition by 2", 10),
        ("prefix ties", 20),
        ("spilled", 5),
    ] {
        let n = seen.get(want).copied().unwrap_or(0);
        assert!(n >= floor, "only {n} runs with {want}: {seen:?}");
    }
}
