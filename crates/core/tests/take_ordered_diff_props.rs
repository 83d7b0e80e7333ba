//! Differential test for `TakeOrdered` (`ORDER BY … LIMIT n`): the
//! production block top-N (kernel keys, each batch cut to its best `n`,
//! a driver merge by lane order) and the reference's row heap must
//! return the same rows *in the same order* as sorting everything and
//! truncating — kept here as the oracle — and as a global `Sort` under a
//! `Limit`, the plan the `SpecialLimits` strategy bypasses.
//!
//! Keys are drawn from small domains with NULLs and never include the
//! unique row id, so nearly every comparison is a tie and the output
//! order is decided by the tiebreak: partition order, then arrival order.

use catalyst::expr::SortOrder;
use catalyst::physical::{ensure_requirements, PhysicalPlan};
use catalyst::source::{BaseRelation, MemoryTable};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spark_sql::execution::{execute, ExecContext};
use spark_sql::prelude::*;
use std::cmp::Ordering;
use std::sync::Arc;

const ITERS: u64 = 200;

fn schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("id", DataType::Long, false),
        StructField::new("a", DataType::Long, true),
        StructField::new("b", DataType::Double, true),
        StructField::new("s", DataType::String, true),
    ]))
}

const STR_POOL: &[&str] = &["", "ab", "abc", "zz", "человек"];

/// Every double order has an opinion on: NaN, the zeros, the infinities.
const DOUBLE_POOL: &[f64] = &[
    f64::NAN,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    0.5,
    1.0,
    f64::INFINITY,
];

fn arb_rows(rng: &mut StdRng, max: usize) -> Vec<Row> {
    let n = rng.random_range(0usize..max);
    (0..n)
        .map(|i| {
            let a = match rng.random_range(0..4) {
                0 => Value::Null,
                _ => Value::Long(rng.random_range(0i64..3)),
            };
            let b = match rng.random_range(0..4) {
                0 => Value::Null,
                _ => Value::Double(DOUBLE_POOL[rng.random_range(0..DOUBLE_POOL.len())]),
            };
            let s = match rng.random_range(0..5) {
                0 => Value::Null,
                _ => Value::str(STR_POOL[rng.random_range(0..STR_POOL.len())]),
            };
            Row::new(vec![Value::Long(i as i64), a, b, s])
        })
        .collect()
}

/// One ORDER BY key: a column, or an expression over one that kernels
/// compute.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Key {
    A,
    B,
    S,
    APlusOne,
    FirstChar,
}

impl Key {
    const COLUMNS: [Key; 3] = [Key::A, Key::B, Key::S];
    const ALL: [Key; 5] = [Key::A, Key::B, Key::S, Key::APlusOne, Key::FirstChar];

    fn sql(self) -> &'static str {
        match self {
            Key::A => "a",
            Key::B => "b",
            Key::S => "s",
            Key::APlusOne => "a + 1",
            Key::FirstChar => "substr(s, 1, 1)",
        }
    }

    fn eval(self, row: &Row) -> Value {
        match self {
            Key::A => row.get(1).clone(),
            Key::B => row.get(2).clone(),
            Key::S => row.get(3).clone(),
            Key::APlusOne => match row.get(1) {
                Value::Long(a) => Value::Long(a + 1),
                _ => Value::Null,
            },
            Key::FirstChar => match row.get(3) {
                Value::Str(s) => Value::str(s.chars().take(1).collect::<String>()),
                _ => Value::Null,
            },
        }
    }
}

/// `(key, ascending)` per ORDER BY key, each drawn once from `pool`.
fn arb_orders(rng: &mut StdRng, pool: &[Key]) -> Vec<(Key, bool)> {
    let mut pool = pool.to_vec();
    (0..rng.random_range(1..pool.len().min(3) + 1))
        .map(|_| {
            let key = pool.remove(rng.random_range(0..pool.len()));
            (key, rng.random_bool(0.5))
        })
        .collect()
}

/// The operator as it was before the heap: every partition sorts all of
/// its (selected) rows stably and keeps `n`; the driver sorts what is
/// left and keeps `n`.
fn sort_then_truncate(partitions: &[Vec<Row>], keys: &[(Key, bool)], n: usize) -> Vec<Row> {
    let cmp = |x: &Row, y: &Row| {
        for &(key, ascending) in keys {
            let o = key.eval(x).total_cmp(&key.eval(y));
            if o != Ordering::Equal {
                return if ascending { o } else { o.reverse() };
            }
        }
        Ordering::Equal
    };
    let mut all: Vec<Row> = Vec::new();
    for part in partitions {
        let mut rows = part.clone();
        rows.sort_by(cmp);
        rows.truncate(n);
        all.extend(rows);
    }
    all.sort_by(cmp);
    all.truncate(n);
    all
}

#[test]
fn heap_top_n_matches_sort_then_truncate_rows_and_order() {
    for seed in 0..ITERS {
        let mut rng = StdRng::seed_from_u64(0x70b_0000 + seed);
        let rows = arb_rows(&mut rng, 120);
        let parts = rng.random_range(1usize..5);
        let orders = arb_orders(&mut rng, &Key::COLUMNS);
        let n = [0, 1, rows.len(), rows.len() + 5][rng.random_range(0..4)];

        let ctx = SQLContext::new_local(2);
        let table = Arc::new(MemoryTable::new("t", schema(), rows.clone(), parts));
        let partitions: Vec<Vec<Row>> = (0..parts)
            .map(|p| table.scan_partition(p, None, &[]).unwrap().collect())
            .collect();
        ctx.register_relation("t", table);
        let order_by: Vec<String> = orders
            .iter()
            .map(|&(k, asc)| format!("{} {}", k.sql(), if asc { "ASC" } else { "DESC" }))
            .collect();
        let sql = format!(
            "SELECT id, a, b, s FROM t ORDER BY {} LIMIT {n}",
            order_by.join(", ")
        );
        let case = format!(
            "seed {seed}: {parts} partitions, {} rows, {sql}",
            rows.len()
        );

        let expected = sort_then_truncate(&partitions, &orders, n);
        // The public path, whatever plan the optimizer picks for it (it
        // answers `LIMIT 0` without running anything).
        assert_eq!(
            ctx.sql(&sql).unwrap().collect().unwrap(),
            expected,
            "{case}"
        );

        // The operator itself for every `n`, and the global sort under a
        // limit that `SpecialLimits` plans it instead of.
        let scan = ctx.sql("SELECT id, a, b, s FROM t").unwrap();
        let (_, scan) = ctx.plan_query(scan.logical_plan()).unwrap();
        let scan = Arc::new(scan);
        let output = scan.output();
        let orders: Vec<SortOrder> = orders
            .iter()
            .map(|&(k, ascending)| {
                let column = Key::COLUMNS.iter().position(|&c| c == k);
                SortOrder {
                    expr: Expr::Column(output[1 + column.expect("a bare column")].clone()),
                    ascending,
                }
            })
            .collect();
        let take_ordered = PhysicalPlan::TakeOrdered {
            input: scan.clone(),
            orders: orders.clone(),
            n,
        };
        let sort_under_limit = PhysicalPlan::Limit {
            input: Arc::new(PhysicalPlan::Sort {
                input: scan,
                orders,
            }),
            n,
        };
        let sort_under_limit =
            ensure_requirements(&sort_under_limit, ctx.conf().shuffle_partitions);
        let exec = ExecContext::new(ctx.spark_context().clone(), ctx.conf());
        let run = |plan: &PhysicalPlan| execute(plan, &exec).unwrap().try_collect().unwrap();
        assert_eq!(run(&take_ordered), expected, "TakeOrdered, {case}");
        assert_eq!(run(&sort_under_limit), expected, "Sort + Limit, {case}");
    }
}

/// Mirrors the block top-N's cut: a task sorts its candidates back to
/// `n` once they pass this many times `n` lanes.
const COMPACT_AT: usize = 4;

/// The block top-N against the reference and the oracle, in rows and
/// order, across batch sizes 1, 3, 7 and the default (so a partition
/// spans many batches and its candidates are cut), filtered input (so
/// batches carry selection vectors), computed keys (`a + 1`,
/// `substr(s, 1, 1)`), doubles with NaN, ±0.0, ±∞ and NULL, and `n` at
/// 0, 1, either side of the batch size, either side of the largest
/// partition's share of the cut threshold, all rows and past them.
#[test]
fn block_top_n_matches_the_reference_and_the_oracle() {
    let default_batch = SqlConf::default().vectorize_batch_size;
    let (mut ran, mut computed) = (0, 0);
    for seed in 0..ITERS {
        let mut rng = StdRng::seed_from_u64(0xb10c_0000 + seed);
        let rows = arb_rows(&mut rng, 200);
        let parts = rng.random_range(1usize..5);
        let batch = [1, 3, 7, default_batch][rng.random_range(0..4)];
        let filtered = rng.random_bool(0.5);
        let keys = arb_orders(&mut rng, &Key::ALL);

        let table = Arc::new(MemoryTable::new("t", schema(), rows.clone(), parts));
        let partitions: Vec<Vec<Row>> = (0..parts)
            .map(|p| {
                let rows = table.scan_partition(p, None, &[]).unwrap();
                rows.filter(|r| !filtered || r.get(0).as_i64().unwrap() % 3 != 1)
                    .collect()
            })
            .collect();
        let selected: usize = partitions.iter().map(Vec::len).sum();
        let largest = partitions.iter().map(Vec::len).max().unwrap_or(0);
        let threshold = largest / COMPACT_AT;
        let choices = [
            0,
            1,
            batch - 1,
            batch,
            batch + 1,
            threshold.saturating_sub(1),
            threshold,
            threshold + 1,
            selected,
            selected + 5,
        ];
        let n = choices[rng.random_range(0..choices.len())];

        let order_by: Vec<String> = (keys.iter())
            .map(|&(k, asc)| format!("{} {}", k.sql(), if asc { "ASC" } else { "DESC" }))
            .collect();
        let filter = if filtered { "WHERE id % 3 <> 1 " } else { "" };
        let sql = format!(
            "SELECT id, a, b, s FROM t {filter}ORDER BY {} LIMIT {n}",
            order_by.join(", ")
        );
        let case = format!(
            "seed {seed}: {parts} partitions, {} rows, batch {batch}, {sql}",
            rows.len()
        );
        let expected = sort_then_truncate(&partitions, &keys, n);

        for reference in [false, true] {
            let ctx = SQLContext::new_local(2);
            ctx.set_conf(|c| {
                c.vectorize_batch_size = batch;
                c.reference = reference;
            });
            ctx.register_relation("t", table.clone());
            let qe = ctx.sql(&sql).unwrap().query_execution().unwrap();
            let got = qe.collect().unwrap();
            assert_eq!(got, expected, "reference = {reference}, {case}");
            let take = ids_of_take_ordered(qe.physical());
            if reference || take.is_empty() {
                continue;
            }
            // Production ran the block top-N: its node counts batches,
            // and no task handed over more than `n` candidates.
            let extras = qe.metrics().node(take[0]).extras();
            assert!(extras.contains_key("batches"), "{case}: {extras:?}");
            let candidates = extras.get("candidates").copied().unwrap_or(0);
            assert!(candidates as usize <= parts * n, "{case}: {extras:?}");
            ran += 1;
            if keys
                .iter()
                .any(|(k, _)| matches!(k, Key::APlusOne | Key::FirstChar))
            {
                computed += 1;
            }
        }
    }
    // Floors: most cases ran the block top-N, many over computed keys.
    assert!(ran >= ITERS * 3 / 4, "the block top-N ran {ran} times");
    assert!(computed >= ITERS / 3, "computed keys ran {computed} times");
}

/// Pre-order ids of the `TakeOrdered` nodes of `plan`.
fn ids_of_take_ordered(plan: &PhysicalPlan) -> Vec<usize> {
    fn walk(plan: &PhysicalPlan, id: &mut usize, out: &mut Vec<usize>) {
        if matches!(plan, PhysicalPlan::TakeOrdered { .. }) {
            out.push(*id);
        }
        *id += 1;
        for child in plan.children() {
            walk(&child, id, out);
        }
    }
    let mut out = Vec::new();
    walk(plan, &mut 0, &mut out);
    out
}

#[test]
fn a_failing_sort_key_is_an_error_not_a_dead_task() {
    let ctx = SQLContext::new_local(2);
    let rows = (0..10).map(|i| Row::new(vec![Value::Long(i)])).collect();
    let schema = Arc::new(Schema::new(vec![StructField::new(
        "id",
        DataType::Long,
        false,
    )]));
    ctx.register_rows("t", schema, rows).unwrap();
    ctx.register_udf("brittle", DataType::Long, |args| match args[0].as_i64() {
        Some(7) => Err(catalyst::CatalystError::Internal(
            "seven is right out".into(),
        )),
        other => Ok(Value::Long(other.unwrap_or(0))),
    });
    let e = ctx
        .sql("SELECT id FROM t ORDER BY brittle(id) LIMIT 3")
        .unwrap()
        .collect()
        .expect_err("the key of row 7 cannot be evaluated");
    let message = e.to_string();
    assert!(message.contains("seven is right out"), "{message}");
    assert!(!message.contains("task failed"), "{message}");
}

/// A predicate whose evaluation fails is an error on every path, not a
/// row silently filtered out: the filter above this aggregate runs row at
/// a time in production as in the reference.
#[test]
fn a_failing_predicate_is_an_error_on_every_path() {
    for reference in [false, true] {
        let ctx = SQLContext::new_local(2);
        ctx.set_conf(|c| c.reference = reference);
        let rows = (0..10).map(|i| Row::new(vec![Value::Long(i)])).collect();
        let schema = Arc::new(Schema::new(vec![StructField::new(
            "id",
            DataType::Long,
            false,
        )]));
        ctx.register_rows("t", schema, rows).unwrap();
        ctx.register_udf("brittle", DataType::Long, |args| match args[0].as_i64() {
            Some(4) => Err(catalyst::CatalystError::Internal("four is unlucky".into())),
            other => Ok(Value::Long(other.unwrap_or(0))),
        });
        // Group 0 counts ids 0, 3, 6, 9: its predicate fails.
        let e = ctx
            .sql(
                "SELECT k FROM (SELECT id % 3 AS k, count(*) AS c FROM t GROUP BY id % 3) s \
                 WHERE brittle(c) > 0",
            )
            .unwrap()
            .collect()
            .expect_err("the predicate of group 0 cannot be evaluated");
        let message = e.to_string();
        assert!(
            message.contains("four is unlucky"),
            "reference = {reference}: {message}"
        );
    }
}
