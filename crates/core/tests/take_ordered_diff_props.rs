//! Differential test for `TakeOrdered` (`ORDER BY … LIMIT n`): the
//! bounded-heap top-N must return the same rows *in the same order* as
//! sorting everything and truncating — which is what it replaced, kept
//! here as the oracle — and as a global `Sort` under a `Limit`, the plan
//! the `SpecialLimits` strategy bypasses.
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

fn arb_rows(rng: &mut StdRng) -> Vec<Row> {
    let n = rng.random_range(0usize..120);
    (0..n)
        .map(|i| {
            let a = match rng.random_range(0..4) {
                0 => Value::Null,
                _ => Value::Long(rng.random_range(0i64..3)),
            };
            let b = match rng.random_range(0..4) {
                0 => Value::Null,
                _ => Value::Double(rng.random_range(0i64..3) as f64 / 2.0),
            };
            let s = match rng.random_range(0..5) {
                0 => Value::Null,
                _ => Value::str(STR_POOL[rng.random_range(0..STR_POOL.len())]),
            };
            Row::new(vec![Value::Long(i as i64), a, b, s])
        })
        .collect()
}

/// `(column index, ascending)` per ORDER BY key.
fn arb_orders(rng: &mut StdRng) -> Vec<(usize, bool)> {
    let mut columns = vec![1usize, 2, 3];
    (0..rng.random_range(1usize..4))
        .map(|_| {
            let column = columns.remove(rng.random_range(0..columns.len()));
            (column, rng.random_bool(0.5))
        })
        .collect()
}

fn key_cmp(orders: &[(usize, bool)], x: &Row, y: &Row) -> Ordering {
    for &(column, ascending) in orders {
        let o = x.get(column).total_cmp(y.get(column));
        let o = if ascending { o } else { o.reverse() };
        if o != Ordering::Equal {
            return o;
        }
    }
    Ordering::Equal
}

/// The operator as it was before the heap: every partition sorts all of
/// its rows (stably) and keeps `n`; the driver sorts what is left and
/// keeps `n`.
fn sort_then_truncate(partitions: &[Vec<Row>], orders: &[(usize, bool)], n: usize) -> Vec<Row> {
    let mut all: Vec<Row> = Vec::new();
    for part in partitions {
        let mut rows = part.clone();
        rows.sort_by(|x, y| key_cmp(orders, x, y));
        rows.truncate(n);
        all.extend(rows);
    }
    all.sort_by(|x, y| key_cmp(orders, x, y));
    all.truncate(n);
    all
}

#[test]
fn heap_top_n_matches_sort_then_truncate_rows_and_order() {
    let names = ["id", "a", "b", "s"];
    for seed in 0..ITERS {
        let mut rng = StdRng::seed_from_u64(0x70b_0000 + seed);
        let rows = arb_rows(&mut rng);
        let parts = rng.random_range(1usize..5);
        let orders = arb_orders(&mut rng);
        let n = [0, 1, rows.len(), rows.len() + 5][rng.random_range(0..4)];

        let ctx = SQLContext::new_local(2);
        let table = Arc::new(MemoryTable::new("t", schema(), rows.clone(), parts));
        let partitions: Vec<Vec<Row>> = (0..parts)
            .map(|p| table.scan_partition(p, None, &[]).unwrap().collect())
            .collect();
        ctx.register_relation("t", table);
        let order_by: Vec<String> = orders
            .iter()
            .map(|&(c, asc)| format!("{} {}", names[c], if asc { "ASC" } else { "DESC" }))
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
            .map(|&(c, ascending)| SortOrder {
                expr: Expr::Column(output[c].clone()),
                ascending,
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
