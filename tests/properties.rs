//! Deterministic randomized tests on core invariants:
//!
//! * the SQL engine agrees with a naive in-memory reference evaluator;
//! * every ablation configuration (the reference engine, shuffled joins
//!   forced, the Shark baseline) produces identical answers;
//! * the columnar file format round-trips arbitrary values.
//!
//! Formerly proptest; rewritten as seeded sweeps because the build
//! environment vendors only a minimal rand shim.

use catalyst::interpreter;
use catalyst::value::Value;
use catalyst::Row;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spark_sql_repro::spark_sql::prelude::*;
use std::sync::Arc;

fn table_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("k", DataType::Long, false),
        StructField::new("v", DataType::Long, true),
        StructField::new("s", DataType::String, false),
    ]))
}

type RawRow = (i64, Option<i64>, String);

fn arb_row(rng: &mut StdRng) -> RawRow {
    let k = rng.random_range(0i64..20);
    let v = if rng.random_bool(0.2) {
        None
    } else {
        Some(rng.random_range(-100i64..100))
    };
    let s: String = (0..rng.random_range(1usize..4))
        .map(|_| char::from(rng.random_range(b'a'..b'e')))
        .collect();
    (k, v, s)
}

fn arb_table(rng: &mut StdRng, min: usize, max: usize) -> Vec<RawRow> {
    let len = rng.random_range(min..max);
    (0..len).map(|_| arb_row(rng)).collect()
}

fn to_rows(data: &[RawRow]) -> Vec<Row> {
    data.iter()
        .map(|(k, v, s)| {
            Row::new(vec![
                Value::Long(*k),
                v.map(Value::Long).unwrap_or(Value::Null),
                Value::str(s),
            ])
        })
        .collect()
}

fn ctx_with(data: &[RawRow], conf: spark_sql::SqlConf) -> SQLContext {
    let ctx = SQLContext::new_local(2);
    ctx.set_conf(|c| *c = conf);
    ctx.register_rows("t", table_schema(), to_rows(data))
        .unwrap();
    ctx
}

/// WHERE v > threshold agrees with the reference filter.
#[test]
fn filter_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0x5EED_4001);
    for _ in 0..32 {
        let data = arb_table(&mut rng, 0, 80);
        let threshold = rng.random_range(-50i64..50);
        let ctx = ctx_with(&data, spark_sql::SqlConf::default());
        let got = ctx
            .sql(&format!("SELECT count(*) FROM t WHERE v > {threshold}"))
            .unwrap()
            .collect()
            .unwrap();
        let want = data
            .iter()
            .filter(|(_, v, _)| v.is_some_and(|v| v > threshold))
            .count();
        assert_eq!(got[0].get(0), &Value::Long(want as i64));
    }
}

/// GROUP BY sums agree with the reference (nulls skipped).
#[test]
fn group_by_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0x5EED_4002);
    for _ in 0..32 {
        let data = arb_table(&mut rng, 0, 80);
        let ctx = ctx_with(&data, spark_sql::SqlConf::default());
        let got = ctx
            .sql("SELECT k, sum(v), count(*) FROM t GROUP BY k ORDER BY k")
            .unwrap()
            .collect()
            .unwrap();
        use std::collections::BTreeMap;
        let mut reference: BTreeMap<i64, (Option<i64>, i64)> = BTreeMap::new();
        for (k, v, _) in &data {
            let e = reference.entry(*k).or_insert((None, 0));
            if let Some(v) = v {
                e.0 = Some(e.0.unwrap_or(0) + v);
            }
            e.1 += 1;
        }
        assert_eq!(got.len(), reference.len());
        for (row, (k, (sum, count))) in got.iter().zip(reference) {
            assert_eq!(row.get(0), &Value::Long(k));
            let want_sum = sum.map(Value::Long).unwrap_or(Value::Null);
            assert_eq!(row.get(1), &want_sum);
            assert_eq!(row.get(2), &Value::Long(count));
        }
    }
}

/// ORDER BY produces exactly the reference ordering (stable on ties
/// by whole-row comparison).
#[test]
fn order_by_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0x5EED_4003);
    for _ in 0..32 {
        let data = arb_table(&mut rng, 0, 60);
        let ctx = ctx_with(&data, spark_sql::SqlConf::default());
        let got: Vec<i64> = ctx
            .sql("SELECT k FROM t ORDER BY k DESC")
            .unwrap()
            .collect()
            .unwrap()
            .iter()
            .map(|r| r.get_long(0))
            .collect();
        let mut want: Vec<i64> = data.iter().map(|(k, _, _)| *k).collect();
        want.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(got, want);
    }
}

/// All ablation configurations give identical answers for a query
/// exercising filter + join + aggregate.
#[test]
fn ablations_preserve_semantics() {
    let mut rng = StdRng::seed_from_u64(0x5EED_4004);
    for _ in 0..8 {
        let data = arb_table(&mut rng, 1, 60);
        let q = "SELECT t.k, count(*), sum(u.v) FROM t JOIN t2 u ON t.k = u.k \
                 WHERE t.s LIKE 'a%' OR t.v IS NOT NULL \
                 GROUP BY t.k ORDER BY t.k";
        let run = |conf: spark_sql::SqlConf| {
            let ctx = ctx_with(&data, conf);
            ctx.register_rows("t2", table_schema(), to_rows(&data))
                .unwrap();
            ctx.sql(q).unwrap().collect().unwrap()
        };
        let baseline = run(spark_sql::SqlConf::default());
        let reference = run(spark_sql::SqlConf::reference());
        let shuffled = run(spark_sql::SqlConf {
            broadcast_threshold: 0,
            ..Default::default()
        });
        let shark = run(spark_sql::SqlConf::shark_like());
        assert_eq!(&baseline, &reference);
        assert_eq!(&baseline, &shuffled);
        assert_eq!(&baseline, &shark);
    }
}

/// The colfile format round-trips arbitrary typed rows.
#[test]
fn colfile_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x5EED_4006);
    for _ in 0..32 {
        let data = arb_table(&mut rng, 0, 50);
        let rows = to_rows(&data);
        let schema = table_schema();
        let bytes = datasources::write_colfile(&schema, &rows, 16);
        let file = datasources::read_colfile(bytes).unwrap();
        let decoded: Vec<Row> = file.groups.iter().flat_map(|g| g.decode(None)).collect();
        assert_eq!(decoded, rows);
    }
}

/// LIKE simplification (prefix/suffix/infix) never changes results.
#[test]
fn like_simplification_preserves_semantics() {
    const PATTERNS: &[&str] = &["a%", "%b", "%ab%", "abc", "%", "a_c"];
    let mut rng = StdRng::seed_from_u64(0x5EED_4007);
    for _ in 0..32 {
        let data = arb_table(&mut rng, 0, 60);
        let pattern = PATTERNS[rng.random_range(0..PATTERNS.len())];
        // Optimized engine vs direct reference using the interpreter's
        // like_match (which the unsimplified path uses).
        let ctx = ctx_with(&data, spark_sql::SqlConf::default());
        let got = ctx
            .sql(&format!("SELECT count(*) FROM t WHERE s LIKE '{pattern}'"))
            .unwrap()
            .collect()
            .unwrap();
        let want = data
            .iter()
            .filter(|(_, _, s)| interpreter::like_match(s, pattern))
            .count();
        assert_eq!(got[0].get(0), &Value::Long(want as i64));
    }
}
