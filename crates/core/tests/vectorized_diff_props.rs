//! Differential property tests for vectorized execution: randomly
//! generated tables and operator chains must produce *identical* results
//! in production — the columnar batch path (`RowBatch` + vectorized
//! kernels) beside compiled row closures — and in the reference, which
//! interprets every expression row at a time.
//!
//! Same deterministic seeded-sweep style as
//! `catalyst/tests/plan_validator_props.rs` (the build environment
//! vendors only a minimal rand shim). Each iteration runs the same plan
//! in both configurations and asserts the sorted result multisets match.

mod common;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spark_sql::prelude::*;
use std::sync::Arc;

use catalyst::expr::builders::{count_star, length, sum as sum_agg};

const ITERS: u64 = 120;

/// A visible column while generating: name + type, so every generated
/// expression is well typed against the current plan output.
#[derive(Clone)]
struct GenCol {
    name: String,
    dtype: DataType,
}

fn arb_dtype(rng: &mut StdRng) -> DataType {
    match rng.random_range(0u32..6) {
        0 => DataType::Long,
        1 => DataType::Int,
        2 => DataType::Double,
        3 => DataType::String,
        4 => DataType::Float,
        _ => DataType::Boolean,
    }
}

const STR_POOL: &[&str] = &["ab", "abc", "abq", "xyz", "", "zzz"];

fn arb_value(rng: &mut StdRng, dtype: &DataType, nullable: bool) -> Value {
    if nullable && rng.random_bool(0.2) {
        return Value::Null;
    }
    // An edge value one time in ten, for the numeric types.
    let edge = rng.random_bool(0.1);
    match dtype {
        DataType::Long if edge => Value::Long(P53 + 1),
        DataType::Long => Value::Long(rng.random_range(0i64..80) - 40),
        DataType::Int if edge => Value::Int(P24 + 1),
        DataType::Int => Value::Int((rng.random_range(0i64..80) - 40) as i32),
        DataType::Double => match rng.random_range(0usize..EDGE_DOUBLES.len() + 8) {
            i if i < EDGE_DOUBLES.len() => Value::Double(EDGE_DOUBLES[i]),
            _ => Value::Double(rng.random_range(0i64..400) as f64 / 4.0 - 50.0),
        },
        DataType::Float => match rng.random_range(0usize..EDGE_DOUBLES.len() + 8) {
            i if i < EDGE_DOUBLES.len() => Value::Float(EDGE_DOUBLES[i] as f32),
            _ => Value::Float(rng.random_range(0i64..400) as f32 / 4.0 - 50.0),
        },
        DataType::String => Value::str(STR_POOL[rng.random_range(0..STR_POOL.len())]),
        _ => Value::Boolean(rng.random_bool(0.5)),
    }
}

/// Doubles where IEEE comparison and the engine's total order disagree
/// (NaN is above every number and equal to itself, -0.0 is below 0.0),
/// infinities, and 0.1, which a FLOAT holds only as 0.100000001490116….
/// As FLOATs too.
const EDGE_DOUBLES: &[f64] = &[f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, 0.1];

/// 2^24 and 2^53: 2^24 + 1 is the first integer a FLOAT cannot hold,
/// 2^53 + 1 the first a DOUBLE cannot.
const P24: i32 = 1 << 24;
const P53: i64 = 1 << 53;

/// A random base table: guaranteed non-null Long key `k` plus 1..4
/// nullable columns of random type, with a healthy share of NULLs.
fn arb_table(rng: &mut StdRng) -> (SchemaRef, Vec<Row>) {
    let mut fields = vec![StructField::new("k", DataType::Long, false)];
    for i in 0..rng.random_range(1usize..4) {
        fields.push(StructField::new(format!("c{i}"), arb_dtype(rng), true));
    }
    let schema = Arc::new(Schema::new(fields));
    let n = rng.random_range(0usize..400);
    let rows = (0..n)
        .map(|i| {
            Row::new(
                schema
                    .fields()
                    .iter()
                    .enumerate()
                    .map(|(j, f)| {
                        if j == 0 {
                            Value::Long(i as i64)
                        } else {
                            arb_value(rng, &f.dtype, true)
                        }
                    })
                    .collect(),
            )
        })
        .collect();
    (schema, rows)
}

/// A well-typed boolean predicate over one visible column, occasionally
/// wrapped in 3VL connectives so kernel And/Or/Not get exercised against
/// NULL inputs.
fn arb_predicate(rng: &mut StdRng, cols: &[GenCol]) -> Expr {
    let c = &cols[rng.random_range(0..cols.len() as u32) as usize];
    let base = match &c.dtype {
        DataType::Long => match rng.random_range(0u32..3) {
            0 => col(&c.name).gt(lit(rng.random_range(0i64..40) - 20)),
            1 => col(&c.name)
                .rem(lit(7i64))
                .eq(lit(rng.random_range(0i64..7))),
            _ => col(&c.name).lt_eq(lit(rng.random_range(0i64..40))),
        },
        DataType::Int => col(&c.name).lt(lit((rng.random_range(0i64..40) - 20) as i32)),
        DataType::Double => col(&c.name).gt_eq(lit(rng.random_range(0i64..100) as f64 - 50.0)),
        DataType::Float => match rng.random_range(0u32..3) {
            0 => col(&c.name).lt(lit(rng.random_range(0i64..100) as f32 - 50.0)),
            // A FLOAT column meets a DOUBLE literal as a DOUBLE.
            1 => col(&c.name).eq(lit(0.1f64)),
            _ => col(&c.name).mul(lit(2i64)).gt(lit(0.2f32)),
        },
        DataType::String => {
            if rng.random_bool(0.5) {
                col(&c.name).eq(lit(STR_POOL[rng.random_range(0..STR_POOL.len())]))
            } else {
                col(&c.name).like(lit("ab%"))
            }
        }
        _ => col(&c.name).eq(lit(rng.random_bool(0.5))),
    };
    match rng.random_range(0u32..5) {
        0 => base.and(col(&cols[0].name).gt_eq(lit(0i64))),
        1 => base.or(col(&c.name).is_null()),
        2 => base.not(),
        3 => base.and(col(&c.name).is_not_null()),
        _ => base,
    }
}

/// A projection: a non-empty subset of the visible columns, plus
/// (sometimes) a cast to FLOAT and a computed expression — arithmetic
/// with div/mod-by-zero hazards, string concat, boolean not — so both the
/// typed kernels and the interpreter fallback see traffic. Returns the
/// exprs and the resulting visible columns.
fn arb_projection(
    rng: &mut StdRng,
    cols: &[GenCol],
    next_id: &mut usize,
) -> (Vec<Expr>, Vec<GenCol>) {
    let mut keep: Vec<GenCol> = cols
        .iter()
        .filter(|_| rng.random_bool(0.6))
        .cloned()
        .collect();
    if keep.is_empty() {
        keep.push(cols[rng.random_range(0..cols.len() as u32) as usize].clone());
    }
    let mut exprs: Vec<Expr> = keep.iter().map(|c| col(&c.name)).collect();
    let mut out = keep;
    // A number cast to FLOAT: alone, in FLOAT arithmetic, or beside a
    // DOUBLE, which sees whether the cast rounded.
    let c = &cols[rng.random_range(0..cols.len() as u32) as usize];
    if c.dtype.is_numeric() && rng.random_bool(0.5) {
        let float = col(&c.name).cast(DataType::Float);
        let (e, dtype) = match rng.random_range(0u32..3) {
            0 => (float, DataType::Float),
            1 => (float.mul(lit(2i64)), DataType::Float),
            _ => (float.add(lit(0.0f64)), DataType::Double),
        };
        let name = format!("e{next_id}");
        *next_id += 1;
        exprs.push(e.alias(name.clone()));
        out.push(GenCol { name, dtype });
    }
    if rng.random_bool(0.7) {
        let c = &cols[rng.random_range(0..cols.len() as u32) as usize];
        let (e, dtype) = match &c.dtype {
            DataType::Long | DataType::Int => match rng.random_range(0u32..5) {
                0 => (col(&c.name).add(lit(3i64)), DataType::Long),
                1 => (col(&c.name).mul(lit(-2i64)), DataType::Long),
                2 => (col(&c.name).sub(lit(5i64)), DataType::Long),
                // Divisor sweeps through 0 ⇒ NULL lanes on both paths.
                3 => (
                    col(&c.name).div(lit(rng.random_range(0i64..3))),
                    DataType::Double,
                ),
                _ => (
                    col(&c.name).rem(lit(rng.random_range(0i64..3))),
                    c.dtype.clone(),
                ),
            },
            DataType::Double => (col(&c.name).mul(lit(0.5f64)), DataType::Double),
            DataType::Float => match rng.random_range(0u32..3) {
                0 => (col(&c.name).mul(lit(2i64)), DataType::Float),
                1 => (col(&c.name).add(lit(0.5f64)), DataType::Double),
                _ => (col(&c.name).rem(lit(0.0f32)), DataType::Double),
            },
            DataType::String => (col(&c.name).add(lit("!")), DataType::String),
            _ => (col(&c.name).not(), DataType::Boolean),
        };
        let name = format!("e{next_id}");
        *next_id += 1;
        exprs.push(e.alias(name.clone()));
        out.push(GenCol { name, dtype });
    }
    (exprs, out)
}

/// One randomly generated query: operator chain + optional aggregate.
enum Op {
    Filter(Expr),
    Project(Vec<Expr>),
}

struct GenQuery {
    schema: SchemaRef,
    rows: Vec<Row>,
    cache: bool,
    ops: Vec<Op>,
    aggregate: bool,
}

fn arb_query(rng: &mut StdRng) -> GenQuery {
    let (schema, rows) = arb_table(rng);
    let mut cols: Vec<GenCol> = schema
        .fields()
        .iter()
        .map(|f| GenCol {
            name: f.name.to_string(),
            dtype: f.dtype.clone(),
        })
        .collect();
    let mut ops = Vec::new();
    let mut next_id = 0usize;
    for _ in 0..rng.random_range(0u32..4) {
        if rng.random_bool(0.5) {
            ops.push(Op::Filter(arb_predicate(rng, &cols)));
        } else {
            let (exprs, out) = arb_projection(rng, &cols, &mut next_id);
            ops.push(Op::Project(exprs));
            cols = out;
        }
    }
    // Aggregate only while the key survives (grouping needs it).
    let aggregate = cols.iter().any(|c| c.name == "k") && rng.random_bool(0.4);
    GenQuery {
        schema,
        rows,
        cache: rng.random_bool(0.5),
        ops,
        aggregate,
    }
}

/// Execute the query in production or in the reference and return the
/// result as a sorted multiset of row debug strings (Debug is exact for
/// doubles).
fn run(q: &GenQuery, reference: bool) -> Vec<String> {
    let ctx = SQLContext::new_local(2);
    ctx.set_conf(|c| c.reference = reference);
    let mut df = ctx
        .create_dataframe(q.schema.clone(), q.rows.clone())
        .expect("create_dataframe");
    if q.cache {
        df = df.cache().expect("cache");
    }
    for op in &q.ops {
        df = match op {
            Op::Filter(p) => df.where_(p.clone()).expect("filter"),
            Op::Project(exprs) => df.select(exprs.clone()).expect("project"),
        };
    }
    if q.aggregate {
        df = df
            .group_by(vec![col("k").rem(lit(4i64)).alias("g")])
            .agg(vec![count_star().alias("n"), sum_agg(col("k")).alias("s")])
            .expect("aggregate");
    }
    let qe = df.query_execution().expect("query_execution");
    let mut out: Vec<String> = common::collect_attributed(&ctx, &qe)
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    out.sort();
    out
}

#[test]
fn vectorized_and_row_paths_agree_on_random_plans() {
    let mut nonempty = 0u32;
    let mut cached = 0u32;
    let mut aggregated = 0u32;
    for seed in 0..ITERS {
        let mut rng = StdRng::seed_from_u64(0xBA7C4 ^ (seed * 0x9E37_79B9));
        let q = arb_query(&mut rng);
        let baseline = run(&q, true);
        assert_eq!(
            run(&q, false),
            baseline,
            "seed {seed}: production diverged from the reference \
             (cache={}, ops={}, agg={})",
            q.cache,
            q.ops.len(),
            q.aggregate
        );
        if !baseline.is_empty() {
            nonempty += 1;
        }
        if q.cache {
            cached += 1;
        }
        if q.aggregate {
            aggregated += 1;
        }
    }
    // Meaningfulness floors: the sweep must actually exercise the
    // interesting paths, not vacuously compare empty results.
    assert!(
        nonempty > ITERS as u32 / 2,
        "only {nonempty} non-empty results"
    );
    assert!(cached > ITERS as u32 / 4, "only {cached} cached runs");
    assert!(
        aggregated > ITERS as u32 / 8,
        "only {aggregated} aggregated runs"
    );
}

/// The batch path must also agree on whole-table scans with no operators
/// at all (pure cached-scan decode) and on the `count()` fast path.
#[test]
fn vectorized_count_and_bare_scan_agree() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0xC0DE ^ (seed * 0x85EB_CA6B));
        let (schema, rows) = arb_table(&mut rng);
        let mut counts = Vec::new();
        for reference in [false, true] {
            let ctx = SQLContext::new_local(2);
            ctx.set_conf(|c| c.reference = reference);
            let df = ctx
                .create_dataframe(schema.clone(), rows.clone())
                .unwrap()
                .cache()
                .unwrap();
            let mut got: Vec<String> = df
                .collect()
                .unwrap()
                .iter()
                .map(|r| format!("{r:?}"))
                .collect();
            got.sort();
            let mut expect: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
            expect.sort();
            assert_eq!(got, expect, "seed {seed}: bare scan, reference={reference}");
            counts.push(df.count().unwrap());
        }
        assert_eq!(counts[0], counts[1], "seed {seed}: count diverged");
    }
}

/// Values no lossy accumulator survives: BIGINTs that differ only below
/// f64's 53-bit mantissa, and an INT sum that widens to BIGINT in one
/// group and stays INT in the other. Production and the reference, at
/// every budget, must return the same values *and* the same `Value` tags.
#[test]
fn grouped_aggregates_are_exact_and_identically_tagged_in_every_config() {
    const BIG: i64 = 9_007_199_254_740_993; // 2^53 + 1
    let schema = Arc::new(Schema::new(vec![
        StructField::new("k", DataType::Long, false),
        StructField::new("v", DataType::Long, false),
        StructField::new("i", DataType::Int, false),
    ]));
    let rows = vec![
        Row::new(vec![Value::Long(1), Value::Long(BIG), Value::Int(i32::MAX)]),
        Row::new(vec![Value::Long(1), Value::Long(BIG - 1), Value::Int(1)]),
        Row::new(vec![Value::Long(2), Value::Long(BIG - 1), Value::Int(2)]),
    ];
    let expect = vec![
        format!(
            "{:?}",
            Row::new(vec![
                Value::Long(1),
                Value::Long(BIG),
                Value::Long(BIG - 1),
                Value::Long(i32::MAX as i64 + 1),
                Value::Double((2 * BIG - 1) as f64 / 2.0),
            ])
        ),
        format!(
            "{:?}",
            Row::new(vec![
                Value::Long(2),
                Value::Long(BIG - 1),
                Value::Long(BIG - 1),
                Value::Int(2),
                Value::Double((BIG - 1) as f64),
            ])
        ),
    ];
    for reference in [false, true] {
        for budget in [0u64, 64 * 1024] {
            let ctx = SQLContext::new_local(2);
            ctx.set_conf(|c| {
                c.reference = reference;
                c.memory_budget_bytes = budget;
            });
            ctx.create_dataframe(schema.clone(), rows.clone())
                .unwrap()
                .register_temp_table("t");
            let mut got: Vec<String> = ctx
                .sql("SELECT k, MAX(v), MIN(v), SUM(i), AVG(v) FROM t GROUP BY k")
                .unwrap()
                .collect()
                .unwrap()
                .iter()
                .map(|r| format!("{r:?}"))
                .collect();
            got.sort();
            assert_eq!(got, expect, "reference={reference} budget={budget}");
        }
    }
}

// ---- broadcast joins ----

/// One randomly generated broadcast equi-join: two tables joined on one
/// to three key columns, each side's keys drawn from a small domain with
/// NULLs (duplicate build keys everywhere), plus an optional residual.
struct JoinQuery {
    left: (SchemaRef, Vec<Row>),
    right: (SchemaRef, Vec<Row>),
    join_type: JoinType,
    keys: usize,
    residual: bool,
    batch_size: usize,
    /// Filter the left (`true`) or right side down to no rows, with a
    /// predicate planning cannot prove empty.
    empty: Option<bool>,
}

/// A join side `p` (`l` or `r`): key columns `{p}k0..`, then `{p}v`
/// (nullable Long) and `{p}s` (nullable String). Key 0 is Long on the
/// left and Int or Long on the right; further keys are String then Long.
/// `hot` rows all carry key 1 in every key column, so one key's matches
/// outnumber a batch.
fn arb_join_side(
    rng: &mut StdRng,
    p: &str,
    keys: usize,
    int_key: bool,
    rows: usize,
    hot: usize,
) -> (SchemaRef, Vec<Row>) {
    let key_dtype = |j: usize| match j {
        0 if int_key => DataType::Int,
        0 | 2 => DataType::Long,
        _ => DataType::String,
    };
    let mut fields: Vec<StructField> = (0..keys)
        .map(|j| StructField::new(format!("{p}k{j}"), key_dtype(j), true))
        .collect();
    fields.push(StructField::new(format!("{p}v"), DataType::Long, true));
    fields.push(StructField::new(format!("{p}s"), DataType::String, true));
    let key = |rng: &mut StdRng, j: usize, hot: bool| -> Value {
        let k = if hot { 1 } else { rng.random_range(0i64..6) };
        if !hot && rng.random_bool(0.15) {
            return Value::Null;
        }
        match key_dtype(j) {
            DataType::Int => Value::Int(k as i32),
            DataType::Long => Value::Long(k),
            _ => Value::str(STR_POOL[k as usize % STR_POOL.len()]),
        }
    };
    let rows = (0..rows + hot)
        .map(|i| {
            let mut values: Vec<Value> = (0..keys).map(|j| key(rng, j, i >= rows)).collect();
            values.push(arb_value(rng, &DataType::Long, true));
            values.push(arb_value(rng, &DataType::String, true));
            Row::new(values)
        })
        .collect();
    (Arc::new(Schema::new(fields)), rows)
}

fn arb_join(rng: &mut StdRng) -> JoinQuery {
    let join_type = match rng.random_range(0u32..4) {
        0 | 1 => JoinType::Inner,
        2 => JoinType::Left,
        _ => JoinType::Right,
    };
    let keys = rng.random_range(1usize..4);
    let int_key = rng.random_bool(0.5);
    // Inner joins build the smaller side, so size decides the build
    // side; outer joins build the side that is not preserved.
    // No side is empty at planning (a provably empty side plans away
    // the join); `empty` empties one at run time instead.
    let (mut lrows, rrows) = (rng.random_range(1usize..60), rng.random_range(1usize..60));
    if rng.random_bool(0.5) {
        lrows = lrows.div_ceil(4);
    }
    let hot = if rng.random_bool(0.3) { 40 } else { 0 };
    let (lhot, rhot) = if rng.random_bool(0.5) {
        (hot, 2)
    } else {
        (2, hot)
    };
    JoinQuery {
        left: arb_join_side(rng, "l", keys, false, lrows, lhot),
        right: arb_join_side(rng, "r", keys, int_key, rrows, rhot),
        join_type,
        keys,
        residual: rng.random_bool(0.4),
        batch_size: [4usize, 16, 1024][rng.random_range(0..3)],
        empty: rng.random_bool(0.2).then(|| rng.random_bool(0.5)),
    }
}

/// Run the join in production or in the reference: the sorted result
/// multiset and the executed physical plan.
fn run_join(q: &JoinQuery, reference: bool) -> (Vec<String>, String) {
    let ctx = SQLContext::new_local(2);
    ctx.set_conf(|c| {
        c.reference = reference;
        c.vectorize_batch_size = q.batch_size;
    });
    let side = |p: &str, (schema, rows): &(SchemaRef, Vec<Row>), empty: bool| {
        let df = ctx.create_dataframe(schema.clone(), rows.clone()).unwrap();
        if !empty {
            return df;
        }
        df.where_(length(col(format!("{p}s"))).gt(lit(100)))
            .unwrap()
    };
    let left = side("l", &q.left, q.empty == Some(true));
    let right = side("r", &q.right, q.empty == Some(false));
    let mut on = col("lk0").eq(col("rk0"));
    for j in 1..q.keys {
        on = on.and(col(format!("lk{j}")).eq(col(format!("rk{j}"))));
    }
    if q.residual {
        on = on.and(col("lv").lt(col("rv")).or(col("ls").eq(col("rs"))));
    }
    let df = left.join(&right, q.join_type, Some(on)).unwrap();
    let qe = df.query_execution().unwrap();
    let plan = format!("{}", qe.physical());
    let mut out: Vec<String> = common::collect_attributed(&ctx, &qe)
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    out.sort();
    (out, plan)
}

#[test]
fn broadcast_joins_agree_with_the_reference() {
    let (mut build_left, mut build_right, mut outer, mut residual) = (0, 0, 0, 0);
    let (mut empty_build, mut multi_key, mut int_long, mut over_batch) = (0, 0, 0, 0);
    for seed in 0..ITERS {
        let mut rng = StdRng::seed_from_u64(0x701 ^ (seed * 0x9E37_79B9));
        let q = arb_join(&mut rng);
        let (expect, _) = run_join(&q, true);
        let (got, plan) = run_join(&q, false);
        let what = format!(
            "seed {seed}: {:?} keys={} residual={} batch={}\n{plan}",
            q.join_type, q.keys, q.residual, q.batch_size
        );
        assert_eq!(got, expect, "{what}");
        assert!(plan.contains("BroadcastHashJoin"), "{what}");
        let left_builds = plan.contains("build=Left");
        let build = if left_builds { &q.left.1 } else { &q.right.1 };
        let build_empty = q.empty == Some(left_builds) || build.is_empty();
        build_left += left_builds as u32;
        build_right += !left_builds as u32;
        outer += (q.join_type != JoinType::Inner) as u32;
        residual += q.residual as u32;
        empty_build += build_empty as u32;
        multi_key += (q.keys > 1) as u32;
        int_long += (q.right.0.field(0).dtype == DataType::Int) as u32;
        // More key-1 matches for one stream lane than a batch holds.
        let hot = build
            .iter()
            .filter(|r| r.values()[0].as_i64() == Some(1))
            .count();
        over_batch += (hot > q.batch_size && !build_empty && !got.is_empty()) as u32;
    }
    // Meaningfulness floors: every shape the probe handles shows up.
    let counts = [
        ("build=Left", build_left),
        ("build=Right", build_right),
        ("outer", outer),
        ("residual", residual),
        ("empty build side", empty_build),
        ("multi-column key", multi_key),
        ("Int-vs-Long key", int_long),
        ("matches over a batch", over_batch),
    ];
    for (what, n) in counts {
        assert!(n >= 5, "only {n} joins with {what}: {counts:?}");
    }
}

// ---- grouped aggregates over blocks ----

/// One randomly generated GROUP BY: its SQL over table `t`, the table,
/// and the engine settings it runs under.
struct GroupQuery {
    sql: String,
    rows: Vec<Row>,
    int_key: bool,
    keys: usize,
    having: bool,
    reducers: usize,
    batch_size: usize,
}

/// `t`: key columns `k0` (Int or Long), `k1` (String), `k2` (Date), `k3`
/// (Long), `k4` (String), each NULL in about one row in eight, over small
/// domains; then `v` (Long), `i` (Int, some rows near `i32::MAX`, so a
/// sum widens once partials merge), `x` (Double, exact quarters), `t`
/// (String).
fn group_schema(int_key: bool) -> SchemaRef {
    let k0 = if int_key {
        DataType::Int
    } else {
        DataType::Long
    };
    Arc::new(Schema::new(vec![
        StructField::new("k0", k0, true),
        StructField::new("k1", DataType::String, true),
        StructField::new("k2", DataType::Date, true),
        StructField::new("k3", DataType::Long, true),
        StructField::new("k4", DataType::String, true),
        StructField::new("v", DataType::Long, true),
        StructField::new("i", DataType::Int, true),
        StructField::new("x", DataType::Double, true),
        StructField::new("t", DataType::String, true),
    ]))
}

fn arb_group_rows(rng: &mut StdRng, int_key: bool, n: usize) -> Vec<Row> {
    (0..n)
        .map(|_| {
            let key = |rng: &mut StdRng, f: &dyn Fn(i64) -> Value| {
                if rng.random_bool(0.125) {
                    Value::Null
                } else {
                    f(rng.random_range(0i64..5))
                }
            };
            let k0 = key(rng, &|k| match int_key {
                true => Value::Int(k as i32),
                false => Value::Long(k),
            });
            let k1 = key(rng, &|k| Value::str(STR_POOL[k as usize]));
            let k2 = key(rng, &|k| Value::Date(18_000 + k as i32));
            let k3 = key(rng, &|k| Value::Long(k * 1000));
            let k4 = key(rng, &|k| Value::str(["é", "ü", "ab"][k as usize % 3]));
            let i = if rng.random_bool(0.1) {
                Value::Int(i32::MAX - rng.random_range(0i64..3) as i32)
            } else {
                arb_value(rng, &DataType::Int, true)
            };
            Row::new(vec![
                k0,
                k1,
                k2,
                k3,
                k4,
                arb_value(rng, &DataType::Long, true),
                i,
                arb_value(rng, &DataType::Double, true),
                arb_value(rng, &DataType::String, true),
            ])
        })
        .collect()
}

fn arb_group_query(rng: &mut StdRng) -> GroupQuery {
    let int_key = rng.random_bool(0.5);
    let n = rng.random_range(0usize..300);
    let rows = arb_group_rows(rng, int_key, n);
    let keys = [1usize, 2, 3, 5][rng.random_range(0..4)];
    let mut pool: Vec<&str> = vec!["k0", "k1", "k2", "k3", "k4"];
    let mut key_exprs = Vec::new();
    while key_exprs.len() < keys {
        let k = pool.remove(rng.random_range(0..pool.len()));
        key_exprs.push(match (k, rng.random_bool(0.3)) {
            ("k1", true) => "substr(k1, 1, 2)".to_string(),
            ("k3", true) => "k3 % 3000".to_string(),
            _ => k.to_string(),
        });
    }
    const AGGS: &[&str] = &[
        "count(*)",
        "count(t)",
        "sum(v)",
        "sum(i)",
        "avg(x)",
        "avg(i)",
        "min(t)",
        "max(t)",
        "min(x)",
        "max(v)",
        "min(k2)",
        "sum(x)",
        // Expressions over aggregates.
        "sum(v) + count(*)",
        "max(v) - min(i)",
        "sum(x) / count(*)",
    ];
    let mut select = key_exprs.clone();
    for _ in 0..rng.random_range(1usize..5) {
        select.push(AGGS[rng.random_range(0..AGGS.len())].to_string());
    }
    let select: Vec<String> = (select.iter().enumerate())
        .map(|(j, e)| format!("{e} AS c{j}"))
        .collect();
    let having = rng.random_bool(0.4);
    let mut sql = format!(
        "SELECT {} FROM t GROUP BY {}",
        select.join(", "),
        key_exprs.join(", ")
    );
    if having {
        sql += [
            " HAVING count(*) > 1",
            " HAVING sum(v) IS NOT NULL",
            " HAVING min(t) < 'b' OR max(i) > 0",
        ][rng.random_range(0..3)];
    }
    GroupQuery {
        sql,
        rows,
        int_key,
        keys,
        having,
        reducers: [1usize, 3, 8][rng.random_range(0..3)],
        batch_size: [4usize, 16, 1024][rng.random_range(0..3)],
    }
}

/// Run the GROUP BY in production or in the reference over three map
/// partitions: the sorted result multiset, and whether the batch
/// pipeline ran (its HashAggregate reports `partial_groups`).
fn run_group(q: &GroupQuery, reference: bool) -> (Vec<String>, bool) {
    let ctx = SQLContext::new_local(2);
    ctx.set_conf(|c| {
        c.reference = reference;
        c.shuffle_partitions = q.reducers;
        c.vectorize_batch_size = q.batch_size;
    });
    let rdd = ctx.spark_context().parallelize(q.rows.clone(), 3);
    ctx.dataframe_from_rdd("t", group_schema(q.int_key), rdd)
        .unwrap()
        .register_temp_table("t");
    let qe = ctx.sql(&q.sql).unwrap().query_execution().unwrap();
    let mut out: Vec<String> = common::collect_attributed(&ctx, &qe)
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    out.sort();
    let metrics = qe.metrics();
    let blocks =
        (0..metrics.len()).any(|id| metrics.node(id).extras().contains_key("partial_groups"));
    (out, blocks)
}

#[test]
fn grouped_blocks_agree_with_the_reference() {
    let mut seen: std::collections::BTreeMap<String, u32> = Default::default();
    for seed in 0..ITERS {
        let mut rng = StdRng::seed_from_u64(0xA66 ^ (seed * 0x9E37_79B9));
        let q = arb_group_query(&mut rng);
        let (expect, reference_blocks) = run_group(&q, true);
        let (got, blocks) = run_group(&q, false);
        let what = format!(
            "seed {seed}: {} (reducers={}, batch={}, rows={})",
            q.sql,
            q.reducers,
            q.batch_size,
            q.rows.len()
        );
        assert_eq!(got, expect, "{what}");
        assert!(blocks, "production skipped the batch pipeline: {what}");
        assert!(
            !reference_blocks,
            "the reference ran the batch pipeline: {what}"
        );
        let mut count = |what: String| *seen.entry(what).or_default() += 1;
        count(format!("reducers={}", q.reducers));
        count(format!("batch={}", q.batch_size));
        count(format!("keys={}", q.keys));
        count(format!("int_key={}", q.int_key));
        count(format!("having={}", q.having));
        if expect.iter().any(|r| r.contains("Null")) {
            count("NULL in a result row".into());
        }
        if expect.len() > 1 {
            count("several groups".into());
        }
    }
    // Meaningfulness floors: every shape shows up.
    for want in [
        "reducers=1",
        "reducers=3",
        "reducers=8",
        "batch=4",
        "batch=16",
        "batch=1024",
        "keys=1",
        "keys=2",
        "keys=3",
        "keys=5",
        "int_key=true",
        "int_key=false",
        "having=true",
        "NULL in a result row",
        "several groups",
    ] {
        let n = seen.get(want).copied().unwrap_or(0);
        assert!(n >= 5, "only {n} queries with {want}: {seen:?}");
    }
}

// ---- high-cardinality string keys ----

/// A string key from about 2 500 distinct values: NULL, `""`,
/// multi-byte strings, and strings of 1 to 40 bytes.
fn arb_string_key(rng: &mut StdRng) -> Value {
    let k = rng.random_range(0usize..2500);
    match rng.random_range(0u32..20) {
        0 => Value::Null,
        1 => Value::str(""),
        2 | 3 => Value::str(format!("日本{k}é")),
        4 => Value::str("ü".repeat(1 + k % 20)),
        _ => Value::str(format!("{k}{}", "k".repeat(k % 37))),
    }
}

/// `h(s, v)`, 6 000 facts with a unique `v`, and `d(s, w)`, 400
/// dimension rows with a unique `w`, both keyed by [`arb_string_key`].
fn string_key_tables(rng: &mut StdRng) -> [Vec<Row>; 2] {
    [6000i64, 400].map(|n| {
        (0..n)
            .map(|i| Row::new(vec![arb_string_key(rng), Value::Long(i)]))
            .collect()
    })
}

/// GROUP BY and equi-join on the string key and on a `substr` of it,
/// each with a total ORDER BY, so rows compare in order.
const STRING_KEY_QUERIES: &[&str] = &[
    "SELECT s, count(*), sum(v), min(v) FROM h GROUP BY s ORDER BY s",
    "SELECT substr(s, 1, 4) AS p, count(*), max(v), min(s) FROM h \
     GROUP BY substr(s, 1, 4) ORDER BY p",
    "SELECT h.v, h.s, d.w FROM h JOIN d ON h.s = d.s ORDER BY h.v, d.w",
    "SELECT d.s, count(*), sum(h.v), max(d.w) FROM h JOIN d ON h.s = d.s \
     GROUP BY d.s ORDER BY d.s",
];

/// Run `sql` over `tables` in production or the reference, under
/// `budget` bytes (0: unbounded): its rows in order, and the deepest
/// reduce-side spill of a GROUP BY (`spill_depth`, 0 if none spilled).
fn run_string_keys(
    tables: &[Vec<Row>; 2],
    sql: &str,
    reference: bool,
    budget: u64,
    reducers: usize,
    batch_size: usize,
) -> (Vec<String>, u64) {
    let ctx = SQLContext::new_local(2);
    ctx.set_conf(|c| {
        c.reference = reference;
        c.memory_budget_bytes = budget;
        c.shuffle_partitions = reducers;
        c.vectorize_batch_size = batch_size;
    });
    for ((name, value), rows) in [("h", "v"), ("d", "w")].into_iter().zip(tables) {
        let schema = Arc::new(Schema::new(vec![
            StructField::new("s", DataType::String, true),
            StructField::new(value, DataType::Long, false),
        ]));
        let rdd = ctx.spark_context().parallelize(rows.clone(), 3);
        (ctx.dataframe_from_rdd(name, schema, rdd).unwrap()).register_temp_table(name);
    }
    let qe = ctx.sql(sql).unwrap().query_execution().unwrap();
    let out = (common::collect_attributed(&ctx, &qe).iter())
        .map(|r| format!("{r:?}"))
        .collect();
    let metrics = qe.metrics();
    let depth = (0..metrics.len())
        .filter_map(|id| metrics.node(id).extras().get("spill_depth").copied())
        .max();
    (out, depth.unwrap_or(0))
}

/// GROUP BY and joins on a high-cardinality string key agree with the
/// reference in rows and order, unbounded and under a budget that makes
/// the GROUP BY reducer spill: blocks read back from a spill carry no
/// hashes, so their keys are hashed again.
#[test]
fn high_cardinality_string_keys_agree_with_the_reference() {
    let mut spilled = 0;
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0x57A ^ (seed * 0x9E37_79B9));
        let tables = string_key_tables(&mut rng);
        let (reducers, batch_size) = [(1, 1024), (3, 16), (8, 4096), (4, 100)][seed as usize];
        for sql in STRING_KEY_QUERIES {
            let run = |reference, budget| {
                run_string_keys(&tables, sql, reference, budget, reducers, batch_size)
            };
            let (expect, _) = run(true, 0);
            assert!(
                expect.len() > 100,
                "seed {seed}: {} rows: {sql}",
                expect.len()
            );
            for budget in [0, 16 << 10] {
                let (got, depth) = run(false, budget);
                let what = format!("seed {seed}, budget {budget}, {reducers} reducers: {sql}");
                assert_eq!(got.len(), expect.len(), "{what}");
                for (g, e) in got.iter().zip(&expect) {
                    assert_eq!(g, e, "{what}");
                }
                spilled += (budget > 0 && depth > 0) as u32;
            }
        }
    }
    // Floor: the GROUP BY reducers spilled, so the re-hash path ran.
    assert!(
        spilled >= 8,
        "only {spilled} runs spilled a GROUP BY reducer"
    );
}

/// The comparisons where IEEE order and the engine's total order part:
/// NaN is above every number and equal to itself, -0.0 is below 0.0.
/// Production's kernels must give the reference's rows.
#[test]
fn edge_double_comparisons_agree_with_the_reference() {
    let schema: SchemaRef = Arc::new(Schema::new(vec![StructField::new(
        "x",
        DataType::Double,
        true,
    )]));
    let xs = [
        Some(f64::NAN),
        Some(-0.0),
        Some(0.0),
        Some(1.0),
        Some(2.0),
        None,
    ];
    let rows: Vec<Row> = (xs.iter())
        .map(|x| Row::new(vec![x.map_or(Value::Null, Value::Double)]))
        .collect();
    let queries = [
        "SELECT x FROM t WHERE x > 1.5",
        "SELECT x FROM t WHERE x < 0.0",
        "SELECT x FROM t WHERE x = x",
        "SELECT count(*) FROM t WHERE x > 100.0",
        "SELECT x FROM t WHERE x >= 0.0",
        "SELECT x FROM t WHERE x <= 0.0",
        "SELECT x FROM t WHERE x <> 2.0",
        "SELECT x FROM t WHERE x = 0.0",
        "SELECT x, x > 1.0, x = x, x < 1.0 FROM t",
    ];
    for sql in queries {
        let mut results = Vec::new();
        for reference in [true, false] {
            let ctx = SQLContext::new_local(2);
            ctx.set_conf(|c| c.reference = reference);
            ctx.register_rows("t", schema.clone(), rows.clone())
                .expect("register");
            let mut out: Vec<String> = (ctx.sql(sql).expect(sql).collect().expect(sql).iter())
                .map(|r| format!("{r:?}"))
                .collect();
            out.sort();
            results.push(out);
        }
        assert_eq!(results[1], results[0], "{sql}: production vs reference");
    }
}
