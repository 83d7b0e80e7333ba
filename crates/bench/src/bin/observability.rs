//! Observability demo: runs a multi-stage query under instrumentation,
//! prints its `EXPLAIN ANALYZE` tree (actual rows, per-operator times,
//! and on each `Exchange` line the volume of the shuffle it minted),
//! then dumps the session query log as JSON — the
//! machine-readable record a harness would archive next to Figure 8/9
//! style wall-clock numbers.
//!
//! Run with: `cargo run --release -p bench --bin observability`

use catalyst::value::Value;
use catalyst::Row;
use catalyst::{DataType, Schema, StructField};
use spark_sql::SQLContext;
use std::sync::Arc;

const USERS: usize = 200_000;
const DEPTS: i64 = 64;

fn users(ctx: &SQLContext) -> spark_sql::DataFrame {
    let schema = Arc::new(Schema::new(vec![
        StructField::new("id", DataType::Long, false),
        StructField::new("age", DataType::Int, false),
        StructField::new("dept_id", DataType::Long, false),
    ]));
    let rows: Vec<Row> = (0..USERS)
        .map(|i| {
            let mut z = (i as u64).wrapping_add(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            Row::new(vec![
                Value::Long(i as i64),
                Value::Int(18 + (z % 50) as i32),
                Value::Long((z >> 8) as i64 % DEPTS),
            ])
        })
        .collect();
    ctx.create_dataframe(schema, rows).expect("users df")
}

fn depts(ctx: &SQLContext) -> spark_sql::DataFrame {
    let schema = Arc::new(Schema::new(vec![
        StructField::new("d_id", DataType::Long, false),
        StructField::new("dept", DataType::String, false),
    ]));
    let rows: Vec<Row> = (0..DEPTS)
        .map(|d| Row::new(vec![Value::Long(d), Value::str(format!("dept-{d}"))]))
        .collect();
    ctx.create_dataframe(schema, rows).expect("depts df")
}

fn main() {
    use catalyst::expr::builders::{col, lit};

    let ctx = SQLContext::new_local(8);
    let query = users(&ctx)
        .where_(col("age").gt(lit(40)))
        .expect("filter")
        .group_by_cols(&["dept_id"])
        .count()
        .expect("aggregate")
        .join_on(&depts(&ctx), col("dept_id").eq(col("d_id")))
        .expect("join")
        .select(vec![col("dept"), col("count")])
        .expect("project");

    println!("{}", query.explain_analyze().expect("explain analyze"));

    // A second instrumented run through the programmatic handle.
    let qe = query.query_execution().expect("query execution");
    let rows = qe.collect().expect("collect");
    println!(
        "programmatic run: {} rows, root operator saw {}",
        rows.len(),
        qe.metrics().node(0).output_rows()
    );

    println!("\n== Query log (JSON) ==\n{}", ctx.query_log_json());
}
