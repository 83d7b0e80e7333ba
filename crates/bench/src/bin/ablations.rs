//! Ablations for the design choices DESIGN.md calls out: each Catalyst
//! feature is toggled in isolation and measured on a workload that
//! exercises it. (Compiled vs interpreted evaluation is Figure 4's and
//! Figure 8's question: `--bin fig4`, `--bin fig8`.)
//!
//! * filter pushdown       → federation query (bytes over the wire);
//! * columnar cache on/off → cached-table scan footprint + query time;
//! * broadcast threshold   → join strategy crossover sweep.
//!
//! Run with: `cargo run --release -p bench --bin ablations`

use bench::amplab::{self, AmplabScale};
use bench::{median_time, ms};
use catalyst::value::Value;
use catalyst::Row;
use catalyst::{DataType, Schema, StructField};
use datasources::{register_database, RemoteDb};
use spark_sql::{SQLContext, SqlConf};
use std::sync::Arc;

fn main() {
    pushdown_ablation();
    cache_ablation();
    broadcast_crossover();
}

fn pushdown_ablation() {
    println!("== filter/projection pushdown (federation wire bytes) ==");
    let db = RemoteDb::new();
    let schema = Arc::new(Schema::new(vec![
        StructField::new("id", DataType::Long, false),
        StructField::new("grp", DataType::Long, false),
        StructField::new("payload", DataType::String, false),
    ]));
    let rows: Vec<Row> = (0..50_000)
        .map(|i| {
            Row::new(vec![
                Value::Long(i),
                Value::Long(i % 100),
                Value::str("x".repeat(64)),
            ])
        })
        .collect();
    db.create_table("events", schema, rows);
    register_database("jdbc:sim://events", db.clone());

    for (label, pushdown) in [("pushdown on", true), ("pushdown off", false)] {
        let ctx = SQLContext::new_local(4);
        ctx.set_conf(|c| {
            c.pushdown_enabled = pushdown;
            c.column_pruning_enabled = pushdown;
        });
        ctx.sql(
            "CREATE TEMPORARY TABLE events USING jdbc \
                 OPTIONS(url 'jdbc:sim://events', table 'events')",
        )
        .unwrap();
        db.reset_meters();
        let n = ctx
            .sql("SELECT id FROM events WHERE grp = 7")
            .unwrap()
            .count()
            .unwrap();
        println!(
            "  {label:<13} rows={n:<6} wire bytes={:>12} wire rows={}",
            db.bytes_transferred(),
            db.rows_transferred()
        );
    }
    println!();
}

fn cache_ablation() {
    println!("== columnar vs object cache (1M-row cached table) ==");
    let data = amplab::generate(AmplabScale {
        pages: 300_000,
        visits: 0,
        documents: 0,
    });
    for (label, columnar) in [("columnar cache", true), ("object cache", false)] {
        let conf = SqlConf {
            columnar_cache_enabled: columnar,
            ..SqlConf::default()
        };
        let ctx = amplab::make_context(&data, conf, 4);
        ctx.sql("CACHE TABLE rankings").unwrap();
        // Materialize + query.
        let t = median_time(3, || {
            ctx.sql("SELECT count(*) FROM rankings WHERE pageRank > 5000")
                .unwrap()
                .collect()
                .unwrap()
        });
        println!("  {label:<15} filtered count query {:>8.1}ms", ms(t));
    }
    println!();
}

fn broadcast_crossover() {
    println!("== broadcast vs shuffled join crossover (build-side sweep) ==");
    let ctx_for = |threshold: u64| {
        let ctx = SQLContext::new_local(4);
        ctx.set_conf(|c| c.broadcast_threshold = threshold);
        ctx
    };
    let dim_schema = Arc::new(Schema::new(vec![
        StructField::new("k", DataType::Long, false),
        StructField::new("label", DataType::String, false),
    ]));
    let fact_schema = Arc::new(Schema::new(vec![
        StructField::new("fk", DataType::Long, false),
        StructField::new("v", DataType::Double, false),
    ]));
    let facts: Vec<Row> = (0..400_000)
        .map(|i| Row::new(vec![Value::Long(i % 10_000), Value::Double(i as f64)]))
        .collect();
    println!(
        "  {:>10} {:>18} {:>18}",
        "dim rows", "broadcast (ms)", "shuffled (ms)"
    );
    for dim_rows in [100i64, 1_000, 10_000, 100_000] {
        let dims: Vec<Row> = (0..dim_rows)
            .map(|i| Row::new(vec![Value::Long(i), Value::str(format!("d{i}"))]))
            .collect();
        let mut times = Vec::new();
        for threshold in [u64::MAX / 8, 0] {
            let ctx = ctx_for(threshold);
            ctx.register_rows("dim", dim_schema.clone(), dims.clone())
                .unwrap();
            ctx.register_rows("fact", fact_schema.clone(), facts.clone())
                .unwrap();
            let t = median_time(3, || {
                ctx.sql("SELECT count(*) FROM fact JOIN dim ON fact.fk = dim.k")
                    .unwrap()
                    .collect()
                    .unwrap()
            });
            times.push(t);
        }
        println!(
            "  {:>10} {:>18.1} {:>18.1}",
            dim_rows,
            ms(times[0]),
            ms(times[1])
        );
    }
    println!("\nsmall build sides favor broadcast; the gap narrows as the build side grows.");
}
