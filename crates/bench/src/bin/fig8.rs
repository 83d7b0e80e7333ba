//! Figure 8: "Performance of Shark, Impala and Spark SQL on the big data
//! benchmark queries."
//!
//! Paper setup: 6× EC2 i2.xlarge, 110 GB Parquet; ours: one process over
//! generated data. What must reproduce is the *shape*: Spark SQL
//! substantially faster than Shark on every query (credited to Catalyst
//! code generation, §6.1) and roughly competitive with the compiled
//! native engine.
//!
//! Variants:
//! * `shark`    — `SqlConf::shark_like()`: the interpreted, row-at-a-time
//!   reference engine with the columnar cache and pushdown disabled;
//! * `sparksql` — full configuration;
//! * `native`   — hand-written multithreaded Rust per query ("Impala").
//!
//! Run with: `cargo run --release -p bench --bin fig8`

use bench::amplab::{self, native, AmplabScale};
use bench::{median_time, ms};
use spark_sql::SqlConf;

const REPS: usize = 3;
const THREADS: usize = 4;

fn main() {
    let scale = AmplabScale::default();
    println!(
        "Figure 8: AMPLab big data benchmark ({} pages, {} visits, {} docs), \
         median of {REPS} runs, {THREADS} threads\n",
        scale.pages, scale.visits, scale.documents
    );
    let data = amplab::generate(scale);

    let shark = amplab::make_context(&data, SqlConf::shark_like(), THREADS);
    let sparksql = amplab::make_context(&data, SqlConf::default(), THREADS);

    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>14} {:>14}",
        "query", "shark (ms)", "sparksql", "native", "shark/sparksql", "sparksql/native"
    );

    let queries = ["1a", "1b", "1c", "2a", "2b", "2c", "3a", "3b", "3c"];
    for q in queries {
        let text = amplab::query(q);
        let t_shark = median_time(REPS, || shark.sql(&text).unwrap().count().unwrap());
        let t_spark = median_time(REPS, || sparksql.sql(&text).unwrap().count().unwrap());
        let t_native = median_time(REPS, || match q {
            "1a" => native::query1(&data, 9000, THREADS),
            "1b" => native::query1(&data, 1000, THREADS),
            "1c" => native::query1(&data, 100, THREADS),
            "2a" => native::query2(&data, 6, THREADS),
            "2b" => native::query2(&data, 9, THREADS),
            "2c" => native::query2(&data, 12, THREADS),
            "3a" => native::query3(&data, "1980-04-01", THREADS).0.len(),
            "3b" => native::query3(&data, "1983-01-01", THREADS).0.len(),
            _ => native::query3(&data, "2010-01-01", THREADS).0.len(),
        });
        println!(
            "{:<6} {:>12.0} {:>12.0} {:>12.0} {:>13.1}x {:>13.1}x",
            q,
            ms(t_shark),
            ms(t_spark),
            ms(t_native),
            t_shark.as_secs_f64() / t_spark.as_secs_f64(),
            t_spark.as_secs_f64() / t_native.as_secs_f64()
        );
    }

    // Query 4 (UDF-bound): the paper notes it is "largely bound by the CPU
    // cost of the UDF"; Impala did not support it.
    let t_shark4 = median_time(REPS, || amplab::run_query4(&shark));
    let t_spark4 = median_time(REPS, || amplab::run_query4(&sparksql));
    let t_native4 = median_time(REPS, || native::query4(&data, THREADS));
    println!(
        "{:<6} {:>12.0} {:>12.0} {:>12.0} {:>13.1}x {:>13.1}x",
        "4",
        ms(t_shark4),
        ms(t_spark4),
        ms(t_native4),
        t_shark4.as_secs_f64() / t_spark4.as_secs_f64(),
        t_spark4.as_secs_f64() / t_native4.as_secs_f64()
    );
    println!(
        "\npaper shape: Spark SQL faster than Shark everywhere (codegen), \
         competitive with the native engine; largest native gap on 3a."
    );
}
