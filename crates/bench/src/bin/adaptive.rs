//! Adaptive-execution benchmark: runtime re-planning of shuffled joins
//! against the same queries statically planned.
//!
//! 1. *Dynamic broadcast demotion* — a skewed fact table joins a small
//!    dimension table, but both arrive as bare RDDs with unknown
//!    statistics, so the static planner must shuffle both sides. The
//!    adaptive run materializes the dimension's map output first,
//!    measures it under the broadcast threshold, and demotes the join —
//!    the fact side is never shuffled at all.
//! 2. *Skew splitting* — a shuffled join whose hot key lands >80% of the
//!    rows in one reduce partition; adaptive execution splits that
//!    partition by map ranges so the join runs on all cores.
//!
//! Writes `BENCH_adaptive.json` to the working directory.
//!
//! Run with: `cargo run --release -p bench --bin adaptive`

use catalyst::adaptive::AdaptiveRule;
use spark_sql::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn splitmix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fact_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("k", DataType::Long, false),
        StructField::new("v", DataType::Long, false),
    ]))
}

fn dim_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("dk", DataType::Long, false),
        StructField::new("w", DataType::String, false),
    ]))
}

/// `n` fact rows; `hot_pct` percent carry key 3, the rest spread over
/// `[0, domain)`.
fn fact_rows(n: usize, hot_pct: u64, domain: i64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let z = splitmix(i as u64);
            let k = if z % 100 < hot_pct {
                3
            } else {
                (z >> 8) as i64 % domain
            };
            Row::new(vec![Value::Long(k), Value::Long(i as i64)])
        })
        .collect()
}

fn dim_rows(n: i64) -> Vec<Row> {
    (0..n)
        .map(|i| Row::new(vec![Value::Long(i), Value::str(format!("d{i}"))]))
        .collect()
}

/// A fact⋈dim DataFrame whose inputs are bare RDDs: statistics unknown,
/// so the static planner cannot broadcast either side.
fn join_df(ctx: &SQLContext, fact: &[Row], dim: &[Row]) -> DataFrame {
    let f = ctx.spark_context().parallelize(fact.to_vec(), 8);
    let fact = ctx
        .dataframe_from_rdd("fact", fact_schema(), f)
        .expect("fact");
    let d = ctx.spark_context().parallelize(dim.to_vec(), 2);
    let dim = ctx.dataframe_from_rdd("dim", dim_schema(), d).expect("dim");
    fact.join(&dim, JoinType::Inner, Some(col("k").eq(col("dk"))))
        .expect("join")
}

/// Warmup once, then min-of-3 wall clock of `collect().len()`.
fn time_min3(mut f: impl FnMut() -> usize) -> (u128, usize) {
    let n = f();
    let mut best = u128::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        let got = f();
        assert_eq!(got, n, "non-deterministic result");
        best = best.min(t.elapsed().as_nanos());
    }
    (best, n)
}

/// Assert the adaptive run actually fired `rule` on this query.
fn assert_fires(df: &DataFrame, rule: AdaptiveRule) {
    let qe = df.query_execution().expect("query_execution");
    qe.collect().expect("collect");
    let changes = qe.adaptive_changes();
    assert!(
        changes.iter().any(|c| c.rule == rule),
        "expected {rule:?} to fire, got: {changes:?}"
    );
}

struct Workload {
    name: &'static str,
    static_ns: u128,
    adaptive_ns: u128,
    rows_out: usize,
}

impl Workload {
    fn speedup(&self) -> f64 {
        self.static_ns as f64 / self.adaptive_ns as f64
    }
    fn print(&self) {
        println!("{:<22} ({} rows out)", self.name, self.rows_out);
        println!("  static    {:>10.2} ms", self.static_ns as f64 / 1e6);
        println!(
            "  adaptive  {:>10.2} ms   ({:.2}x)",
            self.adaptive_ns as f64 / 1e6,
            self.speedup()
        );
    }
    fn json(&self) -> String {
        format!(
            "\"{}\": {{ \"static_ns\": {}, \"adaptive_ns\": {}, \"speedup\": {:.3} }}",
            self.name,
            self.static_ns,
            self.adaptive_ns,
            self.speedup()
        )
    }
}

fn run_pair(
    name: &'static str,
    conf: impl Fn(&mut spark_sql::SqlConf) + Copy,
    query: impl Fn(&SQLContext) -> DataFrame,
) -> Workload {
    let mk = |adaptive: bool| {
        let ctx = SQLContext::new_local(4);
        ctx.set_conf(|c| {
            conf(c);
            c.adaptive_enabled = adaptive;
        });
        ctx
    };
    // One context per mode, dropped before the next mode runs: a live
    // context's shuffle manager retains every iteration's map outputs,
    // and that resident garbage would slow whichever mode runs second.
    let (static_ns, n1) = {
        let ctx = mk(false);
        time_min3(|| query(&ctx).collect().expect("collect").len())
    };
    let (adaptive_ns, n2) = {
        let ctx = mk(true);
        time_min3(|| query(&ctx).collect().expect("collect").len())
    };
    assert_eq!(n1, n2, "{name}: static and adaptive row counts disagree");
    Workload {
        name,
        static_ns,
        adaptive_ns,
        rows_out: n1,
    }
}

fn main() {
    println!("adaptive-execution bench (min of 3, after warmup)\n");

    // -- 1. dynamic broadcast demotion ----------------------------------
    // 600k-row fact, 2k-row dim, both with unknown statistics. Static:
    // shuffle 600k + 2k rows, join in 8 reduce partitions. Adaptive:
    // shuffle 2k rows, measure ~60 KB <= 10 MB threshold, demote — the
    // fact side streams straight into a broadcast probe.
    let fact = fact_rows(600_000, 80, 1_000);
    let dim = dim_rows(2_000);
    let demotion = run_pair(
        "broadcast_demotion",
        |_| {},
        |ctx| join_df(ctx, &fact, &dim),
    );
    {
        let ctx = SQLContext::new_local(4);
        ctx.set_conf(|c| c.adaptive_enabled = true);
        assert_fires(&join_df(&ctx, &fact, &dim), AdaptiveRule::BroadcastDemotion);
    }
    demotion.print();

    // -- 2. skew splitting ----------------------------------------------
    // Threshold 0 pins the join to the shuffled path. 95% of the fact
    // rows carry one key, so one reduce partition holds almost all the
    // work; adaptive splits it into per-map sub-partitions.
    let skew_fact = fact_rows(800_000, 95, 16);
    let skew_dim = dim_rows(16);
    let skew_conf = |c: &mut spark_sql::SqlConf| c.broadcast_threshold = 0;
    let skew = run_pair("skew_split", skew_conf, |ctx| {
        join_df(ctx, &skew_fact, &skew_dim)
    });
    {
        let ctx = SQLContext::new_local(4);
        ctx.set_conf(|c| {
            skew_conf(c);
            c.adaptive_enabled = true;
        });
        assert_fires(
            &join_df(&ctx, &skew_fact, &skew_dim),
            AdaptiveRule::SkewSplit,
        );
    }
    skew.print();

    let json = format!("{{\n  {},\n  {}\n}}\n", demotion.json(), skew.json());
    std::fs::write("BENCH_adaptive.json", &json).expect("write BENCH_adaptive.json");
    println!("\nwrote BENCH_adaptive.json");

    // The headline claim: measured-size demotion must beat the static
    // shuffle-both-sides plan outright.
    assert!(
        demotion.speedup() >= 1.05,
        "broadcast demotion must beat the static plan, got {:.2}x",
        demotion.speedup()
    );
}
