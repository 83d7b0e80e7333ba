//! Multi-tenant SQL service benchmark: wire-protocol clients hammer one
//! shared server with mixed query shapes, at increasing concurrency.
//!
//! For each client count the run reports per-query latency quantiles
//! (p50/p99), throughput, and the service counters that prove the
//! machinery engaged: admission queueing under the shared memory budget
//! and shared-cache evictions under a bounded cache budget; and the
//! per-session plan cache serving the shapes a client sends again (the
//! run fails if a tier that repeats shapes saw no plan-cache hit).
//!
//! Writes `BENCH_service.json` to the working directory.
//!
//! Run with: `cargo run --release -p bench --bin service`
//! `SERVICE_BENCH_CLIENTS=1,8` overrides the concurrency sweep (CI uses
//! a single reduced tier); `SERVICE_BENCH_QUERIES` the per-client count.

use service::{Client, SqlServer};
use spark_sql::prelude::*;
use std::sync::Arc;
use std::time::Instant;

const FACT_ROWS: i64 = 60_000;

fn splitmix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn root_with_tables() -> SQLContext {
    let ctx = SQLContext::new_local(4);
    let fact: Vec<Row> = (0..FACT_ROWS)
        .map(|i| {
            let z = splitmix(i as u64);
            Row::new(vec![
                Value::Long((z as i64).rem_euclid(997)),
                Value::Long(i),
                Value::str(format!("payload-{:05}", z % 10_000)),
            ])
        })
        .collect();
    let fact_schema = Arc::new(Schema::new(vec![
        StructField::new("k", DataType::Long, false),
        StructField::new("v", DataType::Long, false),
        StructField::new("s", DataType::String, false),
    ]));
    ctx.register_rows("fact", fact_schema, fact).unwrap();
    let dim: Vec<Row> = (0..997)
        .map(|i| Row::new(vec![Value::Long(i), Value::str(format!("d{i:03}"))]))
        .collect();
    let dim_schema = Arc::new(Schema::new(vec![
        StructField::new("dk", DataType::Long, false),
        StructField::new("w", DataType::String, false),
    ]));
    ctx.register_rows("dim", dim_schema, dim).unwrap();
    ctx
}

/// The shapes clients cycle through: scan-heavy aggregation, a join, a
/// selective filter, and a cacheable repeated scan.
const SHAPES: &[&str] = &[
    "SELECT k, count(*), sum(v) FROM fact GROUP BY k ORDER BY k",
    "SELECT dim.w, sum(fact.v) FROM fact JOIN dim ON fact.k = dim.dk \
     GROUP BY dim.w ORDER BY dim.w LIMIT 100",
    "SELECT v, s FROM fact WHERE k < 40 ORDER BY v LIMIT 200",
    "SELECT count(DISTINCT k) FROM fact",
];

struct Tier {
    clients: usize,
    queries_per_client: usize,
    p50_ms: f64,
    p99_ms: f64,
    wall_ms: f64,
    queued_by_admission: i64,
    rejected: i64,
    cache_evictions: i64,
    plan_cache_hits: i64,
}

impl Tier {
    fn print(&self) {
        println!(
            "{:>3} clients: p50 {:>8.2} ms  p99 {:>8.2} ms  \
             ({} queries in {:.0} ms; {} queued, {} rejected, {} evictions, \
             {} plan-cache hits)",
            self.clients,
            self.p50_ms,
            self.p99_ms,
            self.clients * self.queries_per_client,
            self.wall_ms,
            self.queued_by_admission,
            self.rejected,
            self.cache_evictions,
            self.plan_cache_hits,
        );
    }

    fn json(&self) -> String {
        format!(
            "\"clients_{}\": {{\"clients\": {}, \"queries\": {}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"wall_ms\": {:.1}, \
             \"queued_by_admission\": {}, \"rejected\": {}, \
             \"cache_evictions\": {}, \"plan_cache_hits\": {}}}",
            self.clients,
            self.clients,
            self.clients * self.queries_per_client,
            self.p50_ms,
            self.p99_ms,
            self.wall_ms,
            self.queued_by_admission,
            self.rejected,
            self.cache_evictions,
            self.plan_cache_hits,
        )
    }
}

fn quantile(sorted_ms: &[f64], q: f64) -> f64 {
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

fn run_tier(clients: usize, queries_per_client: usize) -> Tier {
    let root = root_with_tables();
    root.set_conf(|c| {
        c.service_workers = 4;
        c.service_session_in_flight = 2;
        // A shared admission budget two queries fill: higher tiers must
        // queue behind it.
        c.service_admission_budget = 32 << 20;
        c.service_admission_query_bytes = 16 << 20;
        c.service_max_queued = 4 * clients.max(1);
        // A cache budget far below the cached fact table, so repeated
        // CACHE TABLE scans churn the evicting cache.
        c.cache_budget_bytes = 256 << 10;
        c.cache_eviction_policy = "cost".into();
    });
    let mut server = SqlServer::start(root).unwrap();
    let addr = server.addr();

    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // CACHE TABLE binds per session: every client routes its
                // fact scans through the shared budgeted block cache,
                // whose churn under the small budget drives evictions.
                client.sql("CACHE TABLE fact").expect("cache fact");
                let mut latencies_ms = Vec::with_capacity(queries_per_client);
                for j in 0..queries_per_client {
                    let sql = SHAPES[(i + j) % SHAPES.len()];
                    let t = Instant::now();
                    let r = client.sql(sql).expect("query over the wire");
                    latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    assert!(!r.columns.is_empty());
                }
                client.close().unwrap();
                latencies_ms
            })
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    latencies.sort_by(|a, b| a.total_cmp(b));

    let mut probe = Client::connect(addr).unwrap();
    let stats = probe.stats().unwrap();
    let stat = |k: &str| stats.get(k).and_then(service::Json::as_i64).unwrap_or(0);
    let tier = Tier {
        clients,
        queries_per_client,
        p50_ms: quantile(&latencies, 0.50),
        p99_ms: quantile(&latencies, 0.99),
        wall_ms,
        queued_by_admission: stat("queued_by_admission"),
        rejected: stat("rejected"),
        cache_evictions: stat("cache_evictions"),
        plan_cache_hits: stat("plan_cache_hits"),
    };
    // Each client cycles the shapes, so from the second lap on its
    // session has planned what it is sent.
    assert!(
        tier.plan_cache_hits > 0 || queries_per_client <= SHAPES.len(),
        "{clients} clients re-sent shapes and no session served one from its plan cache"
    );
    probe.close().unwrap();
    server.stop();
    tier
}

fn main() {
    let tiers: Vec<usize> = std::env::var("SERVICE_BENCH_CLIENTS")
        .ok()
        .map(|s| {
            s.split(',')
                .map(|t| t.trim().parse().expect("SERVICE_BENCH_CLIENTS"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 8, 32]);
    let queries_per_client: usize = std::env::var("SERVICE_BENCH_QUERIES")
        .ok()
        .map(|s| s.parse().expect("SERVICE_BENCH_QUERIES"))
        .unwrap_or(8);

    println!(
        "SQL service: {} shapes, {} fact rows, tiers {:?} × {} queries/client\n",
        SHAPES.len(),
        FACT_ROWS,
        tiers,
        queries_per_client
    );
    let results: Vec<Tier> = tiers
        .iter()
        .map(|&n| {
            let t = run_tier(n, queries_per_client);
            t.print();
            t
        })
        .collect();

    let body: Vec<String> = results.iter().map(Tier::json).collect();
    let json = format!("{{\n  {}\n}}\n", body.join(",\n  "));
    std::fs::write("BENCH_service.json", &json).expect("write BENCH_service.json");
    println!("\nwrote BENCH_service.json");
}
