//! Concurrent-session stress tests for the SQL service — the PR's
//! acceptance scenarios:
//!
//! (a) results over the wire are byte-identical to single-session
//!     library runs, across N ≥ 16 concurrent clients and mixed query
//!     shapes;
//! (b) under a small admission budget at least one query is admitted
//!     only after queueing, and overfull queues reject;
//! (c) a query is cancelled mid-flight with its memory reservations and
//!     spill files released (files created == files deleted);
//! (d) under a bounded cache budget evictions happen while every query
//!     still completes.

use service::server::row_json;
use service::{Client, Json, SqlServer};
use spark_sql::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const FACT_ROWS: i64 = 30_000;

fn fact_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("k", DataType::Long, true),
        StructField::new("v", DataType::Long, false),
        StructField::new("s", DataType::String, false),
    ]))
}

fn dim_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("dk", DataType::Long, false),
        StructField::new("w", DataType::String, false),
    ]))
}

/// A root context with the shared tables every session sees.
fn root_with_tables() -> SQLContext {
    let ctx = SQLContext::new_local(4);
    let fact: Vec<Row> = (0..FACT_ROWS)
        .map(|i| {
            Row::new(vec![
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Long(i % 97)
                },
                Value::Long(i),
                Value::str(format!("payload-{:04}", i % 997)),
            ])
        })
        .collect();
    ctx.register_rows("fact", fact_schema(), fact).unwrap();
    let dim: Vec<Row> = (0..97)
        .map(|i| Row::new(vec![Value::Long(i), Value::str(format!("d{i:03}"))]))
        .collect();
    ctx.register_rows("dim", dim_schema(), dim).unwrap();
    ctx
}

/// The mixed query shapes clients issue (all fully deterministic:
/// results are totally ordered).
const SHAPES: &[&str] = &[
    "SELECT k, count(*), sum(v) FROM fact GROUP BY k ORDER BY k",
    "SELECT * FROM dim ORDER BY dk",
    "SELECT dim.w, sum(fact.v) FROM fact JOIN dim ON fact.k = dim.dk GROUP BY dim.w ORDER BY dim.w",
    "SELECT v FROM fact WHERE k = 13 ORDER BY v LIMIT 50",
    "SELECT count(DISTINCT k) FROM fact",
    "SELECT s, min(v), max(v) FROM fact WHERE v > 1000 GROUP BY s ORDER BY s LIMIT 100",
];

/// Wire-shaped encoding of a library run, for byte comparison.
fn library_encoding(ctx: &SQLContext, sql: &str) -> String {
    let rows = ctx.sql(sql).unwrap().collect().unwrap();
    Json::Arr(rows.iter().map(row_json).collect()).encode()
}

/// (a) 16 concurrent wire clients, mixed shapes, byte-identical to the
/// library.
#[test]
fn sixteen_clients_get_library_identical_results() {
    let root = root_with_tables();
    // Single-session library baseline, before the service exists.
    let expected: Vec<String> = SHAPES.iter().map(|q| library_encoding(&root, q)).collect();
    let mut server = SqlServer::start(root).unwrap();
    let addr = server.addr();
    let expected = Arc::new(expected);
    let handles: Vec<_> = (0..16)
        .map(|i| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // Every client runs three different shapes.
                for j in 0..3 {
                    let shape = (i + j) % SHAPES.len();
                    let result = client.sql(SHAPES[shape]).unwrap();
                    let got =
                        Json::Arr(result.rows.iter().cloned().map(Json::Arr).collect()).encode();
                    assert_eq!(got, expected[shape], "shape {shape} diverged over the wire");
                }
                client.close().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    server.stop();
}

/// (b) A small admission budget forces queueing; a tiny wait queue
/// forces rejections; every admitted query still completes correctly.
#[test]
fn admission_queues_then_rejects_when_full() {
    let root = root_with_tables();
    root.set_conf(|c| {
        c.service_workers = 4;
        c.service_session_in_flight = 2;
        // Exactly one 8 MiB reservation fits: concurrency 1 by admission.
        c.service_admission_budget = 8 << 20;
        c.service_admission_query_bytes = 8 << 20;
        c.service_max_queued = 4;
    });
    let mut server = SqlServer::start(root).unwrap();
    let addr = server.addr();
    let handles: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut queued = 0;
                for _ in 0..2 {
                    let r = client.sql(SHAPES[0]).unwrap();
                    assert!(!r.rows.is_empty());
                    queued += r.queued as u32;
                }
                client.close().unwrap();
                queued
            })
        })
        .collect();
    let queued: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(
        queued >= 1,
        "with admission concurrency 1 and 6 queries, at least one must queue"
    );
    let mut probe = Client::connect(addr).unwrap();
    let stats = probe.stats().unwrap();
    assert!(
        stats
            .get("queued_by_admission")
            .and_then(Json::as_i64)
            .unwrap()
            >= 1
    );

    // Flood without fetching: the 4-slot wait queue must reject.
    let mut rejected = 0;
    let mut pending = Vec::new();
    for _ in 0..12 {
        match probe.query(SHAPES[2]) {
            Ok(id) => pending.push(id),
            Err(e) => {
                let msg = e.to_string();
                assert!(msg.contains("admission rejected"), "{msg}");
                rejected += 1;
            }
        }
    }
    assert!(
        rejected >= 1,
        "12 submissions into a 4-slot queue must reject"
    );
    for id in pending {
        let _ = probe.fetch(id);
    }
    let stats = probe.stats().unwrap();
    assert!(stats.get("rejected").and_then(Json::as_i64).unwrap() >= 1);
    probe.close().unwrap();
    server.stop();
}

/// (c) Cancel a spilling query mid-flight: the error reply carries the
/// spill counters, and created == deleted proves the files were
/// released by the unwind.
#[test]
fn cancel_mid_flight_releases_spill_files() {
    let root = root_with_tables();
    root.set_conf(|c| {
        c.service_workers = 2;
        // Pin the shuffled-join path so the join/agg run under the
        // (tiny) per-query memory budget and spill.
        c.broadcast_threshold = 0;
        c.shuffle_partitions = 4;
    });
    let mut server = SqlServer::start(root).unwrap();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    client.set("spark.sql.memory.budgetBytes", "48k").unwrap();
    // A full-table sort: 30k wide rows through the external sort under a
    // 48k budget spills guaranteed (the agg/join shapes keep only ~97
    // groups resident and never would).
    let heavy = "SELECT s, v, k FROM fact ORDER BY s DESC, v";
    // Calibration run: measures the uncancelled wall time and proves the
    // completed query also balances its spill ledger.
    let warm = client.sql(heavy).unwrap();
    assert!(warm.spill_files_created > 0, "heavy query must spill");
    assert_eq!(warm.spill_files_created, warm.spill_files_deleted);
    let warm_ms = (warm.wall_ns / 1_000_000).max(50);
    let mut proved = false;
    for attempt in 0..30u64 {
        let id = client.query(heavy).unwrap();
        // Sweep the cancel point across the measured run: spilling only
        // starts on the reduce side of the sort, so early fractions land
        // before any spill and late ones after completion.
        let frac_pct = 10 + 3 * attempt;
        std::thread::sleep(Duration::from_millis(warm_ms * frac_pct / 100));
        client.cancel(id).unwrap();
        match client.fetch(id) {
            Ok(_) => continue, // finished before the cancel landed
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("cancelled"),
                    "cancelled query must report cancellation, got: {msg}"
                );
                let reply = e.reply().expect("server-side error carries counters");
                let fetched = service::client::decode_fetch(reply.clone());
                if fetched.spill_files_created > 0 {
                    assert_eq!(
                        fetched.spill_files_created, fetched.spill_files_deleted,
                        "cancelled query leaked spill files"
                    );
                    proved = true;
                    break;
                }
            }
        }
    }
    assert!(
        proved,
        "no attempt observed a mid-flight cancel with spill files created"
    );
    let stats = client.stats().unwrap();
    assert!(stats.get("cancelled").and_then(Json::as_i64).unwrap() >= 1);
    client.close().unwrap();
    server.stop();
}

/// A query deadline fires the same cancellation path.
#[test]
fn deadline_cancels_like_an_explicit_cancel() {
    let root = root_with_tables();
    let mut server = SqlServer::start(root).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let heavy =
        "SELECT dim.w, sum(fact.v) FROM fact JOIN dim ON fact.k = dim.dk GROUP BY dim.w ORDER BY dim.w";
    let mut fired = false;
    for _ in 0..10 {
        let id = client.query_with_timeout(heavy, 1).unwrap();
        match client.fetch(id) {
            Ok(_) => continue, // ran inside 1ms — unlikely; retry
            Err(e) => {
                let msg = e.to_string();
                assert!(msg.contains("deadline"), "{msg}");
                fired = true;
                break;
            }
        }
    }
    assert!(fired, "a 1ms deadline never fired across 10 heavy queries");
    client.close().unwrap();
    server.stop();
}

/// A query counts as cancelled when its token fired, whatever its error
/// text says: an unknown table named `deadline` is an analysis error.
#[test]
fn an_error_naming_a_deadline_is_not_a_cancellation() {
    let root = root_with_tables();
    let mut server = SqlServer::start(root).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let msg = client
        .sql("SELECT * FROM deadline")
        .unwrap_err()
        .to_string();
    assert!(msg.contains("table 'deadline' not found"), "{msg}");
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("cancelled").and_then(Json::as_i64), Some(0));
    client.close().unwrap();
    server.stop();
}

/// (d) A bounded cache budget evicts under multi-session CACHE TABLE
/// pressure while every query still completes.
#[test]
fn bounded_cache_evicts_and_queries_still_complete() {
    let root = root_with_tables();
    root.set_conf(|c| {
        c.service_workers = 4;
        // Far below one cached copy of `fact`: filling it must evict.
        c.cache_budget_bytes = 128 << 10;
        c.cache_eviction_policy = "cost".into();
    });
    let expected_count = format!("{FACT_ROWS}");
    let mut server = SqlServer::start(root).unwrap();
    let addr = server.addr();
    // A session's cached copy goes when the session ends, so the four
    // stay connected until each has filled its own: four copies at once.
    let all_cached = Arc::new(std::sync::Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let expected = expected_count.clone();
            let all_cached = all_cached.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let cached = client.sql("CACHE TABLE fact");
                let counts: Vec<_> = (0..2)
                    .map(|_| client.sql("SELECT count(*) FROM fact"))
                    .collect();
                // Checked after the barrier: a failure here must not
                // leave the other three waiting for this one.
                all_cached.wait();
                cached.unwrap();
                for r in counts {
                    assert_eq!(r.unwrap().rows[0][0].encode(), expected);
                }
                client.close().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = server.stats();
    assert!(
        stats.get("cache_evictions").and_then(Json::as_i64).unwrap() > 0,
        "a 128 KiB budget under four cached copies of fact must evict: {}",
        stats.encode()
    );
    server.stop();
}

/// S3 (wire level): `SET` in one session is invisible to every other
/// session, under concurrency.
#[test]
fn concurrent_sessions_do_not_observe_each_others_set() {
    let root = root_with_tables();
    let mut server = SqlServer::start(root).unwrap();
    let addr = server.addr();
    let key = "spark.sql.shuffle.partitions";
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mine = format!("{}", 10 + i);
                client.set(key, &mine).unwrap();
                for _ in 0..20 {
                    assert_eq!(
                        client.conf(key).unwrap(),
                        mine,
                        "session observed another session's SET"
                    );
                    std::thread::yield_now();
                }
                client.close().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // A fresh session still sees the root default, not anyone's override.
    let mut fresh = Client::connect(addr).unwrap();
    let default = fresh.conf(key).unwrap();
    assert!(!(10..18).map(|v| v.to_string()).any(|v| v == default));
    fresh.close().unwrap();
    server.stop();
}

/// Temp views registered in one session are invisible to others, while
/// shared tables stay visible to everyone.
#[test]
fn temp_views_are_session_scoped() {
    let root = root_with_tables();
    let mut server = SqlServer::start(root).unwrap();
    let addr = server.addr();
    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    // CACHE TABLE binds the cached relation in the session overlay.
    a.sql("CACHE TABLE dim").unwrap();
    // Both still read the shared table by name.
    assert_eq!(
        a.sql("SELECT count(*) FROM dim").unwrap().rows[0][0],
        Json::Int(97)
    );
    assert_eq!(
        b.sql("SELECT count(*) FROM dim").unwrap().rows[0][0],
        Json::Int(97)
    );
    a.close().unwrap();
    b.close().unwrap();
    server.stop();
}

/// A session's `CACHE TABLE` blocks go when the session does, the plan
/// cache serves its repeated statements, and `stats` keeps counting a
/// session's plan-cache activity after it has ended.
#[test]
fn an_ended_session_gives_back_its_cached_blocks_and_keeps_its_counters() {
    let root = root_with_tables();
    root.spark_context().set_chaos(None);
    let sc = root.spark_context().clone();
    let baseline = (
        sc.cache_manager().len(),
        sc.cache_manager().budget_stats().used_bytes,
    );
    let mut server = SqlServer::start(root).unwrap();
    let stat =
        |server: &SqlServer, key: &str| server.stats().get(key).and_then(Json::as_i64).unwrap();

    let mut client = Client::connect(server.addr()).unwrap();
    client.sql("CACHE TABLE fact").unwrap();
    let sql = "SELECT count(*), sum(v) FROM fact";
    let first = client.sql(sql).unwrap();
    for _ in 0..3 {
        assert_eq!(client.sql(sql).unwrap().rows, first.rows);
    }
    assert!(sc.cache_manager().len() > baseline.0);
    assert_eq!(stat(&server, "sessions"), 1);
    assert_eq!(stat(&server, "plan_cache_misses"), 1);
    assert_eq!(stat(&server, "plan_cache_hits"), 3);
    client.close().unwrap();

    // The connection thread ends the session after replying to `close`.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let settled = || {
        (
            sc.cache_manager().len(),
            sc.cache_manager().budget_stats().used_bytes,
        )
    };
    while (settled() != baseline || stat(&server, "sessions") != 0)
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(stat(&server, "sessions"), 0);
    assert_eq!(settled(), baseline, "the session's cached copy leaked");
    assert_eq!(stat(&server, "plan_cache_hits"), 3);
    assert_eq!(stat(&server, "plan_cache_misses"), 1);
    assert_eq!(stat(&server, "plan_cache_invalidations"), 0);
    server.stop();
}
