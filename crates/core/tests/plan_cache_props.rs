//! The per-session plan cache behind `SQLContext::sql`: a hit must be
//! indistinguishable from planning the statement afresh, every change a
//! plan could depend on must turn the next send into a miss, and a context
//! must not age — neither its catalog entries nor the engine's block store
//! may grow with the number of `CACHE TABLE` / `UNCACHE TABLE` round trips.
//!
//! Same deterministic seeded-sweep style as the other `*_props.rs` suites.

use catalyst::physical::{PhysicalPlan, Planner, Strategy};
use catalyst::plan::LogicalPlan;
use catalyst::row::Row;
use catalyst::value::Value;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spark_sql::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---- helpers ----

fn schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("id", DataType::Int, false),
        StructField::new("k", DataType::Int, false),
        StructField::new("v", DataType::Long, true),
        StructField::new("s", DataType::String, false),
    ]))
}

/// `n` rows with unique ids from `first_id`, few distinct keys, some NULLs.
fn random_rows(rng: &mut StdRng, first_id: i32, n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let v = if rng.random_bool(0.15) {
                Value::Null
            } else {
                Value::Long(rng.random_range(0i64..40))
            };
            Row::new(vec![
                Value::Int(first_id + i as i32),
                Value::Int(rng.random_range(0i32..5)),
                v,
                Value::str(format!("s{}", rng.random_range(0u32..6))),
            ])
        })
        .collect()
}

fn random_tables(seed: u64) -> Vec<Vec<Row>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..3)
        .map(|t| {
            let n = rng.random_range(0usize..30);
            random_rows(&mut rng, 100 * t, n)
        })
        .collect()
}

fn register(ctx: &SQLContext, tables: &[Vec<Row>]) {
    for (i, rows) in tables.iter().enumerate() {
        ctx.register_rows(&format!("t{i}"), schema(), rows.clone())
            .unwrap();
    }
}

/// One statement per shape the engine has an operator for. Joins pair two
/// different tables (self-joins of one table are a known limitation) and
/// every ORDER BY ends on the unique id, so LIMIT is deterministic.
fn random_statements(rng: &mut StdRng) -> Vec<String> {
    let t = |rng: &mut StdRng| rng.random_range(0usize..3);
    let (a, b) = (t(rng), t(rng));
    let b = if a == b { (b + 1) % 3 } else { b };
    let c = rng.random_range(0i64..40);
    let n = rng.random_range(1usize..12);
    vec![
        format!("SELECT id, k, v FROM t{a} WHERE v > {c}"),
        format!(
            "SELECT k, count(*), sum(v), min(s) FROM t{} GROUP BY k",
            t(rng)
        ),
        format!("SELECT x.id, y.s FROM t{a} x JOIN t{b} y ON x.k = y.k WHERE y.v < {c}"),
        format!("SELECT x.id, y.id FROM t{a} x LEFT JOIN t{b} y ON x.v = y.v"),
        format!(
            "SELECT id, v FROM t{} ORDER BY v DESC, id LIMIT {n}",
            t(rng)
        ),
        format!(
            "SELECT id, rank() OVER (PARTITION BY k ORDER BY v, id) FROM t{}",
            t(rng)
        ),
        format!("SELECT s FROM t{a} UNION ALL SELECT s FROM t{b}"),
        format!("SELECT DISTINCT k, s FROM t{}", t(rng)),
        format!("SELECT count(*), max(v) FROM t{}", t(rng)),
    ]
}

fn sorted(rows: Vec<Row>) -> Vec<String> {
    let mut lines: Vec<String> = rows.iter().map(|r| format!("{:?}", r.values())).collect();
    lines.sort();
    lines
}

fn run(ctx: &SQLContext, sql: &str) -> Vec<String> {
    sorted(ctx.sql(sql).unwrap().collect().unwrap())
}

/// A frame planned the way every statement was before the cache: parse,
/// analyze, nothing kept.
fn uncached_frame(ctx: &SQLContext, text: &str) -> DataFrame {
    let sql::Statement::Query(plan) = sql::parse(text).unwrap() else {
        panic!("not a query: {text}")
    };
    ctx.dataframe(plan).unwrap()
}

fn cached_frame(ctx: &SQLContext, text: &str) -> DataFrame {
    ctx.sql(text).unwrap()
}

fn run_uncached(ctx: &SQLContext, text: &str) -> Vec<String> {
    sorted(uncached_frame(ctx, text).collect().unwrap())
}

fn configured(reference: bool, bounded: bool) -> SQLContext {
    let ctx = SQLContext::new_local(2);
    ctx.set_conf(|c| {
        c.reference = reference;
        c.memory_budget_bytes = if bounded { 16 * 1024 } else { 0 };
        c.shuffle_partitions = 3;
    });
    ctx
}

/// Run `body` on its own thread and fail if it is still going after
/// `limit` — a test that ages must fail, not hang the suite.
fn with_watchdog(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(limit) {
        Ok(()) => worker.join().unwrap(),
        // The body panicked: surface its message.
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().unwrap_err())
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("still running after {limit:?}")
        }
    }
}

/// The block store's `(blocks, bytes)` once it has settled at `want`. A
/// relation goes when its last holder does, and that can be an executor
/// thread still letting go of a finished task a moment after the driver
/// has its rows — so give it that moment, then report what is there.
fn settled(ctx: &SQLContext, want: (usize, u64)) -> (usize, u64) {
    let cm = ctx.spark_context().cache_manager();
    let now = || (cm.len(), cm.budget_stats().used_bytes);
    let deadline = Instant::now() + Duration::from_secs(2);
    while now() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    now()
}

// ---- (a) a hit answers what a fresh plan answers ----

#[test]
fn a_hit_returns_the_rows_of_a_fresh_plan_in_every_configuration() {
    for seed in 0..4u64 {
        let tables = random_tables(seed);
        let statements = random_statements(&mut StdRng::seed_from_u64(0xCACE + seed));
        // What the unbounded reference answers, per statement.
        let mut oracle: Vec<Vec<String>> = Vec::new();
        for (reference, bounded) in [(true, false), (false, false), (true, true), (false, true)] {
            let make = || configured(reference, bounded);
            let ctx = make();
            register(&ctx, &tables);
            let fresh = make();
            register(&fresh, &tables);
            for (i, sql) in statements.iter().enumerate() {
                let at = |what: &str| {
                    format!("seed {seed} reference={reference} bounded={bounded} {what}: {sql}")
                };
                let before = ctx.plan_cache_stats();
                let first = run(&ctx, sql);
                let second = run(&ctx, sql);
                let third = run(&ctx, sql);
                let after = ctx.plan_cache_stats();
                assert_eq!(after.misses, before.misses + 1, "{}", at("misses"));
                assert_eq!(after.hits, before.hits + 2, "{}", at("hits"));
                assert_eq!(second, first, "{}", at("hit vs miss"));
                assert_eq!(third, first, "{}", at("second hit"));
                assert_eq!(run(&fresh, sql), first, "{}", at("fresh session"));
                assert_eq!(run_uncached(&ctx, sql), first, "{}", at("uncached path"));
                match oracle.get(i) {
                    Some(want) => assert_eq!(&first, want, "{}", at("vs the reference")),
                    None => oracle.push(first),
                }
            }
            assert_eq!(ctx.plan_cache_stats().invalidations, 0);
        }
    }
}

// ---- (b) whatever a plan depends on invalidates it ----

/// Send `sql` and say whether the cache answered.
fn send(ctx: &SQLContext, sql: &str) -> (Vec<String>, bool) {
    let hits = ctx.plan_cache_stats().hits;
    let rows = run(ctx, sql);
    (rows, ctx.plan_cache_stats().hits == hits + 1)
}

fn rows_of(ids: std::ops::Range<i32>) -> Vec<Row> {
    ids.map(|i| {
        Row::new(vec![
            Value::Int(i),
            Value::Int(i % 3),
            Value::Long(i as i64 * 10),
            Value::str("x"),
        ])
    })
    .collect()
}

#[test]
fn registering_a_name_again_is_a_miss_with_the_new_rows() {
    let ctx = SQLContext::new_local(2);
    ctx.register_rows("t", schema(), rows_of(0..4)).unwrap();
    let sql = "SELECT count(*), sum(v) FROM t";
    let (old, _) = send(&ctx, sql);
    assert!(send(&ctx, sql).1);
    ctx.register_rows("t", schema(), rows_of(0..9)).unwrap();
    let (new, hit) = send(&ctx, sql);
    assert!(!hit);
    assert_ne!(new, old);
    assert_eq!(new, run_uncached(&ctx, sql));
    assert!(
        send(&ctx, sql).1,
        "the replacement entry serves the next send"
    );
    assert_eq!(ctx.plan_cache_stats().invalidations, 1);
}

#[test]
fn a_session_view_shadowing_a_shared_table_is_a_miss_for_that_session_only() {
    let root = SQLContext::new_local(2);
    root.register_rows("t", schema(), rows_of(0..4)).unwrap();
    let session = root.new_session("s1");
    let sql = "SELECT id FROM t WHERE v >= 0";
    let (shared_rows, _) = send(&session, sql);
    send(&root, sql);
    assert!(send(&session, sql).1);

    session
        .register_rows("t", schema(), rows_of(50..52))
        .unwrap();
    let (shadowed, hit) = send(&session, sql);
    assert!(!hit, "the session now resolves t to its own view");
    assert_eq!(shadowed.len(), 2);
    let (root_rows, root_hit) = send(&root, sql);
    assert!(root_hit, "the root still reads the shared table");
    assert_eq!(root_rows, shared_rows);

    // Dropping the view exposes the shared table again: another miss.
    assert!(session.drop_temp_table("t"));
    let (again, hit) = send(&session, sql);
    assert!(!hit);
    assert_eq!(again, shared_rows);
}

#[test]
fn set_is_a_miss_and_the_statement_is_planned_under_the_new_value() {
    let ctx = SQLContext::new_local(2);
    ctx.register_rows("a", schema(), rows_of(0..20)).unwrap();
    ctx.register_rows("b", schema(), rows_of(0..20)).unwrap();
    let sql = "SELECT a.id, b.id FROM a JOIN b ON a.k = b.k";
    let plan = |ctx: &SQLContext| ctx.sql(sql).unwrap().explain().unwrap();
    let (rows, _) = send(&ctx, sql);
    assert!(plan(&ctx).contains("BroadcastHashJoin"), "{}", plan(&ctx));
    let hits = ctx.plan_cache_stats().hits;

    ctx.sql("SET spark.sql.autoBroadcastJoinThreshold=0")
        .unwrap();
    let (after, hit) = send(&ctx, sql);
    assert!(!hit);
    assert_eq!(after, rows);
    assert!(!plan(&ctx).contains("BroadcastHashJoin"), "{}", plan(&ctx));
    assert!(ctx.plan_cache_stats().hits > hits, "and is cached again");
}

#[test]
fn registering_a_udf_is_a_miss_and_the_new_function_answers() {
    let ctx = SQLContext::new_local(2);
    ctx.register_rows("t", schema(), rows_of(1..4)).unwrap();
    let times = |ctx: &SQLContext, n: i64| {
        ctx.register_udf("scale", DataType::Long, move |args| {
            Ok(Value::Long(args[0].as_i64().unwrap_or(0) * n))
        })
    };
    times(&ctx, 2);
    let sql = "SELECT scale(v) FROM t WHERE id = 1";
    assert_eq!(send(&ctx, sql).0, ["[Long(20)]"]);
    assert!(send(&ctx, sql).1);
    times(&ctx, 3);
    let (rows, hit) = send(&ctx, sql);
    assert!(!hit);
    assert_eq!(rows, ["[Long(30)]"]);
    // Functions are shared with derived sessions, and so is the miss.
    let session = ctx.new_session("s1");
    assert_eq!(send(&session, sql).0, ["[Long(30)]"]);
    times(&ctx, 4);
    assert_eq!(send(&session, sql), (vec!["[Long(40)]".to_string()], false));
}

/// Plans nothing; counts how often the planner consulted it.
struct CountingStrategy(AtomicUsize);

impl Strategy for CountingStrategy {
    fn name(&self) -> &str {
        "counting"
    }
    fn apply(&self, _: &LogicalPlan, _: &Planner) -> catalyst::Result<Option<PhysicalPlan>> {
        self.0.fetch_add(1, Ordering::SeqCst);
        Ok(None)
    }
}

#[test]
fn adding_a_strategy_is_a_miss_and_the_strategy_gets_to_plan() {
    let ctx = SQLContext::new_local(2);
    ctx.register_rows("t", schema(), rows_of(0..6)).unwrap();
    let sql = "SELECT k, count(*) FROM t GROUP BY k";
    let (rows, _) = send(&ctx, sql);
    assert!(send(&ctx, sql).1);
    let strategy = Arc::new(CountingStrategy(AtomicUsize::new(0)));
    ctx.add_strategy(strategy.clone());
    let (after, hit) = send(&ctx, sql);
    assert!(!hit);
    assert_eq!(after, rows);
    let consulted = strategy.0.load(Ordering::SeqCst);
    assert!(consulted > 0, "the statement was planned again");
    assert!(send(&ctx, sql).1);
    assert_eq!(
        strategy.0.load(Ordering::SeqCst),
        consulted,
        "and only once"
    );
}

#[test]
fn cache_table_round_trip_keeps_plans_made_before_and_drops_those_made_inside() {
    let ctx = SQLContext::new_local(2);
    ctx.register_rows("t", schema(), rows_of(0..30)).unwrap();
    let before_sql = "SELECT count(*), sum(v) FROM t";
    let inside_sql = "SELECT k, max(v) FROM t GROUP BY k";
    let (before_rows, _) = send(&ctx, before_sql);
    assert!(send(&ctx, before_sql).1);

    ctx.sql("CACHE TABLE t").unwrap();
    let (inside_rows, hit) = send(&ctx, inside_sql);
    assert!(!hit);
    // Planned while the cache was cold, planned again now that it has
    // statistics to offer, then reused.
    assert!(send(&ctx, inside_sql).1);
    assert!(send(&ctx, inside_sql).1);
    assert_eq!(ctx.plan_cache_stats().entries, 2);

    ctx.sql("UNCACHE TABLE t").unwrap();
    assert_eq!(
        ctx.plan_cache_stats().entries,
        1,
        "a plan over the cached relation must not outlive it"
    );
    let (rows, hit) = send(&ctx, before_sql);
    assert!(hit, "the entry CACHE TABLE set aside is back, id and all");
    assert_eq!(rows, before_rows);
    let (rows, hit) = send(&ctx, inside_sql);
    assert!(!hit);
    assert_eq!(rows, inside_rows);
}

#[test]
fn a_statement_planned_over_a_cold_cache_is_planned_again_once_it_is_filled() {
    let ctx = SQLContext::new_local(2);
    ctx.register_rows("t", schema(), rows_of(0..50)).unwrap();
    ctx.sql("CACHE TABLE t").unwrap();
    let sql = "SELECT count(*), min(v), max(v) FROM t";
    let qe = ctx.sql(sql).unwrap().query_execution().unwrap();
    assert!(!qe.plan_cached());
    let cold = qe.optimized().to_string();
    assert!(cold.contains("Scan"), "no statistics yet:\n{cold}");
    let rows = sorted(qe.collect().unwrap());

    // The run above filled the cache; the same text is a cache hit for
    // analysis, but its plan is made again from the statistics.
    let qe = ctx.sql(sql).unwrap().query_execution().unwrap();
    assert!(!qe.plan_cached());
    let warm = qe.optimized().to_string();
    assert!(!warm.contains("Scan"), "answered from statistics:\n{warm}");
    assert_eq!(sorted(qe.collect().unwrap()), rows);
    let qe = ctx.sql(sql).unwrap().query_execution().unwrap();
    assert!(qe.plan_cached());
    assert_eq!(ctx.query_log().last().map(|e| e.plan_cached), Some(false));
    qe.collect().unwrap();
    assert_eq!(ctx.query_log().last().map(|e| e.plan_cached), Some(true));
}

// ---- (c) DataFrames from the cache compose like any others ----

#[test]
fn frames_from_cached_statements_compose_through_the_dataframe_api() {
    type Frame = fn(&SQLContext, &str) -> DataFrame;
    let tables = random_tables(7);
    let cached = SQLContext::new_local(2);
    register(&cached, &tables);
    let plain = SQLContext::new_local(2);
    register(&plain, &tables);
    // One side takes its frames from the plan cache, the other plans each.
    let sides: [(&SQLContext, Frame); 2] = [(&cached, cached_frame), (&plain, uncached_frame)];

    let qa = "SELECT id AS aid, k AS ak FROM t0 WHERE v > 3";
    let qb = "SELECT id AS bid, k AS bk, s FROM t1";
    // Sent once already, so every frame below is a cache hit.
    for q in [qa, qb, "SELECT id, k FROM t2"] {
        run(&cached, q);
    }
    let hits = cached.plan_cache_stats().hits;

    let joined = sides.map(|(ctx, frame)| {
        let df = frame(ctx, qa)
            .join_on(&frame(ctx, qb), col("ak").eq(col("bk")))
            .unwrap();
        sorted(
            df.select_cols(&["aid", "bid", "s"])
                .unwrap()
                .collect()
                .unwrap(),
        )
    });
    assert_eq!(joined[0], joined[1]);
    assert!(!joined[0].is_empty());

    // Two frames of one cached text: a union sees both copies.
    let unioned = sides.map(|(ctx, frame)| {
        sorted(
            frame(ctx, qa)
                .union(&frame(ctx, qa))
                .unwrap()
                .collect()
                .unwrap(),
        )
    });
    assert_eq!(unioned[0], unioned[1]);
    assert_eq!(unioned[0].len(), 2 * run(&plain, qa).len());

    // A frame derived from a cached one plans for itself and leaves the
    // cached plan as it was.
    let derived = cached_frame(&cached, qb)
        .filter(col("bk").eq(lit(1)))
        .unwrap();
    assert_eq!(
        sorted(derived.collect().unwrap()),
        run(&plain, "SELECT id AS bid, k AS bk, s FROM t1 WHERE k = 1")
    );
    assert_eq!(run(&cached, qb), run(&plain, qb));

    // Joining a table to itself is refused either way (README, known
    // limitations): two frames of one text share their attribute ids like
    // a frame and its clone do.
    let self_join = sides.map(|(ctx, frame)| {
        let q = "SELECT id, k FROM t2";
        frame(ctx, q)
            .alias("x")
            .and_then(|x| x.join_on(&frame(ctx, q).alias("y")?, col("x.k").eq(col("y.k"))))
            .and_then(|df| df.collect())
            .is_ok()
    });
    assert_eq!(self_join[0], self_join[1]);
    assert_eq!(cached.plan_cache_stats().hits, hits + 8);
}

// ---- (d) a context does not age ----

fn plan_lines(ctx: &SQLContext, table: &str) -> usize {
    ctx.table(table)
        .unwrap()
        .logical_plan()
        .to_string()
        .lines()
        .count()
}

/// One uncached run of a probe query: what planning over `t` costs now.
fn probe_ns(ctx: &SQLContext) -> u128 {
    let start = Instant::now();
    run_uncached(ctx, "SELECT id, v FROM t WHERE v > 100");
    start.elapsed().as_nanos()
}

#[test]
fn five_hundred_cache_uncache_cycles_leave_the_context_as_it_was() {
    with_watchdog(Duration::from_secs(120), || {
        let ctx = SQLContext::new_local(2);
        ctx.spark_context().set_chaos(None);
        ctx.register_rows("t", schema(), rows_of(0..60)).unwrap();
        let cm = ctx.spark_context().cache_manager();
        let baseline = (cm.len(), cm.budget_stats().used_bytes);
        let lines = plan_lines(&ctx, "t");

        for cycle in 0..500 {
            ctx.sql("CACHE TABLE t").unwrap();
            // Fill the cache, through a statement the plan cache keeps.
            let rows = ctx
                .sql("SELECT count(*) FROM t")
                .unwrap()
                .collect()
                .unwrap();
            assert_eq!(rows[0].get(0), &Value::Long(60));
            assert!(cm.len() > baseline.0, "cycle {cycle}: nothing was cached");
            ctx.sql("UNCACHE TABLE t").unwrap();
            assert_eq!(
                settled(&ctx, baseline),
                baseline,
                "cycle {cycle}: blocks leaked"
            );
        }

        assert_eq!(plan_lines(&ctx, "t"), lines, "the catalog entry grew");
        assert!(ctx.plan_cache_stats().entries <= 1);
        // Latency against a context at cycle 0, probed turn and turn about
        // so both see the same machine; the fastest run of each is the one
        // least disturbed by the other tests running beside this one.
        let young_ctx = SQLContext::new_local(2);
        young_ctx
            .register_rows("t", schema(), rows_of(0..60))
            .unwrap();
        let (mut young, mut old) = (u128::MAX, u128::MAX);
        for _ in 0..60 {
            young = young.min(probe_ns(&young_ctx));
            old = old.min(probe_ns(&ctx));
        }
        assert!(
            old as f64 <= young as f64 * 1.5,
            "a probe query takes {young} ns on a new context and {old} ns after 500 cycles"
        );
    });
}

#[test]
fn uncache_and_dropping_the_context_release_the_cached_blocks() {
    let root = SQLContext::new_local(2);
    root.spark_context().set_chaos(None);
    root.register_rows("t", schema(), rows_of(0..200)).unwrap();
    let cm = root.spark_context().cache_manager();
    let recomputes =
        || engine::metrics::Metrics::get(&root.spark_context().metrics().cache_recomputes);
    let baseline = (cm.len(), cm.budget_stats().used_bytes);

    let session = root.new_session("s1");
    session.sql("CACHE TABLE t").unwrap();
    run(&session, "SELECT sum(v) FROM t");
    assert!(cm.len() > baseline.0 && cm.budget_stats().used_bytes > baseline.1);
    session.sql("UNCACHE TABLE t").unwrap();
    assert_eq!(settled(&root, baseline), baseline);

    // A session that never says UNCACHE gives its blocks back when it ends.
    session.sql("CACHE TABLE t").unwrap();
    run(&session, "SELECT sum(v) FROM t");
    assert!(cm.len() > baseline.0);
    drop(session);
    assert_eq!(settled(&root, baseline), baseline);
    assert_eq!(recomputes(), 0, "a release is not a loss to recover from");
}

#[test]
fn repeated_queries_keep_no_shuffle_output() {
    let ctx = SQLContext::new_local(2);
    // Every row's string is one allocation the test holds, so anything
    // that keeps rows of a finished query shows in its strong count.
    let shared: Arc<str> = Arc::from("shared");
    let rows = (0..200)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Int(i % 7),
                Value::Long(i as i64),
                Value::Str(shared.clone()),
            ])
        })
        .collect();
    ctx.register_rows("t", schema(), rows).unwrap();
    let run_both = || {
        let sorted = ctx.sql("SELECT id, s FROM t ORDER BY s, id").unwrap();
        assert_eq!(sorted.collect().unwrap().len(), 200);
        let grouped = (ctx.sql("SELECT k, s, count(*) FROM t GROUP BY k, s")).unwrap();
        assert_eq!(grouped.collect().unwrap().len(), 7);
    };
    run_both();
    let after_first = Arc::strong_count(&shared);
    for pass in 2..=6 {
        run_both();
        assert_eq!(
            Arc::strong_count(&shared),
            after_first,
            "pass {pass} left rows of earlier queries alive"
        );
    }
}

// ---- the query log is a ring ----

#[test]
fn the_query_log_keeps_the_most_recent_runs() {
    let ctx = SQLContext::new_local(2);
    ctx.register_rows("t", schema(), rows_of(0..3)).unwrap();
    let qe = ctx
        .sql("SELECT id FROM t")
        .unwrap()
        .query_execution()
        .unwrap();
    let capacity = spark_sql::context::QUERY_LOG_CAPACITY;
    for _ in 0..capacity + 5 {
        qe.collect().unwrap();
    }
    let log = ctx.query_log();
    assert_eq!(log.len(), capacity);
    assert_eq!(
        ctx.last_query_log_entry().map(|e| e.wall_ns),
        log.last().map(|e| e.wall_ns)
    );
}
