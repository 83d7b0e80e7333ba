//! `service_mixed`: JDBC-style callers over loopback TCP through
//! `crates/service`. Closed loop: one connection per client, one client
//! per core, each waiting for its reply before sending the next query.
//! Default budgets, so admission and the cache are unbounded: this is
//! the service's capacity, not its behaviour under pressure.

use crate::data::{self, Tables};
use crate::layers::LayerAcc;
use crate::reference;
use crate::run::{put, timed, Args, Class, Outcome, PassClock, Samples};
use crate::stats::median;
use crate::trace::Tracer;
use catalyst::Row;
use service::server::row_json;
use service::{Client, FetchResult, Json, SqlServer};
use spark_sql::SQLContext;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// How many times each shape is replayed in process by the traced run.
const REPLAYS: usize = 3;

/// `big_result` returns the pages ranked above this: a fifth of them.
const BIG_RESULT_RANK: i32 = 5000;

/// A shape answered in under 100 ms is sent this many times in a cycle,
/// each one a sample. Two clients fit some ten cycles in a run, and the
/// median of twenty samples of a 60 ms query beside another client's
/// moves by a tenth from run to run.
const SHORT_REPS: usize = 3;

struct Shape {
    name: &'static str,
    class: Class,
    sql: String,
    /// The query fixes its row order, so order is compared too.
    ordered: bool,
    /// Times it is sent in a cycle.
    reps: usize,
}

/// The seven shapes of one cycle. `big_result` sends some 20 k rows back,
/// so serialisation dominates it; `agg_small` and `topn` send almost
/// nothing, so planning and scheduling dominate them.
fn shapes() -> Vec<Shape> {
    let shape = |name, class, sql: &str, ordered, reps| Shape {
        name,
        class,
        sql: sql.to_string(),
        ordered,
        reps,
    };
    let big_result =
        format!("SELECT pageURL, pageRank FROM rankings WHERE pageRank > {BIG_RESULT_RANK}");
    vec![
        shape(
            "point",
            Class::Scan,
            "SELECT pageURL, pageRank FROM rankings WHERE pageRank > 9000",
            false,
            SHORT_REPS,
        ),
        shape(
            "agg_small",
            Class::Agg,
            "SELECT avgDuration, count(*) AS pages, sum(pageRank) AS ranks \
             FROM rankings GROUP BY avgDuration",
            false,
            SHORT_REPS,
        ),
        shape(
            "topn",
            Class::Sort,
            "SELECT pageURL, pageRank FROM rankings WHERE pageRank > 1000 \
             ORDER BY pageRank DESC, pageURL LIMIT 100",
            true,
            SHORT_REPS,
        ),
        shape(
            "agg_visits",
            Class::Agg,
            "SELECT substr(sourceIP, 1, 3) AS prefix, sum(adRevenue) AS rev FROM uservisits \
             GROUP BY substr(sourceIP, 1, 3) ORDER BY prefix",
            true,
            1,
        ),
        shape("big_result", Class::Scan, &big_result, false, 1),
        shape(
            "join_top",
            Class::Join,
            "SELECT sourceIP, totalRevenue, avgPageRank FROM \
               (SELECT sourceIP, avg(pageRank) AS avgPageRank, sum(adRevenue) AS totalRevenue \
                FROM rankings, uservisits \
                WHERE pageURL = destURL \
                  AND visitDate BETWEEN DATE '1980-01-01' AND DATE '1980-04-01' \
                GROUP BY sourceIP) t \
             ORDER BY totalRevenue DESC LIMIT 1",
            false,
            1,
        ),
        shape(
            "window_rank",
            Class::Window,
            "SELECT pageURL, pageRank, \
             rank() OVER (PARTITION BY avgDuration ORDER BY pageRank DESC) AS r \
             FROM rankings WHERE pageRank > 9000",
            false,
            SHORT_REPS,
        ),
    ]
}

/// `CACHE TABLE` both tables in a session and scan each once, so the
/// columnar cache is filled before anything is timed.
const CACHE_SQL: [&str; 4] = [
    "CACHE TABLE rankings",
    "CACHE TABLE uservisits",
    "SELECT sum(pageRank) FROM rankings",
    "SELECT sum(adRevenue) FROM uservisits",
];

struct Env {
    tables: Tables,
    root: SQLContext,
    server: SqlServer,
    clients: Vec<Client>,
}

fn set_up(args: &Args) -> Env {
    let tables = data::generate(args.seed, data::PAGES, data::VISITS);
    let root = SQLContext::new_local(args.nproc);
    tables.register_memory(&root);
    let server = SqlServer::start(root.clone()).expect("start server");
    let clients = (0..args.nproc)
        .map(|_| {
            let mut client = Client::connect(server.addr()).expect("connect");
            for sql in CACHE_SQL {
                client.sql(sql).expect("fill cache");
            }
            client
        })
        .collect();
    Env {
        tables,
        root,
        server,
        clients,
    }
}

/// The in-process answer a wire result is compared with: each row as the
/// bytes `fetch` would send, in engine order.
struct Expected {
    rows: Vec<String>,
    /// `join_top` only: every row `LIMIT 1` may pick among ties.
    any_of: Vec<String>,
}

fn encode_rows(rows: &[Row]) -> Vec<String> {
    rows.iter().map(|r| row_json(r).encode()).collect()
}

fn expected(shape: &Shape, session: &SQLContext, tables: &Tables) -> Expected {
    let rows = session
        .sql(&shape.sql)
        .and_then(|df| df.collect())
        .expect("in-process answer");
    let any_of = if shape.name == "join_top" {
        reference::top_revenue(tables, data::DAY_1980_04_01)
            .into_iter()
            .map(|(ip, rev, rank)| {
                Json::Arr(vec![Json::Str(ip), Json::Num(rev), Json::Num(rank)]).encode()
            })
            .collect()
    } else {
        Vec::new()
    };
    Expected {
        rows: encode_rows(&rows),
        any_of,
    }
}

/// Row count always; on the warm-up cycle (`bytes`) every row's bytes.
fn verify(shape: &Shape, want: &Expected, got: &FetchResult, bytes: bool) -> Result<(), String> {
    if got.rows.len() != want.rows.len() {
        return Err(format!(
            "{} rows over the wire, {} in process",
            got.rows.len(),
            want.rows.len()
        ));
    }
    if !bytes {
        return Ok(());
    }
    let mut wire: Vec<String> = got
        .rows
        .iter()
        .map(|r| Json::Arr(r.clone()).encode())
        .collect();
    if !want.any_of.is_empty() {
        return if want.any_of.contains(&wire[0]) {
            Ok(())
        } else {
            Err(format!(
                "got {}, reference says one of {:?}",
                wire[0], want.any_of
            ))
        };
    }
    let mut inproc = want.rows.clone();
    if !shape.ordered {
        wire.sort();
        inproc.sort();
    }
    if wire == inproc {
        Ok(())
    } else {
        Err("wire rows differ from the in-process rows".into())
    }
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientLog {
    /// Per shape, the measured latencies of the untraced cycles.
    ms: Vec<Vec<f64>>,
    checks: Vec<(&'static str, Result<(), String>)>,
    plain_cycle_ms: Vec<f64>,
    traced_cycle_ms: Vec<f64>,
}

/// One cycle over the shapes. Untraced: nothing but a timer around
/// `Client::sql`. Traced: one span around each of the two calls
/// `Client::sql` makes.
///
/// The clients move in lock-step, all sending the same shape at the
/// same moment (`barrier`). Left to run free, a short query is twice as
/// slow whenever the other client happens to be inside `big_result` or
/// `join_top`, which is half the time: its latencies have two humps of
/// about equal weight and their median jumps between them from run to
/// run. In lock-step every sample of a shape meets the same contention.
fn cycle(
    client: &mut Client,
    shapes: &[Shape],
    want: &[Expected],
    barrier: Option<&Barrier>,
    log: &mut ClientLog,
    mut tracer: Option<(&mut Tracer, &mut u64)>,
) {
    let warm_up = barrier.is_none();
    let (_, cycle_ms) = timed(|| {
        for (s, shape) in shapes.iter().enumerate() {
            for _ in 0..shape.reps {
                if let Some(barrier) = barrier {
                    barrier.wait();
                }
                let result = match &mut tracer {
                    None => {
                        let (result, ms) = timed(|| client.sql(&shape.sql));
                        if !warm_up {
                            log.ms[s].push(ms);
                        }
                        result
                    }
                    Some((t, ids)) => {
                        **ids += 1;
                        let root = t.open("request", None, **ids);
                        let id = t.child("service.query_call", root, || client.query(&shape.sql));
                        let result = id.and_then(|id| {
                            t.child("service.fetch_call", root, || client.fetch(id))
                        });
                        t.close(root);
                        result
                    }
                };
                // Every row's bytes on the warm-up cycle, row counts after.
                let checked = result
                    .map_err(|e| e.to_string())
                    .and_then(|got| verify(shape, &want[s], &got, warm_up));
                log.checks.push((shape.name, checked));
            }
        }
    });
    match (warm_up, tracer.is_some()) {
        (true, _) => {}
        (false, false) => log.plain_cycle_ms.push(cycle_ms),
        (false, true) => log.traced_cycle_ms.push(cycle_ms),
    }
}

/// What the client threads share.
struct Lockstep<'a> {
    shapes: &'a [Shape],
    want: &'a [Expected],
    clock: PassClock,
    barrier: Barrier,
    /// Client 0 decides when the budget is spent; all stop together.
    stop: AtomicBool,
    trace: Option<Instant>,
}

fn client_loop(index: usize, mut client: Client, shared: &Lockstep) -> (ClientLog, Tracer) {
    let Lockstep {
        shapes,
        want,
        clock,
        barrier,
        stop,
        trace,
    } = shared;
    let mut log = ClientLog {
        ms: vec![Vec::new(); shapes.len()],
        ..ClientLog::default()
    };
    let mut tracer = Tracer::new(trace.unwrap_or_else(Instant::now));
    // Request ids of different clients must not collide.
    let mut ids = (index as u64) << 32;
    loop {
        cycle(&mut client, shapes, want, Some(barrier), &mut log, None);
        if trace.is_some() {
            cycle(
                &mut client,
                shapes,
                want,
                Some(barrier),
                &mut log,
                Some((&mut tracer, &mut ids)),
            );
        }
        if index == 0 {
            stop.store(clock.spent(), Ordering::SeqCst);
        }
        barrier.wait();
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
    client.close().expect("close connection");
    (log, tracer)
}

fn stat(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_i64).unwrap_or(0) as f64
}

pub fn run(args: &Args) -> Outcome {
    let shapes = shapes();
    let mut setup_s = Vec::new();
    let mut env: Option<Env> = None;
    for _ in 0..args.setup_reps() {
        if let Some(mut old) = env.take() {
            old.clients.clear();
            old.server.stop();
        }
        let (e, ms) = timed(|| set_up(args));
        setup_s.push(ms / 1e3);
        env = Some(e);
    }
    let Env {
        tables,
        root,
        mut server,
        mut clients,
    } = env.expect("at least one set-up");
    let mut out = Outcome::new(
        setup_s,
        shapes.iter().map(|s| Samples::new(s.class)).collect(),
    );

    // The in-process answers, from a session set up like a client's.
    let oracle = root.new_session("oracle");
    for sql in CACHE_SQL {
        oracle
            .sql(sql)
            .and_then(|df| df.collect())
            .expect("fill cache");
    }
    let want: Vec<Expected> = shapes
        .iter()
        .map(|s| expected(s, &oracle, &tables))
        .collect();
    // Row counts the engine has no say in.
    let count_above = |rank| {
        tables
            .rankings
            .iter()
            .filter(|r| r.page_rank > rank)
            .count()
    };
    for (name, rows) in [
        ("point", count_above(9000)),
        ("big_result", count_above(BIG_RESULT_RANK)),
        ("window_rank", count_above(9000)),
        ("topn", 100),
        ("join_top", 1),
    ] {
        let got = want[shapes.iter().position(|s| s.name == name).expect("shape")]
            .rows
            .len();
        let ok = if got == rows {
            Ok(())
        } else {
            Err(format!("{got} rows, reference says {rows}"))
        };
        out.check(name, ok);
    }

    // Warm-up cycle, unmeasured, one client after the other.
    for client in &mut clients {
        let mut log = ClientLog::default();
        cycle(client, &shapes, &want, None, &mut log, None);
        for (name, result) in log.checks {
            out.check(name, result);
        }
    }

    let stats_before = server.stats();
    let shared = Lockstep {
        shapes: &shapes,
        want: &want,
        clock: PassClock::start(args.budget()),
        barrier: Barrier::new(clients.len()),
        stop: AtomicBool::new(false),
        trace: args.trace.then(Instant::now),
    };
    let start = Instant::now();
    let logs: Vec<(ClientLog, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .drain(..)
            .enumerate()
            .map(|(i, client)| {
                let shared = &shared;
                scope.spawn(move || client_loop(i, client, shared))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    shared.clock.stop(&mut out);
    let stats_after = server.stats();
    let trace_origin = shared.trace;

    let mut tracer = Tracer::new(trace_origin.unwrap_or(start));
    let (mut plain_cycles, mut traced_cycles) = (Vec::new(), Vec::new());
    for (log, client_tracer) in logs {
        for (samples, ms) in out.queries.iter_mut().zip(log.ms) {
            samples.ms.extend(ms);
        }
        for (name, result) in log.checks {
            out.check(name, result);
        }
        plain_cycles.extend(log.plain_cycle_ms);
        traced_cycles.extend(log.traced_cycle_ms);
        tracer.absorb(client_tracer);
    }

    if let Some(origin) = trace_origin {
        let layers = &mut out.layers;
        let cycles = traced_cycles.len();
        let overhead = 100.0 * (median(&traced_cycles) / median(&plain_cycles) - 1.0);
        put(layers, "trace.overhead_pct", overhead, "%", cycles);
        for (metric, span) in [
            ("service.query_call_ms", "service.query_call"),
            ("service.fetch_call_ms", "service.fetch_call"),
        ] {
            let ms: Vec<f64> = tracer
                .spans
                .iter()
                .filter(|s| s.name == span)
                .map(|s| s.ns() as f64 / 1e6)
                .collect();
            put(layers, metric, median(&ms), "ms", ms.len());
        }
        for key in ["queued_by_admission", "rejected", "cache_evictions"] {
            let delta = stat(&stats_after, key) - stat(&stats_before, key);
            put(layers, format!("service.{key}"), delta, "count", 1);
        }

        // The same SQL in process, as the explicit chain plus the reply
        // encoding, on a session like a client's: what the wire adds is
        // the difference.
        let replay = root.new_session("replay");
        for sql in CACHE_SQL {
            replay
                .sql(sql)
                .and_then(|df| df.collect())
                .expect("fill cache");
        }
        // Query ids apart from the clients' request ids.
        let mut acc = LayerAcc::new(origin, u64::MAX / 2);
        let mut wire_overhead = 0.0;
        for (shape, samples) in shapes.iter().zip(&out.queries) {
            let mut inproc_ms = Vec::new();
            for _ in 0..REPLAYS {
                let (ms, result) = acc.run(&replay, &shape.sql, |tracer, query, rows| {
                    tracer.child("service.encode", query, || {
                        Json::Arr(rows.iter().map(row_json).collect()).encode()
                    });
                });
                result.expect("replay");
                inproc_ms.push(ms);
            }
            let (wire, inproc) = (median(&samples.ms), median(&inproc_ms));
            put(
                layers,
                format!("service.shape.{}.p50_ms", shape.name),
                wire,
                "ms",
                samples.ms.len(),
            );
            put(
                layers,
                format!("service.inproc.{}.p50_ms", shape.name),
                inproc,
                "ms",
                REPLAYS,
            );
            wire_overhead += wire - inproc;
        }
        put(
            layers,
            "service.wire_overhead_ms",
            wire_overhead,
            "ms",
            shapes.len(),
        );
        tracer.absorb(acc.finish(REPLAYS, args.nproc, layers));
        out.tracer = Some(tracer);
    }
    server.stop();
    out
}
