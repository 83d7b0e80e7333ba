//! The SQL service: a TCP server multiplexing many client sessions over
//! one shared `SQLContext` (shared catalog, shared columnar cache),
//! with per-session isolation for temp views and conf overrides.
//!
//! Threading model (the build vendors no async runtime, so the server
//! is thread-per-connection over blocking I/O — the protocol itself is
//! runtime-agnostic):
//!
//! - an accept thread hands each connection to its own thread;
//! - connection threads only parse frames, submit queries, and block in
//!   `fetch` — they never execute plans;
//! - a fixed worker pool (`spark.sql.service.workers`) pulls queries
//!   from the [`Scheduler`], so admission and fairness hold regardless
//!   of how many connections exist.

use crate::json::{self, Json};
use crate::sched::{Outcome, QueryTask, Scheduler, ServiceConf};
use crate::wire::{self, read_frame, write_frame};
use catalyst::row::Row;
use catalyst::value::Value;
use spark_sql::{PlanCacheStats, SQLContext};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shared server state: the root context, per-session contexts, and the
/// scheduler.
struct Shared {
    root: SQLContext,
    sched: Scheduler,
    sessions: Mutex<HashMap<String, SQLContext>>,
    /// Plan-cache counters of sessions that have ended, so `stats` keeps
    /// counting what they did.
    ended_plan_cache: Mutex<PlanCacheStats>,
    next_session: AtomicU64,
    next_query: AtomicU64,
    shutdown: AtomicBool,
    /// Live connection streams, so shutdown can unblock readers.
    conns: Mutex<Vec<TcpStream>>,
}

impl Shared {
    fn session(&self, id: &str) -> Option<SQLContext> {
        self.sessions.lock().unwrap().get(id).cloned()
    }

    /// Forget a session whose connection is over. Dropping its context
    /// drops its temp views and plan cache, and with them whatever it
    /// `CACHE TABLE`d: those blocks leave the shared block store.
    fn end_session(&self, id: &str) {
        let Some(ctx) = self.sessions.lock().unwrap().remove(id) else {
            return;
        };
        let counters = PlanCacheStats {
            entries: 0, // gone with the session
            ..ctx.plan_cache_stats()
        };
        let mut ended = self.ended_plan_cache.lock().unwrap();
        *ended = add_counters(*ended, counters);
    }

    /// Plan-cache counters summed over every session this server has had.
    fn plan_cache_stats(&self) -> PlanCacheStats {
        let ended = *self.ended_plan_cache.lock().unwrap();
        self.sessions
            .lock()
            .unwrap()
            .values()
            .fold(ended, |sum, ctx| add_counters(sum, ctx.plan_cache_stats()))
    }
}

fn add_counters(a: PlanCacheStats, b: PlanCacheStats) -> PlanCacheStats {
    PlanCacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        invalidations: a.invalidations + b.invalidations,
        entries: a.entries + b.entries,
    }
}

/// A running SQL service. Dropping the handle (or calling
/// [`SqlServer::stop`]) shuts the service down and joins every thread.
pub struct SqlServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl SqlServer {
    /// Bind to `127.0.0.1:0` (kernel-assigned port) and start serving
    /// `root`'s catalog and cache. Service knobs are snapshotted from
    /// `root`'s `spark.sql.service.*` confs.
    pub fn start(root: SQLContext) -> io::Result<SqlServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let conf = ServiceConf::from_sql_conf(&root.conf());
        let shared = Arc::new(Shared {
            root,
            sched: Scheduler::new(conf.clone()),
            sessions: Mutex::new(HashMap::new()),
            ended_plan_cache: Mutex::new(PlanCacheStats::default()),
            next_session: AtomicU64::new(1),
            next_query: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let workers = (0..conf.workers)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let accept_shared = shared.clone();
        let accept = std::thread::spawn(move || accept_loop(listener, &accept_shared));
        Ok(SqlServer {
            shared,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Scheduler counters, block-cache stats and the plan-cache counters
    /// summed over every session so far, as one JSON object (same shape
    /// the `stats` wire op returns). `sessions` counts open sessions.
    pub fn stats(&self) -> Json {
        stats_json(&self.shared)
    }

    /// Shut down: stop admitting, wake workers, unblock every
    /// connection, join all threads. Idempotent.
    pub fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.sched.shutdown();
        // Unblock the accept loop with a throwaway connection, and
        // connection readers by closing their sockets.
        let _ = TcpStream::connect(self.addr);
        for stream in self.shared.conns.lock().unwrap().iter() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for SqlServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().unwrap().push(clone);
        }
        let shared = shared.clone();
        std::thread::spawn(move || {
            let _ = serve_connection(stream, &shared);
        });
    }
}

/// One connection: a hello handshake binds it to a fresh session, then
/// requests are served in order until `close` or EOF, and the session
/// ends with the connection however that came about.
fn serve_connection(mut stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    let mut session_id: Option<String> = None;
    let served = serve_requests(&mut stream, shared, &mut session_id);
    if let Some(id) = session_id {
        shared.end_session(&id);
    }
    served
}

fn serve_requests(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    session_id: &mut Option<String>,
) -> io::Result<()> {
    // Every reply is a small JSON tree except a fetched result, which
    // is written from its rows straight into the frame.
    let tree = |reply: Json| wire::frame(|out| reply.write(out));
    while let Some(req) = read_frame(stream)? {
        let op = req.get("op").and_then(Json::as_str).unwrap_or("");
        let frame = match (op, &*session_id) {
            ("hello", previous) => {
                if let Some(previous) = previous {
                    shared.end_session(previous);
                }
                let id = format!("s{}", shared.next_session.fetch_add(1, Ordering::SeqCst));
                let ctx = shared.root.new_session(&id);
                shared.sessions.lock().unwrap().insert(id.clone(), ctx);
                *session_id = Some(id.clone());
                tree(ok([("session", Json::Str(id))]))
            }
            (_, None) => tree(err("handshake required: send {\"op\":\"hello\"} first")),
            ("close", Some(_)) => {
                let _ = write_frame(stream, &ok([]));
                return Ok(());
            }
            ("set", Some(sid)) => tree(handle_set(shared, sid, &req)),
            ("conf", Some(sid)) => tree(handle_conf(shared, sid, &req)),
            ("query", Some(sid)) => tree(handle_query(shared, sid, &req)),
            ("fetch", Some(_)) => handle_fetch(shared, &req),
            ("cancel", Some(_)) => tree(handle_cancel(shared, &req)),
            ("stats", Some(_)) => tree(stats_json(shared)),
            (other, Some(_)) => tree(err(&format!("unknown op {other:?}"))),
        }?;
        wire::write_bytes(stream, &frame)?;
    }
    Ok(())
}

fn handle_set(shared: &Shared, sid: &str, req: &Json) -> Json {
    let (Some(key), Some(value)) = (
        req.get("key").and_then(Json::as_str),
        req.get("value").and_then(Json::as_str),
    ) else {
        return err("set needs string fields key and value");
    };
    let Some(ctx) = shared.session(sid) else {
        return err("session is gone");
    };
    match ctx.set(key, value) {
        Ok(()) => ok([]),
        Err(e) => err(&e.to_string()),
    }
}

fn handle_conf(shared: &Shared, sid: &str, req: &Json) -> Json {
    let Some(key) = req.get("key").and_then(Json::as_str) else {
        return err("conf needs a string field key");
    };
    let Some(ctx) = shared.session(sid) else {
        return err("session is gone");
    };
    match ctx.conf().get(key) {
        Ok(v) => ok([("value", Json::Str(v))]),
        Err(e) => err(&e.to_string()),
    }
}

fn handle_query(shared: &Shared, sid: &str, req: &Json) -> Json {
    let Some(sql) = req.get("sql").and_then(Json::as_str) else {
        return err("query needs a string field sql");
    };
    let conf_timeout = shared.sched.conf().query_timeout_ms;
    let timeout_ms = req
        .get("timeout_ms")
        .and_then(Json::as_i64)
        .map(|t| t.max(0) as u64)
        .unwrap_or(conf_timeout);
    let timeout = (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms));
    let id = shared.next_query.fetch_add(1, Ordering::SeqCst);
    let task = QueryTask::new(id, sid.to_string(), sql.to_string(), timeout);
    match shared.sched.submit(task) {
        Ok(()) => ok([("query", Json::Int(id as i64))]),
        Err(e) => err(&e),
    }
}

fn handle_fetch(shared: &Shared, req: &Json) -> io::Result<Vec<u8>> {
    let refuse = |message: &str| wire::frame(|out| err(message).write(out));
    let Some(id) = req.get("query").and_then(Json::as_i64) else {
        return refuse("fetch needs an integer field query");
    };
    let Some(task) = shared.sched.task(id as u64) else {
        return refuse(&format!("unknown query handle {id}"));
    };
    let outcome = task.wait_done();
    shared.sched.forget(id as u64);
    fetch_frame(task.queued_by_admission.load(Ordering::SeqCst), &outcome)
}

/// The reply frame to a `fetch`: the query's counters and, when it
/// succeeded, its columns and rows. The rows go from `&[Row]` into the
/// frame as they are formatted — no [`Json`] value per cell, no second
/// copy of the text — and the bytes are those of the same reply built as
/// a tree holding `rows: Json::Arr(rows.map(row_json))`.
fn fetch_frame(queued: bool, outcome: &Outcome) -> io::Result<Vec<u8>> {
    let mut fields = vec![
        ("queued", Json::Bool(queued)),
        ("wall_ns", Json::Int(outcome.wall_ns as i64)),
        (
            "spill_files_created",
            Json::Int(outcome.spill_files_created as i64),
        ),
        (
            "spill_files_deleted",
            Json::Int(outcome.spill_files_deleted as i64),
        ),
        ("evictions", Json::Int(outcome.evictions as i64)),
    ];
    let (columns, rows) = match &outcome.rows {
        Ok(result) => result,
        Err(e) => {
            fields.extend([("ok", Json::Bool(false)), ("error", Json::Str(e.clone()))]);
            return wire::frame(|out| Json::obj(fields).write(out));
        }
    };
    fields.push((
        "columns",
        Json::Arr(columns.iter().cloned().map(Json::Str).collect()),
    ));
    let Json::Obj(mut before) = ok(fields) else {
        unreachable!("ok() builds an object")
    };
    // Keys sort `columns`, `evictions`, `ok`, `queued` | `rows` |
    // `spill_files_*`, `wall_ns`: fields stand on both sides of the rows.
    let after = before.split_off("rows");
    wire::frame(|out| {
        out.push('{');
        json::write_fields(&before, out);
        out.push_str(",\"rows\":");
        write_rows(rows, out);
        out.push(',');
        json::write_fields(&after, out);
        out.push('}');
    })
}

fn handle_cancel(shared: &Shared, req: &Json) -> Json {
    let Some(id) = req.get("query").and_then(Json::as_i64) else {
        return err("cancel needs an integer field query");
    };
    match shared.sched.task(id as u64) {
        Some(task) => {
            task.token.cancel();
            ok([("cancelled", Json::Bool(true))])
        }
        None => ok([("cancelled", Json::Bool(false))]),
    }
}

fn stats_json(shared: &Shared) -> Json {
    let c = &shared.sched.counters;
    let cache = shared.root.spark_context().cache_manager().budget_stats();
    let plans = shared.plan_cache_stats();
    ok([
        (
            "admitted",
            Json::Int(c.admitted.load(Ordering::SeqCst) as i64),
        ),
        (
            "queued_by_admission",
            Json::Int(c.queued_by_admission.load(Ordering::SeqCst) as i64),
        ),
        (
            "rejected",
            Json::Int(c.rejected.load(Ordering::SeqCst) as i64),
        ),
        (
            "cancelled",
            Json::Int(c.cancelled.load(Ordering::SeqCst) as i64),
        ),
        ("queued_now", Json::Int(shared.sched.queued_len() as i64)),
        (
            "sessions",
            Json::Int(shared.sessions.lock().unwrap().len() as i64),
        ),
        ("cache_evictions", Json::Int(cache.evictions as i64)),
        ("cache_evicted_bytes", Json::Int(cache.evicted_bytes as i64)),
        ("cache_used_bytes", Json::Int(cache.used_bytes as i64)),
        ("plan_cache_hits", Json::Int(plans.hits as i64)),
        ("plan_cache_misses", Json::Int(plans.misses as i64)),
        (
            "plan_cache_invalidations",
            Json::Int(plans.invalidations as i64),
        ),
    ])
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some((task, reservation)) = shared.sched.next() {
        // Query errors come back as values; this net only keeps a bug
        // (a panic on the driver side of a query) from killing the
        // worker, whose task would then never finish.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_query(shared, &task)))
                .unwrap_or_else(|_| Outcome {
                    rows: Err(format!("query {} panicked", task.id)),
                    ..Outcome::default()
                });
        // Release the admission grant first, then let finish() wake the
        // queue so a denied query's re-check sees the freed budget.
        drop(reservation);
        shared.sched.finish(&task, outcome);
    }
}

/// Execute one admitted query on a worker thread.
fn run_query(shared: &Arc<Shared>, task: &QueryTask) -> Outcome {
    let Some(ctx) = shared.session(&task.session) else {
        return Outcome {
            rows: Err(format!("session {} is gone", task.session)),
            ..Outcome::default()
        };
    };
    // A deadline can expire while the query waits in the run queue;
    // don't bother starting it.
    if let Some(reason) = task.token.state() {
        return Outcome {
            rows: Err(format!("query {}: {}", task.id, reason.describe())),
            cancelled: true,
            ..Outcome::default()
        };
    }
    let cache_before = ctx.spark_context().cache_manager().budget_stats();
    let start = Instant::now();
    let result = ctx.sql(&task.sql).and_then(|df| {
        let columns: Vec<String> = df
            .schema()
            .fields()
            .iter()
            .map(|f| f.name.to_string())
            .collect();
        let qe = df.query_execution()?;
        qe.set_cancel(task.token.clone());
        let rows = qe.collect();
        let memory = qe.memory_stats();
        Ok((columns, rows, memory))
    });
    let wall_ns = start.elapsed().as_nanos() as u64;
    // A failed query counts as cancelled when its token fired: the error
    // text (which may name a table called `deadline`) plays no part.
    let cancelled = task.token.is_cancelled();
    let cache_after = ctx.spark_context().cache_manager().budget_stats();
    let evictions = cache_after.evictions.saturating_sub(cache_before.evictions);
    match result {
        Ok((columns, rows, memory)) => {
            let (created, deleted) = memory
                .map(|m| (m.spill_files_created, m.spill_files_deleted))
                .unwrap_or((0, 0));
            Outcome {
                cancelled: cancelled && rows.is_err(),
                rows: rows.map(|r| (columns, r)).map_err(|e| e.to_string()),
                wall_ns,
                spill_files_created: created,
                spill_files_deleted: deleted,
                evictions,
            }
        }
        Err(e) => Outcome {
            rows: Err(e.to_string()),
            cancelled,
            wall_ns,
            spill_files_created: 0,
            spill_files_deleted: 0,
            evictions,
        },
    }
}

/// Encode one result row exactly as `fetch` replies do — exposed so
/// tests can compare wire results byte-for-byte against library runs.
pub fn row_json(row: &Row) -> Json {
    Json::Arr(row.values().iter().map(value_json).collect())
}

/// `rows` as the JSON array of [`row_json`] arrays, written in place.
fn write_rows(rows: &[Row], out: &mut String) {
    out.push('[');
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, v) in row.values().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match v {
                // The one value whose `Json` form would copy its payload.
                Value::Str(s) => json::write_string(s, out),
                scalar => value_json(scalar).write(out),
            }
        }
        out.push(']');
    }
    out.push(']');
}

/// Convert one SQL value to its wire representation. Primitives map to
/// native JSON; everything else renders through `Value`'s display form.
fn value_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Boolean(b) => Json::Bool(*b),
        Value::Int(i) => Json::Int(*i as i64),
        Value::Long(l) => Json::Int(*l),
        Value::Float(f) => Json::Num(*f as f64),
        Value::Double(d) => Json::Num(*d),
        Value::Date(d) => Json::Int(*d as i64),
        Value::Timestamp(t) => Json::Int(*t),
        Value::Str(s) => Json::Str(s.to_string()),
        other => Json::Str(format!("{other}")),
    }
}

fn ok(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut obj = Json::obj(fields);
    if let Json::Obj(map) = &mut obj {
        map.insert("ok".to_string(), Json::Bool(true));
    }
    obj
}

fn err(message: &str) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    /// The reply `fetch` used to build: the whole result as a [`Json`]
    /// tree, framed by [`write_frame`].
    fn tree_frame(queued: bool, outcome: &Outcome) -> Vec<u8> {
        let mut fields = vec![
            ("queued", Json::Bool(queued)),
            ("wall_ns", Json::Int(outcome.wall_ns as i64)),
            (
                "spill_files_created",
                Json::Int(outcome.spill_files_created as i64),
            ),
            (
                "spill_files_deleted",
                Json::Int(outcome.spill_files_deleted as i64),
            ),
            ("evictions", Json::Int(outcome.evictions as i64)),
        ];
        let reply = match &outcome.rows {
            Ok((columns, rows)) => {
                fields.push((
                    "columns",
                    Json::Arr(columns.iter().cloned().map(Json::Str).collect()),
                ));
                fields.push(("rows", Json::Arr(rows.iter().map(row_json).collect())));
                ok(fields)
            }
            Err(e) => {
                let mut reply = err(e);
                if let Json::Obj(map) = &mut reply {
                    for (k, v) in fields {
                        map.insert(k.to_string(), v);
                    }
                }
                reply
            }
        };
        let mut frame = Vec::new();
        write_frame(&mut frame, &reply).unwrap();
        frame
    }

    fn outcome(rows: std::result::Result<(Vec<String>, Vec<Row>), String>) -> Outcome {
        Outcome {
            rows,
            cancelled: false,
            wall_ns: 1_234_567,
            spill_files_created: 3,
            spill_files_deleted: 3,
            evictions: 2,
        }
    }

    #[test]
    fn streamed_fetch_frames_are_the_tree_frames_byte_for_byte() {
        let columns = vec!["s".to_string(), "a \"quoted\"\tname".to_string()];
        let awkward = vec![
            Row::new(vec![Value::Null, Value::Null]),
            Row::new(vec![Value::Boolean(true), Value::Boolean(false)]),
            Row::new(vec![Value::Int(i32::MIN), Value::Long(i64::MAX)]),
            Row::new(vec![Value::Long(i64::MIN), Value::Date(-3653)]),
            Row::new(vec![
                Value::Date(3743),
                Value::Timestamp(1_700_000_000_000_000),
            ]),
            // A whole float keeps its point; an integer never grows one.
            Row::new(vec![Value::Double(2.0), Value::Long(2)]),
            Row::new(vec![Value::Float(0.1), Value::Double(0.1)]),
            Row::new(vec![Value::Double(-0.0), Value::Double(1e300)]),
            Row::new(vec![Value::Double(f64::NAN), Value::Double(f64::INFINITY)]),
            Row::new(vec![Value::Float(f32::NEG_INFINITY), Value::Double(5e-324)]),
            Row::new(vec![Value::str(""), Value::str("plain")]),
            Row::new(vec![
                Value::str("quote \" slash \\ solidus /"),
                Value::str("line\nfeed\rreturn\ttab\u{8}\u{c}\0\u{1f}\u{7f}"),
            ]),
            Row::new(vec![Value::str("é 你 😀"), Value::str("\\u0041 \\n")]),
            Row::new(vec![
                Value::Decimal(-12345, 10, 2),
                Value::Binary(StdArc::from(&b"\x00\xff\""[..])),
            ]),
            Row::new(vec![
                Value::Array(StdArc::new(vec![
                    Value::Int(1),
                    Value::Null,
                    Value::str("x\"y"),
                ])),
                Value::Struct(StdArc::new(vec![Value::Double(2.0), Value::str("\n")])),
            ]),
            Row::new(vec![]),
        ];
        let cases = [
            outcome(Ok((columns.clone(), awkward))),
            outcome(Ok((columns, Vec::new()))),
            outcome(Ok((Vec::new(), Vec::new()))),
            Outcome::default(),
            outcome(Err("query 7: cancelled \"mid\"\nflight".to_string())),
        ];
        for case in &cases {
            for queued in [false, true] {
                let streamed = fetch_frame(queued, case).unwrap();
                assert_eq!(
                    String::from_utf8_lossy(&streamed[4..]),
                    String::from_utf8_lossy(&tree_frame(queued, case)[4..]),
                );
                assert_eq!(streamed, tree_frame(queued, case));
                // And a client reads back what the tree reader reads.
                let reply = read_frame(&mut &streamed[..]).unwrap().expect("one frame");
                assert_eq!(
                    reply.get("ok").and_then(Json::as_bool),
                    Some(case.rows.is_ok())
                );
                assert_eq!(
                    reply.get("evictions").and_then(Json::as_i64),
                    Some(case.evictions as i64)
                );
            }
        }
    }
}
