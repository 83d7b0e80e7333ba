//! The two analytic workloads over file-backed tables: the paper's
//! Figure 8 queries plus a sort and a window query, once with unbounded
//! memory (`amplab_colfile`) and once through the spill path
//! (`bounded_spill`). In process, closed loop, one driver.

use crate::data::{self, Tables};
use crate::layers::{LayerAcc, Spill};
use crate::reference::{self, Digest};
use crate::run::{put, timed, Args, Class, Outcome, PassClock, Samples};
use crate::stats::median;
use catalyst::Row;
use datasources::ColFileRelation;
use spark_sql::SQLContext;
use std::sync::Arc;
use std::time::Instant;

/// A scan takes 5-20 ms, too short to time once: each runs this many
/// times back to back in a pass, every execution one sample.
const SCAN_REPS: usize = 10;

/// Under the bounded budget `sort` and `window` go through the external
/// sort and its files, and their latency moves more from execution to
/// execution than the other queries'. Each runs this many times in a
/// pass there, so its median rests on as many more samples.
const SPILL_SORT_REPS: usize = 2;

/// The memory budget under which every heavy query spills.
const SPILL_BUDGET: &str = "2m";

/// How a query's output is checked against the hand-written reference.
enum Expect {
    Rows(Digest),
    /// As `Rows`, and column 1 must be non-decreasing.
    Sorted(Digest),
    /// One row, any of these `(sourceIP, totalRevenue, avgPageRank)`.
    OneOf(Vec<(String, f64, f64)>),
}

struct Query {
    name: &'static str,
    class: Class,
    sql: String,
    reps: usize,
    expect: Expect,
}

fn scan_sql(threshold: i32) -> String {
    format!("SELECT pageURL, pageRank FROM rankings WHERE pageRank > {threshold}")
}

fn agg_sql(len: usize) -> String {
    format!(
        "SELECT substr(sourceIP, 1, {len}) AS prefix, sum(adRevenue) AS rev \
         FROM uservisits GROUP BY substr(sourceIP, 1, {len})"
    )
}

fn join_sql(hi: &str) -> String {
    format!(
        "SELECT sourceIP, totalRevenue, avgPageRank FROM \
           (SELECT sourceIP, avg(pageRank) AS avgPageRank, sum(adRevenue) AS totalRevenue \
            FROM rankings, uservisits \
            WHERE pageURL = destURL \
              AND visitDate BETWEEN DATE '1980-01-01' AND DATE '{hi}' \
            GROUP BY sourceIP) t \
         ORDER BY totalRevenue DESC LIMIT 1"
    )
}

const SORT_SQL: &str = "SELECT sourceIP, adRevenue FROM uservisits ORDER BY adRevenue";
const WINDOW_SQL: &str = "SELECT sourceIP, adRevenue, \
     rank() OVER (PARTITION BY substr(sourceIP,1,6) ORDER BY adRevenue DESC) AS r FROM uservisits";

/// The queries of one pass, with their expected results on `t`.
fn queries(spill: bool, t: &Tables) -> Vec<Query> {
    let scan = |name, threshold| Query {
        name,
        class: Class::Scan,
        sql: scan_sql(threshold),
        reps: SCAN_REPS,
        expect: Expect::Rows(reference::scan(t, threshold)),
    };
    let agg = |name, len| Query {
        name,
        class: Class::Agg,
        sql: agg_sql(len),
        reps: 1,
        expect: Expect::Rows(reference::revenue_by_prefix(t, len)),
    };
    let join = |name, hi_text, hi_day| Query {
        name,
        class: Class::Join,
        sql: join_sql(hi_text),
        reps: 1,
        expect: Expect::OneOf(reference::top_revenue(t, hi_day)),
    };
    let sort_reps = if spill { SPILL_SORT_REPS } else { 1 };
    let sort = Query {
        name: "sort",
        class: Class::Sort,
        sql: SORT_SQL.into(),
        reps: sort_reps,
        expect: Expect::Sorted(reference::visits_by_revenue(t)),
    };
    let window = Query {
        name: "window",
        class: Class::Window,
        sql: WINDOW_SQL.into(),
        reps: sort_reps,
        expect: Expect::Rows(reference::revenue_rank(t)),
    };
    if spill {
        // The scan never spills; it is here so that a cost the memory
        // governor adds to every query shows on the cheapest one.
        vec![
            scan("1c", 100),
            agg("2b", 9),
            join("3c", "2010-01-01", data::DAY_2010_01_01),
            sort,
            window,
        ]
    } else {
        vec![
            scan("1a", 9000),
            scan("1b", 1000),
            scan("1c", 100),
            agg("2a", 6),
            agg("2b", 9),
            agg("2c", 12),
            join("3a", "1980-04-01", data::DAY_1980_04_01),
            join("3b", "1983-01-01", data::DAY_1983_01_01),
            join("3c", "2010-01-01", data::DAY_2010_01_01),
            sort,
            window,
        ]
    }
}

fn verify(expect: &Expect, rows: &[Row]) -> Result<(), String> {
    let same = |want: &Digest| {
        let got = Digest::of_rows(rows)?;
        if got == *want {
            Ok(())
        } else {
            Err(format!("got {got:?}, reference says {want:?}"))
        }
    };
    match expect {
        Expect::Rows(want) => same(want),
        Expect::Sorted(want) => {
            same(want)?;
            if reference::non_decreasing(rows, 1) {
                Ok(())
            } else {
                Err("rows are not in order".into())
            }
        }
        Expect::OneOf(tied) => match rows {
            [row] => {
                let got = (row.get_str(0), row.get_double(1), row.get_double(2));
                if tied
                    .iter()
                    .any(|(ip, rev, rank)| (ip.as_str(), *rev, *rank) == got)
                {
                    Ok(())
                } else {
                    Err(format!("got {got:?}, reference says one of {tied:?}"))
                }
            }
            _ => Err(format!("{} rows, expected 1", rows.len())),
        },
    }
}

/// The tables as written to disk and read back, shared by every context
/// of the run.
struct Env {
    tables: Tables,
    relations: [Arc<ColFileRelation>; 2],
    /// The context set-up registered them in, for the warm-up pass.
    ctx: SQLContext,
}

/// A session over the loaded relations, memory bounded for the spill
/// workload.
fn session(args: &Args, spill: bool, dir: &str) -> SQLContext {
    let ctx = SQLContext::new_local(args.nproc);
    if spill {
        ctx.set("spark.sql.memory.budgetBytes", SPILL_BUDGET)
            .expect("set budget");
        ctx.set("spark.sql.memory.spillDir", &format!("{dir}/spill"))
            .expect("set spill dir");
    }
    ctx
}

/// Generate the tables, write them as colfiles, read them back and
/// register them.
fn set_up(args: &Args, spill: bool, dir: &str) -> Env {
    let tables = data::generate(args.seed, data::PAGES, data::VISITS);
    let ctx = session(args, spill, dir);
    let relations = tables.register_colfiles(&ctx, dir);
    Env {
        tables,
        relations,
        ctx,
    }
}

/// The engine keeps every shuffle's output for the life of its context,
/// some 300 MB a pass here, and in this sandbox memory a process touches
/// beyond its first gigabyte or so faults ten times slower. One context
/// for the whole run therefore gives two-humped latencies (the hump
/// depends on how far the run got), so each pass gets a fresh context
/// over the same loaded relations. What one pass retains still shows in
/// `peak_rss_mb`.
fn fresh_session(
    args: &Args,
    spill: bool,
    dir: &str,
    relations: &[Arc<ColFileRelation>; 2],
) -> SQLContext {
    let ctx = session(args, spill, dir);
    ctx.register_relation("rankings", relations[0].clone());
    ctx.register_relation("uservisits", relations[1].clone());
    ctx
}

fn groups(relations: &[Arc<ColFileRelation>; 2]) -> (u64, u64) {
    (
        relations.iter().map(|r| r.groups_read()).sum(),
        relations.iter().map(|r| r.groups_skipped()).sum(),
    )
}

/// The spill workload's extra check on a traced execution.
fn check_spill(class: Class, spill: Spill) -> Result<(), String> {
    if class != Class::Scan && spill.count == 0 {
        return Err("did not spill under the bounded budget".into());
    }
    if spill.files_created != spill.files_deleted {
        return Err(format!(
            "{} spill files created, {} deleted",
            spill.files_created, spill.files_deleted
        ));
    }
    Ok(())
}

/// One untraced pass: nothing but a timer around the user-level call.
/// Returns the time spent in queries.
fn plain_pass(ctx: &SQLContext, queries: &[Query], out: &mut Outcome) -> f64 {
    let mut busy_ms = 0.0;
    for (qi, q) in queries.iter().enumerate() {
        for _ in 0..q.reps {
            let (result, ms) = timed(|| ctx.sql(&q.sql).and_then(|df| df.collect()));
            busy_ms += ms;
            out.queries[qi].ms.push(ms);
            out.check(
                q.name,
                result
                    .map_err(|e| e.to_string())
                    .and_then(|rows| verify(&q.expect, &rows)),
            );
        }
    }
    busy_ms
}

/// One traced pass: the explicit chain, spans, counters, and (spill
/// workload) what the memory pool counted. Returns the time spent in
/// queries; `ms` collects each query's.
fn traced_pass(
    ctx: &SQLContext,
    queries: &[Query],
    spill: bool,
    acc: &mut LayerAcc,
    out: &mut Outcome,
    ms: &mut [Vec<f64>],
) -> f64 {
    let mut busy_ms = 0.0;
    for (qi, q) in queries.iter().enumerate() {
        for _ in 0..q.reps {
            let (query_ms, result) = acc.run(ctx, &q.sql, |_, _, _| ());
            busy_ms += query_ms;
            ms[qi].push(query_ms);
            out.check(
                q.name,
                result.and_then(|(rows, s)| {
                    verify(&q.expect, &rows)?;
                    if spill {
                        check_spill(q.class, s)?;
                    }
                    Ok(())
                }),
            );
        }
    }
    busy_ms
}

pub fn run(args: &Args, spill: bool) -> Outcome {
    let dir = args.work_dir();
    let mut setup_s = Vec::new();
    let mut env = None;
    for _ in 0..args.setup_reps() {
        // Drop the previous engine first: one at a time.
        drop(env.take());
        let (e, ms) = timed(|| set_up(args, spill, &dir));
        setup_s.push(ms / 1e3);
        env = Some(e);
    }
    let Env {
        tables,
        relations,
        ctx,
    } = env.expect("at least one set-up");
    let queries = queries(spill, &tables);
    let mut out = Outcome::new(
        setup_s,
        queries.iter().map(|q| Samples::new(q.class)).collect(),
    );
    let origin = Instant::now();

    // Warm-up, unmeasured. Traced, so that the spill workload's spill
    // checks run in the untraced benchmark too.
    let mut unused = vec![Vec::new(); queries.len()];
    traced_pass(
        &ctx,
        &queries,
        spill,
        &mut LayerAcc::new(origin, 0),
        &mut out,
        &mut unused,
    );
    drop(ctx);

    let clock = PassClock::start(args.budget());
    if !args.trace {
        let mut busy_ms = 0.0;
        loop {
            let ctx = fresh_session(args, spill, &dir, &relations);
            busy_ms += plain_pass(&ctx, &queries, &mut out);
            if clock.spent() {
                break;
            }
        }
        // The driver is one closed loop: the time its user waited is the
        // sum of the latencies, checks between queries left out.
        clock.stop(&mut out);
        out.wall_s = busy_ms / 1e3;
    } else {
        // Alternate untraced and traced passes; their ratio is what
        // tracing costs.
        let mut acc = LayerAcc::new(origin, 0);
        let (groups_read, groups_skipped) = groups(&relations);
        let mut traced_ms = vec![Vec::new(); queries.len()];
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        loop {
            let ctx = fresh_session(args, spill, &dir, &relations);
            plain.push(plain_pass(&ctx, &queries, &mut out));
            let ctx = fresh_session(args, spill, &dir, &relations);
            traced.push(traced_pass(
                &ctx,
                &queries,
                spill,
                &mut acc,
                &mut out,
                &mut traced_ms,
            ));
            if clock.spent() {
                break;
            }
        }
        clock.stop(&mut out);
        let passes = traced.len();
        let overhead = 100.0 * (median(&traced) / median(&plain) - 1.0);
        put(&mut out.layers, "trace.overhead_pct", overhead, "%", passes);
        // Both kinds of pass scan; count per pass of either kind.
        let (read, skipped) = groups(&relations);
        let per_pass = |x: u64| x as f64 / (2 * passes) as f64;
        put(
            &mut out.layers,
            "datasources.groups_read",
            per_pass(read - groups_read),
            "count",
            passes,
        );
        put(
            &mut out.layers,
            "datasources.groups_skipped",
            per_pass(skipped - groups_skipped),
            "count",
            passes,
        );
        for (q, ms) in queries.iter().zip(&traced_ms) {
            put(
                &mut out.layers,
                format!("query.{}.ms", q.name),
                median(ms),
                "ms",
                ms.len(),
            );
        }
        out.tracer = Some(acc.finish(passes, args.nproc, &mut out.layers));
    }
    std::fs::remove_dir_all(&dir).expect("remove work dir");
    out
}
