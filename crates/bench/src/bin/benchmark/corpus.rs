//! `plan_corpus`: a frozen copy of the repo's sqllogic corpus (74 queries
//! over four seed tables of 12/5/3/15 rows) swept again and again. The
//! data is negligible, so parsing, analysis, optimisation, planning and
//! task launch do nearly all the work. In process, closed loop.
//!
//! The `.slt` files under `corpus/` and the seed tables below are a
//! snapshot: they do not follow `tests/sqllogic/` when that changes.

use crate::layers::LayerAcc;
use crate::run::{put, timed, Args, Class, Outcome, PassClock, Samples};
use crate::stats::median;
use catalyst::{DataType, Row, Schema, StructField, Value};
use spark_sql::SQLContext;
use std::sync::Arc;
use std::time::Instant;

/// Measured sweeps a context serves before a fresh one replaces it. A
/// query's latency grows with the number of queries its context has run
/// (0.13 ms on a new context, 2.8 ms after 8 000 queries), so a run's
/// latencies depend on how long one context is kept. Twenty sweeps, 1 500
/// queries, is a long interactive session; the growth inside it is part
/// of what is measured, and the same on any commit.
const SWEEPS_PER_CONTEXT: usize = 20;

const FILES: [(&str, &str); 6] = [
    ("aggregates", include_str!("corpus/aggregates.slt")),
    ("joins", include_str!("corpus/joins.slt")),
    ("scalar", include_str!("corpus/scalar.slt")),
    ("setops", include_str!("corpus/setops.slt")),
    ("stats", include_str!("corpus/stats.slt")),
    ("windows", include_str!("corpus/windows.slt")),
];

#[derive(Debug, PartialEq)]
enum Directive {
    /// Execute, expect success, discard rows (`CACHE TABLE`, …).
    Statement,
    /// Compare sorted result lines.
    QueryRowsort,
    /// Compare result lines in engine order.
    QueryOrdered,
}

struct Record {
    file: usize,
    directive: Directive,
    sql: String,
    expected: Vec<String>,
}

/// Parse the simplified sqllogictest format: a directive line, the SQL,
/// then for queries `----` and the expected lines, ended by a blank line.
fn parse_slt(file: usize, text: &str) -> Vec<Record> {
    let mut records = Vec::new();
    let mut lines = text.lines().map(str::trim_end).peekable();
    while let Some(line) = lines.next() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let directive = match line {
            "statement ok" => Directive::Statement,
            "query rowsort" => Directive::QueryRowsort,
            "query ordered" => Directive::QueryOrdered,
            other => panic!("{}: unknown directive '{other}'", FILES[file].0),
        };
        let (mut sql, mut expected, mut in_expected) = (Vec::new(), Vec::new(), false);
        while let Some(l) = lines.next_if(|l| !l.is_empty()) {
            if l == "----" {
                in_expected = true;
            } else if in_expected {
                expected.push(l.to_string());
            } else {
                sql.push(l);
            }
        }
        records.push(Record {
            file,
            directive,
            sql: sql.join("\n"),
            expected,
        });
    }
    records
}

/// Each query counts in the first class whose keyword its text contains,
/// most specific operator first.
fn classify(sql: &str) -> Class {
    let upper = sql.to_ascii_uppercase();
    let has = |word: &str| upper.contains(word);
    if has(" OVER ") || has(" OVER(") {
        Class::Window
    } else if has("ORDER BY") {
        Class::Sort
    } else if has(" JOIN ") {
        Class::Join
    } else if has("GROUP BY")
        || ["COUNT(", "SUM(", "MIN(", "MAX(", "AVG("]
            .iter()
            .any(|f| has(f))
    {
        Class::Agg
    } else {
        Class::Scan
    }
}

/// NULL renders as `NULL`, the empty string as `(empty)`, cells join
/// with `|`.
fn render(rows: &[Row], sort: bool) -> Vec<String> {
    let mut lines: Vec<String> = rows
        .iter()
        .map(|row| {
            let cells: Vec<String> = row
                .values()
                .iter()
                .map(|v| match v {
                    Value::Str(s) if s.is_empty() => "(empty)".to_string(),
                    other => other.to_string(),
                })
                .collect();
            cells.join("|")
        })
        .collect();
    if sort {
        lines.sort();
    }
    lines
}

fn check(record: &Record, rows: &[Row]) -> Result<(), String> {
    let got = render(rows, record.directive == Directive::QueryRowsort);
    if record.directive == Directive::Statement || got == record.expected {
        Ok(())
    } else {
        Err(format!("got {got:?}, corpus says {:?}", record.expected))
    }
}

fn opt_int(v: Option<i32>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

/// The four seed tables. `emp.dept_id` and `sales.emp_id` hold NULLs,
/// `dept.id` is unique, every number is an integer.
fn register_seed_tables(ctx: &SQLContext) {
    let table = |name: &str, fields: Vec<StructField>, rows: Vec<Row>| {
        ctx.register_rows(name, Arc::new(Schema::new(fields)), rows)
            .expect("register seed table");
    };
    let emp = [
        (1, "alice", Some(10), 5200, 34),
        (2, "bob", Some(20), 4100, 28),
        (3, "carol", Some(10), 6900, 45),
        (4, "dave", Some(30), 3300, 23),
        (5, "erin", None, 4700, 31),
        (6, "frank", Some(20), 5200, 39),
        (7, "grace", Some(10), 8100, 52),
        (8, "heidi", Some(40), 2900, 21),
        (9, "ivan", None, 3600, 27),
        (10, "judy", Some(20), 7400, 48),
        (11, "mallory", Some(30), 5200, 33),
        (12, "oscar", Some(10), 4400, 26),
    ];
    table(
        "emp",
        vec![
            StructField::new("id", DataType::Int, false),
            StructField::new("name", DataType::String, false),
            StructField::new("dept_id", DataType::Int, true),
            StructField::new("salary", DataType::Long, false),
            StructField::new("age", DataType::Int, false),
        ],
        emp.iter()
            .map(|&(id, name, dept, salary, age)| {
                Row::new(vec![
                    Value::Int(id),
                    Value::str(name),
                    opt_int(dept),
                    Value::Long(salary),
                    Value::Int(age),
                ])
            })
            .collect(),
    );
    let dept = [
        (10, "eng", Some(100)),
        (20, "sales", Some(200)),
        (30, "hr", Some(100)),
        (40, "ops", None),
        (50, "legal", Some(300)),
    ];
    table(
        "dept",
        vec![
            StructField::new("id", DataType::Int, false),
            StructField::new("name", DataType::String, false),
            StructField::new("loc_id", DataType::Int, true),
        ],
        dept.iter()
            .map(|&(id, name, loc)| Row::new(vec![Value::Int(id), Value::str(name), opt_int(loc)]))
            .collect(),
    );
    let loc = [(100, "zurich"), (200, "berlin"), (300, "lisbon")];
    table(
        "loc",
        vec![
            StructField::new("id", DataType::Int, false),
            StructField::new("city", DataType::String, false),
        ],
        loc.iter()
            .map(|&(id, city)| Row::new(vec![Value::Int(id), Value::str(city)]))
            .collect(),
    );
    let sales = [
        (1, Some(1), 300, 3),
        (2, Some(1), 150, 1),
        (3, Some(2), 700, 7),
        (4, Some(3), 90, 1),
        (5, Some(3), 420, 4),
        (6, Some(3), 180, 2),
        (7, None, 999, 9),
        (8, Some(6), 260, 2),
        (9, Some(7), 310, 3),
        (10, Some(7), 80, 1),
        (11, Some(10), 550, 5),
        (12, Some(10), 20, 1),
        (13, None, 640, 6),
        (14, Some(12), 130, 1),
        (15, Some(99), 75, 1),
    ];
    table(
        "sales",
        vec![
            StructField::new("sale_id", DataType::Int, false),
            StructField::new("emp_id", DataType::Int, true),
            StructField::new("amount", DataType::Long, false),
            StructField::new("qty", DataType::Int, false),
        ],
        sales
            .iter()
            .map(|&(id, emp, amount, qty)| {
                Row::new(vec![
                    Value::Int(id),
                    opt_int(emp),
                    Value::Long(amount),
                    Value::Int(qty),
                ])
            })
            .collect(),
    );
}

/// One untraced sweep of `order` (indices into `records`): nothing but a
/// timer around the user-level call. Returns the time spent in queries.
fn sweep(
    ctx: &SQLContext,
    records: &[Record],
    order: &[usize],
    out: &mut Outcome,
    record_samples: bool,
) -> f64 {
    let mut busy_ms = 0.0;
    for &i in order {
        let r = &records[i];
        let (result, ms) = timed(|| ctx.sql(&r.sql).and_then(|df| df.collect()));
        if r.directive != Directive::Statement {
            busy_ms += ms;
            if record_samples {
                out.queries[i].ms.push(ms);
            }
        }
        out.check(
            &r.sql,
            result
                .map_err(|e| e.to_string())
                .and_then(|rows| check(r, &rows)),
        );
    }
    busy_ms
}

/// One traced sweep: the explicit chain under one span per query.
/// Returns the time spent in queries; `per_file` collects each file's.
fn traced_sweep(
    ctx: &SQLContext,
    records: &[Record],
    order: &[usize],
    acc: &mut LayerAcc,
    out: &mut Outcome,
    per_file: &mut [f64],
) -> f64 {
    let mut busy_ms = 0.0;
    for &i in order {
        let r = &records[i];
        let (ms, result) = acc.run(ctx, &r.sql, |_, _, _| ());
        per_file[r.file] += ms;
        if r.directive != Directive::Statement {
            busy_ms += ms;
        }
        out.check(&r.sql, result.and_then(|(rows, _)| check(r, &rows)));
    }
    busy_ms
}

pub fn run(args: &Args) -> Outcome {
    let records: Vec<Record> = FILES
        .iter()
        .enumerate()
        .flat_map(|(i, (_, text))| parse_slt(i, text))
        .collect();
    // Files run in a seeded order; inside a file the order stands,
    // because its statements cache and uncache tables around queries.
    let mut file_order: Vec<usize> = (0..FILES.len()).collect();
    crate::data::Rng::new(args.seed).shuffle(&mut file_order);
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|i| file_order.iter().position(|f| *f == records[*i].file));

    let mut out = Outcome::new(
        Vec::new(),
        records
            .iter()
            .map(|r| Samples::new(classify(&r.sql)))
            .collect(),
    );
    // Set-up is a fresh context, the seed tables, and one cold sweep:
    // whatever a change defers to a query's first execution lands here.
    // Every context of the run is one sample of it.
    let set_up = |out: &mut Outcome| {
        let (ctx, ms) = timed(|| {
            let ctx = SQLContext::new_local(args.nproc);
            ctx.set("spark.sql.shuffle.partitions", "4")
                .expect("set partitions");
            register_seed_tables(&ctx);
            sweep(&ctx, &records, &order, out, false);
            ctx
        });
        out.setup_s.push(ms / 1e3);
        ctx
    };

    let clock = PassClock::start(args.budget());
    if !args.trace {
        let mut busy_ms = 0.0;
        loop {
            let ctx = set_up(&mut out);
            for _ in 0..SWEEPS_PER_CONTEXT {
                busy_ms += sweep(&ctx, &records, &order, &mut out, true);
            }
            if clock.spent() {
                break;
            }
        }
        clock.stop(&mut out);
        out.wall_s = busy_ms / 1e3;
    } else {
        let mut acc = LayerAcc::new(Instant::now(), 0);
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut file_ms = vec![Vec::new(); FILES.len()];
        loop {
            let ctx = set_up(&mut out);
            // Alternate, so both kinds of sweep see every context age.
            for _ in 0..SWEEPS_PER_CONTEXT / 2 {
                plain.push(sweep(&ctx, &records, &order, &mut out, true));
                let mut per_file = vec![0.0; FILES.len()];
                traced.push(traced_sweep(
                    &ctx,
                    &records,
                    &order,
                    &mut acc,
                    &mut out,
                    &mut per_file,
                ));
                for (all, ms) in file_ms.iter_mut().zip(per_file) {
                    all.push(ms);
                }
            }
            if clock.spent() {
                break;
            }
        }
        clock.stop(&mut out);
        let sweeps = traced.len();
        let overhead = 100.0 * (median(&traced) / median(&plain) - 1.0);
        put(&mut out.layers, "trace.overhead_pct", overhead, "%", sweeps);
        for ((name, _), ms) in FILES.iter().zip(&file_ms) {
            put(
                &mut out.layers,
                format!("corpus.{name}.ms"),
                median(ms),
                "ms",
                ms.len(),
            );
        }
        out.tracer = Some(acc.finish(sweeps, args.nproc, &mut out.layers));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_the_frozen_74_queries_and_every_class_has_some() {
        let records: Vec<Record> = FILES
            .iter()
            .enumerate()
            .flat_map(|(i, (_, text))| parse_slt(i, text))
            .collect();
        let queries: Vec<&Record> = records
            .iter()
            .filter(|r| r.directive != Directive::Statement)
            .collect();
        assert_eq!(queries.len(), 74);
        assert_eq!(records.len() - queries.len(), 4);
        for class in Class::ALL {
            assert!(
                queries.iter().any(|r| classify(&r.sql) == class),
                "{class:?}"
            );
        }
    }

    #[test]
    fn parses_directives_sql_and_expected_lines() {
        let text = "# note\nstatement ok\nCACHE TABLE t\n\nquery rowsort\nSELECT a\nFROM t\n----\n2|x\n1|y\n\n";
        let records = parse_slt(0, text);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].directive, Directive::Statement);
        assert_eq!(records[1].sql, "SELECT a\nFROM t");
        assert_eq!(records[1].expected, vec!["2|x", "1|y"]);
    }

    #[test]
    fn classes_go_by_the_most_specific_keyword() {
        assert_eq!(
            classify("SELECT rank() OVER (ORDER BY a) FROM t JOIN u"),
            Class::Window
        );
        assert_eq!(
            classify("SELECT a FROM t JOIN u ON x = y ORDER BY a"),
            Class::Sort
        );
        assert_eq!(
            classify("SELECT count(*) FROM t JOIN u ON x = y"),
            Class::Join
        );
        assert_eq!(classify("SELECT max(a) FROM t"), Class::Agg);
        assert_eq!(classify("SELECT a + 1 FROM t WHERE a > 2"), Class::Scan);
    }
}
