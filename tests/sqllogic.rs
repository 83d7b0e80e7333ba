//! Sqllogictest-style golden-query corpus (`tests/sqllogic/*.slt`).
//!
//! Every `.slt` file is a sequence of records over a fixed set of seed
//! tables. Each `query` record carries its expected output inline; the
//! runner executes the whole corpus in four cells — production and the
//! reference (`SqlConf::reference`), each unbounded and under a 64 KiB
//! memory budget — and requires byte-identical results in every cell,
//! twice on each context, the second pass served from the session plan
//! cache and byte-identical to the first. The recorded goldens double as
//! a differential oracle between production and the reference: an
//! optimization that changes any answer fails with the file, query, SQL,
//! and cell that diverged.
//!
//! File format (simplified sqllogictest):
//!
//! ```text
//! # comment
//! statement ok
//! SET spark.sql.shuffle.partitions=4
//!
//! query rowsort
//! SELECT a, b FROM t WHERE a > 1
//! ----
//! 2|x
//! 3|y
//! ```
//!
//! Directives: `statement ok` (execute, expect success, discard rows),
//! `query rowsort` (sort result lines before comparing), and
//! `query ordered` (compare in engine order; use only with a total
//! ORDER BY). NULL renders as `NULL`, the empty string as `(empty)`,
//! and cells join with `|`.
//!
//! Re-record goldens after an intended behavior change with
//! `SQLLOGIC_RECORD=1 cargo test --test sqllogic` (records in unbounded
//! production, then verifies every cell). Records added to make an
//! optimizer rule fire carry expected rows worked out by hand instead:
//! the reference runs most rules too, so only a hand-derived golden can
//! catch a wrong rewrite.
//!
//! `sqllogic_every_rule_fires` is the coverage gate: over the whole
//! corpus in unbounded production, every rule the optimizer registers
//! must fire on at least one query. It prints the per-rule table.

use catalyst::optimizer::Optimizer;
use catalyst::row::Row;
use catalyst::schema::Schema;
use catalyst::types::{DataType, StructField};
use catalyst::value::Value;
use spark_sql_repro::spark_sql::SQLContext;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

// ---- the four cells ----

/// `(reference, bounded)`: production or the reference, each unbounded
/// and under a 64 KiB memory budget.
const CELLS: [(bool, bool); 4] = [(false, false), (false, true), (true, false), (true, true)];

fn context_for(reference: bool, bounded: bool) -> SQLContext {
    let ctx = SQLContext::new_local(2);
    ctx.set_conf(|c| {
        c.reference = reference;
        if bounded {
            // Small enough that hash joins and aggregates over the seed
            // tables actually exercise the spill machinery.
            c.memory_budget_bytes = 64 * 1024;
        }
        // Deterministic small plans regardless of the machine.
        c.shuffle_partitions = 4;
    });
    register_seed_tables(&ctx);
    ctx
}

// ---- seed tables ----

/// Fixed relations every corpus file runs against. Key properties the
/// queries rely on: `emp.dept_id` and `sales.emp_id` contain NULLs (join
/// keys that must never match), `dept.id` is unique, and all numeric
/// columns are integers so aggregates are exact under any evaluation
/// order.
fn register_seed_tables(ctx: &SQLContext) {
    let emp = Arc::new(Schema::new(vec![
        StructField::new("id", DataType::Int, false),
        StructField::new("name", DataType::String, false),
        StructField::new("dept_id", DataType::Int, true),
        StructField::new("salary", DataType::Long, false),
        StructField::new("age", DataType::Int, false),
    ]));
    let emp_rows = vec![
        emp_row(1, "alice", Some(10), 5200, 34),
        emp_row(2, "bob", Some(20), 4100, 28),
        emp_row(3, "carol", Some(10), 6900, 45),
        emp_row(4, "dave", Some(30), 3300, 23),
        emp_row(5, "erin", None, 4700, 31),
        emp_row(6, "frank", Some(20), 5200, 39),
        emp_row(7, "grace", Some(10), 8100, 52),
        emp_row(8, "heidi", Some(40), 2900, 21),
        emp_row(9, "ivan", None, 3600, 27),
        emp_row(10, "judy", Some(20), 7400, 48),
        emp_row(11, "mallory", Some(30), 5200, 33),
        emp_row(12, "oscar", Some(10), 4400, 26),
    ];
    ctx.register_rows("emp", emp, emp_rows).unwrap();

    let dept = Arc::new(Schema::new(vec![
        StructField::new("id", DataType::Int, false),
        StructField::new("name", DataType::String, false),
        StructField::new("loc_id", DataType::Int, true),
    ]));
    let dept_rows = vec![
        dept_row(10, "eng", Some(100)),
        dept_row(20, "sales", Some(200)),
        dept_row(30, "hr", Some(100)),
        dept_row(40, "ops", None),
        dept_row(50, "legal", Some(300)),
    ];
    ctx.register_rows("dept", dept, dept_rows).unwrap();

    let loc = Arc::new(Schema::new(vec![
        StructField::new("id", DataType::Int, false),
        StructField::new("city", DataType::String, false),
    ]));
    let loc_rows = vec![
        loc_row(100, "zurich"),
        loc_row(200, "berlin"),
        loc_row(300, "lisbon"),
    ];
    ctx.register_rows("loc", loc, loc_rows).unwrap();

    let sales = Arc::new(Schema::new(vec![
        StructField::new("sale_id", DataType::Int, false),
        StructField::new("emp_id", DataType::Int, true),
        StructField::new("amount", DataType::Long, false),
        StructField::new("qty", DataType::Int, false),
    ]));
    let sales_rows = vec![
        sale_row(1, Some(1), 300, 3),
        sale_row(2, Some(1), 150, 1),
        sale_row(3, Some(2), 700, 7),
        sale_row(4, Some(3), 90, 1),
        sale_row(5, Some(3), 420, 4),
        sale_row(6, Some(3), 180, 2),
        sale_row(7, None, 999, 9),
        sale_row(8, Some(6), 260, 2),
        sale_row(9, Some(7), 310, 3),
        sale_row(10, Some(7), 80, 1),
        sale_row(11, Some(10), 550, 5),
        sale_row(12, Some(10), 20, 1),
        sale_row(13, None, 640, 6),
        sale_row(14, Some(12), 130, 1),
        sale_row(15, Some(99), 75, 1),
    ];
    ctx.register_rows("sales", sales, sales_rows).unwrap();
}

fn emp_row(id: i32, name: &str, dept_id: Option<i32>, salary: i64, age: i32) -> Row {
    Row::new(vec![
        Value::Int(id),
        Value::str(name),
        dept_id.map_or(Value::Null, Value::Int),
        Value::Long(salary),
        Value::Int(age),
    ])
}

fn dept_row(id: i32, name: &str, loc_id: Option<i32>) -> Row {
    Row::new(vec![
        Value::Int(id),
        Value::str(name),
        loc_id.map_or(Value::Null, Value::Int),
    ])
}

fn loc_row(id: i32, city: &str) -> Row {
    Row::new(vec![Value::Int(id), Value::str(city)])
}

fn sale_row(sale_id: i32, emp_id: Option<i32>, amount: i64, qty: i32) -> Row {
    Row::new(vec![
        Value::Int(sale_id),
        emp_id.map_or(Value::Null, Value::Int),
        Value::Long(amount),
        Value::Int(qty),
    ])
}

// ---- .slt parsing ----

enum Directive {
    StatementOk,
    QueryRowsort,
    QueryOrdered,
}

struct Record {
    /// Comment/blank lines preceding the directive, re-emitted verbatim
    /// when re-recording.
    preamble: Vec<String>,
    directive: Directive,
    sql: String,
    expected: Vec<String>,
    /// 1-based line number of the directive, for error messages.
    line: usize,
}

fn parse_slt(path: &Path) -> Vec<Record> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut records = Vec::new();
    let mut preamble: Vec<String> = Vec::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, line)) = lines.next() {
        let trimmed = line.trim_end();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            preamble.push(trimmed.to_string());
            continue;
        }
        let directive = match trimmed {
            "statement ok" => Directive::StatementOk,
            "query rowsort" => Directive::QueryRowsort,
            "query ordered" => Directive::QueryOrdered,
            other => panic!(
                "{}:{}: unknown directive '{other}'",
                path.display(),
                idx + 1
            ),
        };
        let mut sql_lines = Vec::new();
        let mut expected = Vec::new();
        let mut in_expected = false;
        while let Some(&(_, peeked)) = lines.peek() {
            let l = peeked.trim_end();
            if l.is_empty() {
                break;
            }
            lines.next();
            if l == "----" {
                in_expected = true;
            } else if in_expected {
                expected.push(l.to_string());
            } else {
                sql_lines.push(l.to_string());
            }
        }
        assert!(
            !sql_lines.is_empty(),
            "{}:{}: directive with no SQL",
            path.display(),
            idx + 1
        );
        records.push(Record {
            preamble: std::mem::take(&mut preamble),
            directive,
            sql: sql_lines.join("\n"),
            expected,
            line: idx + 1,
        });
    }
    records
}

fn render_slt(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        for p in &r.preamble {
            out.push_str(p);
            out.push('\n');
        }
        out.push_str(match r.directive {
            Directive::StatementOk => "statement ok",
            Directive::QueryRowsort => "query rowsort",
            Directive::QueryOrdered => "query ordered",
        });
        out.push('\n');
        out.push_str(&r.sql);
        out.push('\n');
        if !matches!(r.directive, Directive::StatementOk) {
            out.push_str("----\n");
            for e in &r.expected {
                out.push_str(e);
                out.push('\n');
            }
        }
        out.push('\n');
    }
    out
}

// ---- execution ----

/// Canonical text for one result cell. Distinguishes NULL from the empty
/// string so goldens stay unambiguous.
fn cell(v: &Value) -> String {
    match v {
        Value::Str(s) if s.is_empty() => "(empty)".to_string(),
        other => other.to_string(),
    }
}

fn run_record(ctx: &SQLContext, r: &Record) -> Result<Vec<String>, String> {
    let df = ctx.sql(&r.sql).map_err(|e| format!("plan error: {e}"))?;
    let rows = df.collect().map_err(|e| format!("execution error: {e}"))?;
    let mut lines: Vec<String> = rows
        .iter()
        .map(|row| row.values().iter().map(cell).collect::<Vec<_>>().join("|"))
        .collect();
    if matches!(r.directive, Directive::QueryRowsort) {
        lines.sort();
    }
    Ok(lines)
}

fn slt_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/sqllogic")
        .join(name)
}

fn run_file(name: &str) {
    let path = slt_path(name);
    let mut records = parse_slt(&path);

    if std::env::var("SQLLOGIC_RECORD").is_ok() {
        // Record in unbounded production, then verify every cell below
        // — a nondeterministic query fails immediately.
        let ctx = context_for(false, false);
        for r in &mut records {
            let got = run_record(&ctx, r)
                .unwrap_or_else(|e| panic!("{}:{}: {e}\nSQL: {}", path.display(), r.line, r.sql));
            if !matches!(r.directive, Directive::StatementOk) {
                r.expected = got;
            }
        }
        std::fs::write(&path, render_slt(&records)).unwrap();
    }

    let mut queries = 0usize;
    let has_statements = records
        .iter()
        .any(|r| matches!(r.directive, Directive::StatementOk));
    for (reference, bounded) in CELLS {
        let ctx = context_for(reference, bounded);
        let cell = format!("reference={reference} bounded={bounded}");
        // The corpus runs twice on one context. The first pass plans every
        // statement; the second re-sends the same texts and — in a file
        // that never touches the catalog — must be answered from the
        // session plan cache, every query of it. Both are held to the
        // goldens, so the second reproduces the first byte for byte.
        for pass in 0..2 {
            let before = ctx.plan_cache_stats();
            let mut sent = 0u64;
            for r in &records {
                let got = run_record(&ctx, r).unwrap_or_else(|e| {
                    panic!(
                        "{}:{}: {e}\nSQL: {}\ncell: {cell} pass: {pass}",
                        path.display(),
                        r.line,
                        r.sql
                    )
                });
                if matches!(r.directive, Directive::StatementOk) {
                    continue;
                }
                sent += 1;
                queries += 1;
                if got != r.expected {
                    panic!(
                        "{}:{}: result mismatch\nSQL: {}\ncell: {cell} pass: {pass}\n\
                         expected:\n{}\ngot:\n{}",
                        path.display(),
                        r.line,
                        r.sql,
                        r.expected.join("\n"),
                        got.join("\n"),
                    );
                }
            }
            let after = ctx.plan_cache_stats();
            let panics = ctx.spark_context().metrics().snapshot().task_panics;
            assert_eq!(
                panics,
                0,
                "{}: a task panicked\ncell: {cell}",
                path.display()
            );
            if pass == 1 && !has_statements {
                assert_eq!(
                    (after.hits - before.hits, after.misses - before.misses),
                    (sent, 0),
                    "{}: second pass was not served from the plan cache\ncell: {cell}",
                    path.display()
                );
            }
        }
    }
    assert!(queries > 0, "{}: no query records", path.display());
}

#[test]
fn sqllogic_joins() {
    run_file("joins.slt");
}

#[test]
fn sqllogic_aggregates() {
    run_file("aggregates.slt");
}

#[test]
fn sqllogic_windows() {
    run_file("windows.slt");
}

#[test]
fn sqllogic_setops() {
    run_file("setops.slt");
}

#[test]
fn sqllogic_scalar() {
    run_file("scalar.slt");
}

#[test]
fn sqllogic_stats() {
    run_file("stats.slt");
}

/// Every rule the optimizer registers fires on at least one golden query
/// in unbounded production (the one cell that runs the whole rule list).
#[test]
fn sqllogic_every_rule_fires() {
    let mut queries: BTreeMap<String, usize> = Optimizer::new()
        .rules()
        .map(|r| (r.name().to_string(), 0))
        .collect();
    let ctx = context_for(false, false);
    for name in [
        "joins.slt",
        "aggregates.slt",
        "windows.slt",
        "setops.slt",
        "scalar.slt",
        "stats.slt",
    ] {
        let path = slt_path(name);
        for r in parse_slt(&path) {
            let fail =
                |e: String| -> ! { panic!("{}:{}: {e}\nSQL: {}", path.display(), r.line, r.sql) };
            let df = ctx.sql(&r.sql).unwrap_or_else(|e| fail(e.to_string()));
            if matches!(r.directive, Directive::StatementOk) {
                df.collect().unwrap_or_else(|e| fail(e.to_string()));
                continue;
            }
            let qe = df.query_execution().unwrap_or_else(|e| fail(e.to_string()));
            // Read the health before running: a run may fill a cached
            // table, after which the plan is no longer current.
            for h in &qe.rule_health().rules {
                if h.fires > 0 {
                    *queries.entry(h.rule.clone()).or_default() += 1;
                }
            }
            qe.collect().unwrap_or_else(|e| fail(e.to_string()));
        }
    }
    println!("golden queries each optimizer rule fires on:");
    for (rule, n) in &queries {
        println!("  {rule:<28} {n:>3}");
    }
    let silent: Vec<&str> = queries
        .iter()
        .filter(|(_, n)| **n == 0)
        .map(|(rule, _)| rule.as_str())
        .collect();
    assert!(
        silent.is_empty(),
        "optimizer rules that fire on no golden query: {silent:?}"
    );
}
