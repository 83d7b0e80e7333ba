//! End-to-end tests for the observability surface (per-operator SQL
//! metrics, `EXPLAIN ANALYZE`, the session query log) and the unified
//! reader/writer builders.

use catalyst::physical::metrics::subtree_size;
use catalyst::physical::PhysicalPlan;
use catalyst::value::Value;
use catalyst::vectorized::ColumnVector;
use catalyst::Row;
use spark_sql::prelude::*;
use std::sync::Arc;

fn users(ctx: &SQLContext) -> DataFrame {
    let schema = Arc::new(Schema::new(vec![
        StructField::new("name", DataType::String, false),
        StructField::new("age", DataType::Int, false),
        StructField::new("dept_id", DataType::Int, false),
    ]));
    let rows: Vec<Row> = (0..40)
        .map(|i| {
            Row::new(vec![
                Value::str(format!("user{i}")),
                Value::Int(18 + (i % 30)),
                Value::Int(i % 4),
            ])
        })
        .collect();
    ctx.create_dataframe(schema, rows).unwrap()
}

fn depts(ctx: &SQLContext) -> DataFrame {
    let schema = Arc::new(Schema::new(vec![
        StructField::new("id", DataType::Int, false),
        StructField::new("dept", DataType::String, false),
    ]));
    let rows: Vec<Row> = [(0, "eng"), (1, "sales"), (2, "hr"), (3, "ops")]
        .iter()
        .map(|(i, d)| Row::new(vec![Value::Int(*i), Value::str(*d)]))
        .collect();
    ctx.create_dataframe(schema, rows).unwrap()
}

/// Filter → aggregate → join, the multi-stage query the acceptance
/// criteria call for.
fn multi_stage(ctx: &SQLContext) -> DataFrame {
    let per_dept = users(ctx)
        .where_(col("age").gt(lit(25)))
        .unwrap()
        .group_by_cols(&["dept_id"])
        .count()
        .unwrap();
    per_dept
        .join_on(&depts(ctx), col("dept_id").eq(col("id")))
        .unwrap()
        .select(vec![col("dept"), col("count")])
        .unwrap()
}

#[test]
fn query_execution_metrics_match_collect() {
    let ctx = SQLContext::new_local(2);
    let df = multi_stage(&ctx);
    let expected = df.collect().unwrap().len();
    assert!(expected > 0);

    let qe = df.query_execution().unwrap();
    // The handle exposes every pipeline stage before running anything.
    assert!(!format!("{}", qe.analyzed()).is_empty());
    assert!(!format!("{}", qe.optimized()).is_empty());
    let n_ops = subtree_size(qe.physical());
    assert!(n_ops >= 4, "expected a multi-operator plan, got {n_ops}");
    assert_eq!(qe.metrics().len(), n_ops);
    // Metrics are zero until the query runs.
    assert_eq!(qe.metrics().node(0).output_rows(), 0);

    let rows = qe.collect().unwrap();
    assert_eq!(rows.len(), expected);
    // The root operator's metered row count matches what collect saw.
    assert_eq!(qe.metrics().node(0).output_rows(), rows.len() as u64);
    // Every operator produced rows (nothing in this plan filters to zero);
    // an exchange reports the records its shuffle carried instead.
    let mut exchange = vec![];
    preorder_exchanges(qe.physical(), &mut exchange);
    for (id, is_exchange) in exchange.into_iter().enumerate() {
        let node = qe.metrics().node(id);
        if is_exchange {
            let read = node.extras().get("shuffle_records_read").copied();
            assert!(read > Some(0), "exchange {id} read no records");
        } else {
            assert!(node.output_rows() > 0, "operator {id} reported no rows");
        }
    }
}

/// Whether each node of `plan`, in pre-order, is an exchange.
fn preorder_exchanges(plan: &PhysicalPlan, out: &mut Vec<bool>) {
    out.push(matches!(plan, PhysicalPlan::Exchange { .. }));
    for child in plan.children() {
        preorder_exchanges(&child, out);
    }
}

#[test]
fn explain_analyze_annotates_every_operator() {
    let ctx = SQLContext::new_local(2);
    let df = multi_stage(&ctx);
    let n_ops = subtree_size(df.query_execution().unwrap().physical());

    let text = df.explain_analyze().unwrap();
    // Adaptive execution may prepend the initial plan and its change log;
    // the annotated operator lines are the executed-plan section.
    let executed = text
        .split("Physical Plan (executed) ==\n")
        .nth(1)
        .unwrap_or_else(|| panic!("no executed-plan section:\n{text}"));
    let plan_lines: Vec<&str> = executed
        .lines()
        .take_while(|l| !l.starts_with("=="))
        .filter(|l| !l.trim().is_empty())
        .collect();
    assert_eq!(plan_lines.len(), n_ops, "{text}");
    for line in &plan_lines {
        assert!(line.contains("rows="), "missing rows= in: {line}\n{text}");
        assert!(line.contains("time="), "missing time= in: {line}\n{text}");
    }
    // The aggregation shuffles, and its volume lands on the operator
    // that induced the exchange.
    assert!(text.contains("shuffle_bytes_written="), "{text}");
    assert!(text.contains("shuffle_records_read="), "{text}");
    assert!(text.contains("== Totals =="), "{text}");
}

#[test]
fn query_log_records_instrumented_runs() {
    let ctx = SQLContext::new_local(2);
    assert!(ctx.query_log().is_empty());
    let df = multi_stage(&ctx);
    let rows = df.query_execution().unwrap().collect().unwrap();
    let _ = df.explain_analyze().unwrap();

    let log = ctx.query_log();
    assert_eq!(log.len(), 2);
    assert_eq!(log[0].output_rows, rows.len() as u64);
    assert!(log[0].wall_ns > 0);
    assert!(!log[0].operators.is_empty());
    assert!(log[0].operators.iter().any(|op| op
        .extras
        .iter()
        .any(|(k, v)| k == "shuffle_records_written" && *v > 0)));

    let json = ctx.query_log_json();
    assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
    assert!(json.contains("\"wall_ns\":"), "{json}");
    assert!(json.contains("\"operators\":["), "{json}");

    ctx.clear_query_log();
    assert!(ctx.query_log().is_empty());
    assert_eq!(ctx.query_log_json(), "[]");
}

#[test]
fn plain_execution_paths_stay_uninstrumented() {
    // collect() without a QueryExecution must not log anything.
    let ctx = SQLContext::new_local(2);
    let df = multi_stage(&ctx);
    let _ = df.collect().unwrap();
    assert!(ctx.query_log().is_empty());
}

#[test]
fn reader_writer_csv_roundtrip_with_options() {
    let ctx = SQLContext::new_local(2);
    let dir = std::env::temp_dir().join(format!("obs-csv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("users.csv");
    let path = path.to_str().unwrap();

    users(&ctx)
        .write()
        .format("csv")
        .option("delimiter", ";")
        .save(path)
        .unwrap();

    // ErrorIfExists is the default mode.
    let err = users(&ctx).write().format("csv").save(path);
    assert!(err.is_err());
    let msg = err.err().unwrap().to_string();
    assert!(msg.contains("already exists"), "{msg}");

    // Overwrite succeeds.
    users(&ctx)
        .write()
        .format("csv")
        .option("delimiter", ";")
        .mode(SaveMode::Overwrite)
        .save(path)
        .unwrap();

    // Read back with an explicit schema: no inference, exact types.
    let schema = Schema::new(vec![
        StructField::new("name", DataType::String, false),
        StructField::new("age", DataType::Int, false),
        StructField::new("dept_id", DataType::Int, false),
    ]);
    let back = ctx
        .read()
        .format("csv")
        .option("delimiter", ";")
        .option("header", "true")
        .schema(&schema)
        .load(path)
        .unwrap();
    assert_eq!(back.count().unwrap(), 40);
    assert_eq!(back.schema().field(1).dtype, DataType::Int);
    assert_eq!(back.schema().field(0).dtype, DataType::String);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reader_writer_colfile_roundtrip_default_format() {
    let ctx = SQLContext::new_local(2);
    let dir = std::env::temp_dir().join(format!("obs-rcf-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("users.rcf");
    let path = path.to_str().unwrap();

    // colfile is the default format on both sides.
    users(&ctx)
        .write()
        .option("rows_per_group", 8)
        .save(path)
        .unwrap();
    let back = ctx.read().load(path).unwrap();
    assert_eq!(back.count().unwrap(), 40);
    assert_eq!(back.schema().len(), 3);
    // Predicate pushdown works against the reloaded file.
    let older = back.where_(col("age").gt(lit(40))).unwrap();
    assert_eq!(
        older.count().unwrap(),
        users(&ctx)
            .where_(col("age").gt(lit(40)))
            .unwrap()
            .count()
            .unwrap()
    );

    // `parquet` is an alias for the same format.
    let via_alias = ctx.read().format("parquet").load(path).unwrap();
    assert_eq!(via_alias.count().unwrap(), 40);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn writer_overwrites_csv_in_place() {
    let ctx = SQLContext::new_local(2);
    let dir = std::env::temp_dir().join(format!("obs-dep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("old.csv");
    let save = |ctx: &SQLContext| {
        users(ctx)
            .write()
            .format("csv")
            .mode(SaveMode::Overwrite)
            .save(path.to_str().unwrap())
            .unwrap()
    };
    save(&ctx);
    // Overwrite mode replaces the file in place.
    save(&ctx);
    assert!(path.exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn query_execution_exposes_rule_health() {
    let ctx = SQLContext::new_local(2);
    // A query with a foldable predicate so the optimizer demonstrably
    // fires, stacked on the usual multi-stage shape.
    let df = multi_stage(&ctx).where_(lit(1).lt(lit(2))).unwrap();
    let qe = df.query_execution().unwrap();

    let health = qe.rule_health();
    assert!(!health.rules.is_empty());
    let cf = health
        .health_for("Operator Optimizations", "ConstantFolding")
        .expect("ConstantFolding health missing");
    assert!(cf.applications >= 1);
    assert!(
        health.non_converged.is_empty(),
        "{:?}",
        health.non_converged
    );

    // The rendered report pairs with explain_analyze() output.
    let report = qe.rule_health_report();
    assert!(report.contains("== Rule Health =="), "{report}");
    assert!(report.contains("ConstantFolding"), "{report}");
    assert!(report.contains("non-converged batches: none"), "{report}");

    // The DataFrame-level shortcut renders the same table.
    let via_df = df.rule_health_report().unwrap();
    assert!(via_df.contains("== Rule Health =="), "{via_df}");

    // And the query still executes correctly under full validation.
    let rows = qe.collect().unwrap();
    assert!(!rows.is_empty());
}

/// The report describes the plan the handle ran. Once the session plans
/// differently — here it switched to the reference, which stops before
/// the constraint batch — re-planning would describe another plan, so
/// the report is empty.
#[test]
fn rule_health_is_empty_once_the_session_changed_under_the_handle() {
    let ctx = SQLContext::new_local(2);
    let qe = multi_stage(&ctx).query_execution().unwrap();
    assert!(!qe.collect().unwrap().is_empty());
    ctx.set_conf(|c| c.reference = true);
    let health = qe.rule_health();
    assert!(health.rules.is_empty(), "{}", health.render());

    // A handle planned now reports the reference's batches.
    let fresh = multi_stage(&ctx).query_execution().unwrap();
    let batches: Vec<&str> = fresh
        .rule_health()
        .rules
        .iter()
        .map(|h| h.batch.as_str())
        .collect();
    assert!(batches.contains(&"Operator Optimizations"), "{batches:?}");
    assert!(
        !batches.contains(&"Constraint Optimizations"),
        "{batches:?}"
    );
}

#[test]
fn explain_analyze_counts_batches_on_the_vectorized_path() {
    let ctx = SQLContext::new_local(2);
    // Scan→Filter→Project over a cached (columnar) relation runs fully
    // batched: every one of those operators reports batches and physical
    // lanes scanned, and the filter's selectivity is readable as
    // rows / batch_rows_scanned.
    let cached = users(&ctx).cache().unwrap();
    let df = cached
        .where_(col("age").gt(lit(30)))
        .unwrap()
        .select(vec![col("name"), col("age")])
        .unwrap();
    let text = df.explain_analyze().unwrap();
    // Only the executed-plan section holds operator lines; later sections
    // (totals, and under a budget "== Memory ==") are not operators.
    let executed = text
        .split("Physical Plan (executed) ==\n")
        .nth(1)
        .unwrap_or_else(|| panic!("no executed-plan section:\n{text}"));
    let plan_lines: Vec<&str> = executed
        .lines()
        .take_while(|l| !l.starts_with("=="))
        .filter(|l| !l.trim().is_empty())
        .collect();
    for line in &plan_lines {
        assert!(
            line.contains("batches="),
            "missing batches= in: {line}\n{text}"
        );
        assert!(
            line.contains("batch_rows_scanned="),
            "missing batch_rows_scanned= in: {line}\n{text}"
        );
    }
    // Row counts still mean *selected* rows, so they match the row path.
    let expected = users(&ctx)
        .where_(col("age").gt(lit(30)))
        .unwrap()
        .count()
        .unwrap();
    let rows = df.collect().unwrap();
    assert_eq!(rows.len() as u64, expected);
}

#[test]
fn explain_analyze_counts_groups_and_frames_on_the_batch_back_half() {
    let ctx = SQLContext::new_local(2);
    users(&ctx).register_temp_table("users");

    // Batch-native hash aggregation reports the batches it produced and
    // the distinct groups it finished.
    let agg = ctx
        .sql("SELECT dept_id, count(*), sum(age) FROM users GROUP BY dept_id")
        .unwrap();
    let text = agg.explain_analyze().unwrap();
    assert!(text.contains("groups="), "missing groups= in:\n{text}");
    assert!(text.contains("batches="), "missing batches= in:\n{text}");

    // The window operator reports how many aggregate frames it evaluated.
    let win = ctx
        .sql("SELECT name, sum(age) OVER (PARTITION BY dept_id) AS total FROM users")
        .unwrap();
    let text = win.explain_analyze().unwrap();
    assert!(text.contains("frames="), "missing frames= in:\n{text}");
}

/// The batch GROUP BY ships one block per map task and reducer: its
/// HashAggregate line shows the groups the map side shipped
/// (`partial_groups`) and the groups it finished (`groups`), and the
/// Exchange line under it the blocks that carried them
/// (`shuffle_records_written`) — the pre-aggregation ratio at a glance.
#[test]
fn explain_analyze_shows_the_aggregate_exchange() {
    let ctx = SQLContext::new_local(2);
    ctx.set_conf(|c| c.shuffle_partitions = 1);
    // 40 users over two map partitions, every department in each.
    let rows = users(&ctx).collect().unwrap();
    let rdd = ctx.spark_context().parallelize(rows, 2);
    let schema = users(&ctx).schema();
    ctx.dataframe_from_rdd("users", schema, rdd)
        .unwrap()
        .register_temp_table("users");
    let df = ctx
        .sql("SELECT dept_id, count(*), sum(age) FROM users GROUP BY dept_id")
        .unwrap();
    let text = df.explain_analyze().unwrap();
    let mut lines = text.lines().skip_while(|l| !l.contains("HashAggregate"));
    let agg = lines
        .next()
        .unwrap_or_else(|| panic!("no aggregate in:\n{text}"));
    for want in ["(rows=4,", "[groups=4]", "[partial_groups=8]"] {
        assert!(agg.contains(want), "missing {want} in: {agg}\n{text}");
    }
    assert!(!agg.contains("shuffle_"), "{text}");
    let exchange = lines.next().unwrap_or_default();
    assert!(
        exchange
            .trim_start()
            .starts_with("Exchange hashpartitioning("),
        "{text}"
    );
    for want in ["[shuffle_records_written=2]", "[shuffle_records_read=2]"] {
        assert!(
            exchange.contains(want),
            "missing {want} in: {exchange}\n{text}"
        );
    }
}

/// A shuffled join reads each side through an Exchange of its own, and
/// each Exchange line shows that side's shuffle volume; the join line
/// shows none.
#[test]
fn explain_analyze_shows_each_join_exchange() {
    let ctx = SQLContext::new_local(2);
    // Neither planned nor demoted to a broadcast join.
    ctx.set_conf(|c| c.broadcast_threshold = 0);
    for (table, column, n) in [("t", "k", 42), ("u", "k2", 30)] {
        let schema = Arc::new(Schema::new(vec![StructField::new(
            column,
            DataType::Long,
            false,
        )]));
        let rows = (0..n).map(|i| Row::new(vec![Value::Long(i)])).collect();
        let rdd = ctx.spark_context().parallelize(rows, 2);
        ctx.dataframe_from_rdd(table, schema, rdd)
            .unwrap()
            .register_temp_table(table);
    }
    let text = ctx
        .sql("SELECT * FROM t JOIN u ON k = k2")
        .unwrap()
        .explain_analyze()
        .unwrap();
    let executed = text.split("Physical Plan (executed) ==\n").nth(1).unwrap();
    let join = executed.lines().next().unwrap();
    assert!(join.starts_with("ShuffledHashJoin"), "{text}");
    assert!(!join.contains("shuffle_"), "{text}");
    let exchanges: Vec<&str> = (executed.lines())
        .filter(|l| l.trim_start().starts_with("Exchange hashpartitioning("))
        .collect();
    assert_eq!(exchanges.len(), 2, "{text}");
    for (line, n) in exchanges.iter().zip([42, 30]) {
        for want in [
            format!("[shuffle_records_written={n}]"),
            format!("[shuffle_records_read={n}]"),
        ] {
            assert!(line.contains(&want), "missing {want} in: {line}\n{text}");
        }
    }
}

#[test]
fn cache_table_scans_count_hits_and_misses() {
    use engine::metrics::Metrics;
    let ctx = SQLContext::new_local(2);
    let sc = ctx.spark_context().clone();
    sc.set_chaos(None); // exact counters below
    users(&ctx).register_temp_table("users");
    ctx.sql("CACHE TABLE users").unwrap();
    let q = "SELECT count(*) FROM users WHERE age > 30";
    let counters = || {
        let m = sc.metrics();
        (Metrics::get(&m.cache_hits), Metrics::get(&m.cache_misses))
    };

    // Planning alone reads statistics and footprints: not a use.
    let before = counters();
    ctx.sql(q).unwrap().query_execution().unwrap();
    assert_eq!(counters(), before, "planning counted as a cache read");

    // The first scan fills the cache: at least one partition missed.
    let first = ctx.sql(q).unwrap().collect().unwrap();
    let (_, cold_misses) = counters();
    assert!(cold_misses > before.1, "the filling scan counted no miss");

    // A warm scan reads every partition's block and misses none.
    let (warm_hits, _) = counters();
    assert_eq!(ctx.sql(q).unwrap().collect().unwrap(), first);
    let (hits, misses) = counters();
    assert!(hits > warm_hits, "a warm cached scan counted no hit");
    assert_eq!(misses, cold_misses, "a warm cached scan counted a miss");
}

#[test]
fn explain_analyze_shows_the_broadcast_build_and_probe() {
    let ctx = SQLContext::new_local(2);
    // A budget smaller than the build table: the table is held outside it.
    ctx.set_conf(|c| c.memory_budget_bytes = 64);
    let df = users(&ctx)
        .join_on(&depts(&ctx), col("dept_id").eq(col("id")))
        .unwrap();
    let text = df.explain_analyze().unwrap();
    let join = text
        .lines()
        .find(|l| l.contains("BroadcastHashJoin"))
        .unwrap_or_else(|| panic!("no broadcast join in:\n{text}"));
    assert!(join.contains("build=Right"), "{text}");
    // Build bytes are lane bytes: four INT lanes (8 B each) and four
    // strings (32 B each plus "eng", "sales", "hr", "ops").
    let build_bytes = 4 * 8 + 4 * 32 + (3 + 5 + 2 + 3);
    for want in [
        "(rows=40,".to_string(),
        "[build_rows=4]".to_string(),
        format!("[build_bytes={build_bytes}]"),
        "[pairs=40]".to_string(),
        "[batches=".to_string(),
    ] {
        assert!(join.contains(&want), "missing {want} in: {join}\n{text}");
    }
    let memory = text
        .split("== Memory ==\n")
        .nth(1)
        .unwrap_or_else(|| panic!("no memory section:\n{text}"));
    assert!(
        memory.contains(&format!(
            "broadcast tables (outside the budget): {build_bytes} B"
        )),
        "{text}"
    );
}

/// Pre-order ids of the nodes of `plan` that `pick` accepts.
fn ids_where(plan: &PhysicalPlan, pick: &dyn Fn(&PhysicalPlan) -> bool) -> Vec<usize> {
    let mut out = Vec::new();
    let mut stack = vec![(0usize, Arc::new(plan.clone()))];
    while let Some((id, node)) = stack.pop() {
        if pick(&node) {
            out.push(id);
        }
        let mut child_id = id + 1;
        for child in node.children() {
            stack.push((child_id, child.clone()));
            child_id += subtree_size(&child);
        }
    }
    out.sort_unstable();
    out
}

/// Registers `big`: 10 000 rows (`k`, a group `g`, a string `s`) over
/// `maps` partitions, each read starting after `pause`.
fn big_table(ctx: &SQLContext, maps: usize, pause: std::time::Duration) {
    let schema = Arc::new(Schema::new(vec![
        StructField::new("k", DataType::Long, false),
        StructField::new("g", DataType::Long, false),
        StructField::new("s", DataType::String, false),
    ]));
    let rows: Vec<Row> = (0..10_000i64)
        .map(|k| {
            let s = format!("row-{:05}", (k * 7919) % 10_000);
            Row::new(vec![Value::Long(k), Value::Long(k % 7), Value::str(s)])
        })
        .collect();
    let rdd = ctx
        .spark_context()
        .parallelize(rows, maps)
        .map_partitions(move |it| {
            std::thread::sleep(pause);
            it
        });
    ctx.dataframe_from_rdd("big", schema, rdd)
        .unwrap()
        .register_temp_table("big");
}

const BIG_SORT: &str = "SELECT k, s FROM big ORDER BY s DESC, k";
const BIG_WINDOW: &str = "SELECT k, rank() OVER (PARTITION BY g ORDER BY s) AS r FROM big";

fn is_sort_or_window(p: &PhysicalPlan) -> bool {
    matches!(p, PhysicalPlan::Sort { .. } | PhysicalPlan::Window { .. })
}

/// A batch Sort or Window ships one block per map task and reducer:
/// its Exchange writes at most maps × reducers records for 10 000 rows.
#[test]
fn batch_sort_and_window_ship_blocks_not_rows() {
    let ctx = SQLContext::new_local(2);
    ctx.set_conf(|c| c.shuffle_partitions = 4);
    big_table(&ctx, 3, std::time::Duration::ZERO);
    for sql in [BIG_SORT, BIG_WINDOW] {
        let qe = ctx.sql(sql).unwrap().query_execution().unwrap();
        assert_eq!(qe.collect().unwrap().len(), 10_000);
        let exchanges = ids_where(qe.physical(), &|p| {
            matches!(p, PhysicalPlan::Exchange { .. })
        });
        assert_eq!(exchanges.len(), 1, "{}", qe.physical());
        let written = qe.metrics().node(exchanges[0]).extras()["shuffle_records_written"];
        assert!(
            (1..=3 * 4).contains(&written),
            "{sql}: {written} shuffle records for 10 000 rows"
        );
    }
}

/// A batch GROUP BY's Exchange reports the bytes its blocks carry, not
/// records × `size_of`: 10 000 distinct strings ship as a key column,
/// with one hash, one COUNT state (16 bytes) and one SUM state (24
/// bytes) per group.
#[test]
fn the_aggregate_exchange_reports_its_block_bytes() {
    let ctx = SQLContext::new_local(2);
    ctx.set_conf(|c| c.shuffle_partitions = 4);
    big_table(&ctx, 3, std::time::Duration::ZERO);
    let sql = "SELECT s, count(*), sum(k) FROM big GROUP BY s";
    let qe = ctx.sql(sql).unwrap().query_execution().unwrap();
    assert_eq!(qe.collect().unwrap().len(), 10_000);
    let exchanges = ids_where(qe.physical(), &|p| {
        matches!(p, PhysicalPlan::Exchange { .. })
    });
    assert_eq!(exchanges.len(), 1, "{}", qe.physical());
    let written = qe.metrics().node(exchanges[0]).extras()["shuffle_bytes_written"];
    let keys = (0..10_000).map(|k| Value::str(format!("row-{k:05}")));
    let key_column = ColumnVector::from_values(&DataType::String, keys.collect());
    let blocks = key_column.approx_bytes() + 10_000 * (8 + 16 + 24);
    assert!(
        blocks / 2 <= written && written <= 2 * blocks,
        "{written} shuffle bytes for blocks of about {blocks}"
    );
}

/// The sketch job that picks a sort's range bounds runs while the Sort
/// is lowered; its time is the Sort's.
#[test]
fn the_sort_line_includes_its_sketch_job() {
    let ctx = SQLContext::new_local(2);
    ctx.set_conf(|c| c.shuffle_partitions = 4);
    let pause = std::time::Duration::from_millis(300);
    big_table(&ctx, 2, pause);
    let qe = ctx.sql(BIG_SORT).unwrap().query_execution().unwrap();
    qe.collect().unwrap();
    let sort = ids_where(qe.physical(), &|p| matches!(p, PhysicalPlan::Sort { .. }))[0];
    // The sketch job reads every partition once, each after `pause`.
    let elapsed = qe.metrics().node(sort).elapsed_ns();
    assert!(
        elapsed >= pause.as_nanos() as u64,
        "the Sort took {elapsed} ns, less than its sketch job's reads:\n{}",
        qe.explain_analyze().unwrap()
    );
}

/// Under 64 KiB the batch Sort and Window reducers are denied, spill
/// through the external sort, and return what an unbounded run does.
#[test]
fn batch_sort_and_window_spill_under_64k_and_match_unbounded() {
    for sql in [BIG_SORT, BIG_WINDOW] {
        let run = |budget: u64| {
            let ctx = SQLContext::new_local(2);
            ctx.set_conf(|c| {
                c.shuffle_partitions = 4;
                c.memory_budget_bytes = budget;
            });
            big_table(&ctx, 3, std::time::Duration::ZERO);
            let qe = ctx.sql(sql).unwrap().query_execution().unwrap();
            let rows: Vec<Row> = qe.collect().unwrap();
            let ids = ids_where(qe.physical(), &is_sort_or_window);
            let spills: Vec<u64> = (ids.iter())
                .map(|&id| {
                    let extras = qe.metrics().node(id).extras();
                    extras.get("spill_count").copied().unwrap_or(0)
                })
                .collect();
            (rows, spills)
        };
        let (expect, _) = run(0);
        let (got, spills) = run(64 << 10);
        assert_eq!(got, expect, "{sql}");
        assert!(
            !spills.is_empty() && spills.iter().all(|&n| n > 0),
            "{sql}: spill counts {spills:?}"
        );
    }
}

/// The block top-N hands the driver at most `n` lanes per task: its
/// TakeOrdered line shows them as `candidates`, at most partitions × `n`.
#[test]
fn explain_analyze_shows_the_top_n_candidates() {
    let ctx = SQLContext::new_local(2);
    big_table(&ctx, 3, std::time::Duration::ZERO);
    let n = 5;
    let df = ctx
        .sql(&format!(
            "SELECT k, s FROM big ORDER BY s DESC, k LIMIT {n}"
        ))
        .unwrap();
    let text = df.explain_analyze().unwrap();
    let line = (text.lines())
        .find(|l| l.contains("TakeOrdered"))
        .unwrap_or_else(|| panic!("no TakeOrdered in:\n{text}"));
    let candidates: u64 = (line.split("[candidates=").nth(1))
        .and_then(|rest| rest.split(']').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no candidates in: {line}\n{text}"));
    assert!(
        (n as u64..=3 * n as u64).contains(&candidates),
        "{candidates} candidates for LIMIT {n} over 3 partitions: {line}"
    );
}

/// The value of `[name=…]` on the first EXPLAIN ANALYZE line that starts
/// with `op`.
fn extra_on(text: &str, op: &str, name: &str) -> u64 {
    let line = (text.lines())
        .find(|l| l.trim_start().starts_with(op))
        .unwrap_or_else(|| panic!("no {op} in:\n{text}"));
    (line.split(&format!("[{name}=")).nth(1))
        .and_then(|rest| rest.split(']').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {name} in: {line}\n{text}"))
}

/// The batch Sort and Window report `prefix_ties`, the comparisons whose
/// 8-byte key prefixes tied so that lanes were read: none for a unique
/// BIGINT key, some for PARTITION BY strings sharing their first 8 bytes.
#[test]
fn explain_analyze_counts_prefix_ties() {
    let ctx = SQLContext::new_local(2);
    big_table(&ctx, 3, std::time::Duration::ZERO);
    let text = (ctx.sql("SELECT k, s FROM big ORDER BY k"))
        .unwrap()
        .explain_analyze()
        .unwrap();
    assert_eq!(extra_on(&text, "Sort [", "prefix_ties"), 0, "{text}");

    let schema = Arc::new(Schema::new(vec![
        StructField::new("k", DataType::Long, false),
        StructField::new("c", DataType::String, false),
    ]));
    let rows: Vec<Row> = (0..2_000i64)
        .map(|k| {
            Row::new(vec![
                Value::Long(k),
                Value::str(format!("category-{}", k % 5)),
            ])
        })
        .collect();
    let rdd = ctx.spark_context().parallelize(rows, 3);
    (ctx.dataframe_from_rdd("cats", schema, rdd))
        .unwrap()
        .register_temp_table("cats");
    let text = (ctx.sql("SELECT k, rank() OVER (PARTITION BY c ORDER BY k) AS r FROM cats"))
        .unwrap()
        .explain_analyze()
        .unwrap();
    let ties = extra_on(&text, "Window [", "prefix_ties");
    assert!(
        ties > 0,
        "{ties} prefix ties over shared 8-byte prefixes:\n{text}"
    );
}
