//! End-to-end tests for memory-governed execution: the acceptance
//! scenario (join + aggregate + sort over an input larger than the
//! budget, spilling to disk, byte-identical results), the `SET`-statement
//! surface over the memory confs, and spill-directory routing + cleanup.

use spark_sql::prelude::*;
use std::sync::Arc;

fn fact_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("k", DataType::Long, true),
        StructField::new("v", DataType::Long, true),
        StructField::new("s", DataType::String, true),
    ]))
}

fn dim_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("dk", DataType::Long, true),
        StructField::new("w", DataType::String, true),
    ]))
}

fn fact_rows(n: i64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::new(vec![
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Long(i % 32)
                },
                Value::Long(i),
                Value::str(format!("payload-{:04}", i % 997)),
            ])
        })
        .collect()
}

fn dim_rows() -> Vec<Row> {
    (0..32)
        .map(|i| Row::new(vec![Value::Long(i), Value::str(format!("d{i}"))]))
        .collect()
}

/// Join + aggregate + sort with `budget` bytes (0 = unbounded); returns
/// the result rows in final (sorted) order plus the query handle.
fn run_pipeline(budget: u64) -> (Vec<String>, QueryExecution, SQLContext) {
    let ctx = SQLContext::new_local(2);
    ctx.set_conf(|c| {
        c.memory_budget_bytes = budget;
        // Pin the shuffled-join path: broadcast builds are bounded by the
        // planner's size threshold, not the memory pool.
        c.broadcast_threshold = 0;
        c.shuffle_partitions = 4;
    });
    let fact_rdd = ctx.spark_context().parallelize(fact_rows(4000), 3);
    let fact = ctx
        .dataframe_from_rdd("fact", fact_schema(), fact_rdd)
        .unwrap();
    let dim = ctx.create_dataframe(dim_schema(), dim_rows()).unwrap();
    // Dim joins fact (hash joins build the right stream: the big side).
    let df = dim
        .join(&fact, JoinType::Inner, Some(col("dk").eq(col("k"))))
        .unwrap()
        .group_by(vec![col("v").rem(lit(509i64)).alias("g")])
        .agg(vec![
            count_star().alias("n"),
            sum(col("v")).alias("sv"),
            min(col("s")).alias("ms"),
        ])
        .unwrap()
        .order_by(vec![col("sv").desc(), col("g").asc()])
        .unwrap();
    let qe = df.query_execution().unwrap();
    let rows = qe
        .collect()
        .unwrap()
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    (rows, qe, ctx)
}

#[test]
fn join_aggregate_sort_spills_and_matches_unbounded() {
    let budget = 16 << 10;
    let (expect, unbounded_qe, _ctx) = run_pipeline(0);
    assert!(
        unbounded_qe.memory_stats().is_none(),
        "unbounded run reported pool stats"
    );
    assert!(!expect.is_empty());

    let (got, qe, ctx) = run_pipeline(budget);
    // Byte-identical results, in the same (sorted) output order.
    assert_eq!(got, expect, "bounded run diverged from unbounded results");

    let stats = qe
        .memory_stats()
        .expect("bounded run must expose pool stats");
    assert_eq!(stats.budget, budget);
    assert!(
        stats.spill_count > 0,
        "input 4000 rows never spilled under a 16 KiB budget"
    );
    assert!(stats.spill_bytes > 0);
    assert!(
        stats.peak <= budget,
        "peak reservation {} exceeded the {budget}-byte budget",
        stats.peak
    );
    assert_eq!(
        stats.spill_files_created, stats.spill_files_deleted,
        "spill files leaked past query completion"
    );
    assert!(stats.spill_files_created > 0);

    // EXPLAIN ANALYZE carries the pool summary and per-operator spill
    // annotations on the operators that actually spilled.
    let text = qe.explain_analyze().unwrap();
    assert!(text.contains("== Memory =="), "{text}");
    assert!(text.contains("peak reserved:"), "{text}");
    assert!(text.contains("spilled buffers:"), "{text}");
    assert!(text.contains("spill_count="), "{text}");
    assert!(text.contains("spill_bytes="), "{text}");

    // The session query log serializes the same counters.
    let json = ctx.query_log_json();
    assert!(json.contains("\"memory\":{\"budget\":16384"), "{json}");
    assert!(json.contains("\"spill_count\":"), "{json}");
}

/// A budgeted join builds the side its plan says it builds. Dim (known,
/// small) joins fact (an RDD of unknown size), so production plans
/// `build=Left`; each dim partition is far under a task's share of the
/// budget and each fact partition far over it. Building the planned side
/// never spills; building the right side regardless — what the grace join
/// used to do under any budget — would. The rows match the unbounded
/// reference, which builds the right side.
#[test]
fn a_budgeted_join_builds_the_planned_side() {
    let run = |budget: u64, reference: bool| {
        let ctx = SQLContext::new_local(2);
        ctx.set_conf(|c| {
            c.memory_budget_bytes = budget;
            c.reference = reference;
            c.broadcast_threshold = 0;
            c.shuffle_partitions = 4;
        });
        let fact_rdd = ctx.spark_context().parallelize(fact_rows(4000), 3);
        let fact = ctx
            .dataframe_from_rdd("fact", fact_schema(), fact_rdd)
            .unwrap();
        let dim = ctx.create_dataframe(dim_schema(), dim_rows()).unwrap();
        let df = dim
            .join(&fact, JoinType::Left, Some(col("dk").eq(col("k"))))
            .unwrap();
        let qe = df.query_execution().unwrap();
        let plan = qe.physical().to_string();
        let planned = if reference {
            "build=Right"
        } else {
            "build=Left"
        };
        assert!(
            plan.contains("ShuffledHashJoin") && plan.contains(planned),
            "{plan}"
        );
        let mut rows: Vec<String> = qe
            .collect()
            .unwrap()
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        rows.sort();
        let join_spills: u64 = ctx
            .query_log()
            .last()
            .expect("the query was logged")
            .operators
            .iter()
            .filter(|op| op.operator.contains("Join"))
            .flat_map(|op| op.extras.iter())
            .filter(|(k, _)| k == "spill_count")
            .map(|(_, v)| *v)
            .sum();
        (rows, join_spills, qe.memory_stats())
    };
    let (expect, _, none) = run(0, true);
    assert!(none.is_none());
    assert!(expect.len() > 3000);
    let (got, join_spills, stats) = run(64 << 10, false);
    assert_eq!(got, expect, "bounded join diverged");
    assert_eq!(
        join_spills, 0,
        "the join spilled — it built the big right side"
    );
    let stats = stats.expect("bounded run must expose pool stats");
    assert!(stats.peak > 0, "nothing was reserved");
    assert!(stats.peak <= stats.budget);
}

/// An INT = BIGINT equi-join forced into grace (a 16 KiB budget, two
/// inputs far over it) equals the unbounded run and the reference: the
/// spill buckets hash key lanes, and equal keys of different variants
/// (typed `Long` lanes, boxed `Int`s) must still meet in one bucket.
/// NULL keys and unmatched keys on both sides ride along through a FULL
/// OUTER join.
#[test]
fn int_bigint_grace_join_matches_unbounded_and_reference() {
    let run = |budget: u64, reference: bool| {
        let ctx = SQLContext::new_local(2);
        ctx.set_conf(|c| {
            c.memory_budget_bytes = budget;
            c.reference = reference;
            c.broadcast_threshold = 0;
            c.shuffle_partitions = 4;
        });
        let side = |name: &str, dtype: DataType, key: fn(i64) -> Value| {
            let schema = Arc::new(Schema::new(vec![
                StructField::new(format!("{name}k"), dtype, true),
                StructField::new(format!("{name}p"), DataType::String, true),
            ]));
            let rows = (0..3000i64)
                .map(|i| {
                    let k = if i % 13 == 0 { Value::Null } else { key(i) };
                    Row::new(vec![k, Value::str(format!("{name}-{i}"))])
                })
                .collect();
            let rdd = ctx.spark_context().parallelize(rows, 3);
            let df = ctx.dataframe_from_rdd(name, schema, rdd).unwrap();
            df.register_temp_table(name);
        };
        side("a", DataType::Int, |i| Value::Int((i % 500) as i32));
        // A BIGINT column whose odd rows hold INT values, as execution
        // rows may: its key lanes are boxed, the cast INT side's typed.
        side("b", DataType::Long, |i| match i % 2 {
            0 => Value::Long(i % 700),
            _ => Value::Int((i % 700) as i32),
        });
        let df = ctx
            .sql("SELECT ak, ap, bk, bp FROM a FULL OUTER JOIN b ON ak = bk")
            .unwrap();
        let qe = df.query_execution().unwrap();
        let mut rows: Vec<String> = qe
            .collect()
            .unwrap()
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        rows.sort();
        let join_spills: u64 = (ctx
            .query_log()
            .last()
            .expect("the query was logged")
            .operators)
            .iter()
            .filter(|op| op.operator.contains("Join"))
            .flat_map(|op| op.extras.iter())
            .filter(|(k, _)| k == "spill_count")
            .map(|(_, v)| *v)
            .sum();
        (rows, join_spills, qe.memory_stats())
    };
    let (expect, _, none) = run(0, true);
    assert!(none.is_none());
    assert!(expect.len() > 10_000, "{} rows", expect.len());
    let (unbounded, _, _) = run(0, false);
    assert_eq!(unbounded, expect, "the unbounded join diverged");
    let (got, join_spills, stats) = run(16 << 10, false);
    assert_eq!(got, expect, "the grace join diverged");
    assert!(join_spills > 0, "the join never went grace");
    let stats = stats.expect("bounded run must expose pool stats");
    assert_eq!(stats.spill_files_created, stats.spill_files_deleted);
}

#[test]
fn set_statement_controls_memory_confs_end_to_end() {
    let ctx = SQLContext::new_local(2);
    // SET key=value parses byte suffixes and echoes the stored value.
    let rows = ctx
        .sql("SET spark.sql.memory.budgetBytes=8k")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(
        format!("{rows:?}"),
        format!(
            "{:?}",
            vec![Row::new(vec![
                Value::str("spark.sql.memory.budgetBytes"),
                Value::str("8192"),
            ])]
        )
    );
    assert_eq!(ctx.conf().memory_budget_bytes, 8192);

    // SET key reads it back; bare SET lists every registry key.
    let rows = ctx
        .sql("SET spark.sql.memory.budgetBytes")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(rows[0].values()[1], Value::str("8192"));
    let all = ctx.sql("SET").unwrap().collect().unwrap();
    assert_eq!(all.len(), SqlConf::valid_keys().len());
    assert!(all
        .iter()
        .any(|r| r.values()[0] == Value::str("spark.sql.memory.spillDir")));

    // Unknown keys error through SQL exactly like ctx.set.
    let err = ctx
        .sql("SET spark.sql.memory.budget=1")
        .unwrap_err()
        .to_string();
    assert!(err.contains("unknown config key"), "{err}");

    // The budget set via SQL governs subsequent executions.
    let rdd = ctx.spark_context().parallelize(fact_rows(3000), 3);
    let df = ctx
        .dataframe_from_rdd("fact", fact_schema(), rdd)
        .unwrap()
        .order_by(vec![col("s").asc(), col("v").asc()])
        .unwrap();
    let qe = df.query_execution().unwrap();
    let n = qe.collect().unwrap().len();
    assert_eq!(n, 3000);
    let stats = qe
        .memory_stats()
        .expect("SET budget must reach the executor pool");
    assert_eq!(stats.budget, 8192);
    assert!(stats.spill_count > 0, "3000 rows under 8 KiB never spilled");

    // Budget 0 is how a session goes back to a pool that never denies.
    ctx.sql("SET spark.sql.memory.budgetBytes=0")
        .unwrap()
        .collect()
        .unwrap();
    let qe2 = df.query_execution().unwrap();
    assert_eq!(qe2.collect().unwrap().len(), 3000);
    assert!(
        qe2.memory_stats().is_none(),
        "budget 0 did not unbound the pool"
    );

    // There is no second switch: the old escape hatch is an unknown key,
    // and the error lists the keys that do exist.
    let err = ctx
        .sql("SET spark.sql.memory.spillEnabled=false")
        .unwrap_err()
        .to_string();
    assert!(err.contains("unknown config key"), "{err}");
    assert!(err.contains("spark.sql.memory.budgetBytes"), "{err}");
}

#[test]
fn spill_dir_conf_routes_files_and_cleans_up() {
    let dir = std::env::temp_dir().join(format!("spill-conf-{}", std::process::id()));
    let ctx = SQLContext::new_local(2);
    ctx.set("spark.sql.memory.budgetBytes", "8k").unwrap();
    ctx.set("spark.sql.memory.spillDir", dir.to_str().unwrap())
        .unwrap();
    assert_eq!(ctx.conf().spill_path(), dir);

    let rdd = ctx.spark_context().parallelize(fact_rows(3000), 3);
    let df = ctx
        .dataframe_from_rdd("fact", fact_schema(), rdd)
        .unwrap()
        .order_by(vec![col("v").desc()])
        .unwrap();
    let qe = df.query_execution().unwrap();
    assert_eq!(qe.collect().unwrap().len(), 3000);
    let stats = qe.memory_stats().unwrap();
    assert!(
        stats.spill_files_created > 0,
        "sort never wrote a spill file"
    );

    // The configured directory was used — and is empty again: every
    // spill file was deleted when its buffer was consumed.
    assert!(
        dir.is_dir(),
        "spill dir was not created at {}",
        dir.display()
    );
    let leftover: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(leftover.is_empty(), "leftover spill files: {leftover:?}");
    assert_eq!(stats.spill_files_created, stats.spill_files_deleted);
    std::fs::remove_dir_all(&dir).ok();
}

/// DISTINCT aggregates run on the row kernel only, and their set-valued
/// accumulators are the one state that still needs the tagged spill
/// codec: enough groups under a 64 KiB budget must spill them, decode
/// them back, and match the unbounded answer.
#[test]
fn distinct_aggregates_spill_and_match_unbounded() {
    let run = |budget: u64| {
        let ctx = SQLContext::new_local(2);
        ctx.set_conf(|c| {
            c.memory_budget_bytes = budget;
            c.shuffle_partitions = 4;
        });
        let rows = (0..24_000i64)
            .map(|i| {
                Row::new(vec![
                    Value::Long(i % 3000),
                    if i % 17 == 0 {
                        Value::Null
                    } else {
                        Value::Long(i % 13)
                    },
                    Value::Null,
                ])
            })
            .collect();
        let rdd = ctx.spark_context().parallelize(rows, 3);
        ctx.dataframe_from_rdd("fact", fact_schema(), rdd)
            .unwrap()
            .register_temp_table("fact");
        let df = ctx
            .sql("SELECT k, count(DISTINCT v), sum(DISTINCT v), count(*) FROM fact GROUP BY k")
            .unwrap();
        let qe = df.query_execution().unwrap();
        let mut rows: Vec<String> = qe
            .collect()
            .unwrap()
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        rows.sort();
        (rows, qe.memory_stats())
    };
    let (expect, none) = run(0);
    assert!(none.is_none());
    assert_eq!(expect.len(), 3000);
    let (got, stats) = run(64 << 10);
    assert_eq!(got, expect, "spilled DISTINCT aggregate diverged");
    let stats = stats.expect("bounded run must expose pool stats");
    assert!(stats.spill_count > 0, "DISTINCT aggregate never spilled");
    assert!(stats.spill_files_created > 0);
    assert_eq!(
        stats.spill_files_created, stats.spill_files_deleted,
        "spill files leaked past query completion"
    );
}

/// One query over `fact` with the batch GROUP BY under `budget` bytes
/// (0 = unbounded): its rows as sorted debug strings (so f64 sums compare
/// bit for bit), the pool's stats, and the extras of the aggregate node.
fn batch_aggregate(
    rows: &[Row],
    schema: &SchemaRef,
    sql: &str,
    budget: u64,
) -> (
    Vec<String>,
    Option<engine::MemoryStats>,
    std::collections::BTreeMap<String, u64>,
) {
    let ctx = SQLContext::new_local(2);
    // The aggregate's extras are asserted exactly: no retried task.
    ctx.spark_context().set_chaos(None);
    ctx.set_conf(|c| {
        c.memory_budget_bytes = budget;
        c.shuffle_partitions = 2;
    });
    let rdd = ctx.spark_context().parallelize(rows.to_vec(), 3);
    ctx.dataframe_from_rdd("fact", schema.clone(), rdd)
        .unwrap()
        .register_temp_table("fact");
    let qe = ctx.sql(sql).unwrap().query_execution().unwrap();
    let mut out: Vec<String> = qe
        .collect()
        .unwrap()
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    out.sort();
    let metrics = qe.metrics();
    let extras = (0..metrics.len())
        .map(|id| metrics.node(id).extras())
        .find(|extras| extras.contains_key("partial_groups"))
        .expect("the batch pipeline did not run");
    assert!(extras.contains_key("groups"), "{extras:?}");
    (out, qe.memory_stats(), extras)
}

/// The batch pipeline's reduce side under budgets its lane table
/// outgrows: the denied table and the blocks still unread spill as
/// columns into buckets, each bucket merges one depth down (again when
/// denied), and the answer is what the unbounded lane merge gives — two
/// key columns with NULLs, non-dyadic DOUBLE sums bit for bit, INT sums
/// widened in the merge, MIN/MAX strings, AVG and COUNT. A key no bucket
/// can split, larger than the budget, recurses to the last depth and
/// merges there unreserved.
#[test]
fn batch_aggregate_reduce_side_spills_and_matches_unbounded() {
    let schema: SchemaRef = Arc::new(Schema::new(vec![
        StructField::new("k", DataType::Long, true),
        StructField::new("k2", DataType::String, true),
        StructField::new("i", DataType::Int, true),
        StructField::new("d", DataType::Double, true),
        StructField::new("s", DataType::String, true),
        StructField::new("h", DataType::String, true),
    ]));
    // Three map partitions of 4 000 rows, each holding every key once
    // (NULL keys aside), so each group's DOUBLE partials are one per map
    // task at every budget and their merge order alone decides the bits.
    let hot = Value::str("h".repeat(40 << 10));
    let rows: Vec<Row> = (0..12_000i64)
        .map(|n| {
            let key = n % 4000;
            let null_key = key % 101 == 0;
            Row::new(vec![
                if null_key {
                    Value::Null
                } else {
                    Value::Long(key)
                },
                if key % 13 == 0 {
                    Value::Null
                } else {
                    Value::str(format!("g{}", key % 7))
                },
                Value::Int(if key < 5 { i32::MAX / 2 } else { n as i32 }),
                // Dyadic for the NULL key's many rows per partition.
                Value::Double(if null_key {
                    0.5
                } else {
                    n as f64 * 0.1 + 1.0 / 3.0
                }),
                Value::str(format!("s{:05}", (n * 7919) % 12_000)),
                hot.clone(),
            ])
        })
        .collect();
    let sql = "SELECT k, k2, count(*), count(d), sum(i), sum(d), min(s), max(s), avg(i), \
               avg(d) FROM fact GROUP BY k, k2";
    let (expect, none, _) = batch_aggregate(&rows, &schema, sql, 0);
    assert!(none.is_none());
    assert!(expect.len() > 3900, "{} groups", expect.len());
    assert!(
        expect.iter().any(|r| r.contains("Long(3221225469)")),
        "no INT sum widened: {:?}",
        &expect[..3]
    );
    let check = |stats: Option<engine::MemoryStats>| {
        let stats = stats.expect("bounded run must expose pool stats");
        assert!(stats.spill_count > 0, "the reduce side was never denied");
        assert!(
            stats.peak <= stats.budget,
            "peak reservation {} exceeded the {}-byte budget",
            stats.peak,
            stats.budget
        );
        assert_eq!(
            stats.spill_files_created, stats.spill_files_deleted,
            "spill files leaked past query completion"
        );
    };
    let mut deepest = 0;
    for budget in [64u64 << 10, 16 << 10] {
        let (got, stats, extras) = batch_aggregate(&rows, &schema, sql, budget);
        assert_eq!(got, expect, "spilled lane merge diverged at {budget} bytes");
        check(stats);
        // EXPLAIN ANALYZE shows the spills on the HashAggregate itself.
        for extra in ["spill_count", "spill_bytes", "groups"] {
            assert!(extras.get(extra).is_some_and(|&n| n > 0), "{extras:?}");
        }
        assert_eq!(extras["groups"], expect.len() as u64);
        deepest = deepest.max(extras.get("spill_depth").copied().unwrap_or(0));
    }
    assert!(deepest >= 2, "no bucket was denied again (depth {deepest})");

    let sql = "SELECT h, count(*), sum(d), min(s), max(i) FROM fact GROUP BY h";
    let (expect, _, _) = batch_aggregate(&rows, &schema, sql, 0);
    assert_eq!(expect.len(), 1);
    let (got, stats, extras) = batch_aggregate(&rows, &schema, sql, 16 << 10);
    assert_eq!(got, expect, "a hot key's spilled merge diverged");
    check(stats);
    // Six is the spill module's `MAX_DEPTH`.
    assert_eq!(extras.get("spill_depth"), Some(&6), "{extras:?}");
}

/// A batch `Window` whose reducer spills sorted runs walks window
/// partitions that straddle its merged batches: with batches of 5 lanes,
/// one reducer holds partitions of 1 lane, of exactly one batch and of
/// many batches, and partitions that begin on a batch's first lane.
/// `rank`, `lag` with a default and a running SUM must equal the
/// unbounded run and the reference, in order.
#[test]
fn window_partitions_straddle_merged_batches() {
    let schema: SchemaRef = Arc::new(Schema::new(vec![
        StructField::new("id", DataType::Long, false),
        StructField::new("g", DataType::Long, true),
        StructField::new("o", DataType::Long, true),
        StructField::new("v", DataType::Long, true),
        StructField::new("p", DataType::String, true),
    ]));
    // Partition sizes in key order (NULL first), so the lanes they start
    // at are 0, 1, 5, 10, 11, 14, 37, 40, 45, 46 and 446: partition 2 is
    // lanes 5..10, one whole batch; 3 is one lane at a batch's first; 5
    // and 9 span many batches.
    let sizes = [1usize, 4, 5, 1, 3, 23, 3, 5, 1, 400, 7];
    let mut rows = Vec::new();
    for (g, &n) in sizes.iter().enumerate() {
        for i in 0..n {
            let id = rows.len() as i64;
            rows.push(Row::new(vec![
                Value::Long(id),
                if g == 0 {
                    Value::Null
                } else {
                    Value::Long(g as i64)
                },
                Value::Long((i % 7) as i64),
                if id % 5 == 3 {
                    Value::Null
                } else {
                    Value::Long(id * 3 - 40)
                },
                Value::str(format!("{id:0>150}")),
            ]));
        }
    }
    // Interleave the partitions across map tasks.
    rows.sort_by_key(|r| (r.values()[0].as_i64().unwrap() * 7919) % 461);
    let sql = "SELECT id, g, o, v, p, \
               rank() OVER (PARTITION BY g ORDER BY o) AS r, \
               lag(v, 1, -1) OVER (PARTITION BY g ORDER BY o) AS lg, \
               sum(v) OVER (PARTITION BY g ORDER BY o) AS rs FROM t";
    let run = |budget: u64, reference: bool| {
        let ctx = SQLContext::new_local(2);
        ctx.spark_context().set_chaos(None);
        ctx.set_conf(|c| {
            c.memory_budget_bytes = budget;
            c.reference = reference;
            c.shuffle_partitions = 1;
            c.vectorize_batch_size = 5;
        });
        let rdd = ctx.spark_context().parallelize(rows.clone(), 4);
        ctx.dataframe_from_rdd("t", schema.clone(), rdd)
            .unwrap()
            .register_temp_table("t");
        let qe = ctx.sql(sql).unwrap().query_execution().unwrap();
        let out: Vec<String> = (qe.collect().unwrap().iter())
            .map(|r| format!("{r:?}"))
            .collect();
        let spills: Vec<u64> = (ctx.query_log().last().expect("the query was logged"))
            .operators
            .iter()
            .filter(|op| op.operator.contains("Window"))
            .map(|op| {
                (op.extras.iter())
                    .filter(|(k, _)| k == "spill_count")
                    .map(|(_, v)| *v)
                    .sum()
            })
            .collect();
        (out, spills, qe.memory_stats())
    };
    let (expect, _, _) = run(0, true);
    assert_eq!(expect.len(), sizes.iter().sum::<usize>());
    let (unbounded, spills, _) = run(0, false);
    assert_eq!(unbounded, expect, "the unbounded window diverged");
    assert_eq!(spills, vec![0]);
    let (got, spills, stats) = run(16 << 10, false);
    assert_eq!(got, expect, "the spilled window diverged");
    assert!(
        spills.len() == 1 && spills[0] >= 2,
        "Window spills {spills:?}"
    );
    let stats = stats.expect("bounded run must expose pool stats");
    assert!(stats.peak <= stats.budget);
    assert_eq!(stats.spill_files_created, stats.spill_files_deleted);
}
