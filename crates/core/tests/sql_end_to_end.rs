//! End-to-end SQL tests: parse → analyze → optimize → plan → execute.

use catalyst::error::CatalystError;
use catalyst::value::Value;
use catalyst::Row;
use spark_sql::prelude::*;
use std::sync::Arc;

fn ctx_with_tables() -> SQLContext {
    let ctx = SQLContext::new_local(4);
    // employees(id, name, gender, deptId, salary)
    let emp_schema = Arc::new(Schema::new(vec![
        StructField::new("id", DataType::Long, false),
        StructField::new("name", DataType::String, false),
        StructField::new("gender", DataType::String, false),
        StructField::new("deptId", DataType::Long, false),
        StructField::new("salary", DataType::Double, false),
    ]));
    let employees: Vec<Row> = vec![
        (1, "alice", "female", 1, 100.0),
        (2, "bob", "male", 1, 80.0),
        (3, "carol", "female", 2, 120.0),
        (4, "dan", "male", 2, 90.0),
        (5, "erin", "female", 2, 110.0),
        (6, "frank", "male", 3, 70.0),
    ]
    .into_iter()
    .map(|(id, n, g, d, s)| {
        Row::new(vec![
            Value::Long(id),
            Value::str(n),
            Value::str(g),
            Value::Long(d),
            Value::Double(s),
        ])
    })
    .collect();
    ctx.register_rows("employees", emp_schema, employees)
        .unwrap();

    // dept(id, name)
    let dept_schema = Arc::new(Schema::new(vec![
        StructField::new("id", DataType::Long, false),
        StructField::new("name", DataType::String, false),
    ]));
    let depts: Vec<Row> = vec![(1, "eng"), (2, "sales"), (3, "hr")]
        .into_iter()
        .map(|(id, n)| Row::new(vec![Value::Long(id), Value::str(n)]))
        .collect();
    ctx.register_rows("dept", dept_schema, depts).unwrap();
    ctx
}

fn rows_sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

#[test]
fn select_where_projection() {
    let ctx = ctx_with_tables();
    let rows = ctx
        .sql("SELECT name FROM employees WHERE salary > 95 ORDER BY name")
        .unwrap()
        .collect()
        .unwrap();
    let names: Vec<&str> = rows.iter().map(|r| r.get_str(0)).collect();
    assert_eq!(names, vec!["alice", "carol", "erin"]);
}

#[test]
fn global_aggregates() {
    let ctx = ctx_with_tables();
    let rows = ctx
        .sql("SELECT count(*), avg(salary), min(salary), max(salary), sum(salary) FROM employees")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(rows.len(), 1);
    let r = &rows[0];
    assert_eq!(r.get(0), &Value::Long(6));
    assert!((r.get_double(1) - 95.0).abs() < 1e-9);
    assert_eq!(r.get(2), &Value::Double(70.0));
    assert_eq!(r.get(3), &Value::Double(120.0));
    assert_eq!(r.get(4), &Value::Double(570.0));
}

#[test]
fn count_on_empty_table_is_zero() {
    let ctx = SQLContext::new_local(2);
    let schema = Arc::new(Schema::new(vec![StructField::new(
        "x",
        DataType::Long,
        false,
    )]));
    ctx.register_rows("empty", schema, vec![]).unwrap();
    let rows = ctx
        .sql("SELECT count(*) FROM empty")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(rows[0].get(0), &Value::Long(0));
}

#[test]
fn group_by_with_having() {
    let ctx = ctx_with_tables();
    let rows = ctx
        .sql(
            "SELECT deptId, count(*) AS n, avg(salary) AS a FROM employees \
             GROUP BY deptId HAVING count(*) > 1 ORDER BY deptId",
        )
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].get_long(0), 1);
    assert_eq!(rows[0].get_long(1), 2);
    assert!((rows[0].get_double(2) - 90.0).abs() < 1e-9);
    assert_eq!(rows[1].get_long(0), 2);
    assert_eq!(rows[1].get_long(1), 3);
}

#[test]
fn the_papers_female_count_query() {
    // §3.3: employees JOIN dept, filter gender, group by dept, count.
    let ctx = ctx_with_tables();
    let rows = ctx
        .sql(
            "SELECT dept.id, dept.name, count(employees.name) AS c \
             FROM employees JOIN dept ON employees.deptId = dept.id \
             WHERE employees.gender = 'female' \
             GROUP BY dept.id, dept.name ORDER BY dept.id",
        )
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].get_str(1), "eng");
    assert_eq!(rows[0].get_long(2), 1);
    assert_eq!(rows[1].get_str(1), "sales");
    assert_eq!(rows[1].get_long(2), 2);
}

#[test]
fn join_types() {
    let ctx = SQLContext::new_local(2);
    let schema = Arc::new(Schema::new(vec![
        StructField::new("k", DataType::Long, false),
        StructField::new("v", DataType::String, false),
    ]));
    ctx.register_rows(
        "l",
        schema.clone(),
        vec![
            Row::new(vec![Value::Long(1), Value::str("l1")]),
            Row::new(vec![Value::Long(2), Value::str("l2")]),
        ],
    )
    .unwrap();
    let schema_r = Arc::new(Schema::new(vec![
        StructField::new("k2", DataType::Long, false),
        StructField::new("w", DataType::String, false),
    ]));
    ctx.register_rows(
        "r",
        schema_r,
        vec![
            Row::new(vec![Value::Long(2), Value::str("r2")]),
            Row::new(vec![Value::Long(3), Value::str("r3")]),
        ],
    )
    .unwrap();

    let inner = ctx
        .sql("SELECT * FROM l JOIN r ON l.k = r.k2")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(inner.len(), 1);
    assert_eq!(inner[0].get_str(1), "l2");

    let left = rows_sorted(
        ctx.sql("SELECT * FROM l LEFT JOIN r ON l.k = r.k2")
            .unwrap()
            .collect()
            .unwrap(),
    );
    assert_eq!(left.len(), 2);
    assert!(
        left[0].is_null(2),
        "unmatched left row null-extended: {:?}",
        left[0]
    );

    let right = rows_sorted(
        ctx.sql("SELECT * FROM l RIGHT JOIN r ON l.k = r.k2")
            .unwrap()
            .collect()
            .unwrap(),
    );
    assert_eq!(right.len(), 2);
    assert!(right[0].is_null(0), "{right:?}");

    let full = ctx
        .sql("SELECT * FROM l FULL JOIN r ON l.k = r.k2")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(full.len(), 3);

    let cross = ctx
        .sql("SELECT * FROM l CROSS JOIN r")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(cross.len(), 4);
}

#[test]
fn join_results_identical_broadcast_vs_shuffled() {
    let ctx = ctx_with_tables();
    let q = "SELECT employees.name, dept.name FROM employees \
             JOIN dept ON employees.deptId = dept.id ORDER BY employees.name";
    let broadcast = ctx.sql(q).unwrap().collect().unwrap();
    ctx.set_conf(|c| c.broadcast_threshold = 0); // force shuffled join
    let shuffled = ctx.sql(q).unwrap().collect().unwrap();
    assert_eq!(broadcast, shuffled);
    assert_eq!(broadcast.len(), 6);
}

#[test]
fn union_all_distinct_limit() {
    let ctx = ctx_with_tables();
    let n = ctx
        .sql("SELECT name FROM employees UNION ALL SELECT name FROM employees")
        .unwrap()
        .count()
        .unwrap();
    assert_eq!(n, 12);
    let d = ctx
        .sql("SELECT DISTINCT gender FROM employees")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(d.len(), 2);
    let l = ctx
        .sql("SELECT * FROM employees LIMIT 3")
        .unwrap()
        .count()
        .unwrap();
    assert_eq!(l, 3);
}

#[test]
fn order_by_desc_with_limit_takes_top_k() {
    let ctx = ctx_with_tables();
    let rows = ctx
        .sql("SELECT name, salary FROM employees ORDER BY salary DESC LIMIT 2")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].get_str(0), "carol");
    assert_eq!(rows[1].get_str(0), "erin");
}

/// `ORDER BY` a column the SELECT list drops sorts below the projection
/// that drops it, so `LIMIT` still plans a top-k; under `DISTINCT` the
/// column has no single value per row and analysis refuses it.
#[test]
fn order_by_an_unselected_column_with_limit_takes_top_k() {
    let ctx = ctx_with_tables();
    let sql = "SELECT id, name FROM employees ORDER BY salary DESC LIMIT 3";
    let rows = ctx.sql(sql).unwrap().collect().unwrap();
    let names: Vec<&str> = rows.iter().map(|r| r.get_str(1)).collect();
    assert_eq!(names, ["carol", "erin", "alice"]);
    assert_eq!(rows[0].values().len(), 2);
    let text: Vec<Row> = ctx
        .sql(&format!("EXPLAIN {sql}"))
        .unwrap()
        .collect()
        .unwrap();
    let physical: String = (text.iter().map(|r| r.get_str(0)))
        .skip_while(|l| !l.contains("Physical Plan"))
        .collect::<Vec<_>>()
        .join("\n");
    assert!(physical.contains("TakeOrdered 3"), "{physical}");
    assert!(!physical.contains("Sort ["), "{physical}");

    let err = ctx
        .sql("SELECT DISTINCT name FROM employees ORDER BY salary")
        .and_then(|df| df.collect())
        .unwrap_err();
    assert!(
        matches!(&err, CatalystError::Analysis(m) if m.contains("salary")),
        "{err}"
    );
}

#[test]
fn expressions_case_like_in_between() {
    let ctx = ctx_with_tables();
    let rows = ctx
        .sql(
            "SELECT name, CASE WHEN salary >= 100 THEN 'high' ELSE 'low' END AS band \
             FROM employees WHERE name LIKE '%a%' AND deptId IN (1, 2) \
             AND salary BETWEEN 80 AND 120 ORDER BY name",
        )
        .unwrap()
        .collect()
        .unwrap();
    let got: Vec<(&str, &str)> = rows.iter().map(|r| (r.get_str(0), r.get_str(1))).collect();
    assert_eq!(
        got,
        vec![("alice", "high"), ("carol", "high"), ("dan", "low")]
    );
}

#[test]
fn subquery_in_from() {
    let ctx = ctx_with_tables();
    let rows = ctx
        .sql(
            "SELECT d, total FROM \
             (SELECT deptId AS d, sum(salary) AS total FROM employees GROUP BY deptId) t \
             WHERE total > 200 ORDER BY d",
        )
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get_long(0), 2);
}

#[test]
fn udf_in_sql() {
    // §3.7: inline UDF registration usable from SQL.
    let ctx = ctx_with_tables();
    ctx.register_udf("double_salary", DataType::Double, |args| {
        Ok(Value::Double(args[0].as_f64().unwrap_or(0.0) * 2.0))
    });
    let rows = ctx
        .sql("SELECT double_salary(salary) FROM employees WHERE name = 'alice'")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(rows[0].get(0), &Value::Double(200.0));
}

#[test]
fn arithmetic_and_functions() {
    let ctx = ctx_with_tables();
    let rows = ctx
        .sql(
            "SELECT upper(name), length(name), salary * 2 + 1, substr(name, 1, 2) \
             FROM employees WHERE id = 1",
        )
        .unwrap()
        .collect()
        .unwrap();
    let r = &rows[0];
    assert_eq!(r.get_str(0), "ALICE");
    assert_eq!(r.get(1), &Value::Int(5));
    assert_eq!(r.get(2), &Value::Double(201.0));
    assert_eq!(r.get_str(3), "al");
}

#[test]
fn count_distinct() {
    let ctx = ctx_with_tables();
    let rows = ctx
        .sql("SELECT count(DISTINCT deptId) FROM employees")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(rows[0].get(0), &Value::Long(3));
}

#[test]
fn analysis_errors_are_eager_and_helpful() {
    let ctx = ctx_with_tables();
    let err = ctx
        .sql("SELECT nope FROM employees")
        .unwrap_err()
        .to_string();
    assert!(err.contains("nope"), "{err}");
    assert!(
        err.contains("salary"),
        "should list available columns: {err}"
    );

    let err = ctx.sql("SELECT * FROM ghosts").unwrap_err().to_string();
    assert!(err.contains("ghosts"), "{err}");
    assert!(err.contains("employees"), "should list known tables: {err}");

    // Aggregate misuse caught at analysis, before any execution.
    let err = ctx
        .sql("SELECT name, count(*) FROM employees GROUP BY deptId")
        .unwrap_err()
        .to_string();
    assert!(err.contains("GROUP BY"), "{err}");
}

#[test]
fn explain_shows_three_plans() {
    let ctx = ctx_with_tables();
    let df = ctx
        .sql("EXPLAIN SELECT name FROM employees WHERE salary > 100")
        .unwrap();
    let text: Vec<Row> = df.collect().unwrap();
    let all: String = text
        .iter()
        .map(|r| r.get_str(0).to_string() + "\n")
        .collect();
    assert!(all.contains("Analyzed Logical Plan"), "{all}");
    assert!(all.contains("Optimized Logical Plan"), "{all}");
    assert!(all.contains("Physical Plan"), "{all}");
}

/// Non-equi RIGHT/FULL OUTER joins are refused by the planner: `EXPLAIN`,
/// `df.explain()` and execution all report it, through SQL and through
/// the DataFrame API, and no job has run by the time they do — the query
/// joins an aggregated (eagerly staged) sibling to prove that.
#[test]
fn non_equi_outer_joins_are_refused_at_planning() {
    let ctx = ctx_with_tables();
    let refused = |err: catalyst::error::CatalystError, join: &str| {
        assert!(
            matches!(err, catalyst::error::CatalystError::Plan(_)),
            "{err:?}"
        );
        let text = err.to_string();
        assert!(
            text.contains(&format!("non-equi {join} joins are not supported")),
            "{text}"
        );
    };
    let jobs_before = ctx.spark_context().metrics().snapshot().jobs_run;
    for (join, join_type) in [
        ("RIGHT OUTER", JoinType::Right),
        ("FULL OUTER", JoinType::Full),
    ] {
        let query = format!(
            "SELECT e.name, d.n FROM employees e {join} JOIN \
             (SELECT id, count(*) AS n FROM dept GROUP BY id) d \
             ON e.salary > d.n"
        );
        let df = ctx.sql(&query).expect("analysis accepts the query");
        refused(df.explain().unwrap_err(), join);
        refused(df.collect().unwrap_err(), join);
        let explained = ctx
            .sql(&format!("EXPLAIN {query}"))
            .and_then(|df| df.collect());
        refused(explained.unwrap_err(), join);

        let employees = ctx.table("employees").unwrap();
        let dept = ctx.table("dept").unwrap();
        let df = employees
            .join(&dept, join_type, Some(col("salary").gt(col("dept.id"))))
            .unwrap();
        refused(df.explain().unwrap_err(), join);
        refused(df.count().unwrap_err(), join);
    }
    assert_eq!(
        ctx.spark_context().metrics().snapshot().jobs_run,
        jobs_before,
        "a stage ran before the refusal surfaced"
    );
    // The supported non-equi shapes still plan and run.
    let n = ctx
        .sql("SELECT e.name FROM employees e LEFT JOIN dept d ON e.salary > d.id * 50")
        .unwrap()
        .count()
        .unwrap();
    assert!(n >= 6);
}

#[test]
fn cache_table_roundtrip() {
    let ctx = ctx_with_tables();
    ctx.sql("CACHE TABLE employees").unwrap();
    let n = ctx
        .sql("SELECT count(*) FROM employees")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(n[0].get(0), &Value::Long(6));
    // Cached results identical after another query.
    let rows = ctx
        .sql("SELECT name FROM employees WHERE salary > 95 ORDER BY name")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(rows.len(), 3);
    ctx.sql("UNCACHE TABLE employees").unwrap();
    assert_eq!(
        ctx.sql("SELECT count(*) FROM employees")
            .unwrap()
            .collect()
            .unwrap()[0]
            .get(0),
        &Value::Long(6)
    );
}

/// Losing the executors holding a `CACHE TABLE`'d relation's blocks must
/// be transparent: the next scan recomputes the lost partitions from
/// lineage, repopulates the columnar cache, and the recovery shows up in
/// the engine's `cache_recomputes` counter and in `explain_analyze`.
#[test]
fn cached_table_recomputes_after_executor_loss() {
    use catalyst::plan::LogicalPlan;
    use catalyst::source::BaseRelation;
    use engine::metrics::Metrics;
    use spark_sql::cache::CachedRelation;

    let ctx = ctx_with_tables();
    let sc = ctx.spark_context().clone();
    sc.set_chaos(None); // exact recompute accounting below
    ctx.sql("CACHE TABLE employees").unwrap();
    let q = "SELECT deptId, count(*) FROM employees GROUP BY deptId ORDER BY deptId";
    let baseline = ctx.sql(q).unwrap().collect().unwrap();

    // The catalog now serves employees from the in-memory cache, fully
    // resident after the warmup query.
    let df = ctx.table("employees").unwrap();
    let mut plan = df.logical_plan();
    while let LogicalPlan::SubqueryAlias { input, .. } = plan {
        plan = input;
    }
    let LogicalPlan::Scan { relation, .. } = plan else {
        panic!("cached table must resolve to a scan: {plan:?}");
    };
    let cached = relation
        .as_any()
        .downcast_ref::<CachedRelation>()
        .expect("cached table must scan a CachedRelation");
    let total = relation.num_partitions();
    assert_eq!(cached.resident_partitions(), total);
    assert!(cached.is_materialized());

    // Kill every executor slot: all of the relation's blocks vanish.
    let before = Metrics::get(&sc.metrics().cache_recomputes);
    for ex in 0..4 {
        sc.lose_executor(ex);
    }
    assert_eq!(cached.resident_partitions(), 0);

    // The next run recomputes from lineage, answers identically, and the
    // columnar cache is resident again.
    let qe = ctx.sql(q).unwrap().query_execution().unwrap();
    let report = qe.explain_analyze().unwrap();
    assert_eq!(ctx.sql(q).unwrap().collect().unwrap(), baseline);
    assert_eq!(cached.resident_partitions(), total);
    assert_eq!(
        Metrics::get(&sc.metrics().cache_recomputes),
        before + total as u64,
        "every lost partition counts one recompute"
    );
    assert!(report.contains("== Fault Recovery =="), "{report}");
    assert!(report.contains("cache recomputes:"), "{report}");
    // Still a columnar, stats-served cache after the refill.
    assert!(cached.size_in_bytes().is_some());
}

#[test]
fn create_temp_table_using_json() {
    let dir = std::env::temp_dir().join(format!("sqltest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("logs.json");
    std::fs::write(
        &path,
        "{\"userId\": 1, \"message\": \"hello\"}\n{\"userId\": 2, \"message\": \"bye\"}\n",
    )
    .unwrap();
    let ctx = SQLContext::new_local(2);
    ctx.sql(&format!(
        "CREATE TEMPORARY TABLE logs USING json OPTIONS (path '{}')",
        path.display()
    ))
    .unwrap();
    let rows = ctx
        .sql("SELECT message FROM logs WHERE userId = 2")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(rows[0].get_str(0), "bye");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shark_like_config_produces_same_results() {
    // Ablation sanity: the reference engine with the columnar cache and
    // pushdown off answers identically (only slower).
    let ctx = ctx_with_tables();
    let q = "SELECT deptId, count(*), avg(salary) FROM employees \
             WHERE name LIKE '%a%' GROUP BY deptId ORDER BY deptId";
    let fast = ctx.sql(q).unwrap().collect().unwrap();
    ctx.set_conf(|c| *c = spark_sql::SqlConf::shark_like());
    let slow = ctx.sql(q).unwrap().collect().unwrap();
    assert_eq!(fast, slow);
}

#[test]
fn decimal_sum_via_decimal_aggregates_rule() {
    let ctx = SQLContext::new_local(2);
    let schema = Arc::new(Schema::new(vec![StructField::new(
        "price",
        DataType::Decimal(6, 2),
        false,
    )]));
    let rows: Vec<Row> = (1..=100)
        .map(|i| Row::new(vec![Value::Decimal(i * 100, 6, 2)])) // i.00
        .collect();
    ctx.register_rows("sales", schema, rows).unwrap();
    let out = ctx
        .sql("SELECT sum(price) FROM sales")
        .unwrap()
        .collect()
        .unwrap();
    // sum(1..=100) = 5050.00 with precision 6+10.
    assert_eq!(out[0].get(0), &Value::Decimal(505_000, 16, 2));
}

#[test]
fn three_table_join() {
    let ctx = ctx_with_tables();
    let schema = Arc::new(Schema::new(vec![
        StructField::new("dept_id", DataType::Long, false),
        StructField::new("budget", DataType::Long, false),
    ]));
    ctx.register_rows(
        "budgets",
        schema,
        vec![
            Row::new(vec![Value::Long(1), Value::Long(1000)]),
            Row::new(vec![Value::Long(2), Value::Long(2000)]),
        ],
    )
    .unwrap();
    let rows = ctx
        .sql(
            "SELECT employees.name, dept.name, budgets.budget FROM employees \
             JOIN dept ON employees.deptId = dept.id \
             JOIN budgets ON dept.id = budgets.dept_id \
             WHERE budgets.budget >= 2000 ORDER BY employees.name",
        )
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0].get_str(0), "carol");
}

#[test]
fn nulls_flow_through_correctly() {
    let ctx = SQLContext::new_local(2);
    let schema = Arc::new(Schema::new(vec![
        StructField::new("x", DataType::Long, true),
        StructField::new("g", DataType::String, false),
    ]));
    ctx.register_rows(
        "t",
        schema,
        vec![
            Row::new(vec![Value::Long(1), Value::str("a")]),
            Row::new(vec![Value::Null, Value::str("a")]),
            Row::new(vec![Value::Long(3), Value::str("b")]),
        ],
    )
    .unwrap();
    // COUNT skips nulls; COUNT(*) doesn't; comparisons with NULL filter out.
    let rows = ctx
        .sql("SELECT g, count(x), count(*), sum(x) FROM t GROUP BY g ORDER BY g")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(rows[0].get(1), &Value::Long(1));
    assert_eq!(rows[0].get(2), &Value::Long(2));
    assert_eq!(rows[0].get(3), &Value::Long(1));
    let filtered = ctx
        .sql("SELECT * FROM t WHERE x > 0")
        .unwrap()
        .count()
        .unwrap();
    assert_eq!(filtered, 2);
    let is_null = ctx
        .sql("SELECT * FROM t WHERE x IS NULL")
        .unwrap()
        .count()
        .unwrap();
    assert_eq!(is_null, 1);
}
