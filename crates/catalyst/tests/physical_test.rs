//! Physical planning tests: scan pushdown, cost-based join selection,
//! top-k planning, and the advisory filter conversion.

use catalyst::analysis::{Analyzer, FunctionRegistry, SimpleCatalog};
use catalyst::expr::builders::{col, lit, sum};
use catalyst::expr::{ColumnRef, Expr};
use catalyst::optimizer::Optimizer;
use catalyst::physical::{expr_to_filter, BuildSide, PhysicalPlan, Planner, PlannerConfig};
use catalyst::plan::{JoinType, LogicalPlan};
use catalyst::row::Row;
use catalyst::schema::Schema;
use catalyst::source::{BaseRelation, Filter, MemoryTable, RowIter, ScanCapability};
use catalyst::types::{DataType, StructField};
use catalyst::value::Value;
use std::sync::Arc;

/// A pushdown-capable test relation that evaluates filters exactly.
struct SmartTable {
    inner: MemoryTable,
}

impl SmartTable {
    fn new(rows: usize) -> Self {
        let schema = Arc::new(Schema::new(vec![
            StructField::new("id", DataType::Long, false),
            StructField::new("name", DataType::String, false),
            StructField::new("rank", DataType::Int, false),
        ]));
        let rows: Vec<Row> = (0..rows)
            .map(|i| {
                Row::new(vec![
                    Value::Long(i as i64),
                    Value::str(format!("n{i}")),
                    Value::Int((i % 100) as i32),
                ])
            })
            .collect();
        SmartTable {
            inner: MemoryTable::new("smart", schema, rows, 2),
        }
    }
}

impl BaseRelation for SmartTable {
    fn name(&self) -> String {
        "smart".into()
    }
    fn schema(&self) -> catalyst::schema::SchemaRef {
        self.inner.schema()
    }
    fn size_in_bytes(&self) -> Option<u64> {
        self.inner.size_in_bytes()
    }
    fn row_count(&self) -> Option<u64> {
        self.inner.row_count()
    }
    fn capability(&self) -> ScanCapability {
        ScanCapability::PrunedFilteredScan
    }
    fn num_partitions(&self) -> usize {
        self.inner.num_partitions()
    }
    fn scan_partition(
        &self,
        partition: usize,
        projection: Option<&[usize]>,
        filters: &[Filter],
    ) -> catalyst::Result<RowIter> {
        let all = self.inner.scan_partition(partition, None, &[])?;
        let schema = self.inner.schema();
        let filters = filters.to_vec();
        let proj: Option<Vec<usize>> = projection.map(|p| p.to_vec());
        Ok(Box::new(all.filter_map(move |row| {
            for f in &filters {
                let i = schema.index_of(f.column()).expect("filter column");
                if !f.matches(row.get(i)) {
                    return None;
                }
            }
            Some(match &proj {
                Some(p) => row.project(p),
                None => row,
            })
        })))
    }
    fn handled_filters(&self, filters: &[Filter]) -> Vec<bool> {
        vec![true; filters.len()]
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

fn scan_of(relation: Arc<dyn BaseRelation>) -> LogicalPlan {
    let output = relation
        .schema()
        .fields()
        .iter()
        .map(|f| ColumnRef::new(f.name.clone(), f.dtype.clone(), f.nullable))
        .collect();
    LogicalPlan::Scan {
        relation,
        output,
        filters: vec![],
    }
}

fn prepare(plan: LogicalPlan) -> LogicalPlan {
    let analyzer = Analyzer::new(
        Arc::new(SimpleCatalog::default()),
        Arc::new(FunctionRegistry::default()),
    );
    Optimizer::new().optimize(analyzer.analyze(plan).unwrap(), true)
}

fn local(name: &str, n: i64) -> (LogicalPlan, ColumnRef) {
    let plan = LogicalPlan::LocalRelation {
        output: vec![ColumnRef::new(name, DataType::Long, false)],
        rows: Arc::new((0..n).map(|i| Row::new(vec![Value::Long(i)])).collect()),
    };
    let c = plan.output()[0].clone();
    (plan, c)
}

fn find_scan(p: &PhysicalPlan) -> Option<(Option<Vec<usize>>, Vec<Filter>, bool)> {
    if let PhysicalPlan::Scan {
        projection,
        pushed_filters,
        residual,
        ..
    } = p
    {
        return Some((
            projection.clone(),
            pushed_filters.clone(),
            residual.is_some(),
        ));
    }
    p.children().iter().find_map(|c| find_scan(c))
}

fn has_filter_node(p: &PhysicalPlan) -> bool {
    matches!(p, PhysicalPlan::Filter { .. }) || p.children().iter().any(|c| has_filter_node(c))
}

#[test]
fn scan_pushdown_prunes_columns_and_pushes_filters() {
    let rel: Arc<dyn BaseRelation> = Arc::new(SmartTable::new(100));
    let plan = prepare(
        scan_of(rel)
            .filter(col("rank").gt(lit(50)))
            .project(vec![col("name")]),
    );
    let phys = Planner::default().plan(&plan).unwrap();
    let (projection, pushed, has_residual) = find_scan(&phys).expect("scan node");
    assert!(!pushed.is_empty(), "{phys}");
    assert!(
        !has_residual,
        "exactly-handled filters need no residual: {phys}"
    );
    assert_eq!(projection.as_deref(), Some(&[1usize, 2][..]), "{phys}");
    assert!(!has_filter_node(&phys), "{phys}");
}

#[test]
fn pushdown_disabled_keeps_residual_filter() {
    let rel: Arc<dyn BaseRelation> = Arc::new(SmartTable::new(100));
    let plan = prepare(scan_of(rel).filter(col("rank").gt(lit(50))));
    let planner = Planner::new(PlannerConfig {
        pushdown_enabled: false,
        ..Default::default()
    });
    let phys = planner.plan(&plan).unwrap();
    match &phys {
        PhysicalPlan::Scan {
            pushed_filters,
            residual,
            ..
        } => {
            assert!(pushed_filters.is_empty());
            assert!(residual.is_some());
        }
        other => panic!("expected Scan with residual, got {other}"),
    }
}

#[test]
fn small_table_gets_broadcast_join() {
    let (l, la) = local("a", 100_000);
    let (r, rb) = local("b", 5);
    let join = l.join(
        r,
        JoinType::Inner,
        Some(Expr::Column(la).eq(Expr::Column(rb))),
    );
    let phys = Planner::default().plan(&join).unwrap();
    assert!(
        matches!(
            phys,
            PhysicalPlan::BroadcastHashJoin {
                build_side: BuildSide::Right,
                ..
            }
        ),
        "{phys}"
    );
}

#[test]
fn low_threshold_forces_shuffled_join() {
    let (l, la) = local("a", 1000);
    let (r, rb) = local("b", 1000);
    let join = l.join(
        r,
        JoinType::Inner,
        Some(Expr::Column(la).eq(Expr::Column(rb))),
    );
    let planner = Planner::new(PlannerConfig {
        broadcast_threshold: 16,
        ..Default::default()
    });
    let phys = planner.plan(&join).unwrap();
    assert!(
        matches!(phys, PhysicalPlan::ShuffledHashJoin { .. }),
        "{phys}"
    );
}

#[test]
fn left_join_cannot_broadcast_left_build_side() {
    // LEFT JOIN with a tiny *left* side: building/broadcasting the left
    // table would drop its unmatched rows, so the planner must refuse.
    let (l, la) = local("a", 5);
    let (r, rb) = local("b", 1000);
    let join = l.join(
        r,
        JoinType::Left,
        Some(Expr::Column(la).eq(Expr::Column(rb))),
    );
    let planner = Planner::new(PlannerConfig {
        // Make only the left side broadcastable.
        broadcast_threshold: 100,
        ..Default::default()
    });
    let phys = planner.plan(&join).unwrap();
    assert!(
        matches!(phys, PhysicalPlan::ShuffledHashJoin { .. }),
        "{phys}"
    );
}

#[test]
fn non_equi_join_gets_nested_loop() {
    let (l, la) = local("a", 10);
    let (r, rb) = local("b", 10);
    let join = l.join(
        r,
        JoinType::Inner,
        Some(Expr::Column(la).lt(Expr::Column(rb))),
    );
    let phys = Planner::default().plan(&join).unwrap();
    assert!(
        matches!(phys, PhysicalPlan::NestedLoopJoin { .. }),
        "{phys}"
    );
}

#[test]
fn limit_over_sort_becomes_take_ordered() {
    let (t, x) = local("x", 10);
    let plan = t.sort(vec![Expr::Column(x).desc()]).limit(1);
    let phys = Planner::default().plan(&plan).unwrap();
    assert!(
        matches!(phys, PhysicalPlan::TakeOrdered { n: 1, .. }),
        "{phys}"
    );
}

#[test]
fn aggregate_plans_to_hash_aggregate() {
    let t = LogicalPlan::LocalRelation {
        output: vec![
            ColumnRef::new("k", DataType::String, false),
            ColumnRef::new("v", DataType::Long, false),
        ],
        rows: Arc::new(vec![]),
    };
    let k = t.output()[0].clone();
    let v = t.output()[1].clone();
    let plan = prepare(t.aggregate(
        vec![Expr::Column(k.clone())],
        vec![Expr::Column(k), sum(Expr::Column(v)).alias("s")],
    ));
    let phys = Planner::default().plan(&plan).unwrap();
    assert!(matches!(phys, PhysicalPlan::HashAggregate { .. }), "{phys}");
}

#[test]
fn distinct_plans_to_hash_aggregate() {
    let (t, _) = local("x", 10);
    let phys = Planner::default().plan(&t.distinct()).unwrap();
    assert!(matches!(phys, PhysicalPlan::HashAggregate { .. }), "{phys}");
}

#[test]
fn expr_to_filter_conversions() {
    let c = ColumnRef::new("x", DataType::Int, false);
    let e = Expr::Column(c.clone()).gt(lit(5));
    assert_eq!(
        expr_to_filter(&e),
        Some(Filter::Gt("x".into(), Value::Int(5)))
    );
    // Flipped comparison: 5 < x ⇔ x > 5.
    let e = lit(5).lt(Expr::Column(c.clone()));
    assert_eq!(
        expr_to_filter(&e),
        Some(Filter::Gt("x".into(), Value::Int(5)))
    );
    // Numeric cast around the column is transparent.
    let e = Expr::Column(c.clone())
        .cast(DataType::Long)
        .lt_eq(lit(9i64));
    assert_eq!(
        expr_to_filter(&e),
        Some(Filter::LtEq("x".into(), Value::Long(9)))
    );
    // IN list.
    let e = Expr::Column(c.clone()).in_list(vec![lit(1), lit(2)]);
    assert_eq!(
        expr_to_filter(&e),
        Some(Filter::In("x".into(), vec![Value::Int(1), Value::Int(2)]))
    );
    // Column-to-column comparisons are not in the advisory language.
    let e = Expr::Column(c.clone()).gt(Expr::Column(c));
    assert_eq!(expr_to_filter(&e), None);
}

#[test]
fn table_scan_capability_gets_no_pruning() {
    // MemoryTable is TableScan tier: projection must stay None.
    let schema = Arc::new(Schema::new(vec![
        StructField::new("a", DataType::Int, false),
        StructField::new("b", DataType::Int, false),
    ]));
    let rel: Arc<dyn BaseRelation> = Arc::new(MemoryTable::new(
        "mem",
        schema,
        vec![Row::new(vec![Value::Int(1), Value::Int(2)])],
        1,
    ));
    let plan = prepare(scan_of(rel).project(vec![col("a")]));
    let phys = Planner::default().plan(&plan).unwrap();
    let (projection, _, _) = find_scan(&phys).expect("scan");
    assert!(projection.is_none(), "{phys}");
    // A Project node compensates above the scan.
    assert!(matches!(phys, PhysicalPlan::Project { .. }), "{phys}");
}
