//! Physical plan execution: lowers Catalyst physical operators onto the
//! engine's RDDs, so relational queries run on the same substrate —
//! stages, shuffles, broadcasts — as procedural Spark code.
//!
//! This module is the execution context, the metering and cancellation
//! adapters every operator is wrapped in, the batch Scan/Filter/Project
//! path, and the `lower` dispatch. Each buffering operator lowers in a
//! module of its own behind `execute_x(…, id, ctx) -> Result<RddRef<Row>>`:
//! `aggregate.rs`, `sort.rs`, `join.rs`, `window.rs`; what they share to
//! cross the disk boundary is `spill.rs`.
//!
//! Expressions evaluate two ways: columnar kernels on batches (the
//! §4.3.4 substitute, falling back to the interpreter on selected lanes
//! where no kernel exists), and the tree-walking interpreter on rows —
//! the row operators' projections, predicates and keys in every
//! configuration. The reference configuration (`SqlConf::reference`)
//! takes no batch path at all: row at a time, the oracle the
//! differential suites compare against and the Shark baseline of the
//! Figure 8 experiment.

use crate::conf::SqlConf;
use crate::rdd_table::RddTable;
use crate::spill::SpillCtx;
use crate::{aggregate, join, sort, window};
use catalyst::adaptive::AdaptivePlanChange;
use catalyst::error::{CatalystError, Result};
use catalyst::expr::{ColumnRef, Expr};
use catalyst::interpreter::{self, bind_references};
use catalyst::physical::metrics::{subtree_size, OperatorMetrics, PlanMetrics};
use catalyst::physical::PhysicalPlan;
use catalyst::row::Row;
use catalyst::source::RowIter;
use catalyst::types::DataType;
use catalyst::value::Value;
use catalyst::vectorized::{self, RowBatch};
use engine::{MemoryPool, RddRef, SparkContext};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub(crate) fn engine_err(e: engine::EngineError) -> CatalystError {
    CatalystError::Internal(format!("execution failed: {e}"))
}

/// Shared recorder of adaptive plan changes for one execution. Cloned
/// handles append to the same list; `QueryExecution` keeps one to render
/// initial-vs-final plans in `explain_analyze`.
#[derive(Clone, Default)]
pub struct AdaptiveLog(Arc<Mutex<Vec<AdaptivePlanChange>>>);

impl AdaptiveLog {
    /// Append one adaptive decision.
    pub fn record(&self, change: AdaptivePlanChange) {
        self.0.lock().unwrap().push(change);
    }

    /// All changes recorded so far, in decision order.
    pub fn snapshot(&self) -> Vec<AdaptivePlanChange> {
        self.0.lock().unwrap().clone()
    }

    /// Drop recorded changes (start of a fresh execution).
    pub fn clear(&self) {
        self.0.lock().unwrap().clear();
    }
}

/// Everything execution needs.
pub struct ExecContext {
    /// The engine.
    pub sc: SparkContext,
    /// Session configuration.
    pub conf: SqlConf,
    /// Per-operator metrics registry, indexed by pre-order node id.
    /// `None` runs uninstrumented (no metering wrappers at all).
    pub metrics: Option<Arc<PlanMetrics>>,
    /// Adaptive decisions made while lowering (stage-by-stage execution
    /// records coalescing, demotions, and skew splits here).
    pub adaptive: AdaptiveLog,
    /// Memory pool governing the buffering operators of this execution:
    /// they reserve what they buffer and spill when a grow is denied.
    /// With no `spark.sql.memory.budgetBytes` the pool never denies.
    pub mem: Arc<MemoryPool>,
    /// Cooperative cancellation token. When set, every operator's
    /// partition iterator checks it at the partition boundary and every
    /// 256 rows (per batch on the vectorized path); a fired token unwinds
    /// the task with [`engine::CancelSignal`], releasing reservations and
    /// spill files on the way out.
    pub cancel: Option<engine::CancelToken>,
}

/// Build the execution's memory pool from session configuration: budget
/// `0` is a pool that never denies.
fn pool_from_conf(conf: &SqlConf) -> Arc<MemoryPool> {
    match conf.memory_budget_bytes {
        0 => MemoryPool::unbounded(),
        budget => MemoryPool::bounded(budget, conf.spill_path()),
    }
}

impl ExecContext {
    /// An uninstrumented execution context.
    pub fn new(sc: SparkContext, conf: SqlConf) -> Self {
        let mem = pool_from_conf(&conf);
        ExecContext {
            sc,
            conf,
            metrics: None,
            adaptive: AdaptiveLog::default(),
            mem,
            cancel: None,
        }
    }

    /// An instrumented context recording into `metrics`.
    pub fn instrumented(sc: SparkContext, conf: SqlConf, metrics: Arc<PlanMetrics>) -> Self {
        let mem = pool_from_conf(&conf);
        ExecContext {
            sc,
            conf,
            metrics: Some(metrics),
            adaptive: AdaptiveLog::default(),
            mem,
            cancel: None,
        }
    }

    /// Spill context for the operator with pre-order id `id`.
    pub(crate) fn spill_ctx(&self, id: usize) -> SpillCtx {
        SpillCtx {
            pool: self.mem.clone(),
            node: self.metrics.as_ref().map(|pm| pm.node(id)),
        }
    }
}

/// Partition iterator that counts rows and the wall time spent producing
/// them, flushing into an [`OperatorMetrics`] slot when dropped. Time is
/// accumulated around `next()` only, so pipelined *downstream* work is
/// excluded while upstream operators of the same stage are included —
/// matching how per-operator times read in Spark's SQL UI.
struct MeteredIter {
    inner: engine::BoxIter<Row>,
    node: Arc<OperatorMetrics>,
    rows: u64,
    elapsed_ns: u64,
}

impl Iterator for MeteredIter {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        let t0 = Instant::now();
        let item = self.inner.next();
        self.elapsed_ns += t0.elapsed().as_nanos() as u64;
        if item.is_some() {
            self.rows += 1;
        }
        item
    }
}

impl Drop for MeteredIter {
    fn drop(&mut self) {
        self.node.add_rows(self.rows);
        self.node.add_elapsed_ns(self.elapsed_ns);
    }
}

/// Wrap an operator's output RDD so every partition records rows/time.
fn metered(rdd: &RddRef<Row>, node: Arc<OperatorMetrics>) -> RddRef<Row> {
    rdd.map_partitions(move |it| {
        Box::new(MeteredIter {
            inner: it,
            node: node.clone(),
            rows: 0,
            elapsed_ns: 0,
        })
    })
}

/// Cooperative cancellation point in a row pipeline: checks the token
/// when the partition opens and every 256 rows after.
struct CancelCheckIter {
    inner: engine::BoxIter<Row>,
    token: engine::CancelToken,
    count: u32,
}

impl Iterator for CancelCheckIter {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        self.count = self.count.wrapping_add(1);
        if self.count & 0xFF == 0 {
            engine::cancel::check(&self.token);
        }
        self.inner.next()
    }
}

/// Wrap an operator's output so its partitions observe `token`.
fn cancel_checked(rdd: &RddRef<Row>, token: engine::CancelToken) -> RddRef<Row> {
    rdd.map_partitions(move |it| {
        engine::cancel::check(&token);
        Box::new(CancelCheckIter {
            inner: it,
            token: token.clone(),
            count: 0,
        })
    })
}

/// Batch-path cancellation point: per batch (a batch is the row path's
/// "every few hundred rows" in one step).
fn cancel_checked_batches(rdd: &RddRef<RowBatch>, token: engine::CancelToken) -> RddRef<RowBatch> {
    rdd.map_partitions(move |it| {
        engine::cancel::check(&token);
        let token = token.clone();
        Box::new(it.inspect(move |_| engine::cancel::check(&token)))
    })
}

/// Credit driver-side (eager) work to a node's elapsed time.
pub(crate) fn note_eager_ns(ctx: &ExecContext, id: usize, start: Instant) {
    if let Some(pm) = &ctx.metrics {
        pm.node(id)
            .add_elapsed_ns(start.elapsed().as_nanos() as u64);
    }
}

type RowFn = Arc<dyn Fn(&Row) -> Row + Send + Sync>;
pub(crate) type PredFn = Arc<dyn Fn(&Row) -> bool + Send + Sync>;

pub(crate) fn bind_all(exprs: &[Expr], input: &[ColumnRef]) -> Result<Vec<Expr>> {
    exprs
        .iter()
        .map(|e| bind_references(e.clone(), input))
        .collect()
}

/// Build a row→row projector.
fn projector(exprs: &[Expr], input: &[ColumnRef]) -> Result<RowFn> {
    let bound = bind_all(exprs, input)?;
    Ok(Arc::new(move |row| {
        Row::new(
            bound
                .iter()
                .map(|e| interpreter::eval(e, row).expect("projection failed"))
                .collect(),
        )
    }))
}

/// Build a row predicate (NULL ⇒ false; an evaluation error fails the
/// task).
pub(crate) fn predicate(expr: &Expr, input: &[ColumnRef]) -> Result<PredFn> {
    let bound = bind_references(expr.clone(), input)?;
    Ok(Arc::new(move |row| {
        interpreter::eval_predicate(&bound, row).expect("predicate failed")
    }))
}

pub(crate) type ValueFn = Arc<dyn Fn(&Row) -> Value + Send + Sync>;

/// Build a single-value evaluator over a bound expression.
pub(crate) fn value_fn(bound: Expr) -> ValueFn {
    Arc::new(move |row| interpreter::eval(&bound, row).expect("expression failed"))
}

/// Execute a physical plan into an RDD of rows.
pub fn execute(plan: &PhysicalPlan, ctx: &ExecContext) -> Result<RddRef<Row>> {
    execute_node(plan, 0, ctx)
}

/// A subtree lowered once: as batches when production has a batch form,
/// else as rows. Each consumer adapts it to the form it takes.
pub(crate) enum Lowered {
    Batches(RddRef<RowBatch>),
    Rows(RddRef<Row>),
}

impl Lowered {
    /// As rows: the batch→row adapter compacts selected lanes only where
    /// a row operator (or the driver) consumes them. A batch subtree
    /// metered itself, so the adapter is deliberately unmetered.
    pub(crate) fn rows(&self) -> RddRef<Row> {
        match self {
            Lowered::Batches(b) => b.flat_map(RowBatch::into_selected_rows),
            Lowered::Rows(r) => r.clone(),
        }
    }

    /// As batches of `plan`'s output: row subtrees chunk through the
    /// generic row→batch adapter.
    pub(crate) fn batches(&self, plan: &PhysicalPlan, ctx: &ExecContext) -> RddRef<RowBatch> {
        let rows = match self {
            Lowered::Batches(b) => return b.clone(),
            Lowered::Rows(r) => r,
        };
        let dtypes: Arc<Vec<DataType>> =
            Arc::new(plan.output().iter().map(|c| c.dtype.clone()).collect());
        let batch_size = ctx.conf.vectorize_batch_size.max(1);
        rows.map_partitions(move |it| {
            Box::new(IterChunks {
                inner: it,
                dtypes: dtypes.clone(),
                batch_size,
            })
        })
    }
}

/// Lower one node (pre-order id `id`) in its batch form when production
/// has one, else as rows.
pub(crate) fn lower_node(plan: &PhysicalPlan, id: usize, ctx: &ExecContext) -> Result<Lowered> {
    if !ctx.conf.reference {
        if let Some(batched) = try_execute_batched(plan, id, ctx) {
            return Ok(Lowered::Batches(batched?));
        }
    }
    Ok(Lowered::Rows(lower_rows(plan, id, ctx)?))
}

/// Lower one node (pre-order id `id`) for a row consumer.
pub(crate) fn execute_node(
    plan: &PhysicalPlan,
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    Ok(lower_node(plan, id, ctx)?.rows())
}

/// Lower one node (pre-order id `id`) as rows, then — when instrumented —
/// claim the shuffles its lowering allocated and wrap its output with
/// metering.
///
/// Children claim their shuffle ids before the parent inspects the
/// enclosing window, so each shuffle lands on the operator that induced
/// the exchange (sort, aggregate, shuffled join, distinct).
fn lower_rows(plan: &PhysicalPlan, id: usize, ctx: &ExecContext) -> Result<RddRef<Row>> {
    let shuffles_before = ctx.sc.current_shuffle_id();
    let rdd = lower(plan, id, ctx)?;
    let rdd = match &ctx.metrics {
        Some(pm) => {
            let node = pm.node(id);
            for sid in pm.claim_shuffles(shuffles_before..ctx.sc.current_shuffle_id()) {
                node.add_shuffle_id(sid);
            }
            metered(&rdd, node)
        }
        None => rdd,
    };
    Ok(match &ctx.cancel {
        Some(token) => cancel_checked(&rdd, token.clone()),
        None => rdd,
    })
}

// ---- vectorized (batch) execution path ----

/// Partition iterator chunking a row scan into [`RowBatch`]es — the
/// generic row→batch adapter for sources without a native vector scan.
struct IterChunks {
    inner: RowIter,
    dtypes: Arc<Vec<DataType>>,
    batch_size: usize,
}

impl Iterator for IterChunks {
    type Item = RowBatch;

    fn next(&mut self) -> Option<RowBatch> {
        let mut buf = Vec::with_capacity(self.batch_size);
        while buf.len() < self.batch_size {
            match self.inner.next() {
                Some(row) => buf.push(row),
                None => break,
            }
        }
        if buf.is_empty() {
            None
        } else {
            Some(RowBatch::from_rows(&self.dtypes, &buf))
        }
    }
}

/// Batch-path analogue of [`MeteredIter`]: `rows` counts *selected* rows
/// (comparable with the row path), `batches` and `batch_rows_scanned`
/// (physical lanes) expose batch counts and per-operator selectivity in
/// `explain_analyze`.
struct BatchMeteredIter {
    inner: engine::BoxIter<RowBatch>,
    node: Arc<OperatorMetrics>,
    rows: u64,
    lanes: u64,
    batches: u64,
    elapsed_ns: u64,
}

impl Iterator for BatchMeteredIter {
    type Item = RowBatch;

    fn next(&mut self) -> Option<RowBatch> {
        let t0 = Instant::now();
        let item = self.inner.next();
        self.elapsed_ns += t0.elapsed().as_nanos() as u64;
        if let Some(b) = &item {
            self.batches += 1;
            self.rows += b.selected_count() as u64;
            self.lanes += b.num_rows() as u64;
        }
        item
    }
}

impl Drop for BatchMeteredIter {
    fn drop(&mut self) {
        self.node.add_rows(self.rows);
        self.node.add_elapsed_ns(self.elapsed_ns);
        self.node.add_extra("batches", self.batches);
        self.node.add_extra("batch_rows_scanned", self.lanes);
    }
}

fn metered_batches(rdd: &RddRef<RowBatch>, node: Arc<OperatorMetrics>) -> RddRef<RowBatch> {
    rdd.map_partitions(move |it| {
        Box::new(BatchMeteredIter {
            inner: it,
            node: node.clone(),
            rows: 0,
            lanes: 0,
            batches: 0,
            elapsed_ns: 0,
        })
    })
}

/// Lower a plan subtree to batch operators, or `None` when this operator
/// (or, for Filter/Project, its child chain down to a leaf) has no batch
/// form — the caller then takes the row path for the whole subtree.
/// Batch subtrees grow from batchable leaves (Scan, LocalData) upward
/// through Filter and Project, and through every `BroadcastHashJoin`
/// (whose inputs adapt to batches); everything else adapts at the
/// boundary via [`RowBatch::into_selected_rows`].
fn try_execute_batched(
    plan: &PhysicalPlan,
    id: usize,
    ctx: &ExecContext,
) -> Option<Result<RddRef<RowBatch>>> {
    let lowered = try_lower_batched(plan, id, ctx)?;
    Some(lowered.map(|rdd| {
        let rdd = match &ctx.metrics {
            Some(pm) => metered_batches(&rdd, pm.node(id)),
            None => rdd,
        };
        match &ctx.cancel {
            Some(token) => cancel_checked_batches(&rdd, token.clone()),
            None => rdd,
        }
    }))
}

fn try_lower_batched(
    plan: &PhysicalPlan,
    id: usize,
    ctx: &ExecContext,
) -> Option<Result<RddRef<RowBatch>>> {
    match plan {
        PhysicalPlan::Scan {
            relation,
            projection,
            pushed_filters,
            residual,
            output,
        } => {
            let relation = relation.clone();
            let n = relation.num_partitions().max(1);
            let proj = projection.clone();
            let filters = pushed_filters.clone();
            let dtypes: Arc<Vec<DataType>> =
                Arc::new(output.iter().map(|c| c.dtype.clone()).collect());
            let batch_size = ctx.conf.vectorize_batch_size.max(1);
            let rdd = ctx.sc.generate(n, move |p| -> engine::BoxIter<RowBatch> {
                match relation.scan_partition_vectors(p, proj.as_deref(), &filters) {
                    Ok(Some(batches)) => batches,
                    Ok(None) => match relation.scan_partition(p, proj.as_deref(), &filters) {
                        Ok(it) => Box::new(IterChunks {
                            inner: it,
                            dtypes: dtypes.clone(),
                            batch_size,
                        }),
                        Err(e) => panic!("scan failed: {e}"),
                    },
                    Err(e) => panic!("scan failed: {e}"),
                }
            });
            Some(match residual {
                Some(r) => batch_filter(rdd, r, output),
                None => Ok(rdd),
            })
        }

        PhysicalPlan::LocalData { rows, output } => {
            let rows = rows.clone();
            let dtypes: Arc<Vec<DataType>> =
                Arc::new(output.iter().map(|c| c.dtype.clone()).collect());
            let batch_size = ctx.conf.vectorize_batch_size.max(1);
            Some(Ok(ctx.sc.generate(
                1,
                move |_| -> engine::BoxIter<RowBatch> {
                    let rows = rows.clone();
                    let it: RowIter = Box::new((0..rows.len()).map(move |i| rows[i].clone()));
                    Box::new(IterChunks {
                        inner: it,
                        dtypes: dtypes.clone(),
                        batch_size,
                    })
                },
            )))
        }

        PhysicalPlan::Filter { input, predicate } => {
            let child = try_execute_batched(input, id + 1, ctx)?;
            Some(child.and_then(|rdd| batch_filter(rdd, predicate, &input.output())))
        }

        PhysicalPlan::Project { input, exprs } => {
            let child = try_execute_batched(input, id + 1, ctx)?;
            Some(child.and_then(|rdd| {
                let bound = bind_all(exprs, &input.output())?;
                Ok(rdd.map(move |b| {
                    vectorized::eval_projection_batch(&bound, &b).expect("projection failed")
                }))
            }))
        }

        PhysicalPlan::BroadcastHashJoin { .. } => Some(join::execute_broadcast_join(plan, id, ctx)),

        _ => None,
    }
}

/// Apply a predicate batch-wise: refine each batch's selection vector.
fn batch_filter(
    rdd: RddRef<RowBatch>,
    predicate: &Expr,
    input: &[ColumnRef],
) -> Result<RddRef<RowBatch>> {
    let bound = bind_references(predicate.clone(), input)?;
    Ok(rdd.map(move |b| vectorized::filter_batch(&bound, &b).expect("predicate failed")))
}

fn lower(plan: &PhysicalPlan, id: usize, ctx: &ExecContext) -> Result<RddRef<Row>> {
    match plan {
        PhysicalPlan::Scan {
            relation,
            projection,
            pushed_filters,
            residual,
            output,
        } => {
            let relation = relation.clone();
            let n = relation.num_partitions().max(1);
            let proj = projection.clone();
            let filters = pushed_filters.clone();
            let rdd = ctx.sc.generate(n, move |p| {
                match relation.scan_partition(p, proj.as_deref(), &filters) {
                    Ok(it) => it,
                    Err(e) => panic!("scan failed: {e}"),
                }
            });
            match residual {
                Some(r) => {
                    let pred = predicate(r, output)?;
                    Ok(rdd.filter(move |row| pred(row)))
                }
                None => Ok(rdd),
            }
        }

        PhysicalPlan::ExternalScan { data, .. } => match data.as_any().downcast_ref::<RddTable>() {
            Some(t) => Ok(t.rdd().clone()),
            None => Err(CatalystError::Internal(format!(
                "unknown external data source '{}'",
                data.name()
            ))),
        },

        PhysicalPlan::LocalData { rows, .. } => Ok(ctx.sc.parallelize(rows.as_ref().clone(), 1)),

        PhysicalPlan::Project { input, exprs } => {
            let child = execute_node(input, id + 1, ctx)?;
            let f = projector(exprs, &input.output())?;
            Ok(child.map(move |row| f(&row)))
        }

        PhysicalPlan::Filter {
            input,
            predicate: pred_expr,
        } => {
            let child = execute_node(input, id + 1, ctx)?;
            let pred = predicate(pred_expr, &input.output())?;
            Ok(child.filter(move |row| pred(row)))
        }

        PhysicalPlan::HashAggregate {
            input,
            groupings,
            output_exprs,
        } => aggregate::execute_aggregate(input, groupings, output_exprs, id, ctx),

        PhysicalPlan::Sort { input, orders } => sort::execute_sort(input, orders, id, ctx),

        PhysicalPlan::Window {
            input,
            window_exprs,
            partition_by,
            order_by,
        } => window::execute_window(input, window_exprs, partition_by, order_by, id, ctx),

        PhysicalPlan::TakeOrdered { input, orders, n } => {
            sort::execute_take_ordered(input, orders, *n, id, ctx)
        }

        PhysicalPlan::Limit { input, n } => {
            let child = execute_node(input, id + 1, ctx)?;
            let n = *n;
            let local = child.map_partitions(move |it| Box::new(it.take(n)));
            let single = local.coalesce(1);
            Ok(single.map_partitions(move |it| Box::new(it.take(n))))
        }

        PhysicalPlan::BroadcastHashJoin { .. } | PhysicalPlan::ShuffledHashJoin { .. } => {
            join::execute_equi_join(plan, id, ctx)
        }

        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            condition,
            join_type,
        } => join::execute_nested_loop_join(left, right, condition, *join_type, plan, id, ctx),

        PhysicalPlan::Union { inputs } => {
            let mut it = inputs.iter();
            let first = it
                .next()
                .ok_or_else(|| CatalystError::Internal("empty union".into()))?;
            let mut child_id = id + 1;
            let mut rdd = execute_node(first, child_id, ctx)?;
            child_id += subtree_size(first);
            for i in it {
                rdd = rdd.union(&execute_node(i, child_id, ctx)?);
                child_id += subtree_size(i);
            }
            Ok(rdd)
        }

        PhysicalPlan::Sample {
            input,
            fraction,
            seed,
        } => Ok(execute_node(input, id + 1, ctx)?.sample(*fraction, *seed)),

        PhysicalPlan::Extension { exec, children } => {
            let mut child_data = Vec::with_capacity(children.len());
            let mut child_id = id + 1;
            for c in children {
                let rdd = execute_node(c, child_id, ctx)?;
                child_id += subtree_size(c);
                let partitions: Vec<Vec<Row>> =
                    rdd.run_job(|_, it| it.collect()).map_err(engine_err)?;
                child_data.push(partitions);
            }
            let eager_start = Instant::now();
            let out = exec.execute(child_data)?;
            note_eager_ns(ctx, id, eager_start);
            let out = Arc::new(out);
            let n = out.len().max(1);
            Ok(ctx.sc.generate(n, move |p| match out.get(p) {
                Some(rows) => Box::new(rows.clone().into_iter()),
                None => Box::new(std::iter::empty()),
            }))
        }
    }
}
