//! Physical plan execution: lowers Catalyst physical operators onto the
//! engine's RDDs, so relational queries run on the same substrate —
//! stages, shuffles, broadcasts — as procedural Spark code.
//!
//! This module is the execution context, the metering and cancellation
//! adapters every operator is wrapped in, the batch Scan/Filter/Project
//! path, and the `lower` dispatch. Each buffering operator lowers in a
//! module of its own behind `execute_x(…, id, ctx) -> Result<RddRef<Row>>`:
//! `aggregate.rs`, `sort.rs`, `join.rs`, `window.rs`; what they share to
//! cross the disk boundary is `spill.rs`, and every shuffle they read
//! goes through the `Exchange` under them, lowered by `exchange.rs`.
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
use engine::{task, Data, MemoryPool, RddRef, ShuffleIo, SparkContext};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// An engine error as the SQL layer reports it: a task's own error is
/// returned unchanged, anything else is an execution failure.
pub(crate) fn engine_err(e: engine::EngineError) -> CatalystError {
    if let engine::EngineError::Task(inner) = &e {
        if let Some(err) = inner.downcast_ref::<CatalystError>() {
            return err.clone();
        }
    }
    CatalystError::Internal(format!("execution failed: {e}"))
}

/// `f` over each partition's items, flattened, up to the first error:
/// the task records it in its error slot ([`task::ok`]) and its stream
/// ends there.
pub(crate) fn try_flat_map<T: Data, U: Data, I>(
    rdd: &RddRef<T>,
    f: impl Fn(T) -> Result<I> + Send + Sync + 'static,
) -> RddRef<U>
where
    I: IntoIterator<Item = U>,
    I::IntoIter: Send + 'static,
{
    let f = Arc::new(f);
    rdd.map_partitions(move |it| {
        let f = f.clone();
        Box::new(it.map_while(move |x| task::ok(f(x))).flatten())
    })
}

/// `f` over each item, up to the first error (see [`try_flat_map`]).
pub(crate) fn try_map<T: Data, U: Data>(
    rdd: &RddRef<T>,
    f: impl Fn(T) -> Result<U> + Send + Sync + 'static,
) -> RddRef<U> {
    try_flat_map(rdd, move |x| f(x).map(Some))
}

/// A partition's items, or none once the task recorded `result`'s error.
pub(crate) fn task_iter<T: 'static, I>(result: Result<I>) -> engine::BoxIter<T>
where
    I: IntoIterator<Item = T> + Send + 'static,
    I::IntoIter: Send + 'static,
{
    Box::new(task::ok(result).into_iter().flatten())
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

/// Each shuffle an instrumented run minted: its Exchange's pre-order id
/// and the shuffle's own I/O counters, kept for `QueryExecution`.
pub type ShuffleLog = Arc<Mutex<Vec<(usize, Arc<ShuffleIo>)>>>;

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
    /// The shuffles the Exchanges minted, recorded when instrumented.
    pub shuffles: ShuffleLog,
    /// Memory pool governing the buffering operators of this execution:
    /// they reserve what they buffer and spill when a grow is denied.
    /// With no `spark.sql.memory.budgetBytes` the pool never denies.
    pub mem: Arc<MemoryPool>,
    /// Cooperative cancellation token. When set, every operator's
    /// partition iterator checks it at the partition boundary and every
    /// 256 rows (per batch on the vectorized path); a fired token ends
    /// the stream and records [`engine::EngineError::Cancelled`] in the
    /// task's error slot, and dropping the stream releases reservations
    /// and spill files.
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
    /// An uninstrumented execution context; `QueryExecution` fills in the
    /// instruments of a metered run.
    pub fn new(sc: SparkContext, conf: SqlConf) -> Self {
        ExecContext {
            sc,
            mem: pool_from_conf(&conf),
            conf,
            metrics: None,
            adaptive: AdaptiveLog::default(),
            shuffles: ShuffleLog::default(),
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

/// Cooperative cancellation point in a row or record pipeline: checks
/// the token when the partition opens and every 256 items after.
struct CancelCheckIter<T> {
    inner: engine::BoxIter<T>,
    token: engine::CancelToken,
    count: u32,
}

impl<T: 'static> Iterator for CancelCheckIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.count = self.count.wrapping_add(1);
        if self.count & 0xFF == 0 && task::ok(engine::cancel::check(&self.token)).is_none() {
            self.inner = Box::new(std::iter::empty());
        }
        self.inner.next()
    }
}

/// Wrap an operator's output (or an exchange's read) so its partitions
/// observe the execution's cancel token, if it has one.
pub(crate) fn cancel_checked<T: Data>(rdd: &RddRef<T>, ctx: &ExecContext) -> RddRef<T> {
    let Some(token) = ctx.cancel.clone() else {
        return rdd.clone();
    };
    rdd.map_partitions(move |it| {
        if task::ok(engine::cancel::check(&token)).is_none() {
            return Box::new(std::iter::empty());
        }
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
        if task::ok(engine::cancel::check(&token)).is_none() {
            return Box::new(std::iter::empty());
        }
        let token = token.clone();
        Box::new(it.map_while(move |b| task::ok(engine::cancel::check(&token)).map(|()| b)))
    })
}

/// Credit driver-side (eager) work to a node's elapsed time.
pub(crate) fn note_eager_ns(ctx: &ExecContext, id: usize, start: Instant) {
    if let Some(pm) = &ctx.metrics {
        pm.node(id)
            .add_elapsed_ns(start.elapsed().as_nanos() as u64);
    }
}

type RowFn = Arc<dyn Fn(&Row) -> Result<Row> + Send + Sync>;
pub(crate) type PredFn = Arc<dyn Fn(&Row) -> Result<bool> + Send + Sync>;

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
        let values = bound.iter().map(|e| interpreter::eval(e, row));
        Ok(Row::new(values.collect::<Result<_>>()?))
    }))
}

/// Build a row predicate (NULL ⇒ false).
pub(crate) fn predicate(expr: &Expr, input: &[ColumnRef]) -> Result<PredFn> {
    let bound = bind_references(expr.clone(), input)?;
    Ok(Arc::new(move |row| {
        interpreter::eval_predicate(&bound, row)
    }))
}

pub(crate) type ValueFn = Arc<dyn Fn(&Row) -> Result<Value> + Send + Sync>;

/// Build a single-value evaluator over a bound expression.
pub(crate) fn value_fn(bound: Expr) -> ValueFn {
    Arc::new(move |row| interpreter::eval(&bound, row))
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
        rows.map_partitions(move |it| Box::new(IterChunks::new(it, dtypes.clone(), batch_size)))
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

/// Lower one node (pre-order id `id`) as rows, metered when
/// instrumented and cancellable.
fn lower_rows(plan: &PhysicalPlan, id: usize, ctx: &ExecContext) -> Result<RddRef<Row>> {
    let rdd = lower(plan, id, ctx)?;
    let rdd = match &ctx.metrics {
        Some(pm) => metered(&rdd, pm.node(id)),
        None => rdd,
    };
    Ok(cancel_checked(&rdd, ctx))
}

// ---- vectorized (batch) execution path ----

/// Partition iterator chunking rows into [`RowBatch`]es — the generic
/// row→batch adapter for sources without a native vector scan, for row
/// subtrees under a batch operator, and for a spilled sort's rows.
pub(crate) struct IterChunks {
    inner: RowIter,
    dtypes: Arc<Vec<DataType>>,
    batch_size: usize,
}

impl IterChunks {
    /// Batches of at most `batch_size` of `inner`'s rows, of `dtypes`.
    pub(crate) fn new(inner: RowIter, dtypes: Arc<Vec<DataType>>, batch_size: usize) -> Self {
        IterChunks {
            inner,
            dtypes,
            batch_size: batch_size.max(1),
        }
    }
}

impl Iterator for IterChunks {
    type Item = RowBatch;

    fn next(&mut self) -> Option<RowBatch> {
        // Sized by what the source says is left, not by the batch size:
        // a few rows do not pay for a 4096-row buffer.
        let first = self.inner.next()?;
        let left = self.inner.size_hint().0;
        let mut buf = Vec::with_capacity(self.batch_size.min(left + 1));
        buf.push(first);
        buf.extend(self.inner.by_ref().take(self.batch_size - 1));
        Some(RowBatch::from_rows(&self.dtypes, &buf))
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
/// through Filter and Project, and through every `BroadcastHashJoin`,
/// every grouped `HashAggregate` the batch pipeline takes, every `Sort`,
/// `TakeOrdered` and `Window` (whose inputs adapt to batches); everything
/// else adapts at the boundary via [`RowBatch::into_selected_rows`].
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
                let vectors = relation.scan_partition_vectors(p, proj.as_deref(), &filters);
                task_iter(vectors.transpose().unwrap_or_else(|| {
                    let rows = relation.scan_partition(p, proj.as_deref(), &filters)?;
                    Ok(Box::new(IterChunks::new(rows, dtypes.clone(), batch_size)))
                }))
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
                    Box::new(IterChunks::new(it, dtypes.clone(), batch_size))
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
                Ok(try_map(&rdd, move |b| {
                    vectorized::eval_projection_batch(&bound, &b)
                }))
            }))
        }

        PhysicalPlan::BroadcastHashJoin { .. } => Some(join::execute_broadcast_join(plan, id, ctx)),

        PhysicalPlan::HashAggregate {
            input,
            groupings,
            output_exprs,
        } => aggregate::execute_batch_aggregate(input, groupings, output_exprs, id, ctx),

        PhysicalPlan::Sort { input, orders } => sort::execute_batch_sort(input, orders, id, ctx),

        PhysicalPlan::TakeOrdered { input, orders, n } => {
            sort::execute_batch_take_ordered(input, orders, *n, id, ctx)
        }

        PhysicalPlan::Window {
            input,
            window_exprs,
            partition_by,
            order_by,
        } => window::execute_batch_window(input, window_exprs, partition_by, order_by, id, ctx),

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
    Ok(try_map(&rdd, move |b| vectorized::filter_batch(&bound, &b)))
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
                task_iter(relation.scan_partition(p, proj.as_deref(), &filters))
            });
            match residual {
                Some(r) => {
                    let pred = predicate(r, output)?;
                    Ok(try_flat_map(
                        &rdd,
                        move |row| Ok(pred(&row)?.then_some(row)),
                    ))
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
            Ok(try_map(&child, move |row| f(&row)))
        }

        PhysicalPlan::Filter {
            input,
            predicate: pred_expr,
        } => {
            let child = execute_node(input, id + 1, ctx)?;
            let pred = predicate(pred_expr, &input.output())?;
            Ok(try_flat_map(&child, move |row| {
                Ok(pred(&row)?.then_some(row))
            }))
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

        // The operator above an exchange lowers it, with its own records.
        PhysicalPlan::Exchange { .. } => Err(CatalystError::Internal(format!(
            "{} has no operator above it to lower it",
            plan.node_description()
        ))),

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
