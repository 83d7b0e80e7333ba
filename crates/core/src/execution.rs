//! Physical plan execution: lowers Catalyst physical operators onto the
//! engine's RDDs, so relational queries run on the same substrate —
//! stages, shuffles, broadcasts — as procedural Spark code.
//!
//! Expression evaluation honors `SqlConf::codegen_enabled`: on, operators
//! use compiled fused closures (§4.3.4); off, they fall back to the
//! tree-walking interpreter — which is exactly the Shark-baseline
//! configuration of the Figure 8 experiment.

use crate::aggregate::{self, AggCall};
use crate::conf::SqlConf;
use crate::rdd_table::RddTable;
use crate::spill::{self, SpillCtx};
use catalyst::adaptive::{rules as adaptive_rules, AdaptivePlanChange, AdaptiveRule};
use catalyst::codegen;
use catalyst::error::{CatalystError, Result};
use catalyst::expr::{
    AggFunc, ColumnRef, Expr, FrameBound, FrameUnits, SortOrder, WindowFrame, WindowFunc,
};
use catalyst::interpreter::{self, bind_references};
use catalyst::physical::metrics::{subtree_size, OperatorMetrics, PlanMetrics};
use catalyst::physical::{BuildSide, PhysicalPlan};
use catalyst::plan::JoinType;
use catalyst::row::Row;
use catalyst::source::RowIter;
use catalyst::types::DataType;
use catalyst::validation::PlanValidator;
use catalyst::value::Value;
use catalyst::vectorized::{self, RowBatch};
use engine::shuffle::SizeFn;
use engine::{
    HashPartitioner, MaterializedShuffle, MemoryPool, PairRdd, RangePartitioner, RddRef,
    ShuffleReadSpec, SparkContext,
};
use std::cmp::Ordering;
use std::time::Instant;

pub(crate) fn engine_err(e: engine::EngineError) -> CatalystError {
    CatalystError::Internal(format!("execution failed: {e}"))
}
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Arc, Mutex};

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
    /// Memory pool governing the buffering operators of this execution.
    /// Bounded when `spark.sql.memory.budgetBytes` is set (and spilling
    /// is not disabled); unbounded pools never deny and never spill.
    pub mem: Arc<MemoryPool>,
    /// Cooperative cancellation token. When set, every operator's
    /// partition iterator checks it at the partition boundary and every
    /// 256 rows (per batch on the vectorized path); a fired token unwinds
    /// the task with [`engine::CancelSignal`], releasing reservations and
    /// spill files on the way out.
    pub cancel: Option<engine::CancelToken>,
}

/// Build the execution's memory pool from session configuration.
fn pool_from_conf(conf: &SqlConf) -> Arc<MemoryPool> {
    match conf.effective_memory_budget() {
        Some(budget) => MemoryPool::bounded(budget, conf.spill_path()),
        None => MemoryPool::unbounded(),
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
type PredFn = Arc<dyn Fn(&Row) -> bool + Send + Sync>;

pub(crate) fn bind_all(exprs: &[Expr], input: &[ColumnRef]) -> Result<Vec<Expr>> {
    exprs
        .iter()
        .map(|e| bind_references(e.clone(), input))
        .collect()
}

/// Build a row→row projector, compiled or interpreted per config.
fn projector(exprs: &[Expr], input: &[ColumnRef], codegen_on: bool) -> Result<RowFn> {
    let bound = bind_all(exprs, input)?;
    if codegen_on {
        let compiled = codegen::compile_projection(&bound);
        Ok(Arc::new(move |row| {
            compiled(row).expect("projection failed")
        }))
    } else {
        Ok(Arc::new(move |row| {
            Row::new(
                bound
                    .iter()
                    .map(|e| interpreter::eval(e, row).expect("projection failed"))
                    .collect(),
            )
        }))
    }
}

/// Build a row predicate, compiled or interpreted per config.
fn predicate(expr: &Expr, input: &[ColumnRef], codegen_on: bool) -> Result<PredFn> {
    let bound = bind_references(expr.clone(), input)?;
    if codegen_on {
        Ok(codegen::compile_predicate(&bound))
    } else {
        Ok(Arc::new(move |row| {
            interpreter::eval_predicate(&bound, row).expect("predicate failed")
        }))
    }
}

pub(crate) type ValueFn = Arc<dyn Fn(&Row) -> Value + Send + Sync>;

/// Build a single-value evaluator, compiled or interpreted per config.
pub(crate) fn value_fn(bound: Expr, codegen_on: bool) -> ValueFn {
    if codegen_on {
        let dtype = bound.data_type().unwrap_or(DataType::String);
        let compiled = codegen::compile(&bound);
        Arc::new(move |row| compiled.eval_value(row, &dtype).expect("expression failed"))
    } else {
        Arc::new(move |row| interpreter::eval(&bound, row).expect("expression failed"))
    }
}

/// Sort key with per-column directions and a total order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SortKey {
    values: Vec<Value>,
    descending_mask: u64,
}

impl SortKey {
    fn new(values: Vec<Value>, orders: &[SortOrder]) -> Self {
        let mut mask = 0u64;
        for (i, o) in orders.iter().enumerate() {
            if !o.ascending {
                mask |= 1 << i;
            }
        }
        SortKey {
            values,
            descending_mask: mask,
        }
    }

    /// The key column values (for flattening into a spillable row).
    pub(crate) fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// How the key `bound` gives `row` compares with this one, evaluating
    /// it a column at a time and no further than the first difference:
    /// nothing is allocated to learn that a row does not make the top-N.
    fn cmp_key_of(&self, bound: &[Expr], row: &Row) -> Result<Ordering> {
        for (i, (e, mine)) in bound.iter().zip(&self.values).enumerate() {
            let mut o = interpreter::eval(e, row)?.total_cmp(mine);
            if self.descending_mask & (1 << i) != 0 {
                o = o.reverse();
            }
            if o != Ordering::Equal {
                return Ok(o);
            }
        }
        Ok(Ordering::Equal)
    }
}

impl PartialOrd for SortKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SortKey {
    fn cmp(&self, other: &Self) -> Ordering {
        for (i, (a, b)) in self.values.iter().zip(other.values.iter()).enumerate() {
            let mut o = a.total_cmp(b);
            if self.descending_mask & (1 << i) != 0 {
                o = o.reverse();
            }
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    }
}

/// Evaluate one row's ORDER BY key.
fn sort_key(bound: &[Expr], orders: &[SortOrder], row: &Row) -> Result<SortKey> {
    let values = bound
        .iter()
        .map(|e| interpreter::eval(e, row))
        .collect::<Result<Vec<Value>>>()?;
    Ok(SortKey::new(values, orders))
}

/// The first `n` rows of `rows` in key order, equal keys in arrival
/// order: what a stable sort of all of them followed by `truncate(n)`
/// returns, holding `n` rows instead of all. A max-heap keeps the `n`
/// best so far as `(key, arrival, row)` — arrivals are distinct, so that
/// order is the stable sort's — and a row whose key is not below the
/// worst of them is dropped without being stored.
fn top_n(
    rows: impl Iterator<Item = Row>,
    n: usize,
    bound: &[Expr],
    orders: &[SortOrder],
) -> Result<Vec<(SortKey, Row)>> {
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut best: BinaryHeap<(SortKey, usize, Row)> = BinaryHeap::new();
    for (arrival, row) in rows.enumerate() {
        if best.len() == n {
            let mut worst = best.peek_mut().expect("n > 0 rows are held");
            // Arrivals only grow, so an equal key never displaces one held.
            if worst.0.cmp_key_of(bound, &row)? == Ordering::Less {
                *worst = (sort_key(bound, orders, &row)?, arrival, row);
            }
        } else {
            best.push((sort_key(bound, orders, &row)?, arrival, row));
        }
    }
    let ranked = best.into_sorted_vec();
    Ok(ranked.into_iter().map(|(key, _, row)| (key, row)).collect())
}

/// Execute a physical plan into an RDD of rows.
pub fn execute(plan: &PhysicalPlan, ctx: &ExecContext) -> Result<RddRef<Row>> {
    execute_node(plan, 0, ctx)
}

/// Lower one node (pre-order id `id`), then — when instrumented — claim
/// the shuffles its lowering allocated and wrap its output with metering.
///
/// Children claim their shuffle ids before the parent inspects the
/// enclosing window, so each shuffle lands on the operator that induced
/// the exchange (sort, aggregate, shuffled join, distinct).
pub(crate) fn execute_node(
    plan: &PhysicalPlan,
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    if ctx.conf.vectorize_enabled {
        if let Some(batched) = try_execute_batched(plan, id, ctx) {
            // Batch→row adapter: compact selected lanes into rows only at
            // the boundary where a row operator (or the driver) consumes
            // them. The batch subtree already metered itself, so the
            // adapter is deliberately unmetered.
            return Ok(batched?.flat_map(RowBatch::into_selected_rows));
        }
    }
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
/// through Filter and Project only; everything else adapts at the
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

/// Lower a plan subtree as a batch stream for a batch-native consumer:
/// natively when it has a batch form, else its row lowering chunked
/// through the generic row→batch adapter.
pub(crate) fn execute_batches(
    plan: &PhysicalPlan,
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<RowBatch>> {
    if let Some(batched) = try_execute_batched(plan, id, ctx) {
        return batched;
    }
    let rows = execute_node(plan, id, ctx)?;
    let dtypes: Arc<Vec<DataType>> =
        Arc::new(plan.output().iter().map(|c| c.dtype.clone()).collect());
    let batch_size = ctx.conf.vectorize_batch_size.max(1);
    Ok(rows.map_partitions(move |it| {
        Box::new(IterChunks {
            inner: it,
            dtypes: dtypes.clone(),
            batch_size,
        })
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
                Some(r) => batch_filter(rdd, r, output, ctx),
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
            Some(child.and_then(|rdd| batch_filter(rdd, predicate, &input.output(), ctx)))
        }

        PhysicalPlan::Project { input, exprs } => {
            let child = try_execute_batched(input, id + 1, ctx)?;
            Some(child.and_then(|rdd| {
                let bound = bind_all(exprs, &input.output())?;
                let kernels = ctx.conf.codegen_enabled;
                Ok(rdd.map(move |b| {
                    vectorized::eval_projection_batch(&bound, &b, kernels)
                        .expect("projection failed")
                }))
            }))
        }

        _ => None,
    }
}

/// Partition iterator for the vectorized sort front end: chunks rows
/// into batches, evaluates the ORDER BY keys columnar
/// ([`vectorized::sort_keys_batch`]), and re-emits `(key, row)` pairs in
/// arrival order — the same stream shape the row path produces, so the
/// downstream in-memory or external sort is byte-identical.
struct BatchSortKeys {
    inner: engine::BoxIter<Row>,
    bound: Arc<Vec<Expr>>,
    orders: Arc<Vec<SortOrder>>,
    dtypes: Arc<Vec<DataType>>,
    batch_size: usize,
    kernels: bool,
    out: std::vec::IntoIter<(SortKey, Row)>,
}

impl Iterator for BatchSortKeys {
    type Item = (SortKey, Row);

    fn next(&mut self) -> Option<(SortKey, Row)> {
        loop {
            if let Some(pair) = self.out.next() {
                return Some(pair);
            }
            let mut buf = Vec::with_capacity(self.batch_size);
            while buf.len() < self.batch_size {
                match self.inner.next() {
                    Some(row) => buf.push(row),
                    None => break,
                }
            }
            if buf.is_empty() {
                return None;
            }
            let batch = RowBatch::from_rows(&self.dtypes, &buf);
            let keys = vectorized::sort_keys_batch(&self.bound, &batch, self.kernels)
                .expect("sort key failed");
            let orders = self.orders.clone();
            let pairs: Vec<(SortKey, Row)> = buf
                .into_iter()
                .enumerate()
                .map(|(i, row)| {
                    let values: Vec<Value> = keys.iter().map(|c| c.get(i)).collect();
                    (SortKey::new(values, &orders), row)
                })
                .collect();
            self.out = pairs.into_iter();
        }
    }
}

/// Apply a predicate batch-wise: refine each batch's selection vector.
fn batch_filter(
    rdd: RddRef<RowBatch>,
    predicate: &Expr,
    input: &[ColumnRef],
    ctx: &ExecContext,
) -> Result<RddRef<RowBatch>> {
    let bound = bind_references(predicate.clone(), input)?;
    let kernels = ctx.conf.codegen_enabled;
    Ok(rdd.map(move |b| vectorized::filter_batch(&bound, &b, kernels).expect("predicate failed")))
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
                    let pred = predicate(r, output, ctx.conf.codegen_enabled)?;
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
            let f = projector(exprs, &input.output(), ctx.conf.codegen_enabled)?;
            Ok(child.map(move |row| f(&row)))
        }

        PhysicalPlan::Filter {
            input,
            predicate: pred_expr,
        } => {
            let child = execute_node(input, id + 1, ctx)?;
            let pred = predicate(pred_expr, &input.output(), ctx.conf.codegen_enabled)?;
            Ok(child.filter(move |row| pred(row)))
        }

        PhysicalPlan::HashAggregate {
            input,
            groupings,
            output_exprs,
        } => aggregate::execute_aggregate(input, groupings, output_exprs, id, ctx),

        PhysicalPlan::Sort { input, orders } => {
            let child = execute_node(input, id + 1, ctx)?;
            let bound = bind_all(
                &orders.iter().map(|o| o.expr.clone()).collect::<Vec<_>>(),
                &input.output(),
            )?;
            let key_dtypes: Vec<DataType> = bound
                .iter()
                .map(|e| e.data_type().unwrap_or(DataType::String))
                .collect();
            let orders_meta = orders.clone();
            let keyed = if ctx.conf.vectorize_enabled {
                // Vectorized key extraction: chunk the partition into
                // batches and evaluate the ORDER BY expressions columnar.
                // The (key, row) pairs come out in arrival order, so the
                // downstream sort — in-memory or external — consumes a
                // byte-identical stream to the row path's.
                let bound = Arc::new(bound);
                let orders_meta = Arc::new(orders_meta);
                let dtypes: Arc<Vec<DataType>> =
                    Arc::new(input.output().iter().map(|c| c.dtype.clone()).collect());
                let batch_size = ctx.conf.vectorize_batch_size.max(1);
                let kernels = ctx.conf.codegen_enabled;
                child.map_partitions(move |it| {
                    Box::new(BatchSortKeys {
                        inner: it,
                        bound: bound.clone(),
                        orders: orders_meta.clone(),
                        dtypes: dtypes.clone(),
                        batch_size,
                        kernels,
                        out: Vec::new().into_iter(),
                    })
                })
            } else {
                // An RDD closure has no error channel but its task: the
                // scheduler hands the failure to the caller as an error.
                child.map(move |row| match sort_key(&bound, &orders_meta, &row) {
                    Ok(key) => (key, row),
                    Err(e) => panic!("sort key failed: {e}"),
                })
            };
            if ctx.mem.is_bounded() {
                let row_dtypes = input.output().iter().map(|c| c.dtype.clone()).collect();
                return execute_external_sort(keyed, orders, key_dtypes, row_dtypes, id, ctx);
            }
            use engine::pair::SortedPairRdd;
            Ok(keyed
                .try_sort_by_key(true, ctx.conf.shuffle_partitions)
                .map_err(engine_err)?
                .values())
        }

        PhysicalPlan::Window {
            input,
            window_exprs,
            partition_by,
            order_by,
        } => execute_window(input, window_exprs, partition_by, order_by, id, ctx),

        PhysicalPlan::TakeOrdered { input, orders, n } => {
            let child = execute_node(input, id + 1, ctx)?;
            let eager_start = Instant::now();
            let bound = bind_all(
                &orders.iter().map(|o| o.expr.clone()).collect::<Vec<_>>(),
                &input.output(),
            )?;
            let orders_meta = orders.clone();
            let n = *n;
            // Per-partition top-k, then a driver-side merge.
            let tops = child
                .run_job(move |_, it| top_n(it, n, &bound, &orders_meta))
                .map_err(engine_err)?
                .into_iter()
                .collect::<Result<Vec<_>>>()?;
            let mut all: Vec<(SortKey, Row)> = tops.into_iter().flatten().collect();
            all.sort_by(|a, b| a.0.cmp(&b.0));
            all.truncate(n);
            note_eager_ns(ctx, id, eager_start);
            Ok(ctx
                .sc
                .parallelize(all.into_iter().map(|(_, r)| r).collect(), 1))
        }

        PhysicalPlan::Limit { input, n } => {
            let child = execute_node(input, id + 1, ctx)?;
            let n = *n;
            let local = child.map_partitions(move |it| Box::new(it.take(n)));
            let single = local.coalesce(1);
            Ok(single.map_partitions(move |it| Box::new(it.take(n))))
        }

        PhysicalPlan::BroadcastHashJoin {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
            build_side,
            residual,
        } => execute_broadcast_join(
            &JoinSite {
                left,
                right,
                left_keys,
                right_keys,
                join_type: *join_type,
                residual,
                join_plan: plan,
                id,
            },
            *build_side,
            ctx,
        ),

        PhysicalPlan::ShuffledHashJoin {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
            build_side,
            residual,
        } => {
            let site = JoinSite {
                left,
                right,
                left_keys,
                right_keys,
                join_type: *join_type,
                residual,
                join_plan: plan,
                id,
            };
            if ctx.conf.adaptive_enabled {
                execute_adaptive_shuffled_join(&site, *build_side, ctx)
            } else {
                execute_shuffled_join(&site, *build_side, ctx)
            }
        }

        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            condition,
            join_type,
        } => execute_nested_loop_join(left, right, condition, *join_type, plan, id, ctx),

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

/// Memory-governed sort lowering: the same sampled range partitioning as
/// the engine's `sort_by_key`, but each output partition sorts through
/// [`spill::external_sort`] — buffered rows spill as sorted runs when the
/// pool denies growth, and runs k-way merge back in key order. The merge
/// breaks ties by run index, so output is row-for-row identical to the
/// in-memory stable sort.
fn execute_external_sort(
    keyed: RddRef<(SortKey, Row)>,
    orders: &[SortOrder],
    key_dtypes: Vec<DataType>,
    row_dtypes: Vec<DataType>,
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let num_partitions = ctx.conf.shuffle_partitions.max(1);
    // Range boundaries from a key sample — the same fraction and seed as
    // the engine's sort, so partition boundaries match exactly.
    let total = (num_partitions * 20).max(20);
    let keys = keyed.keys();
    // Driver-side jobs: propagate failures (including cancellation)
    // instead of panicking the calling thread.
    let approx: u64 = keys
        .run_job(|_, it| it.count() as u64)
        .map_err(engine_err)?
        .into_iter()
        .sum();
    if approx == 0 {
        return Ok(keyed.values());
    }
    let fraction = (total as f64 / approx as f64).min(1.0);
    let sample: Vec<SortKey> = keys
        .sample(fraction, 0xC0FFEE)
        .try_collect()
        .map_err(engine_err)?;
    let bounds = RangePartitioner::bounds_from_sample(sample, num_partitions);
    let partitioned = keyed.partition_by(Arc::new(RangePartitioner::new(bounds, true)));

    let nk = key_dtypes.len();
    let mut dtypes = key_dtypes;
    dtypes.extend(row_dtypes);
    let codec = columnar::SpillCodec::new(dtypes);
    let mut descending_mask = 0u64;
    for (i, o) in orders.iter().enumerate() {
        if !o.ascending {
            descending_mask |= 1 << i;
        }
    }
    let cmp: spill::RowCmp = Arc::new(move |a: &Row, b: &Row| {
        for i in 0..nk {
            let mut o = a.get(i).total_cmp(b.get(i));
            if descending_mask & (1 << i) != 0 {
                o = o.reverse();
            }
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    });
    let sctx = ctx.spill_ctx(id);
    Ok(partitioned.map_partitions(move |it| {
        let flat = it.map(|(k, row)| {
            let mut values = k.into_values();
            values.extend(row.into_values());
            Row::new(values)
        });
        let sorted = spill::external_sort(Box::new(flat), &codec, cmp.clone(), &sctx);
        Box::new(sorted.map(move |r| {
            let mut values = r.into_values();
            Row::new(values.split_off(nk))
        }))
    }))
}

// ---- window-function execution ----

/// One executable window call, planned from an aliased
/// [`Expr::WindowFunction`].
enum WindowCall {
    /// `row_number()`.
    RowNumber,
    /// `rank()`.
    Rank,
    /// `dense_rank()`.
    DenseRank,
    /// `lag`/`lead`: the argument evaluated at a fixed row offset within
    /// the partition, the default value outside it.
    Shift {
        /// Bound argument evaluator.
        arg: ValueFn,
        /// Constant offset (rows).
        offset: i64,
        /// Value when the shifted position falls outside the partition.
        default: Value,
        /// `lead` looks ahead; `lag` looks back.
        lead: bool,
    },
    /// An aggregate evaluated per row over its window frame.
    Agg {
        /// The aggregate call.
        call: AggCall,
        /// Frame bounds.
        frame: WindowFrame,
    },
}

/// Fold a constant (column-free) expression to its value.
fn fold_const(e: &Expr) -> Option<Value> {
    if !e.foldable() {
        return None;
    }
    interpreter::eval(e, &Row::empty()).ok()
}

/// Plan one window output expression into an executable [`WindowCall`].
fn plan_window_call(expr: &Expr, input: &[ColumnRef], codegen_on: bool) -> Result<WindowCall> {
    let mut e = expr;
    while let Expr::Alias { child, .. } = e {
        e = child;
    }
    let Expr::WindowFunction {
        func, args, frame, ..
    } = e
    else {
        return Err(CatalystError::Internal(format!(
            "window expression '{expr}' is not a window-function call"
        )));
    };
    if frame.units == FrameUnits::Range {
        let supported = matches!(
            frame.start,
            FrameBound::UnboundedPreceding | FrameBound::CurrentRow
        ) && matches!(
            frame.end,
            FrameBound::UnboundedFollowing | FrameBound::CurrentRow
        );
        if !supported {
            return Err(CatalystError::Internal(
                "RANGE frames support only UNBOUNDED and CURRENT ROW bounds".into(),
            ));
        }
    }
    match func {
        WindowFunc::RowNumber => Ok(WindowCall::RowNumber),
        WindowFunc::Rank => Ok(WindowCall::Rank),
        WindowFunc::DenseRank => Ok(WindowCall::DenseRank),
        WindowFunc::Lag | WindowFunc::Lead => {
            let arg0 = args.first().ok_or_else(|| {
                CatalystError::Internal(format!("{}() requires an argument", func.name()))
            })?;
            let bound = bind_references(arg0.clone(), input)?;
            let offset = match args.get(1) {
                None => 1,
                Some(o) => fold_const(o).and_then(|v| v.as_i64()).ok_or_else(|| {
                    CatalystError::Internal(format!(
                        "{}() offset must be a constant integer",
                        func.name()
                    ))
                })?,
            };
            let default = match args.get(2) {
                None => Value::Null,
                Some(d) => fold_const(d).ok_or_else(|| {
                    CatalystError::Internal(format!("{}() default must be a constant", func.name()))
                })?,
            };
            Ok(WindowCall::Shift {
                arg: value_fn(bound, codegen_on),
                offset,
                default,
                lead: *func == WindowFunc::Lead,
            })
        }
        WindowFunc::Agg(f) => {
            let arg = args.first().filter(|a| !matches!(a, Expr::Wildcard { .. }));
            if arg.is_none() && *f != AggFunc::Count {
                return Err(CatalystError::Internal(format!(
                    "{}() requires an argument",
                    f.name()
                )));
            }
            Ok(WindowCall::Agg {
                call: AggCall::plan(*f, false, arg, input, codegen_on)?,
                frame: *frame,
            })
        }
    }
}

/// Inclusive frame start for row `i`, or `None` when the frame is empty.
fn frame_lo(frame: &WindowFrame, i: usize, n: usize, peer_start: &[usize]) -> Option<usize> {
    let lo = match (frame.units, frame.start) {
        (_, FrameBound::UnboundedPreceding) => 0,
        (FrameUnits::Rows, FrameBound::Preceding(p)) => i.saturating_sub(p as usize),
        (FrameUnits::Rows, FrameBound::CurrentRow) => i,
        (FrameUnits::Rows, FrameBound::Following(f)) => i + f as usize,
        (FrameUnits::Rows, FrameBound::UnboundedFollowing) => n,
        (FrameUnits::Range, _) => peer_start[i],
    };
    (lo < n).then_some(lo)
}

/// Inclusive frame end for row `i`, or `None` when the frame is empty.
fn frame_hi(frame: &WindowFrame, i: usize, n: usize, peer_end: &[usize]) -> Option<usize> {
    let hi = match (frame.units, frame.end) {
        (_, FrameBound::UnboundedFollowing) => n - 1,
        (FrameUnits::Rows, FrameBound::Following(f)) => (i + f as usize).min(n - 1),
        (FrameUnits::Rows, FrameBound::CurrentRow) => i,
        (FrameUnits::Rows, FrameBound::Preceding(p)) => i.checked_sub(p as usize)?,
        (FrameUnits::Rows, FrameBound::UnboundedPreceding) => return None,
        (FrameUnits::Range, _) => peer_end[i],
    };
    Some(hi)
}

/// Evaluate one window call over a full partition, producing one value
/// per row. `frames` counts evaluated aggregate frames (the `frames=`
/// metric).
fn eval_window_call(
    call: &WindowCall,
    inputs: &[Row],
    peer_start: &[usize],
    peer_end: &[usize],
    frames: &mut u64,
) -> Vec<Value> {
    let n = inputs.len();
    match call {
        WindowCall::RowNumber => (1..=n as i64).map(Value::Long).collect(),
        WindowCall::Rank => (0..n)
            .map(|i| Value::Long(peer_start[i] as i64 + 1))
            .collect(),
        WindowCall::DenseRank => {
            let mut dense = 0i64;
            (0..n)
                .map(|i| {
                    if i == peer_start[i] {
                        dense += 1;
                    }
                    Value::Long(dense)
                })
                .collect()
        }
        WindowCall::Shift {
            arg,
            offset,
            default,
            lead,
        } => (0..n)
            .map(|i| {
                let j = if *lead {
                    i as i64 + offset
                } else {
                    i as i64 - offset
                };
                if (0..n as i64).contains(&j) {
                    arg(&inputs[j as usize])
                } else {
                    default.clone()
                }
            })
            .collect(),
        WindowCall::Agg { call, frame } => {
            if frame.is_whole_partition() {
                let mut acc = call.init();
                for row in inputs {
                    call.update(&mut acc, row);
                }
                *frames += 1;
                vec![acc.finish(); n]
            } else if frame.start == FrameBound::UnboundedPreceding {
                // Growing frame: the end bound is nondecreasing in `i`,
                // so one running accumulator serves every row.
                let mut acc = call.init();
                let mut consumed = 0usize;
                (0..n)
                    .map(|i| {
                        let target = frame_hi(frame, i, n, peer_end).map_or(0, |h| h + 1);
                        while consumed < target {
                            call.update(&mut acc, &inputs[consumed]);
                            consumed += 1;
                        }
                        *frames += 1;
                        if target == 0 {
                            call.init().finish()
                        } else {
                            acc.clone().finish()
                        }
                    })
                    .collect()
            } else {
                // Sliding frame: recompute over the bounded window.
                (0..n)
                    .map(|i| {
                        let mut acc = call.init();
                        if let (Some(lo), Some(hi)) = (
                            frame_lo(frame, i, n, peer_start),
                            frame_hi(frame, i, n, peer_end),
                        ) {
                            if lo <= hi {
                                for row in &inputs[lo..=hi] {
                                    call.update(&mut acc, row);
                                }
                            }
                        }
                        *frames += 1;
                        acc.finish()
                    })
                    .collect()
            }
        }
    }
}

/// Evaluate all window calls for one window partition of combined
/// `(pkeys ++ okeys ++ input)` rows, already frame-ordered. Emits the
/// input rows extended with one column per call.
fn eval_window_partition(
    group: Vec<Row>,
    np: usize,
    no: usize,
    calls: &[WindowCall],
    frames: &mut u64,
) -> Vec<Row> {
    let n = group.len();
    let mut oks: Vec<Vec<Value>> = Vec::with_capacity(n);
    let mut inputs: Vec<Row> = Vec::with_capacity(n);
    for r in group {
        let mut values = r.into_values();
        let mut rest = values.split_off(np);
        let row_values = rest.split_off(no);
        oks.push(rest);
        inputs.push(Row::new(row_values));
    }
    // Peer groups: maximal runs of equal ORDER BY keys.
    let mut peer_start = vec![0usize; n];
    let mut peer_end = vec![0usize; n];
    for i in 1..n {
        peer_start[i] = if oks[i] == oks[i - 1] {
            peer_start[i - 1]
        } else {
            i
        };
    }
    if n > 0 {
        peer_end[n - 1] = n - 1;
        for i in (0..n - 1).rev() {
            peer_end[i] = if oks[i] == oks[i + 1] {
                peer_end[i + 1]
            } else {
                i
            };
        }
    }
    let cols: Vec<Vec<Value>> = calls
        .iter()
        .map(|c| eval_window_call(c, &inputs, &peer_start, &peer_end, frames))
        .collect();
    inputs
        .into_iter()
        .enumerate()
        .map(|(i, row)| {
            let mut values = row.into_values();
            for col in &cols {
                values.push(col[i].clone());
            }
            Row::new(values)
        })
        .collect()
}

/// Streams one sorted engine partition, buffering one window partition
/// (rows sharing the partition key) at a time and emitting its rows
/// extended with the window columns.
struct WindowPartitionIter {
    /// Rows sorted by (partition keys, order keys).
    sorted: engine::BoxIter<Row>,
    /// First row of the next window partition, read past the boundary.
    pending: Option<Row>,
    /// Partition-key column count (combined-row prefix).
    np: usize,
    /// Order-key column count (after the partition keys).
    no: usize,
    /// Planned window calls.
    calls: Arc<Vec<WindowCall>>,
    /// Output rows of the current window partition.
    out: std::vec::IntoIter<Row>,
    /// Aggregate frames evaluated so far (`frames=` metric).
    frames: u64,
    /// Metric slot to flush `frames` into on drop.
    node: Option<Arc<OperatorMetrics>>,
}

impl Iterator for WindowPartitionIter {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        loop {
            if let Some(row) = self.out.next() {
                return Some(row);
            }
            let first = self.pending.take().or_else(|| self.sorted.next())?;
            let mut group = vec![first];
            for row in self.sorted.by_ref() {
                if row.values()[..self.np] == group[0].values()[..self.np] {
                    group.push(row);
                } else {
                    self.pending = Some(row);
                    break;
                }
            }
            self.out =
                eval_window_partition(group, self.np, self.no, &self.calls, &mut self.frames)
                    .into_iter();
        }
    }
}

impl Drop for WindowPartitionIter {
    fn drop(&mut self) {
        if let Some(node) = &self.node {
            node.add_extra("frames", self.frames);
        }
    }
}

/// Lower a `Window` operator: shuffle rows so each window partition is
/// co-located, sort every engine partition by (partition keys, order
/// keys) — vectorized index-sort in memory, [`spill::external_sort`]
/// under a bounded pool — then walk each window partition evaluating
/// ranking, offset, and framed-aggregate calls.
fn execute_window(
    input: &Arc<PhysicalPlan>,
    window_exprs: &[Expr],
    partition_by: &[Expr],
    order_by: &[SortOrder],
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let input_attrs = input.output();
    let child = execute_node(input, id + 1, ctx)?;
    let calls: Arc<Vec<WindowCall>> = Arc::new(
        window_exprs
            .iter()
            .map(|e| plan_window_call(e, &input_attrs, ctx.conf.codegen_enabled))
            .collect::<Result<Vec<_>>>()?,
    );

    let np = partition_by.len();
    let no = order_by.len();
    let nk = np + no;
    let okey_exprs: Vec<Expr> = order_by.iter().map(|o| o.expr.clone()).collect();
    let key_fns: Vec<ValueFn> = bind_all(partition_by, &input_attrs)?
        .into_iter()
        .chain(bind_all(&okey_exprs, &input_attrs)?)
        .map(|e| value_fn(e, ctx.conf.codegen_enabled))
        .collect();

    // Combined rows: (pkeys ++ okeys ++ input); keys evaluated once.
    let combined = child.map(move |row| {
        let mut values: Vec<Value> = Vec::with_capacity(nk + row.len());
        for f in &key_fns {
            values.push(f(&row));
        }
        values.extend(row.into_values());
        Row::new(values)
    });

    // Co-locate each window partition: hash shuffle on the partition
    // key, or a single engine partition when there is none.
    let partitioned: RddRef<Row> = if np == 0 {
        combined.coalesce(1)
    } else {
        combined
            .map(move |c| {
                let key = Row::new(c.values()[..np].to_vec());
                (key, c)
            })
            .partition_by(Arc::new(HashPartitioner::new(
                ctx.conf.shuffle_partitions.max(1),
            )))
            .values()
    };

    let mut descending_mask = 0u64;
    for (i, o) in order_by.iter().enumerate() {
        if !o.ascending {
            descending_mask |= 1 << (np + i);
        }
    }
    let cmp: spill::RowCmp = Arc::new(move |a: &Row, b: &Row| {
        for i in 0..nk {
            let mut o = a.get(i).total_cmp(b.get(i));
            if descending_mask & (1 << i) != 0 {
                o = o.reverse();
            }
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    });
    let mut dtypes: Vec<DataType> = partition_by
        .iter()
        .chain(okey_exprs.iter())
        .map(|e| e.data_type().unwrap_or(DataType::String))
        .collect();
    dtypes.extend(input_attrs.iter().map(|c| c.dtype.clone()));
    let codec = columnar::SpillCodec::new(dtypes.clone());
    let dtypes = Arc::new(dtypes);
    let bounded = ctx.mem.is_bounded();
    let vectorize = ctx.conf.vectorize_enabled;
    let sctx = ctx.spill_ctx(id);
    let node = ctx.metrics.as_ref().map(|pm| pm.node(id));

    Ok(partitioned.map_partitions(move |it| {
        let sorted: engine::BoxIter<Row> = if bounded {
            spill::external_sort(it, &codec, cmp.clone(), &sctx)
        } else if vectorize {
            // In-memory path: vectorized index sort + gather. Stable
            // under the same comparator as the external sort, so both
            // produce the identical permutation.
            let rows: Vec<Row> = it.collect();
            let batch = RowBatch::from_rows(&dtypes, &rows);
            let keys: Vec<(Arc<vectorized::ColumnVector>, bool)> = (0..nk)
                .map(|i| (batch.column(i).clone(), descending_mask & (1 << i) != 0))
                .collect();
            let idx = vectorized::sorted_indices(&batch, &keys);
            Box::new(idx.into_iter().map(move |i| rows[i as usize].clone()))
        } else {
            // Row path: plain stable sort with the same comparator.
            let mut rows: Vec<Row> = it.collect();
            let cmp = cmp.clone();
            rows.sort_by(move |a, b| cmp(a, b));
            Box::new(rows.into_iter())
        };
        Box::new(WindowPartitionIter {
            sorted,
            pending: None,
            np,
            no,
            calls: calls.clone(),
            out: Vec::new().into_iter(),
            frames: 0,
            node: node.clone(),
        })
    }))
}

/// Null-safe key evaluation: returns None when any key is NULL (SQL
/// equi-join semantics: NULL joins nothing).
fn join_key(fns: &[ValueFn], row: &Row) -> Option<Row> {
    let mut values = Vec::with_capacity(fns.len());
    for f in fns {
        let v = f(row);
        if v.is_null() {
            return None;
        }
        values.push(v);
    }
    Some(Row::new(values))
}

/// Compile join-key expressions to value evaluators.
fn key_value_fns(exprs: &[Expr], input: &[ColumnRef], codegen_on: bool) -> Result<Vec<ValueFn>> {
    bind_all(exprs, input).map(|bound| bound.into_iter().map(|e| value_fn(e, codegen_on)).collect())
}

fn null_row(width: usize) -> Row {
    Row::new(vec![Value::Null; width])
}

/// One equi-join node's lowering site: child subtrees, key expressions,
/// join shape, and the node's plan position, bundled so each join
/// strategy's lowering function takes the site as a unit.
#[derive(Clone, Copy)]
struct JoinSite<'a> {
    left: &'a Arc<PhysicalPlan>,
    right: &'a Arc<PhysicalPlan>,
    left_keys: &'a [Expr],
    right_keys: &'a [Expr],
    join_type: JoinType,
    residual: &'a Option<Expr>,
    /// The join node itself — residual predicates bind against its output.
    join_plan: &'a PhysicalPlan,
    /// Pre-order id of the join node, for metric attribution.
    id: usize,
}

fn execute_broadcast_join(
    site: &JoinSite,
    build_side: BuildSide,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let JoinSite {
        left,
        right,
        left_keys,
        right_keys,
        join_type,
        residual,
        join_plan,
        id,
    } = *site;
    let left_attrs = left.output();
    let right_attrs = right.output();
    let bound_left_keys = key_value_fns(left_keys, &left_attrs, ctx.conf.codegen_enabled)?;
    let bound_right_keys = key_value_fns(right_keys, &right_attrs, ctx.conf.codegen_enabled)?;
    let residual_pred: Option<PredFn> = match residual {
        Some(r) => Some(predicate(r, &join_plan.output(), ctx.conf.codegen_enabled)?),
        None => None,
    };

    let left_id = id + 1;
    let right_id = left_id + subtree_size(left);
    let (build_plan, build_keys, build_id, stream_plan, stream_keys, stream_id, build_is_left) =
        match build_side {
            BuildSide::Right => (
                right,
                bound_right_keys,
                right_id,
                left,
                bound_left_keys,
                left_id,
                false,
            ),
            BuildSide::Left => (
                left,
                bound_left_keys,
                left_id,
                right,
                bound_right_keys,
                right_id,
                true,
            ),
        };
    let build_width = build_plan.output().len();

    // Build and broadcast the hash table (a separate job, like Spark's
    // broadcast exchange).
    let build_rdd = execute_node(build_plan, build_id, ctx)?;
    let eager_start = Instant::now();
    let build_rows = build_rdd.try_collect().map_err(engine_err)?;
    let pairs = build_rows
        .into_iter()
        .map(|row| (join_key(&build_keys, &row), row))
        .collect();
    let table = broadcast_build_table(pairs, id, ctx);
    note_eager_ns(ctx, id, eager_start);

    // Stream-side probe. The stream side is the outer-preserved side (the
    // planner guarantees this).
    let stream = execute_node(stream_plan, stream_id, ctx)?;
    Ok(broadcast_probe(
        stream,
        table,
        stream_keys,
        residual_pred,
        join_type,
        build_is_left,
        build_width,
    ))
}

/// Build, broadcast, and meter a join hash table from keyed build rows
/// (NULL keys join nothing and are dropped).
fn broadcast_build_table(
    pairs: Vec<(Option<Row>, Row)>,
    id: usize,
    ctx: &ExecContext,
) -> Arc<HashMap<Row, Vec<Row>>> {
    let mut table: HashMap<Row, Vec<Row>> = HashMap::new();
    let mut bytes = 0u64;
    let mut build_count = 0u64;
    for (k, row) in pairs {
        if let Some(k) = k {
            bytes += row.approx_bytes();
            build_count += 1;
            table.entry(k).or_default().push(row);
        }
    }
    let broadcast = ctx.sc.broadcast(table, bytes as usize);
    let table = broadcast.value_arc();
    if let Some(pm) = &ctx.metrics {
        let node = pm.node(id);
        node.add_extra("build_rows", build_count);
        node.add_extra("build_bytes", bytes);
    }
    table
}

/// Probe a broadcast hash table with the stream side.
fn broadcast_probe(
    stream: RddRef<Row>,
    table: Arc<HashMap<Row, Vec<Row>>>,
    stream_keys: Vec<ValueFn>,
    residual_pred: Option<PredFn>,
    join_type: JoinType,
    build_is_left: bool,
    build_width: usize,
) -> RddRef<Row> {
    let preserve_unmatched = matches!(
        (join_type, build_is_left),
        (JoinType::Left, false) | (JoinType::Right, true)
    );
    stream.flat_map(move |srow| {
        let mut out = Vec::new();
        let key = join_key(&stream_keys, &srow);
        if let Some(key) = key {
            if let Some(matches) = table.get(&key) {
                for brow in matches {
                    let joined = if build_is_left {
                        brow.concat(&srow)
                    } else {
                        srow.concat(brow)
                    };
                    if residual_pred.as_ref().is_none_or(|p| p(&joined)) {
                        out.push(joined);
                    }
                }
            }
        }
        if out.is_empty() && preserve_unmatched {
            let nulls = null_row(build_width);
            out.push(if build_is_left {
                nulls.concat(&srow)
            } else {
                srow.concat(&nulls)
            });
        }
        out
    })
}

fn execute_shuffled_join(
    site: &JoinSite,
    build_side: BuildSide,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let JoinSite {
        left,
        right,
        left_keys,
        right_keys,
        join_type,
        residual,
        join_plan,
        id,
    } = *site;
    let left_attrs = left.output();
    let right_attrs = right.output();
    let bound_left_keys = key_value_fns(left_keys, &left_attrs, ctx.conf.codegen_enabled)?;
    let bound_right_keys = key_value_fns(right_keys, &right_attrs, ctx.conf.codegen_enabled)?;
    let residual_pred: Option<PredFn> = match residual {
        Some(r) => Some(predicate(r, &join_plan.output(), ctx.conf.codegen_enabled)?),
        None => None,
    };
    let left_width = left_attrs.len();
    let right_width = right_attrs.len();

    let left_id = id + 1;
    let right_id = left_id + subtree_size(left);
    let partitions = ctx.conf.shuffle_partitions;
    // Key both sides; NULL keys keep a sentinel so outer rows survive the
    // shuffle (they can never match — Option<Row> keys, None = NULL).
    let lkeyed = execute_node(left, left_id, ctx)?
        .map(move |row| (join_key(&bound_left_keys, &row), row))
        .partition_by(Arc::new(HashPartitioner::new(partitions)));
    let rkeyed = execute_node(right, right_id, ctx)?
        .map(move |row| (join_key(&bound_right_keys, &row), row))
        .partition_by(Arc::new(HashPartitioner::new(partitions)));

    if ctx.mem.is_bounded() {
        let (llayout, rlayout) =
            join_spill_layouts(left_keys, right_keys, &left_attrs, &right_attrs);
        let sctx = ctx.spill_ctx(id);
        let spec = spill::GraceJoinSpec {
            join_type,
            residual_pred,
            left_layout: llayout,
            right_layout: rlayout,
            left_width,
            right_width,
        };
        return Ok(lkeyed.zip_partitions(&rkeyed, move |lit, rit| {
            Box::new(spill::grace_hash_join_partition(lit, rit, &spec, &sctx, 0).into_iter())
        }));
    }

    Ok(lkeyed.zip_partitions(&rkeyed, move |lit, rit| {
        Box::new(
            hash_join_partition(
                lit,
                rit,
                join_type,
                build_side,
                &residual_pred,
                left_width,
                right_width,
            )
            .into_iter(),
        )
    }))
}

/// Spill layouts (key + output column types) for both sides of an
/// equi-join, used by the grace hash join's disk re-partitioning.
fn join_spill_layouts(
    left_keys: &[Expr],
    right_keys: &[Expr],
    left_attrs: &[ColumnRef],
    right_attrs: &[ColumnRef],
) -> (spill::SideLayout, spill::SideLayout) {
    let dtypes_of = |keys: &[Expr], attrs: &[ColumnRef]| {
        (
            keys.iter()
                .map(|e| e.data_type().unwrap_or(DataType::String))
                .collect::<Vec<_>>(),
            attrs.iter().map(|c| c.dtype.clone()).collect::<Vec<_>>(),
        )
    };
    let (lk, lr) = dtypes_of(left_keys, left_attrs);
    let (rk, rr) = dtypes_of(right_keys, right_attrs);
    (
        spill::SideLayout::new(lk, lr),
        spill::SideLayout::new(rk, rr),
    )
}

/// Hash-join one co-partitioned pair of keyed row streams: build a table
/// from `build_side`, probe with the other, emit unmatched rows per
/// `join_type`. Both streams hold the same key range, so either side is a
/// legal build side for every join type — unmatched-row emission depends
/// only on `join_type`, never on which side was built. The cost model
/// picks the smaller side; joined rows are always `left ++ right`.
fn hash_join_partition(
    lit: engine::BoxIter<(Option<Row>, Row)>,
    rit: engine::BoxIter<(Option<Row>, Row)>,
    join_type: JoinType,
    build_side: BuildSide,
    residual_pred: &Option<PredFn>,
    left_width: usize,
    right_width: usize,
) -> Vec<Row> {
    let build_left = build_side == BuildSide::Left;
    let (bit, pit) = if build_left { (lit, rit) } else { (rit, lit) };
    // Build rows with NULL keys can never match; they only matter when the
    // build side is outer-preserved.
    let mut table: HashMap<Row, Vec<(Row, bool)>> = HashMap::new();
    let mut null_key_build: Vec<Row> = Vec::new();
    for (k, row) in bit {
        match k {
            Some(k) => table.entry(k).or_default().push((row, false)),
            None => null_key_build.push(row),
        }
    }
    let probe_preserved = matches!(
        (join_type, build_left),
        (JoinType::Left | JoinType::Full, false) | (JoinType::Right | JoinType::Full, true)
    );
    let build_preserved = matches!(
        (join_type, build_left),
        (JoinType::Left | JoinType::Full, true) | (JoinType::Right | JoinType::Full, false)
    );
    let mut out: Vec<Row> = Vec::new();
    for (k, prow) in pit {
        let mut matched = false;
        if let Some(k) = &k {
            if let Some(entries) = table.get_mut(k) {
                for (brow, bmatched) in entries.iter_mut() {
                    let joined = if build_left {
                        brow.concat(&prow)
                    } else {
                        prow.concat(brow)
                    };
                    if residual_pred.as_ref().is_none_or(|p| p(&joined)) {
                        *bmatched = true;
                        matched = true;
                        out.push(joined);
                    }
                }
            }
        }
        if !matched && probe_preserved {
            out.push(if build_left {
                null_row(left_width).concat(&prow)
            } else {
                prow.concat(&null_row(right_width))
            });
        }
    }
    if build_preserved {
        let pad = |brow: &Row| {
            if build_left {
                brow.concat(&null_row(right_width))
            } else {
                null_row(left_width).concat(brow)
            }
        };
        for entries in table.values() {
            for (brow, matched) in entries {
                if !matched {
                    out.push(pad(brow));
                }
            }
        }
        for brow in &null_key_build {
            out.push(pad(brow));
        }
    }
    out
}

// ---- adaptive (stage-by-stage) execution ----

/// Byte estimator for a shuffled `(key, row)` pair.
fn pair_size_fn() -> SizeFn<Option<Row>, Row> {
    Arc::new(|k: &Option<Row>, v: &Row| {
        v.approx_bytes() + k.as_ref().map_or(8, |r| r.approx_bytes())
    })
}

/// Materialize one join side's shuffle map stage: key the lowered child,
/// hash-partition it, run the map tasks, measure the output.
fn materialize_join_side(
    child: &RddRef<Row>,
    keys: &[ValueFn],
    partitions: usize,
) -> Result<MaterializedShuffle<Option<Row>, Row, Row>> {
    let keys = keys.to_vec();
    let keyed = child.map(move |row| (join_key(&keys, &row), row));
    MaterializedShuffle::create(
        &keyed,
        Arc::new(HashPartitioner::new(partitions)),
        None,
        false,
        Some(pair_size_fn()),
    )
    .map_err(engine_err)
}

/// Stage-by-stage shuffled join (the adaptive tentpole): materialize the
/// candidate build side's shuffle first, and decide the rest of the plan
/// from its *measured* size.
///
/// 1. **Dynamic demotion** — when a legal build side's measured bytes land
///    at or under `broadcast_threshold`, re-plan as a broadcast join (the
///    other side is then never shuffled at all). The candidate plan must
///    pass [`PlanValidator`]; a rejected rewrite falls back to the
///    shuffled plan instead of failing the query.
/// 2. **Partition coalescing** — otherwise both sides materialize and
///    small neighboring reduce partitions merge up to
///    `adaptive_target_partition_bytes` per task.
/// 3. **Skew splitting** — an un-coalesced reduce partition exceeding
///    `adaptive_skew_factor` × the median splits into map-range
///    sub-partitions on the legal side, replicating the other side's
///    bucket against each.
fn execute_adaptive_shuffled_join(
    site: &JoinSite,
    build_side: BuildSide,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let JoinSite {
        left,
        right,
        left_keys,
        right_keys,
        join_type,
        residual,
        join_plan,
        id,
    } = *site;
    let left_attrs = left.output();
    let right_attrs = right.output();
    let bound_left_keys = key_value_fns(left_keys, &left_attrs, ctx.conf.codegen_enabled)?;
    let bound_right_keys = key_value_fns(right_keys, &right_attrs, ctx.conf.codegen_enabled)?;
    let residual_pred: Option<PredFn> = match residual {
        Some(r) => Some(predicate(r, &join_plan.output(), ctx.conf.codegen_enabled)?),
        None => None,
    };
    let left_width = left_attrs.len();
    let right_width = right_attrs.len();

    let left_id = id + 1;
    let right_id = left_id + subtree_size(left);
    let partitions = ctx.conf.shuffle_partitions.max(1);
    let threshold = ctx.conf.broadcast_threshold;
    let target = ctx.conf.adaptive_target_partition_bytes.max(1);
    let factor = ctx.conf.adaptive_skew_factor;

    // Lower each child exactly once (lazy; materialization below runs the
    // actual stages).
    let lchild = execute_node(left, left_id, ctx)?;
    let rchild = execute_node(right, right_id, ctx)?;

    let mut lmat: Option<MaterializedShuffle<Option<Row>, Row, Row>> = None;
    let mut rmat: Option<MaterializedShuffle<Option<Row>, Row, Row>> = None;

    // Try demotion: materialize a legal build side and compare its
    // measured bytes with the broadcast threshold. Building right is
    // preferred (it streams the usual outer-preserved left side).
    for build in [BuildSide::Right, BuildSide::Left] {
        if !adaptive_rules::can_demote(join_type, build) {
            continue;
        }
        let (mat_slot, child, keys) = match build {
            BuildSide::Right => (&mut rmat, &rchild, &bound_right_keys),
            BuildSide::Left => (&mut lmat, &lchild, &bound_left_keys),
        };
        if mat_slot.is_none() {
            *mat_slot = Some(materialize_join_side(child, keys, partitions)?);
        }
        let mat = mat_slot.as_ref().unwrap();
        let measured = mat.total_bytes();
        if measured > threshold {
            continue;
        }
        let Some(candidate) = adaptive_rules::broadcast_candidate(join_plan, build) else {
            continue;
        };
        // The rewrite must uphold the same invariants the static planner's
        // output does; a rejected candidate falls back to the shuffled plan.
        if !PlanValidator::new().check_physical(&candidate).is_empty() {
            continue;
        }
        ctx.adaptive.record(AdaptivePlanChange {
            node_id: id,
            rule: AdaptiveRule::BroadcastDemotion,
            description: format!(
                "build {:?} measured {measured} B <= broadcast threshold {threshold} B; \
                 ShuffledHashJoin -> BroadcastHashJoin",
                build
            ),
            replacement: Some(candidate),
        });
        let eager_start = Instant::now();
        let pairs = mat.read_all().try_collect().map_err(engine_err)?;
        let table = broadcast_build_table(pairs, id, ctx);
        note_eager_ns(ctx, id, eager_start);
        let build_is_left = build == BuildSide::Left;
        let (stream, stream_keys, build_width) = if build_is_left {
            (rchild.clone(), bound_right_keys.clone(), left_width)
        } else {
            (lchild.clone(), bound_left_keys.clone(), right_width)
        };
        return Ok(broadcast_probe(
            stream,
            table,
            stream_keys,
            residual_pred,
            join_type,
            build_is_left,
            build_width,
        ));
    }

    // Shuffled fallback: materialize whichever sides the demotion probe
    // did not, then plan the reduce reads from the measured sizes.
    let lmat = match lmat {
        Some(m) => m,
        None => materialize_join_side(&lchild, &bound_left_keys, partitions)?,
    };
    let rmat = match rmat {
        Some(m) => m,
        None => materialize_join_side(&rchild, &bound_right_keys, partitions)?,
    };
    let lsizes = lmat.reduce_sizes();
    let rsizes = rmat.reduce_sizes();
    let totals: Vec<u64> = lsizes.iter().zip(&rsizes).map(|(a, b)| a + b).collect();
    let ranges = adaptive_rules::coalesce_partitions(&totals, target);
    let lmed = adaptive_rules::median(&lsizes);
    let rmed = adaptive_rules::median(&rsizes);

    let mut lspecs: Vec<ShuffleReadSpec> = Vec::new();
    let mut rspecs: Vec<ShuffleReadSpec> = Vec::new();
    let mut skew_splits = 0usize;
    for range in &ranges {
        // Only a partition too big to coalesce with a neighbor can be
        // skewed; multi-reducer ranges are by construction under target.
        if range.len() == 1 {
            let r = range.start;
            // Split the side that is both skewed and legal to split (its
            // rows land in exactly one sub-partition; the other side's
            // bucket is replicated, so it must not drive unmatched rows).
            let split_left = adaptive_rules::can_split_side(join_type, BuildSide::Left)
                && adaptive_rules::is_skewed(lsizes[r], lmed, factor, target);
            let split_right = !split_left
                && adaptive_rules::can_split_side(join_type, BuildSide::Right)
                && adaptive_rules::is_skewed(rsizes[r], rmed, factor, target);
            let map_ranges = if split_left {
                adaptive_rules::split_map_ranges(&lmat.map_sizes_for(r), target)
            } else if split_right {
                adaptive_rules::split_map_ranges(&rmat.map_sizes_for(r), target)
            } else {
                vec![]
            };
            if map_ranges.len() > 1 {
                skew_splits += map_ranges.len();
                for mr in map_ranges {
                    if split_left {
                        lspecs.push(ShuffleReadSpec::map_range(r, mr.start, mr.end));
                        rspecs.push(ShuffleReadSpec::reducers(r, r + 1, rmat.num_maps()));
                    } else {
                        lspecs.push(ShuffleReadSpec::reducers(r, r + 1, lmat.num_maps()));
                        rspecs.push(ShuffleReadSpec::map_range(r, mr.start, mr.end));
                    }
                }
                continue;
            }
        }
        lspecs.push(ShuffleReadSpec::reducers(
            range.start,
            range.end,
            lmat.num_maps(),
        ));
        rspecs.push(ShuffleReadSpec::reducers(
            range.start,
            range.end,
            rmat.num_maps(),
        ));
    }

    if ranges.len() != partitions {
        ctx.adaptive.record(AdaptivePlanChange {
            node_id: id,
            rule: AdaptiveRule::CoalescePartitions,
            description: format!(
                "{partitions} -> {} post-shuffle partitions (target {target} B, measured {} B)",
                ranges.len(),
                totals.iter().sum::<u64>(),
            ),
            replacement: None,
        });
    }
    if skew_splits > 0 {
        ctx.adaptive.record(AdaptivePlanChange {
            node_id: id,
            rule: AdaptiveRule::SkewSplit,
            description: format!(
                "split skewed reduce partition(s) into {skew_splits} map-range sub-partitions \
                 (factor {factor}, median {lmed}/{rmed} B)",
            ),
            replacement: None,
        });
    }
    if let Some(pm) = &ctx.metrics {
        let node = pm.node(id);
        node.set_extra("adaptive_partitions", lspecs.len() as u64);
        node.set_extra("adaptive_skew_splits", skew_splits as u64);
    }

    if ctx.mem.is_bounded() {
        let (llayout, rlayout) =
            join_spill_layouts(left_keys, right_keys, &left_attrs, &right_attrs);
        let sctx = ctx.spill_ctx(id);
        let spec = spill::GraceJoinSpec {
            join_type,
            residual_pred,
            left_layout: llayout,
            right_layout: rlayout,
            left_width,
            right_width,
        };
        return Ok(lmat
            .read(lspecs)
            .zip_partitions(&rmat.read(rspecs), move |lit, rit| {
                Box::new(spill::grace_hash_join_partition(lit, rit, &spec, &sctx, 0).into_iter())
            }));
    }

    Ok(lmat
        .read(lspecs)
        .zip_partitions(&rmat.read(rspecs), move |lit, rit| {
            Box::new(
                hash_join_partition(
                    lit,
                    rit,
                    join_type,
                    build_side,
                    &residual_pred,
                    left_width,
                    right_width,
                )
                .into_iter(),
            )
        }))
}

fn execute_nested_loop_join(
    left: &Arc<PhysicalPlan>,
    right: &Arc<PhysicalPlan>,
    condition: &Option<Expr>,
    join_type: JoinType,
    join_plan: &PhysicalPlan,
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    if matches!(join_type, JoinType::Right | JoinType::Full) {
        return Err(CatalystError::Plan(format!(
            "non-equi {} joins are not supported; rewrite with an equality condition",
            join_type.keyword()
        )));
    }
    let cond: Option<PredFn> = match condition {
        Some(c) => Some(predicate(c, &join_plan.output(), ctx.conf.codegen_enabled)?),
        None => None,
    };
    let left_id = id + 1;
    let right_id = left_id + subtree_size(left);
    let right_width = right.output().len();
    let eager_start = Instant::now();
    let right_rows = Arc::new(
        execute_node(right, right_id, ctx)?
            .try_collect()
            .map_err(engine_err)?,
    );
    note_eager_ns(ctx, id, eager_start);
    let stream = execute_node(left, left_id, ctx)?;
    Ok(stream.flat_map(move |lrow| {
        let mut out = Vec::new();
        for rrow in right_rows.iter() {
            let joined = lrow.concat(rrow);
            if cond.as_ref().is_none_or(|p| p(&joined)) {
                out.push(joined);
            }
        }
        if out.is_empty() && join_type == JoinType::Left {
            out.push(lrow.concat(&null_row(right_width)));
        }
        out
    }))
}
