//! Hash aggregation: a batch pipeline, and the row kernel beside it.
//!
//! **Batch pipeline** (production, whenever every call has a typed
//! [`vectorized::AccLane`]):
//!
//! 1. *Map blocks.* [`batch_partial_agg`] interns each input batch's group
//!    keys in columns ([`vectorized::BatchGroups`]) and folds every call
//!    into its lane. It then splits its groups by reducer — by a per-group
//!    hash that agrees with `Value` equality, so `Int 1` and `Long 1`
//!    meet — and emits one [`AggBlock`] (key columns, lane states, row
//!    count) per non-empty reducer.
//! 2. *Index exchange.* Blocks travel keyed by their reducer through the
//!    `Exchange` under the aggregate, routed by index: a map task ships at
//!    most one record per reducer, not one per group.
//! 3. *Lane merge.* [`merge_blocks`] interns each block's key columns and
//!    folds its states with [`vectorized::AccLane::merge`] (exactly
//!    [`Acc::merge`]), blocks in map-id order.
//! 4. *Batch finish.* One batch of the interner's key columns and the
//!    lanes' finish columns runs the output list through
//!    [`vectorized::eval_projection_batch`], so a `Filter`, `Project` or
//!    top-N above reads batches.
//!
//! `(key, Vec<Acc>)` pairs exist on this path in two places only, both
//! under a bounded pool: a denied map-side reservation ships blocks early
//! and restarts (no pairs), and a denied reduce-side reservation drains
//! the lane table, still reserved, through
//! [`vectorized::AccLane::partial`], followed by the blocks still unread,
//! into the grace path [`spill::merge_agg_partition`].
//!
//! **Row kernel** ([`partial_agg_partition`]): one [`AggCall`] per call
//! folding [`Acc::update`] into `(key, Vec<Acc>)` pairs, routed by a hash
//! of the key, [`spill::merge_agg_partition`] and a
//! row-at-a-time finish. It is the only home of DISTINCT and of types
//! with no lane, and what the reference configuration runs, so the
//! differential suites compare the batch pipeline against it.
//!
//! A global aggregate (no GROUP BY) has one group and nothing to shuffle:
//! per-partition row-kernel partials merge on the driver.

use crate::exchange::Exchange;
use crate::execution::{
    bind_all, engine_err, execute_node, lower_node, note_eager_ns, task_iter, try_map, value_fn,
    ExecContext, ValueFn,
};
use crate::spill::{self, SpillCtx};
use catalyst::error::Result;
use catalyst::expr::{AggFunc, ColumnRef, Expr};
use catalyst::interpreter::{self, bind_references};
use catalyst::physical::metrics::OperatorMetrics;
use catalyst::physical::PhysicalPlan;
use catalyst::row::Row;
use catalyst::tree::{Transformed, TreeNode};
use catalyst::types::DataType;
use catalyst::value::Value;
use catalyst::vectorized::{self, Acc, AccLane, BatchGroups, ColumnVector, RowBatch};
use engine::{BoxIter, MemoryReservation, RddRef};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// A planned aggregate call for the row kernel: the bound argument
/// evaluator plus which accumulator it feeds.
#[derive(Clone)]
struct AggCall {
    func: AggFunc,
    distinct: bool,
    /// Bound argument evaluator (None = COUNT(*)).
    arg: Option<ValueFn>,
}

impl AggCall {
    /// Bind `arg` to `input` and build its evaluator.
    fn plan(
        func: AggFunc,
        distinct: bool,
        arg: Option<&Expr>,
        input: &[ColumnRef],
    ) -> Result<AggCall> {
        let arg = match arg {
            Some(a) => Some(value_fn(bind_references(a.clone(), input)?)),
            None => None,
        };
        Ok(AggCall {
            func,
            distinct,
            arg,
        })
    }

    fn init(&self) -> Acc {
        Acc::new(self.func, self.distinct)
    }

    fn update(&self, acc: &mut Acc, row: &Row) -> Result<()> {
        acc.update(match &self.arg {
            None => Value::Long(1), // COUNT(*): every row counts
            Some(f) => f(row)?,
        })
    }
}

fn init_all(calls: &[AggCall]) -> Vec<Acc> {
    calls.iter().map(AggCall::init).collect()
}

fn update_all(calls: &[AggCall], accs: &mut [Acc], row: &Row) -> Result<()> {
    for (call, acc) in calls.iter().zip(accs) {
        call.update(acc, row)?;
    }
    Ok(())
}

fn plan_row_calls(agg_exprs: &[Expr], input: &[ColumnRef]) -> Result<Vec<AggCall>> {
    agg_exprs
        .iter()
        .map(|e| match e {
            Expr::Agg {
                func,
                arg,
                distinct,
            } => AggCall::plan(*func, *distinct, arg.as_deref(), input),
            _ => unreachable!("aggregate list holds only Expr::Agg"),
        })
        .collect()
}

/// One `HashAggregate`'s unique aggregate calls, and its output list
/// rewritten over `[group keys ++ aggregate results]`.
struct AggPlan {
    agg_exprs: Vec<Expr>,
    final_exprs: Vec<Expr>,
    /// Declared types of the group keys and then of the aggregate
    /// results: the columns `final_exprs` reads.
    key_dtypes: Vec<DataType>,
    agg_dtypes: Vec<DataType>,
}

impl AggPlan {
    fn new(groupings: &[Expr], output_exprs: &[Expr]) -> AggPlan {
        // Unique aggregate calls appearing anywhere in the output list.
        let mut agg_exprs: Vec<Expr> = Vec::new();
        for e in output_exprs {
            e.for_each_node(&mut |n| {
                if matches!(n, Expr::Agg { .. }) && !agg_exprs.contains(n) {
                    agg_exprs.push(n.clone());
                }
            });
        }
        let dtype = |e: &Expr| e.data_type().unwrap_or(DataType::String);
        let key_dtypes: Vec<DataType> = groupings.iter().map(dtype).collect();
        let agg_dtypes: Vec<DataType> = agg_exprs.iter().map(dtype).collect();
        let ngroups = groupings.len();
        let final_exprs = output_exprs
            .iter()
            .map(|e| {
                let bound_ref = |index: usize, n: &Expr, nullable: bool| Expr::BoundRef {
                    index,
                    dtype: dtype(n),
                    nullable,
                    name: Arc::from(n.auto_name().as_str()),
                };
                e.clone()
                    .transform_down(&mut |n| {
                        if let Some(i) = groupings.iter().position(|g| g == &n) {
                            return Transformed::yes(bound_ref(i, &n, n.nullable()));
                        }
                        if let Some(j) = agg_exprs.iter().position(|a| a == &n) {
                            return Transformed::yes(bound_ref(ngroups + j, &n, true));
                        }
                        Transformed::no(n)
                    })
                    .data
            })
            .collect();
        AggPlan {
            agg_exprs,
            final_exprs,
            key_dtypes,
            agg_dtypes,
        }
    }

    /// One group's `key ++ results` row, what `final_exprs` reads.
    fn internal_row(key: Row, accs: Vec<Acc>) -> Row {
        let mut values = key.into_values();
        values.extend(accs.into_iter().map(Acc::finish));
        Row::new(values)
    }

    /// The output row of one group (the row kernel's finish).
    fn finish_row(&self, key: Row, accs: Vec<Acc>) -> Result<Row> {
        let internal = AggPlan::internal_row(key, accs);
        let values = self
            .final_exprs
            .iter()
            .map(|e| interpreter::eval(e, &internal));
        Ok(Row::new(values.collect::<Result<_>>()?))
    }

    /// The output batch of `internal`, a batch of `[keys ++ results]`
    /// columns (the batch pipeline's finish).
    fn finish_batch(&self, internal: &RowBatch) -> Result<RowBatch> {
        vectorized::eval_projection_batch(&self.final_exprs, internal)
    }

    /// Finish `(key, accumulators)` pairs as one batch.
    fn finish_pairs(&self, pairs: Vec<(Row, Vec<Acc>)>) -> Result<RowBatch> {
        let rows: Vec<Row> = (pairs.into_iter())
            .map(|(key, accs)| AggPlan::internal_row(key, accs))
            .collect();
        let dtypes = [self.key_dtypes.clone(), self.agg_dtypes.clone()].concat();
        self.finish_batch(&RowBatch::from_rows(&dtypes, &rows))
    }
}

/// Lower a `HashAggregate` operator (pre-order id `id`) as rows: global
/// aggregates, and grouped ones the batch pipeline does not take
/// ([`execute_batch_aggregate`] returned `None`).
pub(crate) fn execute_aggregate(
    input: &Arc<PhysicalPlan>,
    groupings: &[Expr],
    output_exprs: &[Expr],
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let input_attrs = input.output();
    let plan = Arc::new(AggPlan::new(groupings, output_exprs));
    let calls = plan_row_calls(&plan.agg_exprs, &input_attrs)?;

    if groupings.is_empty() {
        // Global aggregate: partials per partition, merged on the driver —
        // correct even over an empty input (COUNT(*) = 0).
        let child = execute_node(input, id + 1, ctx)?;
        let eager_start = Instant::now();
        let calls_for_job = calls.clone();
        let partials = child
            .run_job(move |_, it| -> Result<Vec<Acc>> {
                let mut accs = init_all(&calls_for_job);
                for row in it {
                    update_all(&calls_for_job, &mut accs, &row)?;
                }
                Ok(accs)
            })
            .map_err(engine_err)?;
        let mut partials = partials.into_iter();
        let mut merged = partials.next().unwrap_or_else(|| Ok(init_all(&calls)))?;
        for partial in partials {
            merged = spill::merge_accs(merged, partial?)?;
        }
        let row = plan.finish_row(Row::empty(), merged)?;
        note_eager_ns(ctx, id, eager_start);
        return Ok(ctx.sc.parallelize(vec![row], 1));
    }

    let key_fns: Vec<ValueFn> = bind_all(groupings, &input_attrs)?
        .into_iter()
        .map(value_fn)
        .collect();
    let sctx = ctx.spill_ctx(id);
    let map_sctx = sctx.clone();
    let exchange = Exchange::at(input, id + 1)?;
    let partials: RddRef<(Row, Vec<Acc>)> = execute_node(exchange.input, exchange.input_id, ctx)?
        .map_partitions(move |it| {
            task_iter(partial_agg_partition(it, &key_fns, &calls, &map_sctx))
        });
    let shuffled = exchange.hash(&partials, ctx);
    let layout = spill::AggLayout::new(plan.key_dtypes.clone());
    let merged = shuffled
        .map_partitions(move |it| task_iter(spill::merge_agg_partition(it, &layout, &sctx, 0)));
    Ok(try_map(&merged, move |(key, accs)| {
        plan.finish_row(key, accs)
    }))
}

// ---- row kernel ----

/// Partially aggregate one input partition under the pool's budget. When
/// the reservation is denied, the partial table flushes downstream — the
/// shuffle is the spill destination — and aggregation restarts with an
/// empty table. Duplicate keys across flushes merge on the reduce side.
fn partial_agg_partition(
    it: engine::BoxIter<Row>,
    key_fns: &[ValueFn],
    calls: &[AggCall],
    sctx: &SpillCtx,
) -> Result<Vec<(Row, Vec<Acc>)>> {
    let mut reservation = sctx.pool.register();
    let mut table: HashMap<Row, Vec<Acc>> = HashMap::new();
    let mut out: Vec<(Row, Vec<Acc>)> = Vec::new();
    for row in it {
        let key = Row::new(key_fns.iter().map(|f| f(&row)).collect::<Result<_>>()?);
        if let Some(accs) = table.get_mut(&key) {
            update_all(calls, accs, &row)?;
            continue;
        }
        let mut accs = init_all(calls);
        update_all(calls, &mut accs, &row)?;
        let bytes = key.approx_bytes() + 16 + 24 * accs.len() as u64;
        if !reservation.try_grow(bytes) && !table.is_empty() {
            out.extend(table.drain());
            reservation.free();
            reservation.try_grow(bytes);
        }
        table.insert(key, accs);
    }
    out.extend(table.drain());
    Ok(out)
}

// ---- batch pipeline ----

/// One aggregate call planned onto a typed accumulator lane: the lane
/// kind plus the bound argument expression and its type (`None` for
/// `COUNT(*)`).
type LaneSpec = (vectorized::LaneAgg, Option<(Expr, DataType)>);

/// Plan every call onto a lane, or `None` when any call is DISTINCT or
/// has no typed lane for its argument type (the row kernel then runs the
/// whole operator).
fn plan_lanes(agg_exprs: &[Expr], input_attrs: &[ColumnRef]) -> Option<Vec<LaneSpec>> {
    let mut specs: Vec<LaneSpec> = Vec::with_capacity(agg_exprs.len());
    for e in agg_exprs {
        let Expr::Agg {
            func,
            arg,
            distinct: false,
        } = e
        else {
            return None;
        };
        let spec = match (func, arg) {
            (AggFunc::Count, None) => (vectorized::LaneAgg::CountStar, None),
            (func, Some(a)) => {
                let bound = bind_references((**a).clone(), input_attrs).ok()?;
                let dtype = bound.data_type().ok()?;
                let lane = match func {
                    AggFunc::Count => vectorized::LaneAgg::Count,
                    AggFunc::Sum => vectorized::LaneAgg::Sum,
                    AggFunc::Avg => vectorized::LaneAgg::Avg,
                    AggFunc::Min => vectorized::LaneAgg::Min,
                    AggFunc::Max => vectorized::LaneAgg::Max,
                };
                AccLane::for_input(lane, &dtype)?;
                (lane, Some((bound, dtype)))
            }
            _ => return None,
        };
        specs.push(spec);
    }
    Some(specs)
}

/// Fresh lane for a spec (support was proven at plan time).
fn new_lane(spec: &LaneSpec) -> AccLane {
    let dtype = spec
        .1
        .as_ref()
        .map(|(_, d)| d.clone())
        .unwrap_or(DataType::Long);
    AccLane::for_input(spec.0, &dtype).expect("lane support checked at plan time")
}

/// Lower a grouped `HashAggregate` (pre-order id `id`) to the batch
/// pipeline, or `None` when it is not the production batch kernel's: the
/// reference configuration, a global aggregate, or a call with no lane.
pub(crate) fn execute_batch_aggregate(
    input: &Arc<PhysicalPlan>,
    groupings: &[Expr],
    output_exprs: &[Expr],
    id: usize,
    ctx: &ExecContext,
) -> Option<Result<RddRef<RowBatch>>> {
    if ctx.conf.reference || groupings.is_empty() {
        return None;
    }
    let plan = AggPlan::new(groupings, output_exprs);
    let specs = plan_lanes(&plan.agg_exprs, &input.output())?;
    Some(batch_aggregate(input, groupings, plan, specs, id, ctx))
}

fn batch_aggregate(
    input: &Arc<PhysicalPlan>,
    groupings: &[Expr],
    plan: AggPlan,
    specs: Vec<LaneSpec>,
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<RowBatch>> {
    let bound_groupings = bind_all(groupings, &input.output())?;
    let (plan, specs) = (Arc::new(plan), Arc::new(specs));
    let exchange = Exchange::at(input, id + 1)?;
    let reducers = exchange.partitions();
    let node = ctx.metrics.as_ref().map(|pm| pm.node(id));
    let sctx = ctx.spill_ctx(id);
    let map = (plan.clone(), specs.clone(), sctx.clone(), node.clone());
    let blocks = lower_node(exchange.input, exchange.input_id, ctx)?
        .batches(exchange.input, ctx)
        .map_partitions(move |it| {
            let (plan, specs, sctx, node) = &map;
            task_iter(batch_partial_agg(
                it,
                &bound_groupings,
                &plan.key_dtypes,
                specs,
                reducers,
                sctx,
                node.as_ref(),
            ))
        });
    Ok(exchange.by_index(&blocks, ctx).map_partitions(move |it| {
        let blocks = Box::new(it.map(|(_, block)| block));
        task_iter(merge_blocks(blocks, &plan, &specs, &sctx, node.as_ref()))
    }))
}

/// One map task's partial aggregate for one reducer: the group keys as
/// columns and one accumulator lane per call, both indexed by block row.
/// Cloning shares both (the shuffle hands out clones).
#[derive(Clone)]
struct AggBlock {
    keys: Vec<Arc<ColumnVector>>,
    lanes: Arc<[AccLane]>,
    rows: usize,
}

impl AggBlock {
    /// The block's groups as `(key, accumulators)` pairs — only for the
    /// reduce side's spill fallback.
    fn into_pairs(self) -> impl Iterator<Item = (Row, Vec<Acc>)> {
        (0..self.rows).map(move |i| {
            let key = Row::new(self.keys.iter().map(|c| c.get(i)).collect());
            (key, self.lanes.iter().map(|l| l.partial(i)).collect())
        })
    }
}

/// Ship a map task's `groups` and their `lanes` as one block per
/// non-empty reducer, its groups in first-seen order.
fn ship(
    groups: BatchGroups,
    lanes: Vec<AccLane>,
    key_dtypes: &[DataType],
    reducers: usize,
    out: &mut Vec<(usize, AggBlock)>,
) {
    if groups.is_empty() {
        return;
    }
    let keys = groups.key_columns(key_dtypes);
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); reducers];
    for (g, hash) in groups.group_hashes().into_iter().enumerate() {
        members[(hash % reducers as u64) as usize].push(g as u32);
    }
    for (reducer, rows) in members.iter().enumerate() {
        if rows.is_empty() {
            continue;
        }
        let block = AggBlock {
            keys: keys.iter().map(|c| Arc::new(c.gather(rows))).collect(),
            lanes: lanes.iter().map(|l| l.gather(rows)).collect(),
            rows: rows.len(),
        };
        out.push((reducer, block));
    }
}

/// Map-side reservation size of the groups `from..` of a table of
/// `lanes` calls (the row kernel's per-entry estimate).
fn new_group_bytes(groups: &BatchGroups, from: usize, lanes: usize) -> u64 {
    (from..groups.len())
        .map(|g| groups.key_bytes(g) + 16 + 24 * lanes as u64)
        .sum()
}

/// Batch-native partial aggregation of one input partition: group keys
/// are evaluated and interned columnar ([`BatchGroups`]), and each
/// aggregate updates a typed accumulator lane over the batch's
/// `(lane, group)` assignments. The groups leave as one [`AggBlock`] per
/// reducer; a denied reservation ships them early, as
/// [`partial_agg_partition`] flushes, and accumulation restarts empty.
fn batch_partial_agg(
    it: BoxIter<RowBatch>,
    groupings: &[Expr],
    key_dtypes: &[DataType],
    specs: &[LaneSpec],
    reducers: usize,
    sctx: &SpillCtx,
    node: Option<&Arc<OperatorMetrics>>,
) -> Result<Vec<(usize, AggBlock)>> {
    let mut reservation = sctx.pool.register();
    let fresh_lanes = || -> Vec<AccLane> { specs.iter().map(new_lane).collect() };
    let (mut groups, mut lanes) = (BatchGroups::new(), fresh_lanes());
    let mut out: Vec<(usize, AggBlock)> = Vec::new();
    let mut asg: Vec<(u32, u32)> = Vec::new();
    for batch in it {
        let key_batch = vectorized::eval_projection_batch(groupings, &batch)?;
        let prev = groups.len();
        groups.assign(&key_batch, &mut asg);
        let num = groups.len();
        for (spec, lane) in specs.iter().zip(lanes.iter_mut()) {
            match &spec.1 {
                Some((arg, _)) => {
                    let col = vectorized::eval_batch(arg, &batch)?;
                    lane.update(Some(&col), &asg, num)?
                }
                None => lane.update(None, &asg, num)?,
            }
        }
        let new_bytes = new_group_bytes(&groups, prev, lanes.len());
        if new_bytes > 0 && !reservation.try_grow(new_bytes) && prev > 0 {
            let table = std::mem::take(&mut groups);
            ship(
                table,
                std::mem::replace(&mut lanes, fresh_lanes()),
                key_dtypes,
                reducers,
                &mut out,
            );
            reservation.free();
            reservation.try_grow(new_bytes);
        }
    }
    ship(groups, lanes, key_dtypes, reducers, &mut out);
    if let Some(n) = node {
        let shipped = out.iter().map(|(_, b)| b.rows as u64).sum();
        n.add_extra("partial_groups", shipped);
    }
    Ok(out)
}

/// A denied reduce-side table as `(key, partials)` pairs. The table keeps
/// its `reservation` until it is dropped, which a `chain` does once the
/// last pair is read, so the grace path reading these pairs counts the
/// table's bytes as taken and spills earlier.
fn drain_table(
    groups: BatchGroups,
    lanes: Vec<AccLane>,
    reservation: MemoryReservation,
) -> impl Iterator<Item = (Row, Vec<Acc>)> {
    (0..groups.len()).map(move |g| {
        let _held = &reservation;
        (groups.key(g), lanes.iter().map(|l| l.partial(g)).collect())
    })
}

/// Merge one reducer's blocks (in map-id order) lane by lane and finish
/// them as one batch. A denied reservation hands the table, as partials,
/// and the blocks still unread to [`spill::merge_agg_partition`].
fn merge_blocks(
    mut blocks: BoxIter<AggBlock>,
    plan: &AggPlan,
    specs: &[LaneSpec],
    sctx: &SpillCtx,
    node: Option<&Arc<OperatorMetrics>>,
) -> Result<Option<RowBatch>> {
    let mut reservation = sctx.pool.register();
    let mut groups = BatchGroups::new();
    let mut lanes: Vec<AccLane> = specs.iter().map(new_lane).collect();
    let mut asg: Vec<(u32, u32)> = Vec::new();
    while let Some(block) = blocks.next() {
        let prev = groups.len();
        groups.assign(&RowBatch::new(block.keys.clone(), block.rows), &mut asg);
        for (lane, theirs) in lanes.iter_mut().zip(block.lanes.iter()) {
            lane.merge(theirs, &asg, groups.len())?;
        }
        // A merged group costs what the grace path charges for its entry,
        // so a table is denied at the size the fallback's would be.
        let new_bytes: u64 = (prev..groups.len())
            .map(|g| {
                groups.key_bytes(g) + 16 + lanes.iter().map(|l| l.approx_bytes(g)).sum::<u64>()
            })
            .sum();
        if new_bytes > 0 && !reservation.try_grow(new_bytes) {
            let table = drain_table(groups, lanes, reservation);
            let pairs: BoxIter<(Row, Vec<Acc>)> =
                Box::new(table.chain(blocks.flat_map(AggBlock::into_pairs)));
            let layout = spill::AggLayout::new(plan.key_dtypes.clone());
            let merged = spill::merge_agg_partition(pairs, &layout, sctx, 0)?;
            if let Some(node) = node {
                node.add_extra("groups", merged.len() as u64);
            }
            return plan.finish_pairs(merged).map(Some);
        }
    }
    let n = groups.len();
    if n == 0 {
        return Ok(None);
    }
    if let Some(node) = node {
        node.add_extra("groups", n as u64);
    }
    let mut columns = groups.key_columns(&plan.key_dtypes);
    columns.extend(
        (lanes.iter().zip(&plan.agg_dtypes))
            .map(|(lane, dtype)| Arc::new(lane.finish_column(n, dtype))),
    );
    plan.finish_batch(&RowBatch::new(columns, n)).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::MemoryPool;

    #[test]
    fn a_drained_table_keeps_its_reservation_until_its_last_pair() {
        let pool = MemoryPool::bounded(1000, std::env::temp_dir());
        let mut reservation = pool.register();
        assert!(reservation.try_grow(600));
        let keys: Vec<Row> = (0..3).map(|k| Row::new(vec![Value::Long(k)])).collect();
        let (mut groups, mut asg) = (BatchGroups::new(), Vec::new());
        groups.assign(&RowBatch::from_rows(&[DataType::Long], &keys), &mut asg);
        let mut count =
            AccLane::for_input(vectorized::LaneAgg::CountStar, &DataType::Long).unwrap();
        count.update(None, &asg, groups.len()).unwrap();
        // Read the pool while the pairs are pulled, and once more after
        // the table is exhausted, as the grace path's chain does.
        let used: Vec<u64> = drain_table(groups, vec![count], reservation)
            .map(|_| pool.stats().used)
            .chain(std::iter::once_with(|| pool.stats().used))
            .collect();
        assert_eq!(used, vec![600, 600, 600, 0]);
    }
}
