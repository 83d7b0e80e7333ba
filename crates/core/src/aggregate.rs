//! Hash aggregation: a batch pipeline, and the row kernel beside it.
//!
//! **Batch pipeline** (production, whenever every call has a typed
//! [`vectorized::AccLane`]):
//!
//! 1. *Map blocks.* [`batch_partial_agg`] interns each input batch's group
//!    keys in columns ([`vectorized::BatchGroups`]), hashing each key
//!    once and storing the hash with it, and folds every call into its
//!    lane. It then splits its groups by reducer — by those stored
//!    hashes, which agree with `Value` equality, so `Int 1` and `Long 1`
//!    meet — and emits one [`AggBlock`] (key columns, their hashes, lane
//!    states, row count) per non-empty reducer.
//! 2. *Index exchange.* Blocks travel keyed by their reducer through the
//!    `Exchange` under the aggregate, routed by index: a map task ships at
//!    most one record per reducer, not one per group, and the exchange
//!    reports each block's [`AggBlock::approx_bytes`].
//! 3. *Lane merge.* [`Reducer::merge`] interns each block's key columns by
//!    the hashes the block carries
//!    ([`vectorized::BatchGroups::assign_hashed`]), so no key is hashed
//!    twice, and folds its states with [`vectorized::AccLane::merge`]
//!    (exactly [`Acc::merge`]), blocks in map-id order.
//! 4. *Batch finish.* One batch of the interner's key columns and the
//!    lanes' finish columns runs the output list through
//!    [`vectorized::eval_projection_batch`], so a `Filter`, `Project` or
//!    top-N above reads batches.
//!
//! No `(key, Vec<Acc>)` pair exists on this path at any budget. A denied
//! map-side reservation ships blocks early and restarts. A denied
//! reduce-side reservation stops interning and spills what the reducer
//! holds, in the shape it holds it: the lane table, then every block
//! still unread, as key columns and accumulator-state columns
//! ([`vectorized::AccLane::state_columns`]) split by a depth-salted key
//! hash into [`spill::BlockBuckets`]. Each bucket is read back in write
//! order and merged by the same lane merge, recursively when denied
//! again, and finishes as a batch of its own. A block read back carries
//! no hashes: its keys are hashed again, once. The table's partials are
//! written before the blocks that follow them, so every group's
//! partials merge in map-id order and sums stay bit-identical to the
//! in-memory merge.
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
    let layout = spill::agg_layout(plan.key_dtypes.clone());
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
    let shuffled = exchange.by_index(&blocks, AggBlock::approx_bytes, ctx);
    Ok(shuffled.map_partitions(move |it| {
        let reducer = Reducer::new(&plan, &specs, &sctx, node.as_ref());
        let mut out = Vec::new();
        let merged = reducer.merge(&mut it.map(|(_, block)| Ok(block)), 0, &mut out);
        task_iter(merged.map(|()| out))
    }))
}

/// One map task's partial aggregate for one reducer: the group keys as
/// columns, their routing hashes, and one accumulator lane per call, all
/// indexed by block row. A block read back from a spill has no hashes.
/// Cloning shares all three (the shuffle hands out clones).
#[derive(Clone)]
struct AggBlock {
    keys: Vec<Arc<ColumnVector>>,
    hashes: Option<Arc<[u64]>>,
    lanes: Arc<[AccLane]>,
    rows: usize,
}

impl AggBlock {
    /// Approximate bytes of the keys, their hashes and the lane states:
    /// what the exchange reports the block as.
    fn approx_bytes(&self) -> u64 {
        let keys: u64 = self.keys.iter().map(|c| c.approx_bytes()).sum();
        let hashes = self.hashes.as_ref().map_or(0, |h| 8 * h.len() as u64);
        let states =
            (0..self.rows).map(|g| self.lanes.iter().map(|l| l.approx_bytes(g)).sum::<u64>());
        keys + hashes + states.sum::<u64>()
    }

    /// The block as spill columns: its keys, then each lane's state.
    fn columns(&self) -> Vec<Arc<ColumnVector>> {
        let states = self.lanes.iter().flat_map(AccLane::state_columns);
        self.keys
            .iter()
            .cloned()
            .chain(states.map(Arc::new))
            .collect()
    }

    /// The block [`columns`](Self::columns) wrote, its `rows` lanes read
    /// back as `templates`' calls.
    fn from_columns(
        rows: usize,
        columns: Vec<ColumnVector>,
        key_width: usize,
        templates: &[AccLane],
    ) -> Result<AggBlock> {
        let mut columns = columns.into_iter();
        let keys = columns.by_ref().take(key_width).map(Arc::new).collect();
        let lanes = (templates.iter())
            .map(|t| AccLane::from_state(t, rows, &mut columns))
            .collect::<Result<_>>()?;
        Ok(AggBlock {
            keys,
            hashes: None,
            lanes,
            rows,
        })
    }
}

/// Ship a map task's `groups` and their `lanes` as one block per
/// non-empty reducer, its groups in first-seen order, each with the hash
/// it was routed by.
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
    let hashes = groups.group_hashes();
    let route: Vec<u32> = (hashes.iter())
        .map(|hash| (hash % reducers as u64) as u32)
        .collect();
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); reducers];
    for (g, &reducer) in route.iter().enumerate() {
        members[reducer as usize].push(g as u32);
    }
    // Each group goes to one reducer: its key lanes move there.
    let mut keys: Vec<_> = (groups.key_columns(key_dtypes).into_iter())
        .map(|c| {
            Arc::unwrap_or_clone(c)
                .scatter(&route, reducers)
                .into_iter()
        })
        .collect();
    for (reducer, rows) in members.iter().enumerate() {
        let keys: Vec<Arc<ColumnVector>> = (keys.iter_mut())
            .map(|parts| Arc::new(parts.next().expect("one part per reducer")))
            .collect();
        if rows.is_empty() {
            continue;
        }
        let block = AggBlock {
            keys,
            hashes: Some(rows.iter().map(|&g| hashes[g as usize]).collect()),
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

/// One reducer's merge: its plan, its calls' empty lanes and its spill
/// layout.
struct Reducer<'a> {
    plan: &'a AggPlan,
    /// An empty lane per call: what a merge starts from, and the
    /// template spilled lane states read back as.
    templates: Vec<AccLane>,
    /// Spilled blocks: the key columns, then the lanes' state columns.
    spill: spill::PairLayout,
    sctx: &'a SpillCtx,
    node: Option<&'a Arc<OperatorMetrics>>,
}

impl<'a> Reducer<'a> {
    fn new(
        plan: &'a AggPlan,
        specs: &[LaneSpec],
        sctx: &'a SpillCtx,
        node: Option<&'a Arc<OperatorMetrics>>,
    ) -> Reducer<'a> {
        let templates: Vec<AccLane> = specs.iter().map(new_lane).collect();
        let states = templates.iter().flat_map(AccLane::state_columns);
        let spill =
            spill::PairLayout::new(plan.key_dtypes.clone(), states.map(|c| c.dtype().clone()));
        Reducer {
            plan,
            templates,
            spill,
            sctx,
            node,
        }
    }

    /// Merge `blocks` (in map-id order, or a bucket's in write order) lane
    /// by lane and finish them into `out`: one batch, or, once a
    /// reservation is denied at a `depth` below [`spill::MAX_DEPTH`], one
    /// per spill bucket. From that depth on the merge runs unreserved.
    fn merge(
        &self,
        blocks: &mut dyn Iterator<Item = Result<AggBlock>>,
        depth: usize,
        out: &mut Vec<RowBatch>,
    ) -> Result<()> {
        let mut reservation = self.sctx.pool.register();
        let mut groups = BatchGroups::new();
        let mut lanes = self.templates.clone();
        let mut asg: Vec<(u32, u32)> = Vec::new();
        while let Some(block) = blocks.next() {
            let block = block?;
            let prev = groups.len();
            let keys = RowBatch::new(block.keys.clone(), block.rows);
            match &block.hashes {
                Some(hashes) => groups.assign_hashed(&keys, hashes, &mut asg),
                None => groups.assign(&keys, &mut asg),
            }
            for (lane, theirs) in lanes.iter_mut().zip(block.lanes.iter()) {
                lane.merge(theirs, &asg, groups.len())?;
            }
            if depth == spill::MAX_DEPTH {
                continue;
            }
            // A merged group costs what the row kernel's grace path
            // charges for its entry.
            let new_bytes: u64 = (prev..groups.len())
                .map(|g| {
                    groups.key_bytes(g) + 16 + lanes.iter().map(|l| l.approx_bytes(g)).sum::<u64>()
                })
                .sum();
            if new_bytes > 0 && !reservation.try_grow(new_bytes) {
                let table = AggBlock {
                    rows: groups.len(),
                    keys: groups.key_columns(&self.plan.key_dtypes),
                    hashes: None,
                    lanes: lanes.into(),
                };
                return self.spill(table, reservation, blocks, depth, out);
            }
        }
        let n = groups.len();
        if n == 0 {
            return Ok(());
        }
        if let Some(node) = self.node {
            node.add_extra("groups", n as u64);
        }
        let mut columns = groups.key_columns(&self.plan.key_dtypes);
        columns.extend(
            (lanes.iter().zip(&self.plan.agg_dtypes))
                .map(|(lane, dtype)| Arc::new(lane.finish_column(n, dtype))),
        );
        out.push(self.plan.finish_batch(&RowBatch::new(columns, n))?);
        Ok(())
    }

    /// Spill a denied `table`, which frees its `reservation` once it is
    /// written, and then the `blocks` still unread into buckets, and
    /// merge each bucket one depth down.
    fn spill(
        &self,
        table: AggBlock,
        reservation: MemoryReservation,
        blocks: &mut dyn Iterator<Item = Result<AggBlock>>,
        depth: usize,
        out: &mut Vec<RowBatch>,
    ) -> Result<()> {
        let key_width = self.plan.key_dtypes.len();
        let mut buckets = spill::BlockBuckets::new(self.spill.clone(), depth);
        buckets.push(self.sctx, &table.columns(), table.rows)?;
        drop((table, reservation));
        for block in blocks {
            let block = block?;
            buckets.push(self.sctx, &block.columns(), block.rows)?;
        }
        if let Some(node) = self.node {
            node.max_extra("spill_depth", depth as u64 + 1);
        }
        for bucket in buckets.finish(self.sctx)?.into_iter().flatten() {
            let mut blocks = bucket.map(|read| {
                let (rows, columns) = read?;
                AggBlock::from_columns(rows, columns, key_width, &self.templates)
            });
            self.merge(&mut blocks, depth + 1, out)?;
        }
        Ok(())
    }
}
