//! Hash aggregation: one pipeline with two map-side kernels.
//!
//! plan the calls → map-side partials → `partition_by` →
//! [`spill::merge_agg_partition`] → final projection.
//!
//! The map side is the **batch kernel** ([`batch_partial_agg`], columnar
//! group keys and typed [`vectorized::AccLane`]s) in production when
//! every call has a lane, else the **row kernel**
//! ([`partial_agg_partition`], one [`AggCall`] per call folding
//! [`Acc::update`]). The row kernel is the only home of DISTINCT and what
//! the reference configuration runs, so the differential suites compare
//! the batch kernel against it.
//! Both emit `(key, Vec<Acc>)` under the execution's memory pool — an
//! unbounded pool never denies, so they never flush early and the reduce
//! side never spills — and everything after the map side is shared.
//!
//! A global aggregate (no GROUP BY) has one group and nothing to shuffle:
//! per-partition row-kernel partials merge on the driver.

use crate::execution::{
    bind_all, engine_err, execute_node, lower_node, note_eager_ns, value_fn, ExecContext, ValueFn,
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
use catalyst::vectorized::{self, Acc, RowBatch};
use engine::{HashPartitioner, PairRdd, RddRef};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// A planned aggregate call for the row kernel (and for window frames):
/// the bound argument evaluator plus which accumulator it feeds.
#[derive(Clone)]
pub(crate) struct AggCall {
    func: AggFunc,
    distinct: bool,
    /// Bound argument evaluator (None = COUNT(*)).
    arg: Option<ValueFn>,
}

impl AggCall {
    /// Bind `arg` to `input` and build its evaluator.
    pub(crate) fn plan(
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

    pub(crate) fn init(&self) -> Acc {
        Acc::new(self.func, self.distinct)
    }

    pub(crate) fn update(&self, acc: &mut Acc, row: &Row) {
        acc.update(match &self.arg {
            None => Value::Long(1), // COUNT(*): every row counts
            Some(f) => f(row),
        });
    }
}

fn init_all(calls: &[AggCall]) -> Vec<Acc> {
    calls.iter().map(AggCall::init).collect()
}

fn update_all(calls: &[AggCall], accs: &mut [Acc], row: &Row) {
    for (call, acc) in calls.iter().zip(accs) {
        call.update(acc, row);
    }
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

/// Lower a `HashAggregate` operator (pre-order id `id`).
pub(crate) fn execute_aggregate(
    input: &Arc<PhysicalPlan>,
    groupings: &[Expr],
    output_exprs: &[Expr],
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let input_attrs = input.output();

    // Unique aggregate calls appearing anywhere in the output list.
    let mut agg_exprs: Vec<Expr> = Vec::new();
    for e in output_exprs {
        e.for_each_node(&mut |n| {
            if matches!(n, Expr::Agg { .. }) && !agg_exprs.contains(n) {
                agg_exprs.push(n.clone());
            }
        });
    }

    // Rewrite output expressions over [group values ++ agg results].
    let ngroups = groupings.len();
    let mut final_exprs: Vec<Expr> = Vec::with_capacity(output_exprs.len());
    for e in output_exprs {
        let rewritten = e.clone().transform_down(&mut |n| {
            if let Some(i) = groupings.iter().position(|g| g == &n) {
                let dtype = n.data_type().unwrap_or(DataType::String);
                return Transformed::yes(Expr::BoundRef {
                    index: i,
                    dtype,
                    nullable: n.nullable(),
                    name: Arc::from(n.auto_name().as_str()),
                });
            }
            if let Some(j) = agg_exprs.iter().position(|a| a == &n) {
                let dtype = n.data_type().unwrap_or(DataType::String);
                return Transformed::yes(Expr::BoundRef {
                    index: ngroups + j,
                    dtype,
                    nullable: true,
                    name: Arc::from(n.auto_name().as_str()),
                });
            }
            Transformed::no(n)
        });
        final_exprs.push(rewritten.data);
    }
    let finish_rows = move |key: Row, accs: Vec<Acc>| -> Row {
        let mut values = key.into_values();
        values.extend(accs.into_iter().map(Acc::finish));
        let internal = Row::new(values);
        Row::new(
            final_exprs
                .iter()
                .map(|e| interpreter::eval(e, &internal).expect("final aggregate failed"))
                .collect(),
        )
    };

    if groupings.is_empty() {
        // Global aggregate: partials per partition, merged on the driver —
        // correct even over an empty input (COUNT(*) = 0).
        let calls = plan_row_calls(&agg_exprs, &input_attrs)?;
        let child = execute_node(input, id + 1, ctx)?;
        let eager_start = Instant::now();
        let calls_for_job = calls.clone();
        let partials = child
            .run_job(move |_, it| {
                let mut accs = init_all(&calls_for_job);
                for row in it {
                    update_all(&calls_for_job, &mut accs, &row);
                }
                accs
            })
            .map_err(engine_err)?;
        let merged = partials
            .into_iter()
            .reduce(|a, b| a.into_iter().zip(b).map(|(x, y)| x.merge(y)).collect())
            .unwrap_or_else(|| init_all(&calls));
        let row = finish_rows(Row::empty(), merged);
        note_eager_ns(ctx, id, eager_start);
        return Ok(ctx.sc.parallelize(vec![row], 1));
    }

    let bound_groupings = bind_all(groupings, &input_attrs)?;
    let sctx = ctx.spill_ctx(id);
    let map_sctx = sctx.clone();
    let lanes = if ctx.conf.reference {
        None
    } else {
        plan_lanes(&agg_exprs, &input_attrs)
    };
    let partials: RddRef<(Row, Vec<Acc>)> = match lanes {
        Some(specs) => {
            let node = ctx.metrics.as_ref().map(|pm| pm.node(id));
            lower_node(input, id + 1, ctx)?
                .batches(input, ctx)
                .map_partitions(move |it| {
                    let partials =
                        batch_partial_agg(it, &bound_groupings, &specs, &map_sctx, node.as_ref());
                    Box::new(partials.into_iter())
                })
        }
        None => {
            let calls = plan_row_calls(&agg_exprs, &input_attrs)?;
            let key_fns: Vec<ValueFn> = bound_groupings.into_iter().map(value_fn).collect();
            execute_node(input, id + 1, ctx)?.map_partitions(move |it| {
                Box::new(partial_agg_partition(it, &key_fns, &calls, &map_sctx).into_iter())
            })
        }
    };

    let shuffled = partials.partition_by(Arc::new(HashPartitioner::new(
        ctx.conf.shuffle_partitions.max(1),
    )));
    let key_dtypes: Vec<DataType> = groupings
        .iter()
        .map(|g| g.data_type().unwrap_or(DataType::String))
        .collect();
    let layout = spill::AggLayout::new(key_dtypes);
    let merged = shuffled.map_partitions(move |it| {
        Box::new(spill::merge_agg_partition(it, &layout, &sctx, 0).into_iter())
    });
    Ok(merged.map(move |(key, accs)| finish_rows(key, accs)))
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
) -> Vec<(Row, Vec<Acc>)> {
    let mut reservation = sctx.pool.register();
    let mut table: HashMap<Row, Vec<Acc>> = HashMap::new();
    let mut out: Vec<(Row, Vec<Acc>)> = Vec::new();
    for row in it {
        let key = Row::new(key_fns.iter().map(|f| f(&row)).collect());
        if let Some(accs) = table.get_mut(&key) {
            update_all(calls, accs, &row);
            continue;
        }
        let mut accs = init_all(calls);
        update_all(calls, &mut accs, &row);
        let bytes = key.approx_bytes() + 16 + 24 * accs.len() as u64;
        if !reservation.try_grow(bytes) && !table.is_empty() {
            out.extend(table.drain());
            reservation.free();
            reservation.try_grow(bytes);
        }
        table.insert(key, accs);
    }
    out.extend(table.drain());
    out
}

// ---- batch kernel ----

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
                vectorized::AccLane::for_input(lane, &dtype)?;
                (lane, Some((bound, dtype)))
            }
            _ => return None,
        };
        specs.push(spec);
    }
    Some(specs)
}

/// Fresh lane for a spec (support was proven at plan time).
fn new_lane(spec: &LaneSpec) -> vectorized::AccLane {
    let dtype = spec
        .1
        .as_ref()
        .map(|(_, d)| d.clone())
        .unwrap_or(DataType::Long);
    vectorized::AccLane::for_input(spec.0, &dtype).expect("lane support checked at plan time")
}

/// Flush every interned group as `(key, Vec<Acc>)` partials and reset
/// the table and lanes for continued accumulation.
fn drain_batch_groups(
    groups: &mut vectorized::BatchGroups,
    lanes: &mut [vectorized::AccLane],
    specs: &[LaneSpec],
    out: &mut Vec<(Row, Vec<Acc>)>,
) {
    if groups.is_empty() {
        return;
    }
    let taken = std::mem::take(groups);
    for (g, key) in taken.into_keys().into_iter().enumerate() {
        out.push((key, lanes.iter().map(|l| l.partial(g)).collect()));
    }
    for (lane, spec) in lanes.iter_mut().zip(specs) {
        *lane = new_lane(spec);
    }
}

/// Batch-native partial aggregation of one input partition: group keys
/// are evaluated and interned columnar ([`vectorized::BatchGroups`]),
/// and each aggregate updates a typed accumulator lane over the batch's
/// `(lane, group)` assignments. A denied reservation flushes all partials
/// downstream, exactly as in [`partial_agg_partition`], and accumulation
/// restarts empty.
fn batch_partial_agg(
    it: engine::BoxIter<RowBatch>,
    groupings: &[Expr],
    specs: &[LaneSpec],
    sctx: &SpillCtx,
    node: Option<&Arc<OperatorMetrics>>,
) -> Vec<(Row, Vec<Acc>)> {
    let mut reservation = sctx.pool.register();
    let mut groups = vectorized::BatchGroups::new();
    let mut lanes: Vec<vectorized::AccLane> = specs.iter().map(new_lane).collect();
    let mut out: Vec<(Row, Vec<Acc>)> = Vec::new();
    let mut asg: Vec<(u32, u32)> = Vec::new();
    let (mut batches, mut interned) = (0u64, 0u64);
    for batch in it {
        batches += 1;
        let key_batch = vectorized::eval_projection_batch(groupings, &batch)
            .expect("group key evaluation failed");
        let prev = groups.len();
        groups.assign(&key_batch, &mut asg);
        let num = groups.len();
        interned += (num - prev) as u64;
        for (spec, lane) in specs.iter().zip(lanes.iter_mut()) {
            match &spec.1 {
                Some((arg, _)) => {
                    let col = vectorized::eval_batch(arg, &batch)
                        .expect("aggregate argument evaluation failed");
                    lane.update(Some(&col), &asg, num);
                }
                None => lane.update(None, &asg, num),
            }
        }
        let new_bytes: u64 = (prev..num)
            .map(|g| groups.key(g).approx_bytes() + 16 + 24 * lanes.len() as u64)
            .sum();
        if new_bytes > 0 && !reservation.try_grow(new_bytes) && prev > 0 {
            drain_batch_groups(&mut groups, &mut lanes, specs, &mut out);
            reservation.free();
            reservation.try_grow(new_bytes);
        }
    }
    drain_batch_groups(&mut groups, &mut lanes, specs, &mut out);
    if let Some(n) = node {
        n.add_extra("batches", batches);
        n.add_extra("groups", interned);
    }
    out
}
