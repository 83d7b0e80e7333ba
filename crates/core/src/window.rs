//! Window functions over the block pipeline of `sort.rs`.
//!
//! Production keys every input lane by its PARTITION BY values, then its
//! ORDER BY values, evaluated by kernels; routes the lanes to reducers by
//! the hash of the PARTITION BY prefix (or all to one when there is
//! none); and prefix-sorts each reducer's blocks (`sort.rs`, step 3).
//! Walking the permutation, runs of equal PARTITION BY lanes are window
//! partitions — a boundary is a change of prefix word, lanes compared
//! only where words tie ([`KeyWalk::same_as_previous`]) — and runs of
//! equal ORDER BY lanes within them are peer groups, held in one pair of
//! buffers ([`Peers`]) refilled per window partition. `row_number`,
//! `rank` and `dense_rank` build Long lanes,
//! `lag`/`lead` gather the argument lane at shifted positions (the typed
//! default outside the partition), and framed aggregates fold [`Acc`]
//! over the argument lane with the frame machine the row path uses. The
//! output batch is the input lanes plus one lane per call. A reducer
//! that spilled walks its merged sorted runs instead ([`RunWindows`]),
//! one batch of finished window partitions at a time, with the same
//! lane evaluation under the identity permutation.
//!
//! The row path — key each row, shuffle, [`spill::external_sort`] the
//! pairs, walk one window partition at a time — is the reference
//! configuration's only.

use crate::exchange::Exchange;
use crate::execution::{bind_all, execute_node, lower_node, task_iter, try_map, ExecContext};
use crate::sort::{
    chunks, descending_mask, lane_order, BlockKeys, KeyLanes, KeyWalk, KeyedRow, LaneBlock,
    SortBlock, SortKey, Sorted,
};
use crate::spill;
use catalyst::error::{CatalystError, Result};
use catalyst::expr::{
    AggFunc, ColumnRef, Expr, FrameBound, FrameUnits, SortOrder, WindowFrame, WindowFunc,
};
use catalyst::interpreter::{self, bind_references};
use catalyst::physical::metrics::OperatorMetrics;
use catalyst::physical::PhysicalPlan;
use catalyst::row::Row;
use catalyst::types::DataType;
use catalyst::value::Value;
use catalyst::vectorized::{self, Acc, ColumnVector, RowBatch, VectorData, NULL_LANE};
use engine::{task, BoxIter, RddRef};
use std::cmp::Ordering;
use std::sync::Arc;

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
        /// The argument, bound to the input.
        arg: Expr,
        /// Constant offset (rows).
        offset: i64,
        /// Value when the shifted position falls outside the partition.
        default: Value,
        /// `lead` looks ahead; `lag` looks back.
        lead: bool,
    },
    /// An aggregate evaluated per row over its window frame.
    Agg {
        func: AggFunc,
        /// The argument, bound to the input (`None` for `COUNT(*)`).
        arg: Option<Expr>,
        /// Frame bounds.
        frame: WindowFrame,
    },
}

impl WindowCall {
    /// The bound argument the call reads, if any.
    fn arg(&self) -> Option<&Expr> {
        match self {
            WindowCall::Shift { arg, .. } => Some(arg),
            WindowCall::Agg { arg, .. } => arg.as_ref(),
            _ => None,
        }
    }
}

/// Fold a constant (column-free) expression to its value.
fn fold_const(e: &Expr) -> Option<Value> {
    if !e.foldable() {
        return None;
    }
    interpreter::eval(e, &Row::empty()).ok()
}

/// Plan one window output expression into an executable [`WindowCall`].
fn plan_window_call(expr: &Expr, input: &[ColumnRef]) -> Result<WindowCall> {
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
            // The default takes the call's declared type (the argument's),
            // as every other output lane does: `lag(bigint_col, 1, -1)`
            // emits a BIGINT -1.
            let dtype = arg0.data_type()?;
            let default = match args.get(2) {
                None => Value::Null,
                Some(d) => fold_const(d)
                    .and_then(|v| v.cast_to(&dtype).ok())
                    .ok_or_else(|| {
                        CatalystError::Internal(format!(
                            "{}() default must be a constant of the argument's type",
                            func.name()
                        ))
                    })?,
            };
            Ok(WindowCall::Shift {
                arg: bound,
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
                func: *f,
                arg: arg.map(|a| bind_references(a.clone(), input)).transpose()?,
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

/// Peer groups of frame-ordered rows: each row's first and last peer.
/// One value is refilled for every window partition of a walk.
#[derive(Default)]
struct Peers {
    start: Vec<usize>,
    end: Vec<usize>,
}

impl Peers {
    /// The peer groups of `n` rows, where `same(i)` says row `i` ties with
    /// the row before; each pair of neighbours is compared once.
    fn fill(&mut self, n: usize, mut same: impl FnMut(usize) -> bool) {
        self.start.clear();
        for i in 0..n {
            let start = if i > 0 && same(i) {
                self.start[i - 1]
            } else {
                i
            };
            self.start.push(start);
        }
        self.end.clear();
        self.end.resize(n, 0);
        for i in (0..n).rev() {
            self.end[i] = match self.start.get(i + 1) {
                Some(&next) if next == self.start[i] => self.end[i + 1],
                _ => i,
            };
        }
    }
}

/// A framed aggregate over one window partition of `n` rows, one value
/// per row; `update(acc, k)` folds row `k` into `acc`. `frames` counts
/// evaluated frames (the `frames=` metric).
fn framed_agg(
    func: AggFunc,
    frame: &WindowFrame,
    n: usize,
    update: impl Fn(&mut Acc, usize) -> Result<()>,
    peer_start: &[usize],
    peer_end: &[usize],
    frames: &mut u64,
) -> Result<Vec<Value>> {
    let init = || Acc::new(func, false);
    if frame.is_whole_partition() {
        let mut acc = init();
        for k in 0..n {
            update(&mut acc, k)?;
        }
        *frames += 1;
        Ok(vec![acc.finish(); n])
    } else if frame.start == FrameBound::UnboundedPreceding {
        // Growing frame: the end bound is nondecreasing in `i`, so one
        // running accumulator serves every row.
        let mut acc = init();
        let mut consumed = 0usize;
        (0..n)
            .map(|i| {
                let target = frame_hi(frame, i, n, peer_end).map_or(0, |h| h + 1);
                while consumed < target {
                    update(&mut acc, consumed)?;
                    consumed += 1;
                }
                *frames += 1;
                Ok(if target == 0 {
                    init().finish()
                } else {
                    acc.clone().finish()
                })
            })
            .collect()
    } else {
        // Sliding frame: recompute over the bounded window.
        (0..n)
            .map(|i| {
                let mut acc = init();
                if let (Some(lo), Some(hi)) = (
                    frame_lo(frame, i, n, peer_start),
                    frame_hi(frame, i, n, peer_end),
                ) {
                    for k in lo..=hi {
                        update(&mut acc, k)?;
                    }
                }
                *frames += 1;
                Ok(acc.finish())
            })
            .collect()
    }
}

// ---- rows: the reference ----

/// Evaluate one window call over a full partition, producing one value
/// per row. `frames` counts evaluated aggregate frames (the `frames=`
/// metric).
fn eval_window_call(
    call: &WindowCall,
    inputs: &[Row],
    peer_start: &[usize],
    peer_end: &[usize],
    frames: &mut u64,
) -> Result<Vec<Value>> {
    let n = inputs.len();
    Ok(match call {
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
            .map(|i| match shifted(i, n, *offset, *lead) {
                Some(j) => interpreter::eval(arg, &inputs[j]),
                None => Ok(default.clone()),
            })
            .collect::<Result<_>>()?,
        WindowCall::Agg { func, arg, frame } => {
            let update = |acc: &mut Acc, k: usize| {
                acc.update(match arg {
                    None => Value::Long(1), // COUNT(*): every row counts
                    Some(a) => interpreter::eval(a, &inputs[k])?,
                })
            };
            framed_agg(*func, frame, n, update, peer_start, peer_end, frames)?
        }
    })
}

/// Row `i`'s `lag`/`lead` row in a partition of `n`, if inside it.
fn shifted(i: usize, n: usize, offset: i64, lead: bool) -> Option<usize> {
    let j = if lead {
        i as i64 + offset
    } else {
        i as i64 - offset
    };
    (0..n as i64).contains(&j).then_some(j as usize)
}

/// Evaluate all window calls for one window partition of `(key, input)`
/// pairs, already frame-ordered; the key is `pkeys ++ okeys`. Emits the
/// input rows extended with one column per call.
fn eval_window_partition(
    group: Vec<KeyedRow>,
    np: usize,
    calls: &[WindowCall],
    frames: &mut u64,
) -> Result<Vec<Row>> {
    let (keys, inputs): (Vec<SortKey>, Vec<Row>) = group.into_iter().unzip();
    let oks: Vec<&[Value]> = keys.iter().map(|k| &k.values()[np..]).collect();
    // Peer groups: maximal runs of equal ORDER BY keys.
    let mut peers = Peers::default();
    peers.fill(inputs.len(), |i| oks[i] == oks[i - 1]);
    let cols: Vec<Vec<Value>> = calls
        .iter()
        .map(|c| eval_window_call(c, &inputs, &peers.start, &peers.end, frames))
        .collect::<Result<_>>()?;
    Ok(inputs
        .into_iter()
        .enumerate()
        .map(|(i, row)| {
            let mut values = row.into_values();
            for col in &cols {
                values.push(col[i].clone());
            }
            Row::new(values)
        })
        .collect())
}

/// Streams one sorted engine partition, buffering one window partition
/// (rows sharing the partition key) at a time and emitting its rows
/// extended with the window columns.
struct WindowPartitionIter {
    /// `(pkeys ++ okeys, input row)` pairs sorted by key.
    sorted: engine::BoxIter<KeyedRow>,
    /// First pair of the next window partition, read past the boundary.
    pending: Option<KeyedRow>,
    /// Partition-key column count (key prefix).
    np: usize,
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
            for pair in self.sorted.by_ref() {
                if pair.0.values()[..self.np] == group[0].0.values()[..self.np] {
                    group.push(pair);
                } else {
                    self.pending = Some(pair);
                    break;
                }
            }
            let rows = eval_window_partition(group, self.np, &self.calls, &mut self.frames);
            self.out = task::ok(rows)?.into_iter();
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

/// Plan every window call of `window_exprs` over `input`.
fn plan_calls(window_exprs: &[Expr], input: &[ColumnRef]) -> Result<Arc<Vec<WindowCall>>> {
    let calls = window_exprs.iter().map(|e| plan_window_call(e, input));
    Ok(Arc::new(calls.collect::<Result<Vec<_>>>()?))
}

/// Lower a `Window` operator as rows (the reference configuration):
/// shuffle rows so each window partition is co-located, sort every engine
/// partition by (partition keys, order keys), then walk each window
/// partition evaluating ranking, offset, and framed-aggregate calls.
pub(crate) fn execute_window(
    input: &Arc<PhysicalPlan>,
    window_exprs: &[Expr],
    partition_by: &[Expr],
    order_by: &[SortOrder],
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let input_attrs = input.output();
    let exchange = Exchange::at(input, id + 1)?;
    let child = execute_node(exchange.input, exchange.input_id, ctx)?;
    let calls = plan_calls(window_exprs, &input_attrs)?;

    let np = partition_by.len();
    let okey_exprs: Vec<Expr> = order_by.iter().map(|o| o.expr.clone()).collect();
    let key_exprs: Vec<Expr> = bind_all(partition_by, &input_attrs)?
        .into_iter()
        .chain(bind_all(&okey_exprs, &input_attrs)?)
        .collect();
    // Partition keys order ascending; order keys as the query says.
    let mask = descending_mask(order_by) << np;

    // Key every row once: (pkeys ++ okeys, input).
    let keyed = try_map(&child, move |row| {
        let key = key_exprs.iter().map(|e| interpreter::eval(e, &row));
        Ok((SortKey::new(key.collect::<Result<_>>()?, mask), row))
    });

    // Co-locate each window partition: hash shuffle on the partition
    // key, or a single engine partition when there is none.
    let partitioned = exchange.window_rows(&keyed, ctx);

    let key_dtypes: Vec<DataType> = partition_by
        .iter()
        .chain(okey_exprs.iter())
        .map(|e| e.data_type().unwrap_or(DataType::String))
        .collect();
    let layout = spill::PairLayout::new(key_dtypes, input_attrs.into_iter().map(|c| c.dtype));
    let sctx = ctx.spill_ctx(id);
    let node = ctx.metrics.as_ref().map(|pm| pm.node(id));

    Ok(partitioned.map_partitions(move |it| {
        let Some(sorted) = task::ok(spill::external_sort(it, &layout, mask, &sctx)) else {
            return Box::new(std::iter::empty());
        };
        Box::new(WindowPartitionIter {
            sorted,
            pending: None,
            np,
            calls: calls.clone(),
            out: Vec::new().into_iter(),
            frames: 0,
            node: node.clone(),
        })
    }))
}

// ---- lanes: production ----

/// Lower a `Window` (pre-order id `id`) to the block pipeline, or `None`
/// in the reference configuration.
pub(crate) fn execute_batch_window(
    input: &Arc<PhysicalPlan>,
    window_exprs: &[Expr],
    partition_by: &[Expr],
    order_by: &[SortOrder],
    id: usize,
    ctx: &ExecContext,
) -> Option<Result<RddRef<RowBatch>>> {
    if ctx.conf.reference {
        return None;
    }
    Some(batch_window(
        input,
        window_exprs,
        partition_by,
        order_by,
        id,
        ctx,
    ))
}

fn batch_window(
    input: &Arc<PhysicalPlan>,
    window_exprs: &[Expr],
    partition_by: &[Expr],
    order_by: &[SortOrder],
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<RowBatch>> {
    let input_attrs = input.output();
    let exchange = Exchange::at(input, id + 1)?;
    let calls = plan_calls(window_exprs, &input_attrs)?;
    let np = partition_by.len();
    let exprs: Vec<Expr> = (partition_by.iter().cloned())
        .chain(order_by.iter().map(|o| o.expr.clone()))
        .collect();
    // Partition keys order ascending; order keys as the query says.
    let mask = descending_mask(order_by) << np;
    let keys = Arc::new(BlockKeys::new(&exprs, mask, &input_attrs)?);
    let (route, reducers) = (exchange.window_route(), exchange.partitions());
    let map_keys = keys.clone();
    let blocks = lower_node(exchange.input, exchange.input_id, ctx)?
        .batches(exchange.input, ctx)
        .map_partitions(move |it| task_iter(map_keys.ship(it, &route, reducers)));

    let call_dtypes: Arc<Vec<DataType>> = Arc::new(
        (window_exprs.iter())
            .map(|e| e.data_type().unwrap_or(DataType::String))
            .collect(),
    );
    let sctx = ctx.spill_ctx(id);
    let node = ctx.metrics.as_ref().map(|pm| pm.node(id));
    let batch_size = ctx.conf.vectorize_batch_size.max(1);
    let shuffled = exchange.by_index(&blocks, SortBlock::approx_bytes, ctx);
    Ok(shuffled.map_partitions(move |it| {
        let blocks = Box::new(it.map(|(_, block)| block));
        let mut ties = 0;
        let sorted = keys.sort(blocks, &sctx, batch_size, &mut ties);
        match task::ok(sorted) {
            None => Box::new(std::iter::empty()),
            Some(Sorted::Lanes(sorted)) => {
                let (mut frames, mut walk) = (0, sorted.walk());
                let outputs = eval_lanes(
                    sorted.input(),
                    &mut walk,
                    &calls,
                    &call_dtypes,
                    np,
                    &mut frames,
                );
                if let Some(node) = &node {
                    node.add_extra("frames", frames);
                    node.add_extra("prefix_ties", ties + walk.ties);
                }
                let Some(outputs) = task::ok(outputs) else {
                    return Box::new(std::iter::empty());
                };
                Box::new(chunks(sorted.perm.len(), batch_size).map(move |range| {
                    let mut columns = sorted.gather(range.clone());
                    columns.extend(outputs.iter().map(|c| slice(c, range.clone())));
                    RowBatch::new(columns, range.len())
                }))
            }
            Some(Sorted::Runs(merge)) => {
                if let Some(node) = &node {
                    node.add_extra("prefix_ties", ties);
                }
                Box::new(RunWindows {
                    merged: Box::new(merge.map_while(task::ok)),
                    open: Vec::new(),
                    keys: keys.clone(),
                    calls: calls.clone(),
                    call_dtypes: call_dtypes.clone(),
                    np,
                    node: node.clone(),
                })
            }
        }
    }))
}

/// Lanes `range` of `column`; all of them are shared, not copied.
fn slice(column: &Arc<ColumnVector>, range: std::ops::Range<usize>) -> Arc<ColumnVector> {
    if range.len() == column.len() {
        return column.clone();
    }
    let lanes: Vec<u32> = (range.start as u32..range.end as u32).collect();
    Arc::new(column.gather(&lanes))
}

/// One call's output lanes, in sorted order, as they are built.
enum LaneOut {
    /// Ranking: Long lanes.
    Long(Vec<i64>),
    /// `lag`/`lead`: argument lanes to gather ([`NULL_LANE`] outside the
    /// partition).
    Shifted(Vec<u32>),
    /// Framed aggregates: the accumulators' results.
    Values(Vec<Value>),
}

impl LaneOut {
    fn for_call(call: &WindowCall) -> LaneOut {
        match call {
            WindowCall::RowNumber | WindowCall::Rank | WindowCall::DenseRank => {
                LaneOut::Long(Vec::new())
            }
            WindowCall::Shift { .. } => LaneOut::Shifted(Vec::new()),
            WindowCall::Agg { .. } => LaneOut::Values(Vec::new()),
        }
    }

    /// Append `call` over one window partition: `rows` are its argument
    /// lanes in frame order, `peer_start`/`peer_end` its peer groups.
    fn extend(
        &mut self,
        call: &WindowCall,
        arg: Option<&ColumnVector>,
        rows: &[u32],
        (peer_start, peer_end): (&[usize], &[usize]),
        frames: &mut u64,
    ) -> Result<()> {
        let n = rows.len();
        match (self, call) {
            (LaneOut::Long(out), WindowCall::RowNumber) => out.extend(1..=n as i64),
            (LaneOut::Long(out), WindowCall::Rank) => {
                out.extend(peer_start.iter().map(|&p| p as i64 + 1))
            }
            (LaneOut::Long(out), WindowCall::DenseRank) => {
                let mut dense = 0i64;
                out.extend((0..n).map(|i| {
                    if i == peer_start[i] {
                        dense += 1;
                    }
                    dense
                }))
            }
            (LaneOut::Shifted(out), WindowCall::Shift { offset, lead, .. }) => out.extend(
                (0..n).map(|i| shifted(i, n, *offset, *lead).map_or(NULL_LANE, |j| rows[j])),
            ),
            (LaneOut::Values(out), WindowCall::Agg { func, frame, .. }) => {
                let update = |acc: &mut Acc, k: usize| {
                    acc.update(match arg {
                        None => Value::Long(1), // COUNT(*): every row counts
                        Some(a) => a.get(rows[k] as usize),
                    })
                };
                out.extend(framed_agg(
                    *func, frame, n, update, peer_start, peer_end, frames,
                )?)
            }
            _ => unreachable!("a call's output was built for another call"),
        }
        Ok(())
    }

    /// The finished lanes of a call declared `dtype`.
    fn finish(
        self,
        call: &WindowCall,
        arg: Option<&ColumnVector>,
        dtype: &DataType,
    ) -> ColumnVector {
        match (self, call) {
            (LaneOut::Long(lanes), _) => {
                ColumnVector::new(DataType::Long, VectorData::Long(lanes), None)
            }
            (LaneOut::Shifted(lanes), WindowCall::Shift { default, .. }) => arg
                .expect("lag/lead reads its argument")
                .gather_or(&lanes, default),
            (LaneOut::Values(values), _) => ColumnVector::from_values(dtype, values),
            (LaneOut::Shifted(_), _) => unreachable!("shifted lanes belong to lag/lead"),
        }
    }
}

/// Every call's output lanes over sorted lanes, in sorted order: `walk`
/// orders the lanes of the `input` columns by its keys (PARTITION BY,
/// then ORDER BY). Window partitions end where the walk's PARTITION BY
/// columns change, which differing prefix words answer without reading a
/// lane. Arguments are evaluated by kernels over the unsorted lanes and
/// read through the permutation.
fn eval_lanes(
    input: &[Arc<ColumnVector>],
    walk: &mut KeyWalk,
    calls: &[WindowCall],
    dtypes: &[DataType],
    np: usize,
    frames: &mut u64,
) -> Result<Vec<Arc<ColumnVector>>> {
    let n = walk.perm().len();
    let input = RowBatch::new(input.to_vec(), n);
    let args: Vec<Option<Arc<ColumnVector>>> = (calls.iter())
        .map(|call| {
            call.arg()
                .map(|arg| {
                    let out = vectorized::eval_projection_batch(std::slice::from_ref(arg), &input)?;
                    Ok(out.column(0).clone())
                })
                .transpose()
        })
        .collect::<Result<_>>()?;
    let width = walk.width();
    let mut outs: Vec<LaneOut> = calls.iter().map(LaneOut::for_call).collect();
    let mut peers = Peers::default();
    let mut start = 0;
    while start < n {
        let end = (start + 1..n)
            .find(|&e| !walk.same_as_previous(e, 0..np))
            .unwrap_or(n);
        peers.fill(end - start, |i| walk.same_as_previous(start + i, np..width));
        let rows = &walk.perm()[start..end];
        for ((call, arg), out) in calls.iter().zip(&args).zip(&mut outs) {
            let peers = (&peers.start[..], &peers.end[..]);
            out.extend(call, arg.as_deref(), rows, peers, frames)?;
        }
        start = end;
    }
    Ok((outs.into_iter().zip(calls).zip(args.iter().zip(dtypes)))
        .map(|((out, call), (arg, dtype))| Arc::new(out.finish(call, arg.as_deref(), dtype)))
        .collect())
}

/// The window over a spilled reducer's merged runs. Each merged batch is
/// cut at its last PARTITION BY boundary: the window partitions it
/// finishes, with the one left open before them, are evaluated by
/// [`eval_lanes`] under the identity permutation and leave as one batch.
/// The open partition, held until a boundary or the end, is unreserved,
/// as one window partition of the row path is.
struct RunWindows {
    merged: BoxIter<LaneBlock>,
    /// The lanes of the window partition not yet finished, in order.
    open: Vec<LaneBlock>,
    keys: Arc<BlockKeys>,
    calls: Arc<Vec<WindowCall>>,
    call_dtypes: Arc<Vec<DataType>>,
    np: usize,
    node: Option<Arc<OperatorMetrics>>,
}

impl RunWindows {
    /// The finished window partitions, `batch` cut at its last
    /// PARTITION BY boundary behind the open lanes; `None` while it
    /// finishes none.
    fn cut(&mut self, batch: LaneBlock) -> Option<Vec<LaneBlock>> {
        let np = self.np;
        let keys = self.keys.key_lanes(&batch.1);
        let pkeys = &keys[..np];
        let boundary = |a: &[KeyLanes], i: usize, b: &[KeyLanes], j: usize| {
            lane_order(a, i, b, j, 0) != Ordering::Equal
        };
        let cut = (1..batch.0)
            .rev()
            .find(|&i| boundary(pkeys, i - 1, pkeys, i));
        let cut = cut.or_else(|| {
            let (rows, open) = self.open.last()?;
            let before = self.keys.key_lanes(open);
            boundary(&before[..np], rows - 1, pkeys, 0).then_some(0)
        });
        let Some(cut) = cut else {
            self.open.push(batch);
            return None;
        };
        let mut finished = std::mem::take(&mut self.open);
        let (rows, columns) = batch;
        if cut > 0 {
            finished.push((cut, columns.iter().map(|c| slice(c, 0..cut)).collect()));
        }
        let rest = columns.iter().map(|c| slice(c, cut..rows)).collect();
        self.open.push((rows - cut, rest));
        Some(finished)
    }

    /// Whole window partitions' lanes, in order, with every call's lanes.
    fn eval(&self, lanes: Vec<LaneBlock>) -> Result<RowBatch> {
        let rows: usize = lanes.iter().map(|(n, _)| n).sum();
        let blocks: Vec<&[Arc<ColumnVector>]> = lanes.iter().map(|(_, c)| &c[..]).collect();
        let mut columns = self.keys.concat(&blocks);
        let width = self.keys.width();
        let (mut frames, mut walk) = (0, self.keys.in_order(&columns, rows));
        let outputs = eval_lanes(
            &columns[..width],
            &mut walk,
            &self.calls,
            &self.call_dtypes,
            self.np,
            &mut frames,
        );
        if let Some(node) = &self.node {
            node.add_extra("frames", frames);
            node.add_extra("prefix_ties", walk.ties);
        }
        columns.truncate(width);
        columns.extend(outputs?);
        Ok(RowBatch::new(columns, rows))
    }
}

impl Iterator for RunWindows {
    type Item = RowBatch;

    fn next(&mut self) -> Option<RowBatch> {
        let finished = loop {
            match self.merged.next() {
                Some(batch) => {
                    if let Some(finished) = self.cut(batch) {
                        break finished;
                    }
                }
                None if self.open.is_empty() => return None,
                None => break std::mem::take(&mut self.open),
            }
        };
        task::ok(self.eval(finished))
    }
}
