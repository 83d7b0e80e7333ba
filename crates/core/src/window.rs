//! Window functions: co-locate each window partition with a hash shuffle,
//! sort every engine partition by (partition keys, order keys) with
//! [`spill::external_sort`] — the sort of every ORDER BY, under every
//! memory budget — then walk one window partition at a time evaluating
//! ranking, offset, and framed-aggregate calls.

use crate::aggregate::AggCall;
use crate::execution::{bind_all, execute_node, value_fn, ExecContext, ValueFn};
use crate::sort::{descending_mask, KeyedRow, SortKey};
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
use engine::{HashPartitioner, PairRdd, Partitioner, RddRef};
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
                arg: value_fn(bound),
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
                call: AggCall::plan(*f, false, arg, input)?,
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

/// Evaluate all window calls for one window partition of `(key, input)`
/// pairs, already frame-ordered; the key is `pkeys ++ okeys`. Emits the
/// input rows extended with one column per call.
fn eval_window_partition(
    group: Vec<KeyedRow>,
    np: usize,
    calls: &[WindowCall],
    frames: &mut u64,
) -> Vec<Row> {
    let n = group.len();
    let (keys, inputs): (Vec<SortKey>, Vec<Row>) = group.into_iter().unzip();
    let oks: Vec<&[Value]> = keys.iter().map(|k| &k.values()[np..]).collect();
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
            self.out =
                eval_window_partition(group, self.np, &self.calls, &mut self.frames).into_iter();
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

/// Sends a window key where a [`HashPartitioner`] sends its PARTITION BY
/// prefix, so the shuffle needs no copy of that prefix to key on.
struct PrefixPartitioner {
    prefix: usize,
    partitions: usize,
}

impl Partitioner<SortKey> for PrefixPartitioner {
    fn num_partitions(&self) -> usize {
        self.partitions
    }

    fn partition(&self, key: &SortKey) -> usize {
        HashPartitioner::new(self.partitions).partition(&&key.values()[..self.prefix])
    }
}

/// Lower a `Window` operator: shuffle rows so each window partition is
/// co-located, sort every engine partition by (partition keys, order
/// keys), then walk each window partition evaluating ranking, offset, and
/// framed-aggregate calls.
pub(crate) fn execute_window(
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
            .map(|e| plan_window_call(e, &input_attrs))
            .collect::<Result<Vec<_>>>()?,
    );

    let np = partition_by.len();
    let okey_exprs: Vec<Expr> = order_by.iter().map(|o| o.expr.clone()).collect();
    let key_fns: Vec<ValueFn> = bind_all(partition_by, &input_attrs)?
        .into_iter()
        .chain(bind_all(&okey_exprs, &input_attrs)?)
        .map(value_fn)
        .collect();
    // Partition keys order ascending; order keys as the query says.
    let mask = descending_mask(order_by) << np;

    // Key every row once: (pkeys ++ okeys, input).
    let keyed = child.map(move |row| {
        let key = key_fns.iter().map(|f| f(&row)).collect();
        (SortKey::new(key, mask), row)
    });

    // Co-locate each window partition: hash shuffle on the partition
    // key, or a single engine partition when there is none.
    let partitioned = if np == 0 {
        keyed.coalesce(1)
    } else {
        keyed.partition_by(Arc::new(PrefixPartitioner {
            prefix: np,
            partitions: ctx.conf.shuffle_partitions.max(1),
        }))
    };

    let key_dtypes: Vec<DataType> = partition_by
        .iter()
        .chain(okey_exprs.iter())
        .map(|e| e.data_type().unwrap_or(DataType::String))
        .collect();
    let layout = spill::SortLayout::new(key_dtypes, input_attrs.into_iter().map(|c| c.dtype), mask);
    let sctx = ctx.spill_ctx(id);
    let node = ctx.metrics.as_ref().map(|pm| pm.node(id));

    Ok(partitioned.map_partitions(move |it| {
        Box::new(WindowPartitionIter {
            sorted: spill::external_sort(it, &layout, &sctx),
            pending: None,
            np,
            calls: calls.clone(),
            out: Vec::new().into_iter(),
            frames: 0,
            node: node.clone(),
        })
    }))
}
