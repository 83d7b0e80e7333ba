//! ORDER BY: the one definition of key order, `Sort`, `TakeOrdered`,
//! and the block pipeline `Sort` and `Window` share.
//!
//! **Block pipeline** (production):
//!
//! 1. *Keys by kernels.* [`BlockKeys`] evaluates the sort keys of each
//!    input batch with [`vectorized::eval_projection_batch`]; a key that
//!    is a bare input column is that column, not a copy.
//! 2. *Routing.* The `Exchange` under the operator routes every selected
//!    lane to a reducer — a range sort by bounds from one sketch job
//!    over the key batches, a window by the hash of its PARTITION BY
//!    prefix — and each map task ships one [`SortBlock`] (input and key
//!    columns) per non-empty reducer.
//! 3. *Prefix sort.* A reducer concatenates its blocks in map-id order
//!    and sorts `(word, lane)` pairs, where the word is the first key
//!    column's 8-byte prefix ([`KeyLanes::prefix`], inverted for DESC):
//!    words that differ decide without reading a lane. Equal words fall
//!    to [`lane_order`] from the second key column when the word is
//!    exact ([`KeyLanes::exact`]: the word holds the whole value), from
//!    the first otherwise, then to the lane index, so equal keys keep
//!    map id, then arrival, as a stable sort of rows would. `Sort`
//!    gathers the permutation into batches of `vectorize_batch_size`;
//!    `Window` walks it, and finds its PARTITION BY boundaries by the
//!    same words ([`KeyWalk`]). The `prefix_ties` metric counts the
//!    comparisons that tied on words and read lanes.
//!
//! 4. *Sorted lane runs.* A reducer reserves its blocks as they arrive.
//!    A denial with blocks held sorts them by the same permutation and
//!    writes them as one sorted run of column blocks
//!    ([`spill::write_lane_run`]), as it does a block past the fair
//!    share on its own; the lanes held at the end are the last run, and
//!    [`RunMerge`] merges the runs by [`lane_order`], ties to the lower
//!    run, which is the unbounded stable sort. `Sort` keeps the merged
//!    batches' input columns; `Window` evaluates the window partitions
//!    they finish.
//! 5. *Top-N.* `TakeOrdered` needs no exchange. Each task cuts every
//!    batch's selected lanes to its best `n` (`select_nth_unstable_by`
//!    under [`lane_order`], lane index breaking ties), keeps them in
//!    arrival order, and cuts the candidates it holds back to `n` by the
//!    prefix sort once they pass [`COMPACT_AT`] × `n`; it hands the
//!    driver one sorted block of at most `n` lanes. The driver
//!    concatenates the blocks in partition order, prefix-sorts them (the
//!    stable sort under [`lane_order`]) and keeps `n`, so ties go to the
//!    earlier partition, then the earlier arrival, as a stable sort of
//!    rows would.
//!
//! `(key, row)` pairs ([`KeyedRow`]) and keys evaluated a row at a time
//! belong to the reference configuration alone: its row `Sort` (key →
//! range shuffle → [`spill::external_sort`]) and its row `TakeOrdered`.

use crate::exchange::{Exchange, Route};
use crate::execution::{
    bind_all, engine_err, execute_node, lower_node, note_eager_ns, task_iter, try_map, ExecContext,
};
use crate::spill::{self, SpillCtx};
use catalyst::error::Result;
use catalyst::expr::{ColumnRef, Expr, SortOrder};
use catalyst::interpreter;
use catalyst::physical::PhysicalPlan;
use catalyst::row::Row;
use catalyst::types::DataType;
use catalyst::value::Value;
use catalyst::vectorized::{self, ColumnVector, RowBatch, StrLane, VectorData};
use engine::{task, BoxIter, MemoryReservation, RddRef};
use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::convert::Infallible;
use std::sync::Arc;
use std::time::Instant;

/// The one definition of key order: column by column under
/// [`Value::total_cmp`], reversed where the column's bit of
/// `descending_mask` is set, no further than the first difference. The
/// left key's columns are pulled lazily, so a caller that computes them
/// on demand pays only for the columns that decide.
fn key_order<V: Borrow<Value>, E>(
    left: impl Iterator<Item = std::result::Result<V, E>>,
    right: &[Value],
    descending_mask: u64,
) -> std::result::Result<Ordering, E> {
    for (i, (l, r)) in left.zip(right).enumerate() {
        let o = l?.borrow().total_cmp(r);
        if o != Ordering::Equal {
            return Ok(if descending_mask & (1 << i) != 0 {
                o.reverse()
            } else {
                o
            });
        }
    }
    Ok(Ordering::Equal)
}

/// Bit `i` set when `orders[i]` is descending.
pub(crate) fn descending_mask(orders: &[SortOrder]) -> u64 {
    let mut mask = 0u64;
    for (i, o) in orders.iter().enumerate() {
        if !o.ascending {
            mask |= 1 << i;
        }
    }
    mask
}

/// Sort key with per-column directions and a total order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SortKey {
    values: Vec<Value>,
    descending_mask: u64,
}

impl SortKey {
    pub(crate) fn new(values: Vec<Value>, descending_mask: u64) -> Self {
        SortKey {
            values,
            descending_mask,
        }
    }

    /// The key column values.
    pub(crate) fn values(&self) -> &[Value] {
        &self.values
    }

    /// The key column values (for flattening into a spillable row).
    pub(crate) fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Reservation size of the key columns.
    pub(crate) fn approx_bytes(&self) -> u64 {
        self.values.iter().map(Value::approx_bytes).sum()
    }
}

impl PartialOrd for SortKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SortKey {
    fn cmp(&self, other: &Self) -> Ordering {
        let columns = self.values.iter().map(Ok::<_, Infallible>);
        match key_order(columns, &other.values, self.descending_mask) {
            Ok(o) => o,
        }
    }
}

/// One key column's lanes, typed as [`ColumnVector::get`] would tag
/// them, so comparing lanes is comparing the values they stand for.
enum Lanes<'a> {
    /// Int and Date lanes: `get` narrows them to `i32`.
    Narrow(&'a [i64]),
    /// Long and Timestamp lanes.
    Wide(&'a [i64]),
    /// Float lanes: `get` narrows them to `f32`.
    Float(&'a [f64]),
    /// Double lanes.
    Double(&'a [f64]),
    Bool(&'a [bool]),
    Str(&'a [StrLane]),
    /// Boxed values, compared as values.
    Boxed,
}

/// A key column viewed for [`lane_order`].
pub(crate) struct KeyLanes<'a> {
    column: &'a ColumnVector,
    lanes: Lanes<'a>,
    nulls: Option<&'a [bool]>,
}

impl<'a> KeyLanes<'a> {
    pub(crate) fn new(column: &'a ColumnVector) -> KeyLanes<'a> {
        let lanes = match (column.data(), column.dtype()) {
            (VectorData::Long(v), DataType::Int | DataType::Date) => Lanes::Narrow(v),
            (VectorData::Long(v), _) => Lanes::Wide(v),
            (VectorData::Double(v), DataType::Float) => Lanes::Float(v),
            (VectorData::Double(v), _) => Lanes::Double(v),
            (VectorData::Bool(v), _) => Lanes::Bool(v),
            (VectorData::Str(v), _) => Lanes::Str(v),
            (VectorData::Values(_), _) => Lanes::Boxed,
        };
        KeyLanes {
            column,
            lanes,
            nulls: column.nulls(),
        }
    }

    /// Views of columns `key_cols` of `columns`, in that order.
    pub(crate) fn of(columns: &'a [Arc<ColumnVector>], key_cols: &[usize]) -> Vec<KeyLanes<'a>> {
        key_cols
            .iter()
            .map(|&c| KeyLanes::new(&columns[c]))
            .collect()
    }

    /// Views of every column in `columns`.
    pub(crate) fn all(columns: &'a [Arc<ColumnVector>]) -> Vec<KeyLanes<'a>> {
        columns.iter().map(|c| KeyLanes::new(c)).collect()
    }

    fn is_null(&self, i: usize) -> bool {
        self.nulls.is_some_and(|n| n[i])
    }

    /// Lane `i`'s 8-byte prefix word, ascending: where two words differ,
    /// they order as [`lane_cmp`] orders their lanes, and
    /// [`exact`](Self::exact) says when equal words mean equal lanes.
    /// NULL is 0; integers and floats flip their sign bit into unsigned
    /// order (floats by their `total_cmp` key); a string is its first 7
    /// bytes, zero-padded, over a low byte of `min(len, 8) + 1`; a boxed
    /// lane is 0.
    pub(crate) fn prefix(&self, i: usize) -> u64 {
        const SIGN: u64 = 1 << 63;
        if self.is_null(i) {
            return 0;
        }
        match &self.lanes {
            Lanes::Narrow(x) => (x[i] as i32 as i64 as u64) ^ SIGN,
            Lanes::Wide(x) => x[i] as u64 ^ SIGN,
            Lanes::Float(x) => float_word(f64::from(x[i] as f32)),
            Lanes::Double(x) => float_word(x[i]),
            Lanes::Bool(x) => 1 + u64::from(x[i]),
            Lanes::Str(x) => {
                let bytes = x[i].as_bytes();
                let mut word = [0u8; 8];
                let n = bytes.len().min(7);
                word[..n].copy_from_slice(&bytes[..n]);
                word[7] = bytes.len().min(8) as u8 + 1;
                u64::from_be_bytes(word)
            }
            Lanes::Boxed => 0,
        }
    }

    /// Whether two lanes whose [`prefix`](Self::prefix) words are both
    /// `word` are equal. Integer and date words always say so; a long
    /// or floating word does except at 0, which NULL shares with
    /// `i64::MIN` and one NaN; a string word does when the string ends
    /// within it; a boxed word never does.
    pub(crate) fn exact(&self, word: u64) -> bool {
        match self.lanes {
            Lanes::Narrow(_) | Lanes::Bool(_) => true,
            Lanes::Wide(_) | Lanes::Float(_) | Lanes::Double(_) => word != 0,
            Lanes::Str(_) => word & 0xFF < 9,
            Lanes::Boxed => false,
        }
    }
}

/// `x`'s [`f64::total_cmp`] key as an unsigned word.
fn float_word(x: f64) -> u64 {
    let bits = x.to_bits() as i64;
    (bits ^ (((bits >> 63) as u64) >> 1) as i64) as u64 ^ (1 << 63)
}

/// How lane `i` of `a` compares with lane `j` of `b`, ascending: exactly
/// [`Value::total_cmp`] of the values [`ColumnVector::get`] returns for
/// them — NULL first, `i64` order for integer and date lanes,
/// `f64::total_cmp` for floating lanes (−0.0 before 0.0, NaN last),
/// byte order for strings — without boxing either.
fn lane_cmp(a: &KeyLanes, i: usize, b: &KeyLanes, j: usize) -> Ordering {
    let o = match (&a.lanes, &b.lanes) {
        (Lanes::Narrow(x), Lanes::Narrow(y)) => (x[i] as i32).cmp(&(y[j] as i32)),
        (Lanes::Wide(x), Lanes::Wide(y)) => x[i].cmp(&y[j]),
        (Lanes::Float(x), Lanes::Float(y)) => {
            f64::from(x[i] as f32).total_cmp(&f64::from(y[j] as f32))
        }
        (Lanes::Double(x), Lanes::Double(y)) => x[i].total_cmp(&y[j]),
        (Lanes::Bool(x), Lanes::Bool(y)) => x[i].cmp(&y[j]),
        (Lanes::Str(x), Lanes::Str(y)) => x[i].as_bytes().cmp(y[j].as_bytes()),
        _ => return a.column.get(i).total_cmp(&b.column.get(j)),
    };
    match (a.is_null(i), b.is_null(j)) {
        (false, false) => o,
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
    }
}

/// [`key_order`] over lanes: how the key at lane `i` of `a` compares
/// with the key at lane `j` of `b`, column by column, reversed where the
/// column's bit of `descending_mask` is set.
pub(crate) fn lane_order(
    a: &[KeyLanes],
    i: usize,
    b: &[KeyLanes],
    j: usize,
    descending_mask: u64,
) -> Ordering {
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        let o = lane_cmp(x, i, y, j);
        if o != Ordering::Equal {
            return if descending_mask & (1 << k) != 0 {
                o.reverse()
            } else {
                o
            };
        }
    }
    Ordering::Equal
}

/// A sort's unit of work: a row under its key.
pub(crate) type KeyedRow = (SortKey, Row);

/// ORDER BY expressions bound to an input, evaluated a row at a time: the
/// reference's row sort's and row top-N's keys.
struct KeyEval {
    bound: Vec<Expr>,
    descending_mask: u64,
}

impl KeyEval {
    fn bind(orders: &[SortOrder], input: &[ColumnRef]) -> Result<KeyEval> {
        let exprs: Vec<Expr> = orders.iter().map(|o| o.expr.clone()).collect();
        Ok(KeyEval {
            bound: bind_all(&exprs, input)?,
            descending_mask: descending_mask(orders),
        })
    }

    /// Evaluate one row's key.
    fn key(&self, row: &Row) -> Result<SortKey> {
        let mut values = Vec::with_capacity(self.bound.len());
        for e in &self.bound {
            values.push(interpreter::eval(e, row)?);
        }
        Ok(SortKey::new(values, self.descending_mask))
    }

    /// How `row`'s key compares with `held`, evaluating it a column at a
    /// time and no further than the first difference: nothing is
    /// allocated to learn that a row does not make the top-N.
    fn cmp_row_with(&self, row: &Row, held: &SortKey) -> Result<Ordering> {
        let columns = self.bound.iter().map(|e| interpreter::eval(e, row));
        key_order(columns, &held.values, self.descending_mask)
    }
}

/// The first `n` rows of `rows` in key order, equal keys in arrival
/// order: what a stable sort of all of them followed by `truncate(n)`
/// returns, holding `n` rows instead of all. A max-heap keeps the `n`
/// best so far as `(key, arrival, row)` — arrivals are distinct, so that
/// order is the stable sort's — and a row whose key is not below the
/// worst of them is dropped without being stored.
fn top_n(rows: impl Iterator<Item = Row>, n: usize, keys: &KeyEval) -> Result<Vec<KeyedRow>> {
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut best: BinaryHeap<(SortKey, usize, Row)> = BinaryHeap::new();
    for (arrival, row) in rows.enumerate() {
        if best.len() == n {
            let mut worst = best.peek_mut().expect("n > 0 rows are held");
            // Arrivals only grow, so an equal key never displaces one held.
            if keys.cmp_row_with(&row, &worst.0)? == Ordering::Less {
                *worst = (keys.key(&row)?, arrival, row);
            }
        } else {
            best.push((keys.key(&row)?, arrival, row));
        }
    }
    let ranked = best.into_sorted_vec();
    Ok(ranked.into_iter().map(|(key, _, row)| (key, row)).collect())
}

/// Lower a `Sort` operator (pre-order id `id`) as rows: the reference
/// configuration's path.
pub(crate) fn execute_sort(
    input: &Arc<PhysicalPlan>,
    orders: &[SortOrder],
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let exchange = Exchange::at(input, id + 1)?;
    let child = execute_node(exchange.input, exchange.input_id, ctx)?;
    let keys = KeyEval::bind(orders, &input.output())?;
    let key_dtypes: Vec<DataType> = keys
        .bound
        .iter()
        .map(|e| e.data_type().unwrap_or(DataType::String))
        .collect();
    let layout = spill::PairLayout::new(key_dtypes, input.output().into_iter().map(|c| c.dtype));
    let mask = keys.descending_mask;
    let keyed = try_map(&child, move |row| Ok((keys.key(&row)?, row)));
    let partitioned = exchange.range_rows(&keyed, ctx)?;
    let sctx = ctx.spill_ctx(id);
    Ok(partitioned.map_partitions(move |it| {
        Box::new(task_iter(spill::external_sort(it, &layout, mask, &sctx)).map(|p| p.1))
    }))
}

/// Lower a `TakeOrdered` operator as rows: per-partition top-`n`, then
/// a driver-side merge — the reference configuration's path.
pub(crate) fn execute_take_ordered(
    input: &Arc<PhysicalPlan>,
    orders: &[SortOrder],
    n: usize,
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let child = execute_node(input, id + 1, ctx)?;
    let eager_start = Instant::now();
    let keys = KeyEval::bind(orders, &input.output())?;
    let tops = child
        .run_job(move |_, it| top_n(it, n, &keys))
        .map_err(engine_err)?
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
    let mut all: Vec<KeyedRow> = tops.into_iter().flatten().collect();
    all.sort_by(|a, b| a.0.cmp(&b.0));
    all.truncate(n);
    note_eager_ns(ctx, id, eager_start);
    Ok(ctx
        .sc
        .parallelize(all.into_iter().map(|(_, r)| r).collect(), 1))
}

// ---- block pipeline ----

/// Key column 0's prefix word of lane `i` ([`KeyLanes::prefix`]),
/// inverted where that column is descending, so that words that differ
/// order as [`lane_order`] orders their keys; 0 when there is no key.
fn prefix_word(keys: &[KeyLanes], i: usize, descending_mask: u64) -> u64 {
    match keys.first() {
        Some(first) if descending_mask & 1 != 0 => !first.prefix(i),
        Some(first) => first.prefix(i),
        None => 0,
    }
}

/// The first key column that two keys whose words are both `word` have
/// still to compare by lanes: 1 where the word is exact, 0 otherwise.
fn unsettled(keys: &[KeyLanes], word: u64, descending_mask: u64) -> usize {
    let ascending = if descending_mask & 1 != 0 {
        !word
    } else {
        word
    };
    keys.first()
        .map_or(0, |first| usize::from(first.exact(ascending)))
}

/// The permutation that stable-sorts lanes `0..rows` of `keys` under
/// [`lane_order`], and the lanes' prefix words in that order. It sorts
/// `(word, lane)` pairs by word; equal words fall to [`lane_order`] from
/// the first column they leave unsettled, then to the lane index, which
/// is the stable sort's order. `ties` counts the comparisons that read
/// lanes.
fn prefix_sort(
    keys: &[KeyLanes],
    rows: usize,
    descending_mask: u64,
    ties: &mut u64,
) -> (Vec<u32>, Vec<u64>) {
    let mut pairs: Vec<(u64, u32)> = (0..rows)
        .map(|i| (prefix_word(keys, i, descending_mask), i as u32))
        .collect();
    pairs.sort_unstable_by(|&(word, a), &(other, b)| {
        word.cmp(&other).then_with(|| {
            let from = unsettled(keys, word, descending_mask);
            let o = match &keys[from..] {
                [] => Ordering::Equal,
                rest => {
                    *ties += 1;
                    let mask = descending_mask >> from;
                    lane_order(rest, a as usize, rest, b as usize, mask)
                }
            };
            o.then(a.cmp(&b))
        })
    });
    pairs.into_iter().map(|(word, lane)| (lane, word)).unzip()
}

/// Lanes in key order as a walk over them reads them: the key columns,
/// the permutation and the sorted lanes' prefix words.
pub(crate) struct KeyWalk<'a> {
    keys: Vec<KeyLanes<'a>>,
    perm: Cow<'a, [u32]>,
    words: Cow<'a, [u64]>,
    descending_mask: u64,
    /// Comparisons whose prefix words tied and whose lanes were read.
    pub(crate) ties: u64,
}

impl KeyWalk<'_> {
    /// Lane indices in key order.
    pub(crate) fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// The number of key columns.
    pub(crate) fn width(&self) -> usize {
        self.keys.len()
    }

    /// Whether the lanes at sorted positions `p - 1` and `p` hold equal
    /// values in key columns `cols`, those before `cols` being equal. From
    /// column 0 the prefix words answer first: words that differ say no
    /// without reading a lane, and an exact word settles column 0.
    pub(crate) fn same_as_previous(&mut self, p: usize, cols: std::ops::Range<usize>) -> bool {
        let mut from = cols.start;
        if from == 0 && cols.end > 0 {
            let word = self.words[p];
            if word != self.words[p - 1] {
                return false;
            }
            from = unsettled(&self.keys, word, self.descending_mask);
            if from < cols.end {
                self.ties += 1;
            }
        }
        let keys = &self.keys[from..cols.end];
        let (a, b) = (self.perm[p - 1] as usize, self.perm[p] as usize);
        lane_order(keys, a, keys, b, 0) == Ordering::Equal
    }
}

/// How a block pipeline's sort keys sit among its columns: a block holds
/// the input's columns, then the keys that are not bare input columns,
/// evaluated by kernels.
pub(crate) struct BlockKeys {
    /// Keys that are not bare input columns, bound to the input.
    computed: Vec<Expr>,
    /// Each key's column in a block.
    key_cols: Vec<usize>,
    /// Input column count: a block's first `width` columns.
    width: usize,
    /// Declared types of a block's columns.
    dtypes: Vec<DataType>,
    /// Declared types of the keys.
    key_dtypes: Vec<DataType>,
    descending_mask: u64,
}

impl BlockKeys {
    /// Keys `keys` over `input`, ordered per `descending_mask`.
    pub(crate) fn new(keys: &[Expr], descending_mask: u64, input: &[ColumnRef]) -> Result<Self> {
        let width = input.len();
        let mut dtypes: Vec<DataType> = input.iter().map(|c| c.dtype.clone()).collect();
        let (mut computed, mut key_cols, mut key_dtypes) = (Vec::new(), Vec::new(), Vec::new());
        for key in bind_all(keys, input)? {
            let dtype = key.data_type().unwrap_or(DataType::String);
            match key {
                Expr::BoundRef { index, .. } => key_cols.push(index),
                key => {
                    key_cols.push(dtypes.len());
                    dtypes.push(dtype.clone());
                    computed.push(key);
                }
            }
            key_dtypes.push(dtype);
        }
        Ok(BlockKeys {
            computed,
            key_cols,
            width,
            dtypes,
            key_dtypes,
            descending_mask,
        })
    }

    /// `batch`'s block columns: its own, then the computed keys.
    fn columns(&self, batch: &RowBatch) -> Result<Vec<Arc<ColumnVector>>> {
        let mut columns = batch.columns().to_vec();
        if !self.computed.is_empty() {
            let keys = vectorized::eval_projection_batch(&self.computed, batch)?;
            columns.extend_from_slice(keys.columns());
        }
        Ok(columns)
    }

    /// The key columns of `columns`, over `batch`'s selection.
    fn keys_of(&self, columns: &[Arc<ColumnVector>], batch: &RowBatch) -> RowBatch {
        let keys = self.key_cols.iter().map(|&c| columns[c].clone()).collect();
        let keys = RowBatch::new(keys, batch.num_rows());
        match batch.selection() {
            Some(selection) => keys.with_selection(selection.to_vec()),
            None => keys,
        }
    }

    /// `batch`'s keys, evaluated by kernels, over its selection.
    pub(crate) fn key_batch(&self, batch: &RowBatch) -> Result<RowBatch> {
        Ok(self.keys_of(&self.columns(batch)?, batch))
    }

    /// One map task's blocks: every selected lane of `batches` routed by
    /// `route`, one [`SortBlock`] per non-empty reducer, lanes in
    /// arrival order.
    pub(crate) fn ship(
        &self,
        batches: BoxIter<RowBatch>,
        route: &Route,
        reducers: usize,
    ) -> Result<Vec<(usize, SortBlock)>> {
        let mut parts: Vec<Vec<Vec<Arc<ColumnVector>>>> =
            vec![vec![Vec::new(); self.dtypes.len()]; reducers];
        let mut rows = vec![0usize; reducers];
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); reducers];
        for batch in batches {
            let columns = self.columns(&batch)?;
            members.iter_mut().for_each(Vec::clear);
            route.split(&self.keys_of(&columns, &batch), &mut members);
            for (r, lanes) in members.iter().enumerate() {
                if lanes.is_empty() {
                    continue;
                }
                rows[r] += lanes.len();
                for (part, column) in parts[r].iter_mut().zip(&columns) {
                    // All of an unfiltered batch's lanes, in order: share them.
                    part.push(if lanes.len() == batch.num_rows() {
                        column.clone()
                    } else {
                        Arc::new(column.gather(lanes))
                    });
                }
            }
        }
        Ok((parts.into_iter().zip(rows).enumerate())
            .filter(|(_, (_, rows))| *rows > 0)
            .map(|(r, (parts, rows))| {
                let columns = (self.dtypes.iter().zip(&parts))
                    .map(|(dtype, parts)| concat(dtype, parts))
                    .collect();
                (r, SortBlock { columns, rows })
            })
            .collect())
    }

    /// Views of the key columns among a block's `columns`, in key order.
    pub(crate) fn key_lanes<'a>(&self, columns: &'a [Arc<ColumnVector>]) -> Vec<KeyLanes<'a>> {
        KeyLanes::of(columns, &self.key_cols)
    }

    /// Input column count: a block's first `width` columns.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// `blocks` of this pipeline's columns end to end, column by column.
    pub(crate) fn concat(&self, blocks: &[&[Arc<ColumnVector>]]) -> Vec<Arc<ColumnVector>> {
        (self.dtypes.iter().enumerate())
            .map(|(j, dtype)| {
                let parts: Vec<Arc<ColumnVector>> = blocks.iter().map(|b| b[j].clone()).collect();
                concat(dtype, &parts)
            })
            .collect()
    }

    /// `held` end to end, the permutation that stable-sorts them
    /// ([`prefix_sort`]) and their prefix words in sorted order. `ties`
    /// counts the comparisons that read lanes.
    fn sort_lanes(&self, held: Vec<SortBlock>, ties: &mut u64) -> SortedColumns {
        let rows: usize = held.iter().map(|b| b.rows).sum();
        let blocks: Vec<&[Arc<ColumnVector>]> = held.iter().map(|b| &b.columns[..]).collect();
        let columns = self.concat(&blocks);
        drop(held);
        let keys = self.key_lanes(&columns);
        let (perm, words) = prefix_sort(&keys, rows, self.descending_mask, ties);
        (columns, perm, words)
    }

    /// A walk over `rows` lanes of `columns` that are in key order already.
    pub(crate) fn in_order<'a>(
        &self,
        columns: &'a [Arc<ColumnVector>],
        rows: usize,
    ) -> KeyWalk<'a> {
        let keys = self.key_lanes(columns);
        let words = (0..rows)
            .map(|i| prefix_word(&keys, i, self.descending_mask))
            .collect::<Vec<_>>();
        KeyWalk {
            keys,
            perm: Cow::Owned((0..rows as u32).collect()),
            words: Cow::Owned(words),
            descending_mask: self.descending_mask,
            ties: 0,
        }
    }

    /// `blocks` sorted and written as one run ([`spill::write_lane_run`]),
    /// to be read back as merge input.
    fn spill_run(
        &self,
        blocks: Vec<SortBlock>,
        sctx: &SpillCtx,
        ties: &mut u64,
    ) -> Result<BoxIter<Result<LaneBlock>>> {
        let (columns, perm, _) = self.sort_lanes(blocks, ties);
        let run = spill::write_lane_run(&columns, &perm, &self.dtypes, sctx)?;
        Ok(Box::new(run.map(|block| {
            let (rows, columns) = block?;
            Ok((rows, columns.into_iter().map(Arc::new).collect()))
        })))
    }

    /// Sort one reducer's blocks (in map-id order). Each block is
    /// reserved as it arrives. A denied reservation with blocks held
    /// sorts them and writes them as one sorted run, frees the
    /// reservation and reserves the block that overflowed; a block past
    /// the fair share on its own is written as a run of its own. A
    /// reducer never denied returns its lanes and their permutation; one
    /// that spilled merges its runs, the lanes still held as the last,
    /// into batches of `batch_size` lanes. `ties` counts the sorts'
    /// comparisons that read lanes.
    pub(crate) fn sort(
        self: &Arc<Self>,
        blocks: BoxIter<SortBlock>,
        sctx: &SpillCtx,
        batch_size: usize,
        ties: &mut u64,
    ) -> Result<Sorted> {
        let mut reservation = sctx.pool.register();
        let mut held: Vec<SortBlock> = Vec::new();
        let mut runs: Vec<BoxIter<Result<LaneBlock>>> = Vec::new();
        for block in blocks {
            let bytes = block.approx_bytes();
            if !reservation.try_grow(bytes) {
                if !held.is_empty() {
                    runs.push(self.spill_run(std::mem::take(&mut held), sctx, ties)?);
                    reservation.free();
                }
                if !reservation.try_grow(bytes) {
                    runs.push(self.spill_run(vec![block], sctx, ties)?);
                    continue;
                }
            }
            held.push(block);
        }
        let (columns, perm, words) = self.sort_lanes(held, ties);
        let lanes = SortedLanes {
            columns,
            perm,
            words,
            key_cols: self.key_cols.clone(),
            descending_mask: self.descending_mask,
            width: self.width,
            _reservation: reservation,
        };
        if runs.is_empty() {
            return Ok(Sorted::Lanes(lanes));
        }
        runs.push(lanes.into_blocks());
        Ok(Sorted::Runs(RunMerge::new(
            runs,
            self.key_cols.clone(),
            self.descending_mask,
            self.dtypes.clone(),
            batch_size,
        )))
    }

    /// One task's first `n` lanes of `batches` in key order, equal keys
    /// in arrival order, as one block in that order; `None` when no lane
    /// is selected. Each batch gives at most its best `n` selected lanes
    /// ([`best_of`](Self::best_of)); the candidates held are cut back to
    /// `n` once they pass `COMPACT_AT × n` lanes. A cut block sorts ahead
    /// of the blocks that arrive after it, so the stable sort keeps equal
    /// keys in arrival order across cuts.
    fn take_ordered(&self, batches: BoxIter<RowBatch>, n: usize) -> Result<Option<SortBlock>> {
        let mut held: Vec<SortBlock> = Vec::new();
        let mut rows = 0;
        for batch in batches {
            let Some(block) = self.best_of(&batch, n)? else {
                continue;
            };
            rows += block.rows;
            held.push(block);
            if rows > COMPACT_AT * n {
                held = vec![self.first_n(held, n)];
                rows = held[0].rows;
            }
        }
        Ok((!held.is_empty()).then(|| self.first_n(held, n)))
    }

    /// `batch`'s block columns at its best `n` selected lanes (`n > 0`),
    /// in arrival order, or `None` when it selects none. A batch selecting
    /// `n` lanes or fewer skips the selection, and one selecting all its
    /// lanes shares its columns.
    fn best_of(&self, batch: &RowBatch, n: usize) -> Result<Option<SortBlock>> {
        let selected = batch.selected_count();
        if selected == 0 {
            return Ok(None);
        }
        let columns = self.columns(batch)?;
        let mut lanes: Vec<u32> = match batch.selection() {
            None if selected <= n => {
                let rows = batch.num_rows();
                return Ok(Some(SortBlock { columns, rows }));
            }
            None => (0..batch.num_rows() as u32).collect(),
            Some(selection) => selection.to_vec(),
        };
        if selected > n {
            let keys = self.key_lanes(&columns);
            lanes.select_nth_unstable_by(n - 1, |&a, &b| {
                let (a, b) = (a as usize, b as usize);
                lane_order(&keys, a, &keys, b, self.descending_mask).then(a.cmp(&b))
            });
            lanes.truncate(n);
            lanes.sort_unstable();
        }
        let columns = columns.iter().map(|c| Arc::new(c.gather(&lanes))).collect();
        Ok(Some(SortBlock {
            columns,
            rows: lanes.len(),
        }))
    }

    /// The first `n` lanes of `held` end to end in key order, equal keys
    /// in their order there, gathered in that order.
    fn first_n(&self, held: Vec<SortBlock>, n: usize) -> SortBlock {
        let (columns, mut perm, _) = self.sort_lanes(held, &mut 0);
        perm.truncate(n);
        let columns = columns.iter().map(|c| Arc::new(c.gather(&perm))).collect();
        SortBlock {
            columns,
            rows: perm.len(),
        }
    }
}

/// A top-N task cuts the candidates it holds back to `n` once they pass
/// this many times `n` lanes.
const COMPACT_AT: usize = 4;

/// Block columns end to end, the permutation that sorts their lanes, and
/// the sorted lanes' prefix words.
type SortedColumns = (Vec<Arc<ColumnVector>>, Vec<u32>, Vec<u64>);

/// `parts` end to end; a single part is shared, not copied.
fn concat(dtype: &DataType, parts: &[Arc<ColumnVector>]) -> Arc<ColumnVector> {
    match parts {
        [one] => one.clone(),
        parts => Arc::new(ColumnVector::concat(dtype, parts)),
    }
}

/// One map task's lanes for one reducer: the input's columns, then the
/// computed keys ([`BlockKeys`]). Cloning shares the columns (the
/// shuffle hands out clones).
#[derive(Clone)]
pub(crate) struct SortBlock {
    columns: Vec<Arc<ColumnVector>>,
    rows: usize,
}

impl SortBlock {
    /// Approximate bytes of the block's columns: what the exchange
    /// reports it as.
    pub(crate) fn approx_bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.approx_bytes()).sum()
    }
}

/// One reducer's lanes in key order.
pub(crate) enum Sorted {
    /// In memory: the lanes and their sorting permutation.
    Lanes(SortedLanes),
    /// Past the budget: the sorted runs, merged.
    Runs(RunMerge),
}

/// A reducer's concatenated block columns, the permutation that sorts
/// them and the sorted lanes' prefix words; it keeps the blocks'
/// reservation until it is dropped.
pub(crate) struct SortedLanes {
    columns: Vec<Arc<ColumnVector>>,
    /// Lane indices in key order.
    pub(crate) perm: Vec<u32>,
    words: Vec<u64>,
    key_cols: Vec<usize>,
    descending_mask: u64,
    width: usize,
    _reservation: MemoryReservation,
}

impl SortedLanes {
    /// The input's columns (not the computed keys).
    pub(crate) fn input(&self) -> &[Arc<ColumnVector>] {
        &self.columns[..self.width]
    }

    /// A walk over the lanes in key order.
    pub(crate) fn walk(&self) -> KeyWalk<'_> {
        KeyWalk {
            keys: KeyLanes::of(&self.columns, &self.key_cols),
            perm: Cow::Borrowed(&self.perm),
            words: Cow::Borrowed(&self.words),
            descending_mask: self.descending_mask,
            ties: 0,
        }
    }

    /// The input's columns gathered at sorted positions `range`.
    pub(crate) fn gather(&self, range: std::ops::Range<usize>) -> Vec<Arc<ColumnVector>> {
        let lanes = &self.perm[range];
        self.input()
            .iter()
            .map(|c| Arc::new(c.gather(lanes)))
            .collect()
    }

    /// Every column in sorted order, as blocks of [`spill::BLOCK_ROWS`]
    /// lanes: a merge's last run. The reservation goes with the last
    /// block.
    fn into_blocks(self) -> BoxIter<Result<LaneBlock>> {
        Box::new(
            chunks(self.perm.len(), spill::BLOCK_ROWS).map(move |range| {
                let lanes = &self.perm[range];
                let columns = self.columns.iter().map(|c| Arc::new(c.gather(lanes)));
                Ok((lanes.len(), columns.collect()))
            }),
        )
    }
}

/// Sorted lanes of a block pipeline's columns: the lane count, then the
/// columns.
pub(crate) type LaneBlock = (usize, Vec<Arc<ColumnVector>>);

/// The k-way merge of sorted runs, each a stream of [`LaneBlock`]s, by
/// [`lane_order`] over their key columns. Equal keys go to the lower run
/// index: runs are numbered in arrival order, so the merge is the stable
/// sort of all their lanes. A linear scan over the runs' current blocks
/// picks each lane; an output batch of `batch_size` lanes concatenates
/// the blocks it drew from and gathers the picks. It carries a block's
/// first `dtypes.len()` columns.
pub(crate) struct RunMerge {
    /// Each run's blocks not yet current.
    runs: Vec<BoxIter<Result<LaneBlock>>>,
    /// Each run's current block.
    heads: Vec<LaneBlock>,
    /// Each run's next lane in its current block.
    next: Vec<usize>,
    /// Where each current block starts in the batch being built, once it
    /// has given a lane to it.
    offset: Vec<Option<u32>>,
    key_cols: Vec<usize>,
    descending_mask: u64,
    dtypes: Vec<DataType>,
    batch_size: usize,
}

impl RunMerge {
    pub(crate) fn new(
        runs: Vec<BoxIter<Result<LaneBlock>>>,
        key_cols: Vec<usize>,
        descending_mask: u64,
        dtypes: Vec<DataType>,
        batch_size: usize,
    ) -> RunMerge {
        let k = runs.len();
        RunMerge {
            runs,
            heads: vec![(0, Vec::new()); k],
            next: vec![0; k],
            offset: vec![None; k],
            key_cols,
            descending_mask,
            dtypes,
            batch_size: batch_size.max(1),
        }
    }

    /// Carry only a block's first `width` columns.
    pub(crate) fn keep(mut self, width: usize) -> RunMerge {
        self.dtypes.truncate(width);
        self
    }

    /// Give every run whose block is used up its next block, and drop
    /// the runs that have none; the others keep their order.
    fn refill(&mut self) -> Result<()> {
        for r in (0..self.runs.len()).rev() {
            while self.next[r] == self.heads[r].0 {
                match self.runs[r].next().transpose()? {
                    Some(block) => {
                        self.heads[r] = block;
                        self.next[r] = 0;
                        self.offset[r] = None;
                    }
                    None => {
                        drop(self.runs.remove(r));
                        self.heads.remove(r);
                        self.next.remove(r);
                        self.offset.remove(r);
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// The next batch's lanes: indices into the current blocks placed end
    /// to end in `parts`.
    fn pick(&mut self, parts: &mut Vec<LaneBlock>) -> Result<Vec<u32>> {
        self.offset.iter_mut().for_each(|o| *o = None);
        let mut lanes: Vec<u32> = Vec::with_capacity(self.batch_size);
        let mut end = 0u32;
        while lanes.len() < self.batch_size {
            self.refill()?;
            if self.heads.is_empty() {
                break;
            }
            let views: Vec<Vec<KeyLanes>> = (self.heads.iter())
                .map(|(_, columns)| KeyLanes::of(columns, &self.key_cols))
                .collect();
            loop {
                let mut best = 0;
                for r in 1..views.len() {
                    let o = lane_order(
                        &views[r],
                        self.next[r],
                        &views[best],
                        self.next[best],
                        self.descending_mask,
                    );
                    if o == Ordering::Less {
                        best = r;
                    }
                }
                let offset = *self.offset[best].get_or_insert_with(|| {
                    parts.push(self.heads[best].clone());
                    end += self.heads[best].0 as u32;
                    end - self.heads[best].0 as u32
                });
                lanes.push(offset + self.next[best] as u32);
                self.next[best] += 1;
                if self.next[best] == self.heads[best].0 || lanes.len() == self.batch_size {
                    break;
                }
            }
        }
        Ok(lanes)
    }
}

impl Iterator for RunMerge {
    type Item = Result<LaneBlock>;

    fn next(&mut self) -> Option<Result<LaneBlock>> {
        let mut parts = Vec::new();
        let lanes = match self.pick(&mut parts) {
            Ok(lanes) if lanes.is_empty() => return None,
            Ok(lanes) => lanes,
            Err(e) => return Some(Err(e)),
        };
        let columns = (self.dtypes.iter().enumerate())
            .map(|(j, dtype)| {
                let column: Vec<Arc<ColumnVector>> = parts.iter().map(|p| p.1[j].clone()).collect();
                Arc::new(concat(dtype, &column).gather(&lanes))
            })
            .collect();
        Some(Ok((lanes.len(), columns)))
    }
}

/// Positions `0..len` in runs of at most `batch_size`.
pub(crate) fn chunks(
    len: usize,
    batch_size: usize,
) -> impl Iterator<Item = std::ops::Range<usize>> {
    let batch_size = batch_size.max(1);
    (0..len)
        .step_by(batch_size)
        .map(move |start| start..(start + batch_size).min(len))
}

/// Lower a `Sort` (pre-order id `id`) to the block pipeline, or `None`
/// in the reference configuration.
pub(crate) fn execute_batch_sort(
    input: &Arc<PhysicalPlan>,
    orders: &[SortOrder],
    id: usize,
    ctx: &ExecContext,
) -> Option<Result<RddRef<RowBatch>>> {
    if ctx.conf.reference {
        return None;
    }
    Some(batch_sort(input, orders, id, ctx))
}

fn batch_sort(
    input: &Arc<PhysicalPlan>,
    orders: &[SortOrder],
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<RowBatch>> {
    let exchange = Exchange::at(input, id + 1)?;
    let exprs: Vec<Expr> = orders.iter().map(|o| o.expr.clone()).collect();
    let keys = Arc::new(BlockKeys::new(
        &exprs,
        descending_mask(orders),
        &input.output(),
    )?);
    let child = lower_node(exchange.input, exchange.input_id, ctx)?.batches(exchange.input, ctx);
    let sketch_start = Instant::now();
    let for_sketch = keys.clone();
    let key_batches = try_map(&child, move |b| for_sketch.key_batch(&b));
    let route = exchange.range(&key_batches, &keys.key_dtypes, keys.descending_mask, ctx)?;
    note_eager_ns(ctx, id, sketch_start);
    let Some(route) = route else {
        return Ok(ctx.sc.parallelize(Vec::new(), 1));
    };
    let reducers = exchange.partitions();
    let map_keys = keys.clone();
    let blocks = child.map_partitions(move |it| task_iter(map_keys.ship(it, &route, reducers)));
    let batch_size = ctx.conf.vectorize_batch_size.max(1);
    let sctx = ctx.spill_ctx(id);
    let node = ctx.metrics.as_ref().map(|pm| pm.node(id));
    let shuffled = exchange.by_index(&blocks, SortBlock::approx_bytes, ctx);
    Ok(shuffled.map_partitions(move |it| {
        let blocks = Box::new(it.map(|(_, block)| block));
        let mut ties = 0;
        let sorted = keys.sort(blocks, &sctx, batch_size, &mut ties);
        if let Some(node) = &node {
            node.add_extra("prefix_ties", ties);
        }
        match task::ok(sorted) {
            None => Box::new(std::iter::empty()),
            Some(Sorted::Lanes(sorted)) => Box::new(
                chunks(sorted.perm.len(), batch_size)
                    .map(move |range| RowBatch::new(sorted.gather(range.clone()), range.len())),
            ),
            Some(Sorted::Runs(merge)) => Box::new(
                (merge.keep(keys.width).map_while(task::ok))
                    .map(|(rows, columns)| RowBatch::new(columns, rows)),
            ),
        }
    }))
}

/// Lower a `TakeOrdered` (pre-order id `id`) to the block top-N, or
/// `None` in the reference configuration.
pub(crate) fn execute_batch_take_ordered(
    input: &Arc<PhysicalPlan>,
    orders: &[SortOrder],
    n: usize,
    id: usize,
    ctx: &ExecContext,
) -> Option<Result<RddRef<RowBatch>>> {
    if ctx.conf.reference {
        return None;
    }
    Some(batch_take_ordered(input, orders, n, id, ctx))
}

/// Each task's top-`n` block ([`BlockKeys::take_ordered`]), merged on
/// the driver into one batch: the blocks end to end in partition order,
/// stable-sorted and cut to `n`. A single task's block is already that.
/// The node's `candidates` extra counts the lanes the tasks handed over.
fn batch_take_ordered(
    input: &Arc<PhysicalPlan>,
    orders: &[SortOrder],
    n: usize,
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<RowBatch>> {
    let exprs: Vec<Expr> = orders.iter().map(|o| o.expr.clone()).collect();
    let keys = Arc::new(BlockKeys::new(
        &exprs,
        descending_mask(orders),
        &input.output(),
    )?);
    let child = lower_node(input, id + 1, ctx)?.batches(input, ctx);
    if n == 0 {
        return Ok(ctx.sc.parallelize(Vec::new(), 1));
    }
    let eager_start = Instant::now();
    let task_keys = keys.clone();
    let tops = child
        .run_job(move |_, it| task_keys.take_ordered(it, n))
        .map_err(engine_err)?
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
    let mut tops: Vec<SortBlock> = tops.into_iter().flatten().collect();
    let candidates: usize = tops.iter().map(|b| b.rows).sum();
    let top = match tops.len() {
        0 | 1 => tops.pop(),
        _ => Some(keys.first_n(tops, n)),
    };
    if let Some(pm) = &ctx.metrics {
        pm.node(id).add_extra("candidates", candidates as u64);
    }
    note_eager_ns(ctx, id, eager_start);
    let batches = (top.into_iter())
        .map(|mut b| {
            b.columns.truncate(keys.width);
            RowBatch::new(b.columns, b.rows)
        })
        .collect();
    Ok(ctx.sc.parallelize(batches, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Edge values of one declared type.
    fn edge_values(dtype: &DataType) -> Vec<Value> {
        let mut values = vec![Value::Null];
        values.extend(match dtype {
            DataType::Int => [i32::MIN, -1, 0, 1, i32::MAX].map(Value::Int).to_vec(),
            // `i64::MIN`'s prefix word is NULL's.
            DataType::Long => [i64::MIN, -1, 0, 1, i64::MAX].map(Value::Long).to_vec(),
            DataType::Date => [-1, 0, 19_000].map(Value::Date).to_vec(),
            DataType::Timestamp => [-1, 0, 1 << 40].map(Value::Timestamp).to_vec(),
            DataType::Float => [
                f32::NAN,
                -f32::NAN,
                f32::NEG_INFINITY,
                -0.0,
                0.0,
                0.1,
                f32::MAX,
            ]
            .map(Value::Float)
            .to_vec(),
            DataType::Double => [
                f64::NAN,
                -f64::NAN,
                // The NaN whose prefix word is NULL's.
                f64::from_bits(u64::MAX),
                f64::NEG_INFINITY,
                -0.0,
                0.0,
                0.1,
                1e300,
            ]
            .map(Value::Double)
            .to_vec(),
            DataType::Boolean => [false, true].map(Value::Boolean).to_vec(),
            // Strings that share a prefix word, or differ only past it or
            // by a trailing NUL, and a character straddling byte 7.
            _ => [
                "",
                "a",
                "ab",
                "ab\0",
                "abcdefg",
                "abcdefgh",
                "abcdefghi",
                "abcdefgh\0",
                "abcdefé",
                "b",
                "é",
                "человек",
                "Z",
            ]
            .map(Value::str)
            .to_vec(),
        });
        values
    }

    const DTYPES: &[DataType] = &[
        DataType::Int,
        DataType::Long,
        DataType::Date,
        DataType::Timestamp,
        DataType::Float,
        DataType::Double,
        DataType::Boolean,
        DataType::String,
    ];

    /// A column of `n` random edge values of `dtype`, typed or boxed.
    fn arb_column(rng: &mut StdRng, dtype: &DataType, n: usize) -> Arc<ColumnVector> {
        let edges = edge_values(dtype);
        let values: Vec<Value> = (0..n)
            .map(|_| edges[rng.random_range(0..edges.len())].clone())
            .collect();
        Arc::new(match rng.random_bool(0.25) {
            true => ColumnVector::from_boxed(dtype.clone(), values),
            false => ColumnVector::from_values(dtype, values),
        })
    }

    #[test]
    fn lane_order_is_sort_key_order() {
        let mut rng = StdRng::seed_from_u64(0x1A4E);
        for _ in 0..400 {
            let width = rng.random_range(1usize..4);
            // Each key column has one declared type per side, sometimes
            // Int on one side and Long on the other.
            let dtypes: Vec<(DataType, DataType)> = (0..width)
                .map(|_| {
                    let dtype = DTYPES[rng.random_range(0..DTYPES.len())].clone();
                    match (dtype.clone(), rng.random_bool(0.2)) {
                        (DataType::Int, true) => (DataType::Int, DataType::Long),
                        _ => (dtype.clone(), dtype),
                    }
                })
                .collect();
            let a: Vec<_> = dtypes
                .iter()
                .map(|(d, _)| arb_column(&mut rng, d, 8))
                .collect();
            let b: Vec<_> = dtypes
                .iter()
                .map(|(_, d)| arb_column(&mut rng, d, 8))
                .collect();
            let mask = rng.random_range(0u64..1 << width);
            let (la, lb) = (KeyLanes::all(&a), KeyLanes::all(&b));
            let key = |columns: &[Arc<ColumnVector>], i: usize| {
                SortKey::new(columns.iter().map(|c| c.get(i)).collect(), mask)
            };
            for i in 0..8 {
                for j in 0..8 {
                    assert_eq!(
                        lane_order(&la, i, &lb, j, mask),
                        key(&a, i).cmp(&key(&b, j)),
                        "{:?} vs {:?} (mask {mask:b})",
                        key(&a, i),
                        key(&b, j)
                    );
                }
            }
        }
    }

    /// Prefix words that differ order as [`lane_cmp`] orders their lanes,
    /// equal exact words mean equal lanes, in both directions, typed and
    /// boxed; the prefix sort is the stable sort under [`lane_order`] on
    /// random 1–3-column blocks, and a walk over it finds the same runs
    /// of equal keys as [`lane_order`] does.
    #[test]
    fn prefix_words_agree_with_lane_cmp() {
        for dtype in DTYPES {
            let edges = edge_values(dtype);
            let n = edges.len();
            let typed = ColumnVector::from_values(dtype, edges.clone());
            let boxed = ColumnVector::from_boxed(dtype.clone(), edges.clone());
            for column in [Arc::new(typed), Arc::new(boxed)] {
                let keys = KeyLanes::all(std::slice::from_ref(&column));
                for mask in [0, 1] {
                    for i in 0..n {
                        for j in 0..n {
                            let (wi, wj) =
                                (prefix_word(&keys, i, mask), prefix_word(&keys, j, mask));
                            let o = lane_order(&keys, i, &keys, j, mask);
                            let what = format!("{:?} vs {:?} (mask {mask})", edges[i], edges[j]);
                            if wi != wj {
                                assert_eq!(wi.cmp(&wj), o, "{what}: words {wi:#x} {wj:#x}");
                            } else if unsettled(&keys, wi, mask) == 1 {
                                assert_eq!(o, Ordering::Equal, "{what}: exact word {wi:#x}");
                            }
                        }
                    }
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(0x9AE1);
        for _ in 0..300 {
            let width = rng.random_range(1usize..4);
            let rows = rng.random_range(0usize..200);
            let columns: Vec<_> = (0..width)
                .map(|_| {
                    let dtype = &DTYPES[rng.random_range(0..DTYPES.len())];
                    arb_column(&mut rng, dtype, rows)
                })
                .collect();
            let mask = rng.random_range(0u64..1 << width);
            let keys = KeyLanes::all(&columns);
            let mut expect: Vec<u32> = (0..rows as u32).collect();
            expect.sort_by(|&a, &b| lane_order(&keys, a as usize, &keys, b as usize, mask));
            let (perm, words) = prefix_sort(&keys, rows, mask, &mut 0);
            assert_eq!(perm, expect, "mask {mask:b}");
            let mut walk = KeyWalk {
                keys: KeyLanes::all(&columns),
                perm: Cow::Borrowed(&perm),
                words: Cow::Borrowed(&words),
                descending_mask: mask,
                ties: 0,
            };
            for p in 1..rows {
                let (a, b) = (perm[p - 1] as usize, perm[p] as usize);
                assert_eq!(words[p], prefix_word(&keys, b, mask));
                for end in 0..=width {
                    for start in 0..=end {
                        let cols = &keys[start..end];
                        let same = lane_order(cols, a, cols, b, 0) == Ordering::Equal;
                        let before = lane_order(&keys[..start], a, &keys[..start], b, 0);
                        if before == Ordering::Equal {
                            assert_eq!(walk.same_as_previous(p, start..end), same);
                        }
                    }
                }
            }
        }
    }

    /// Merging sorted runs is the stable sort of their lanes in run
    /// order: equal keys leave the lower run first. Runs of 0–40 lanes
    /// arrive in blocks of 1–8; a key column may be typed in one run and
    /// boxed, or INT against BIGINT, in another.
    #[test]
    fn merged_runs_are_the_stable_sort_of_their_lanes() {
        let mut rng = StdRng::seed_from_u64(0x3E6E);
        for _ in 0..300 {
            let width = rng.random_range(1usize..4);
            let dtypes: Vec<DataType> = (0..width)
                .map(|_| DTYPES[rng.random_range(0..DTYPES.len())].clone())
                .collect();
            let mask = rng.random_range(0u64..1 << width);
            let (mut runs, mut expect) = (Vec::new(), Vec::new());
            for r in 0..rng.random_range(2usize..6) {
                let n = rng.random_range(0usize..40);
                // Block column 0 tags each lane with its run and place.
                let tags = (0..n).map(|i| Value::Long((r * 100 + i) as i64)).collect();
                let mut columns = vec![Arc::new(ColumnVector::from_values(&DataType::Long, tags))];
                for dtype in &dtypes {
                    let dtype = match (dtype, rng.random_bool(0.5)) {
                        (DataType::Int, true) => DataType::Long,
                        (dtype, _) => dtype.clone(),
                    };
                    columns.push(arb_column(&mut rng, &dtype, n));
                }
                let keys = KeyLanes::all(&columns[1..]);
                let mut perm: Vec<u32> = (0..n as u32).collect();
                perm.sort_by(|&a, &b| lane_order(&keys, a as usize, &keys, b as usize, mask));
                let sorted: Vec<Arc<ColumnVector>> =
                    columns.iter().map(|c| Arc::new(c.gather(&perm))).collect();
                for i in 0..n {
                    let key = sorted[1..].iter().map(|c| c.get(i)).collect();
                    expect.push((SortKey::new(key, mask), sorted[0].get(i)));
                }
                let mut blocks: Vec<Result<LaneBlock>> = Vec::new();
                let mut start = 0;
                while start < n {
                    let end = (start + rng.random_range(1usize..9)).min(n);
                    let lanes: Vec<u32> = (start as u32..end as u32).collect();
                    let block = sorted.iter().map(|c| Arc::new(c.gather(&lanes)));
                    blocks.push(Ok((end - start, block.collect())));
                    start = end;
                }
                runs.push(Box::new(blocks.into_iter()) as BoxIter<Result<LaneBlock>>);
            }
            expect.sort_by(|a, b| a.0.cmp(&b.0));
            let expect: Vec<Value> = expect.into_iter().map(|(_, tag)| tag).collect();
            let batch_size = rng.random_range(1usize..12);
            let key_cols = (1..=width).collect();
            let mut block_dtypes = vec![DataType::Long];
            block_dtypes.extend(dtypes);
            let merge = RunMerge::new(runs, key_cols, mask, block_dtypes, batch_size).keep(1);
            let batches: Vec<LaneBlock> = merge.map(|b| b.unwrap()).collect();
            let sizes: Vec<usize> = batches.iter().map(|(rows, _)| *rows).collect();
            if let Some((_, whole)) = sizes.split_last() {
                assert!(whole.iter().all(|&n| n == batch_size), "{sizes:?}");
            }
            let got: Vec<Value> = (batches.iter())
                .flat_map(|(rows, columns)| (0..*rows).map(|i| columns[0].get(i)))
                .collect();
            assert_eq!(got, expect, "mask {mask:b}");
        }
    }
}
