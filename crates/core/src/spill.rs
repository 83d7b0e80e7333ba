//! Disk-backed ("external") operator algorithms for memory-governed
//! execution.
//!
//! Each buffering operator registers an [`engine::MemoryReservation`]
//! against the execution's [`engine::MemoryPool`] and grows it as its
//! buffer fills. A denied grow is the spill signal:
//!
//! * The block pipeline's `Sort` and `Window` (`sort.rs`) sort the lanes
//!   they hold by their lane permutation and write them with
//!   `write_lane_run` as one sorted run of column blocks, every block
//!   column in sorted order; `sort::RunMerge` merges the runs, ties by
//!   run index, which reproduces the stable in-memory sort exactly.
//! * The reference's row sort, `external_sort`, does the same over
//!   `(SortKey, Row)` pairs.
//! * The hash join (`join.rs`) goes grace: both sides re-partition to
//!   disk through `BlockBuckets` and bucket *b* of one side joins
//!   bucket *b* of the other, recursively.
//! * The row kernel's `merge_agg_partition` re-partitions its
//!   partial-aggregate hash table the same way, as `(key, accumulators)`
//!   pairs, and merges each bucket recursively.
//! * The batch GROUP BY's reduce side (`aggregate.rs`) pushes its lane
//!   table and the blocks still unread, as key columns and
//!   accumulator-state columns, into the same buckets.
//!
//! Every spill has one shape, a `PairLayout`: key columns, then row
//! columns. A lane run is all row columns (its keys are among them), the
//! reference's row sort spills `(SortKey, Row)` pairs, a join side `(key,
//! row)` pairs (the NULL-key sentinel as all-NULL key columns, which a
//! join key never has), the row GROUP BY `(key, [accumulators])` pairs
//! and the batch GROUP BY its key and state columns. Pairs cross the disk
//! boundary as column blocks through [`SpillCodec`] — typed lanes as
//! typed parts, boxed values boxed — so spilled execution is
//! byte-identical to in-memory execution. Buckets split by one
//! depth-salted hash of the key lanes (`lane_buckets`), and every file,
//! a bucket or a sorted run of lanes or pairs, reads back through
//! `SpilledBlocks` in write order. This module is the only one in the
//! crate that opens spill files or encodes for them. Spill files delete themselves on drop. A
//! failing task records its error in its slot (`engine::task`) and ends
//! its stream, dropping the operator state that holds them, and the
//! scheduler reports the error only after every sibling task has
//! finished, so neither errors nor injected faults leak disk. A spill
//! read that fails mid-stream does the same.

use crate::join::Keyed;
use crate::sort::{KeyedRow, SortKey};
use catalyst::error::{CatalystError, Result};
use catalyst::physical::metrics::OperatorMetrics;
use catalyst::row::Row;
use catalyst::types::DataType;
use catalyst::value::Value;
use catalyst::vectorized::{Acc, BatchGroups, ColumnVector};
use columnar::SpillCodec;
use engine::{task, BoxIter, MemoryPool, SpillFile};
use std::collections::HashMap;
use std::sync::Arc;

/// Rows per encoded spill block.
pub(crate) const BLOCK_ROWS: usize = 256;
/// Sub-partitions per spill round (grace join / aggregate re-partition).
const FANOUT: usize = 8;
/// Past this re-partitioning depth, buffers build un-reserved rather
/// than recursing forever on pathological key distributions.
pub(crate) const MAX_DEPTH: usize = 6;

/// Shared spill context for one operator: the execution's pool plus the
/// operator's metrics slot (spills show up as `spill_count` /
/// `spill_bytes` extras in `EXPLAIN ANALYZE`).
#[derive(Clone)]
pub struct SpillCtx {
    /// The execution-wide memory pool.
    pub pool: Arc<MemoryPool>,
    /// The operator's metrics node, when instrumented.
    pub node: Option<Arc<OperatorMetrics>>,
}

impl SpillCtx {
    fn note_spill(&self, bytes: u64) {
        self.pool.record_spill(bytes);
        if let Some(n) = &self.node {
            n.add_extra("spill_count", 1);
            n.add_extra("spill_bytes", bytes);
        }
    }
}

// ---- the pair layout ----

/// The one spill layout: key columns, then row columns. A `(key, row)`
/// pair crosses the disk boundary as one lane of each, and only then —
/// pairs that never spill are never flattened.
#[derive(Clone)]
pub(crate) struct PairLayout {
    codec: SpillCodec,
    key_width: usize,
}

impl PairLayout {
    /// The layout of keys and rows of the given column types.
    pub(crate) fn new(
        mut key_dtypes: Vec<DataType>,
        row_dtypes: impl IntoIterator<Item = DataType>,
    ) -> PairLayout {
        let key_width = key_dtypes.len();
        key_dtypes.extend(row_dtypes);
        PairLayout {
            codec: SpillCodec::new(key_dtypes),
            key_width,
        }
    }

    /// `pairs` as one block of columns, values moved; a `None` key is
    /// all-NULL key columns.
    fn block(
        &self,
        pairs: impl Iterator<Item = (Option<Row>, Row)>,
    ) -> (Vec<Arc<ColumnVector>>, usize) {
        let dtypes = self.codec.dtypes();
        let mut columns: Vec<Vec<Value>> = vec![Vec::new(); dtypes.len()];
        let mut rows = 0;
        for (key, row) in pairs {
            let key = key.map_or_else(|| vec![Value::Null; self.key_width], Row::into_values);
            let values = key.into_iter().chain(row.into_values());
            (columns.iter_mut().zip(values)).for_each(|(column, v)| column.push(v));
            rows += 1;
        }
        let columns = (columns.into_iter().zip(dtypes))
            .map(|(values, dtype)| Arc::new(ColumnVector::from_values(dtype, values)))
            .collect();
        (columns, rows)
    }

    /// The `(key, row)` pairs of a decoded block, in lane order.
    fn pairs(&self, rows: usize, columns: Vec<ColumnVector>) -> impl Iterator<Item = (Row, Row)> {
        let key_width = self.key_width;
        (0..rows).map(move |r| {
            let mut key: Vec<Value> = columns.iter().map(|c| c.get(r)).collect();
            let row = Row::new(key.split_off(key_width));
            (Row::new(key), row)
        })
    }
}

// ---- external sort ----

/// K-way merge over spilled runs plus the final in-memory run (always the
/// highest run index). Equal keys pop lowest-run-first, which is arrival
/// order — the same order a single stable in-memory sort produces.
struct MergeIter {
    runs: Vec<(Option<KeyedRow>, BoxIter<KeyedRow>)>,
    tail: std::vec::IntoIter<KeyedRow>,
    tail_head: Option<KeyedRow>,
    /// Frees the tail buffer's reservation when merging finishes.
    _reservation: engine::MemoryReservation,
}

impl Iterator for MergeIter {
    type Item = KeyedRow;

    fn next(&mut self) -> Option<KeyedRow> {
        if self.tail_head.is_none() {
            self.tail_head = self.tail.next();
        }
        let mut best: Option<usize> = None; // None = tail, Some(i) = run i
        let mut best_key: Option<&SortKey> = self.tail_head.as_ref().map(|(k, _)| k);
        for (i, (head, _)) in self.runs.iter().enumerate().rev() {
            if let Some((k, _)) = head {
                if best_key.is_none_or(|b| k <= b) {
                    best = Some(i);
                    best_key = Some(k);
                }
            }
        }
        match best {
            Some(i) => {
                let (head, run) = &mut self.runs[i];
                std::mem::replace(head, run.next())
            }
            None => self.tail_head.take(),
        }
    }
}

/// Sort `(key, row)` pairs by key under the pool's budget — the sort of
/// every ORDER BY and every window partition. Pairs buffer in memory
/// while the reservation grows; when it is denied, the buffer is sorted
/// and spilled as one run of `layout` blocks, and all runs k-way merge
/// at the end, their keys ordered by `descending_mask` (see [`SortKey`]).
/// A pool that never denies makes this exactly an in-memory stable sort.
pub(crate) fn external_sort(
    input: BoxIter<KeyedRow>,
    layout: &PairLayout,
    descending_mask: u64,
    ctx: &SpillCtx,
) -> Result<BoxIter<KeyedRow>> {
    let mut reservation = ctx.pool.register();
    let mut runs: Vec<SpilledBlocks> = Vec::new();
    let mut buf: Vec<KeyedRow> = Vec::new();
    for (key, row) in input {
        let bytes = key.approx_bytes() + row.approx_bytes();
        if !reservation.try_grow(bytes) && !buf.is_empty() {
            buf.sort_by(|a, b| a.0.cmp(&b.0));
            let mut file = ctx.pool.spill_file()?;
            let pairs = buf
                .drain(..)
                .map(|(k, r)| (Some(Row::new(k.into_values())), r));
            let mut pairs = pairs.peekable();
            while pairs.peek().is_some() {
                let (columns, rows) = layout.block(pairs.by_ref().take(BLOCK_ROWS));
                file.append(&layout.codec.encode_vectors(&columns, rows))?;
            }
            drop(pairs);
            ctx.note_spill(file.bytes_written());
            runs.push(SpilledBlocks::open(file, layout.clone())?);
            reservation.free();
            // Re-reserve for the row that overflowed; a single row larger
            // than the fair share proceeds unreserved (it must go somewhere).
            reservation.try_grow(bytes);
        }
        buf.push((key, row));
    }
    buf.sort_by(|a, b| a.0.cmp(&b.0));
    let runs = (runs.into_iter())
        .map(|run| {
            let mut run = sorted_run(run, descending_mask);
            (run.next(), run)
        })
        .collect();
    Ok(Box::new(MergeIter {
        runs,
        tail: buf.into_iter(),
        tail_head: None,
        _reservation: reservation,
    }))
}

/// A spilled run's pairs, their keys ordered by `descending_mask`.
fn sorted_run(run: SpilledBlocks, descending_mask: u64) -> BoxIter<KeyedRow> {
    Box::new((run.pairs()).map(move |(k, r)| (SortKey::new(k.into_values(), descending_mask), r)))
}

// ---- sorted lane runs ----

/// Write one sorted run of a block pipeline's lanes: `columns` (of types
/// `dtypes`) read in `perm` order, gathered [`BLOCK_ROWS`] lanes at a
/// time and appended as blocks of every column to one file, recorded as
/// one spill. The run reads back in sorted order.
pub(crate) fn write_lane_run(
    columns: &[Arc<ColumnVector>],
    perm: &[u32],
    dtypes: &[DataType],
    ctx: &SpillCtx,
) -> Result<SpilledBlocks> {
    let layout = PairLayout::new(Vec::new(), dtypes.iter().cloned());
    let mut file = ctx.pool.spill_file()?;
    for lanes in perm.chunks(BLOCK_ROWS) {
        let block: Vec<Arc<ColumnVector>> =
            columns.iter().map(|c| Arc::new(c.gather(lanes))).collect();
        file.append(&layout.codec.encode_vectors(&block, lanes.len()))?;
    }
    ctx.note_spill(file.bytes_written());
    SpilledBlocks::open(file, layout)
}

// ---- spill buckets ----

/// The bucket, in `0..FANOUT`, of each of `rows` lanes of the key columns
/// `keys` at re-partitioning `depth`. The per-lane key hash agrees with
/// key equality ([`BatchGroups::key_hashes`]), so `Int 1` and `Long 1`
/// share a bucket; a depth salt and a folded multiply remix it, and the
/// bucket is taken from the top of the result, so it is independent of
/// the `hash % reducers` that routed the lanes to this task and of the
/// bucket one depth up.
fn lane_buckets(keys: &[Arc<ColumnVector>], rows: usize, depth: usize) -> Vec<usize> {
    let salt = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(depth as u64 + 1);
    (BatchGroups::key_hashes(keys, rows).into_iter())
        .map(|h| {
            let wide = (h ^ salt) as u128 * 0xd6e8_feb8_6659_fd93u128;
            let mixed = (wide >> 64) as u64 ^ wide as u64;
            ((mixed as u128 * FANOUT as u128) >> 64) as usize
        })
        .collect()
}

/// One bucket: its file, once written, and the parts pushed since its
/// last block.
#[derive(Default)]
struct Bucket {
    file: Option<SpillFile>,
    parts: Vec<Vec<Arc<ColumnVector>>>,
    rows: usize,
}

/// The spill buckets of one re-partitioning depth, the one bucket writer.
/// Every block pushed is split by key bucket ([`lane_buckets`],
/// [`ColumnVector::gather`]); a bucket's parts wait until they hold
/// [`BLOCK_ROWS`] lanes and are then appended to its file as one block, so
/// each file holds its lanes in push order. Pairs pushed one at a time
/// stage until they fill about a block per bucket.
pub(crate) struct BlockBuckets {
    layout: PairLayout,
    depth: usize,
    staged: Vec<(Option<Row>, Row)>,
    buckets: Vec<Bucket>,
}

impl BlockBuckets {
    /// Empty buckets of `layout` blocks at re-partitioning `depth`.
    pub(crate) fn new(layout: PairLayout, depth: usize) -> BlockBuckets {
        BlockBuckets {
            layout,
            depth,
            staged: Vec::new(),
            buckets: (0..FANOUT).map(|_| Bucket::default()).collect(),
        }
    }

    /// Push one pair; a `None` key (a join's NULL key) is all-NULL key
    /// columns, which share one bucket.
    pub(crate) fn push_pair(&mut self, ctx: &SpillCtx, key: Option<Row>, row: Row) -> Result<()> {
        self.staged.push((key, row));
        if self.staged.len() < BLOCK_ROWS * FANOUT {
            return Ok(());
        }
        self.push_staged(ctx)
    }

    fn push_staged(&mut self, ctx: &SpillCtx) -> Result<()> {
        let (columns, rows) = self.layout.block(self.staged.drain(..));
        self.push(ctx, &columns, rows)
    }

    /// Split a block of `rows` lanes by bucket and add each part to its
    /// bucket, writing every bucket that fills.
    pub(crate) fn push(
        &mut self,
        ctx: &SpillCtx,
        columns: &[Arc<ColumnVector>],
        rows: usize,
    ) -> Result<()> {
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); FANOUT];
        let buckets = lane_buckets(&columns[..self.layout.key_width], rows, self.depth);
        for (lane, b) in buckets.into_iter().enumerate() {
            members[b].push(lane as u32);
        }
        for (b, lanes) in members.iter().enumerate() {
            if lanes.is_empty() {
                continue;
            }
            let part = if lanes.len() == rows {
                columns.to_vec()
            } else {
                columns.iter().map(|c| Arc::new(c.gather(lanes))).collect()
            };
            self.buckets[b].parts.push(part);
            self.buckets[b].rows += lanes.len();
            if self.buckets[b].rows >= BLOCK_ROWS {
                self.write(ctx, b)?;
            }
        }
        Ok(())
    }

    /// Append bucket `b`'s waiting parts to its file as one block.
    fn write(&mut self, ctx: &SpillCtx, b: usize) -> Result<()> {
        let Bucket { file, parts, rows } = &mut self.buckets[b];
        if *rows == 0 {
            return Ok(());
        }
        let dtypes = self.layout.codec.dtypes();
        let columns: Vec<Arc<ColumnVector>> = match parts.len() {
            1 => parts.pop().expect("one part"),
            _ => (dtypes.iter().enumerate())
                .map(|(j, dtype)| {
                    let column: Vec<_> = parts.iter().map(|p| p[j].clone()).collect();
                    Arc::new(ColumnVector::concat(dtype, &column))
                })
                .collect(),
        };
        let file = match file {
            Some(file) => file,
            empty => empty.insert(ctx.pool.spill_file()?),
        };
        file.append(&self.layout.codec.encode_vectors(&columns, *rows))?;
        parts.clear();
        *rows = 0;
        Ok(())
    }

    /// Write what waits, seal the buckets, recording one spill per
    /// written file, and return every bucket's reader by index: `None`
    /// for a bucket that received nothing.
    pub(crate) fn finish(mut self, ctx: &SpillCtx) -> Result<Vec<Option<SpilledBlocks>>> {
        self.push_staged(ctx)?;
        for b in 0..FANOUT {
            self.write(ctx, b)?;
        }
        (self.buckets.into_iter())
            .map(|bucket| {
                let Some(file) = bucket.file else {
                    return Ok(None);
                };
                ctx.note_spill(file.bytes_written());
                SpilledBlocks::open(file, self.layout.clone()).map(Some)
            })
            .collect()
    }
}

/// The one spill reader: a sealed file's blocks, in write order, as
/// `(rows, columns)`. A read or decode that fails is an error item.
pub(crate) struct SpilledBlocks {
    /// Keeps the backing file alive (and deleted when reading finishes).
    _file: SpillFile,
    blocks: engine::memory::SpillBlockIter,
    layout: PairLayout,
}

impl SpilledBlocks {
    fn open(mut file: SpillFile, layout: PairLayout) -> Result<SpilledBlocks> {
        Ok(SpilledBlocks {
            blocks: file.blocks()?,
            _file: file,
            layout,
        })
    }

    /// The file's `(key, row)` pairs, in write order. A failed read or
    /// decode fails the task and ends the stream.
    pub(crate) fn pairs(self) -> impl Iterator<Item = (Row, Row)> + Send {
        let layout = self.layout.clone();
        (self.map_while(task::ok)).flat_map(move |(rows, columns)| layout.pairs(rows, columns))
    }
}

impl Iterator for SpilledBlocks {
    type Item = Result<(usize, Vec<ColumnVector>)>;

    fn next(&mut self) -> Option<Self::Item> {
        Some(match self.blocks.next()? {
            Ok(block) => self.layout.codec.decode_vectors(&block),
            Err(e) => Err(e.into()),
        })
    }
}

/// A join side's bucket as keyed rows: all-NULL key columns are the
/// NULL-key sentinel, since a join key has no NULL column.
pub(crate) fn keyed_pairs(bucket: Option<SpilledBlocks>) -> BoxIter<Keyed> {
    Box::new(
        (bucket.into_iter().flat_map(SpilledBlocks::pairs)).map(|(key, row)| {
            let sentinel = key.values().iter().all(Value::is_null);
            ((!sentinel).then_some(key), row)
        }),
    )
}

// ---- spillable aggregation ----

fn accs_row(accs: &[Acc]) -> Row {
    Row::new(vec![Value::Array(Arc::new(
        accs.iter().map(Acc::to_value).collect(),
    ))])
}

/// A spilled bucket's `(key, accumulators)` entries. An entry that is
/// not one fails the task and ends the stream.
fn agg_entries(bucket: SpilledBlocks) -> BoxIter<(Row, Vec<Acc>)> {
    Box::new((bucket.pairs()).map_while(|(key, row)| {
        let accs = match row.into_values().pop() {
            Some(Value::Array(items)) => items.iter().map(Acc::from_value).collect(),
            other => Err(CatalystError::Internal(format!(
                "corrupt aggregate spill entry {other:?}"
            ))),
        };
        Some((key, task::ok(accs)?))
    }))
}

/// Merge two partial-accumulator lists of the same calls, `a` first.
pub(crate) fn merge_accs(a: Vec<Acc>, b: Vec<Acc>) -> Result<Vec<Acc>> {
    a.into_iter().zip(b).map(|(x, y)| x.merge(y)).collect()
}

/// Rough reservation size of one aggregation-table entry.
fn entry_bytes(key: &Row, accs: &[Acc]) -> u64 {
    key.approx_bytes() + 16 + accs.iter().map(Acc::approx_bytes).sum::<u64>()
}

/// The spill layout of `(group key, accumulators)` pairs for group keys
/// of `key_dtypes`: the key columns, then one Array column of the tagged
/// accumulator encodings ([`Acc::to_value`]).
pub(crate) fn agg_layout(key_dtypes: Vec<DataType>) -> PairLayout {
    PairLayout::new(key_dtypes, [DataType::Array(Box::new(DataType::String))])
}

/// Merge a stream of `(key, accumulators)` partials into one set of final
/// accumulators per key, spilling the hash table under memory pressure:
/// a denied grow dumps the table into [`BlockBuckets`] of `layout`
/// ([`agg_layout`]), and each bucket merges recursively. Output order is
/// unspecified (hash order), like the in-memory combine.
pub(crate) fn merge_agg_partition(
    input: BoxIter<(Row, Vec<Acc>)>,
    layout: &PairLayout,
    ctx: &SpillCtx,
    depth: usize,
) -> Result<Vec<(Row, Vec<Acc>)>> {
    let mut reservation = ctx.pool.register();
    let reserve = depth < MAX_DEPTH;
    let mut table: HashMap<Row, Vec<Acc>> = HashMap::new();
    let mut buckets: Option<BlockBuckets> = None;
    for (key, accs) in input {
        let bytes = entry_bytes(&key, &accs);
        if reserve && !reservation.try_grow(bytes) && !table.is_empty() {
            let dump = buckets.get_or_insert_with(|| BlockBuckets::new(layout.clone(), depth));
            for (k, a) in table.drain() {
                dump.push_pair(ctx, Some(k), accs_row(&a))?;
            }
            reservation.free();
            reservation.try_grow(bytes);
        }
        match table.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let merged = merge_accs(std::mem::take(e.get_mut()), accs)?;
                *e.get_mut() = merged;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(accs);
            }
        }
    }
    let Some(mut dump) = buckets else {
        return Ok(table.into_iter().collect());
    };
    // Dump the final table too, then merge each bucket recursively.
    for (k, a) in table.drain() {
        dump.push_pair(ctx, Some(k), accs_row(&a))?;
    }
    reservation.free();
    let mut out = Vec::new();
    for bucket in dump.finish(ctx)?.into_iter().flatten() {
        out.extend(merge_agg_partition(
            agg_entries(bucket),
            layout,
            ctx,
            depth + 1,
        )?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalyst::vectorized::RowBatch;

    #[test]
    fn one_reducers_groups_reach_every_bucket() {
        // An 8-reducer exchange sends a reducer the groups whose hash is
        // its index modulo 8; their buckets must not inherit that.
        let keys: Vec<Value> = (0..20_000)
            .map(|i| Value::str(format!("10.0.{i}")))
            .collect();
        let (mut groups, mut asg) = (BatchGroups::new(), Vec::new());
        let batch = RowBatch::from_rows(
            &[DataType::String],
            &keys
                .into_iter()
                .map(|k| Row::new(vec![k]))
                .collect::<Vec<_>>(),
        );
        groups.assign(&batch, &mut asg);
        let mine: Vec<u32> = (groups.group_hashes().iter().enumerate())
            .filter(|(_, h)| *h % 8 == 3)
            .map(|(g, _)| g as u32)
            .collect();
        let column = Arc::new(groups.key_columns(&[DataType::String])[0].gather(&mine));
        for depth in 0..3 {
            let mut sizes = [0usize; FANOUT];
            for b in lane_buckets(std::slice::from_ref(&column), mine.len(), depth) {
                sizes[b] += 1;
            }
            let fair = mine.len() / FANOUT;
            assert!(
                sizes.iter().all(|&n| n > fair / 2 && n < fair * 2),
                "depth {depth}: bucket sizes {sizes:?}"
            );
        }
    }

    #[test]
    fn equal_keys_of_different_types_share_a_bucket() {
        let ints: Vec<Value> = (0..2000).map(Value::Int).collect();
        let longs: Vec<Value> = (0..2000).map(|i| Value::Long(i as i64)).collect();
        let mixed: Vec<Value> = (0..2000)
            .map(|i| {
                if i % 2 == 0 {
                    Value::Int(i)
                } else {
                    Value::Long(i as i64)
                }
            })
            .collect();
        let buckets = |dtype: DataType, values: Vec<Value>| {
            let column = Arc::new(ColumnVector::from_values(&dtype, values));
            (0..3)
                .map(|depth| lane_buckets(std::slice::from_ref(&column), 2000, depth))
                .collect::<Vec<_>>()
        };
        let by_int = buckets(DataType::Int, ints);
        assert_eq!(
            by_int,
            buckets(DataType::Long, longs),
            "typed Int and Long lanes"
        );
        assert_eq!(
            by_int,
            buckets(DataType::Long, mixed),
            "boxed Int-in-Long lanes"
        );
    }

    /// `n` pairs of a BIGINT key and a string row.
    fn pairs(n: i64) -> impl Iterator<Item = (Option<Row>, Row)> {
        (0..n).map(|i| {
            let row = Row::new(vec![Value::str(format!("s{i}"))]);
            (Some(Row::new(vec![Value::Long(i)])), row)
        })
    }

    fn long_string() -> PairLayout {
        PairLayout::new(vec![DataType::Long], [DataType::String])
    }

    #[test]
    fn grace_buckets_write_whole_blocks_by_index() {
        let dir = std::env::temp_dir().join(format!("spill-blocks-{}", std::process::id()));
        let ctx = SpillCtx {
            pool: MemoryPool::bounded(1 << 20, dir),
            node: None,
        };
        let mut buckets = BlockBuckets::new(long_string(), 0);
        for (key, row) in pairs(20_000) {
            buckets.push_pair(&ctx, key, row).unwrap();
        }
        let readers = buckets.finish(&ctx).unwrap();
        assert_eq!(readers.len(), FANOUT, "one reader slot per bucket");
        let mut total = 0;
        for (b, reader) in readers.into_iter().enumerate() {
            let blocks: Vec<usize> = reader.unwrap().map(|r| r.unwrap().0).collect();
            // Every block but a bucket's last is at least a block's worth.
            let (last, whole) = blocks.split_last().unwrap();
            assert!(
                whole.iter().all(|&n| n >= BLOCK_ROWS),
                "bucket {b}: {blocks:?}"
            );
            total += whole.iter().sum::<usize>() + last;
        }
        assert_eq!(total, 20_000);
        let stats = ctx.pool.stats();
        assert_eq!(stats.spill_files_created, stats.spill_files_deleted);
    }

    /// How an operator reads one spill file back: `Ok(rows)` when it read
    /// the file whole, an error — returned, or recorded in the task's
    /// slot — when not.
    type Reader = fn(SpilledBlocks, &SpillCtx) -> Result<usize>;

    /// A spill file's bytes, and whether they are sound.
    type Case = (Vec<u8>, bool);

    #[test]
    fn corrupt_spilled_blocks_fail_their_task_without_a_panic() {
        let encode = |layout: &PairLayout, pairs: Box<dyn Iterator<Item = _>>| {
            let (columns, rows) = layout.block(pairs);
            layout.codec.encode_vectors(&columns, rows)
        };
        let block = encode(&long_string(), Box::new(pairs(100)));
        let agg = agg_layout(vec![DataType::Long]);
        let accs = (0..100).map(|i| {
            (
                Some(Row::new(vec![Value::Long(i)])),
                accs_row(&[Acc::Count(i)]),
            )
        });
        let damaged = |block: Vec<u8>| {
            let mut flipped = block.clone();
            flipped[7] ^= 1; // the column count
            let truncated = block[..block.len() / 2].to_vec();
            vec![(block, true), (truncated, false), (flipped, false)]
        };
        let mut agg_cases = damaged(encode(&agg, Box::new(accs)));
        // Blocks that decode, but whose accumulator column holds strings,
        // or a COUNT and a SUM partial for one key.
        agg_cases.push((encode(&agg, Box::new(pairs(100))), false));
        let clash = [Acc::Count(1), Acc::Sum(None)]
            .map(|acc| (Some(Row::new(vec![Value::Long(0)])), accs_row(&[acc])));
        agg_cases.push((encode(&agg, Box::new(clash.into_iter())), false));
        let readers: [(&str, PairLayout, Vec<Case>, Reader); 4] = [
            (
                "batch GROUP BY bucket",
                long_string(),
                damaged(block.clone()),
                |bucket, _| bucket.map(|read| read.map(|(rows, _)| rows)).sum(),
            ),
            (
                "external-sort run",
                long_string(),
                damaged(block.clone()),
                |run, _| Ok(sorted_run(run, 0).count()),
            ),
            (
                "grace-join bucket",
                long_string(),
                damaged(block),
                |bucket, _| Ok(keyed_pairs(Some(bucket)).count()),
            ),
            ("row GROUP BY bucket", agg, agg_cases, |bucket, ctx| {
                let layout = agg_layout(vec![DataType::Long]);
                Ok(merge_agg_partition(agg_entries(bucket), &layout, ctx, 1)?.len())
            }),
        ];
        let dir = std::env::temp_dir().join(format!("spill-corrupt-{}", std::process::id()));
        let pool = MemoryPool::bounded(1 << 20, dir);
        let mut files = 0;
        for (what, layout, cases, read) in readers {
            for (bytes, sound) in cases {
                // Read the file back inside a task, as the operator does.
                files += 1;
                let (sc, layout, pool) =
                    (engine::SparkContext::new(1), layout.clone(), pool.clone());
                sc.set_chaos(None);
                let rows = sc.parallelize(vec![bytes], 1).map_partitions(move |it| {
                    let ctx = SpillCtx {
                        pool: pool.clone(),
                        node: None,
                    };
                    let run = |bytes: Vec<u8>| -> Result<Vec<usize>> {
                        let mut file = pool.spill_file()?;
                        file.append(&bytes)?;
                        Ok(vec![read(
                            SpilledBlocks::open(file, layout.clone())?,
                            &ctx,
                        )?])
                    };
                    crate::execution::task_iter(run(it.flatten().collect()))
                });
                match rows.try_collect() {
                    Ok(rows) => assert!(sound && rows == vec![100], "{what}: a corrupt file read"),
                    Err(e) => assert!(!sound, "{what}: a sound file failed: {e}"),
                }
                assert_eq!(sc.metrics().snapshot().task_panics, 0, "{what}");
            }
        }
        let stats = pool.stats();
        assert_eq!(stats.spill_files_created, files);
        assert_eq!(stats.spill_files_created, stats.spill_files_deleted);
    }
}
