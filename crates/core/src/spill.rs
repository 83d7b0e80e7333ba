//! Disk-backed ("external") operator algorithms for memory-governed
//! execution.
//!
//! Each buffering operator registers an [`engine::MemoryReservation`]
//! against the execution's [`engine::MemoryPool`] and grows it as its
//! buffer fills. A denied grow is the spill signal:
//!
//! * `external_sort` sorts what it has, writes the run to a
//!   [`SpillFile`], and k-way merges all runs (plus the final in-memory
//!   buffer) at the end. Ties merge by run index, which reproduces the
//!   stable in-memory sort exactly.
//! * The hash join (`join.rs`) goes grace: both sides re-partition to
//!   disk through `SpillBuckets` by a depth-salted key hash and each
//!   sub-partition joins recursively.
//! * The row kernel's [`merge_agg_partition`] spills its partial-aggregate
//!   hash table the same way, re-partitioning `(key, accumulators)` pairs
//!   and merging each bucket recursively.
//! * The batch GROUP BY's reduce side (`aggregate.rs`) spills column
//!   blocks through `BlockBuckets`: key columns and accumulator-state
//!   columns, split by a depth-salted key hash, one encoded block per
//!   part, and each bucket read back as blocks in write order.
//!
//! Rows and column blocks cross the disk boundary through [`SpillCodec`]
//! — the colfile column codec with an exact-roundtrip guarantee (typed
//! lanes as typed parts, boxed values boxed) — so spilled execution is
//! byte-identical to in-memory execution. This module is the only one
//! in the crate that opens spill files or encodes for them. Spill files delete
//! themselves on drop. A failing task records its error in its slot
//! (`engine::task`) and ends its stream, dropping the operator state
//! that holds them, and the scheduler reports the error only after every
//! sibling task has finished, so neither errors nor injected faults leak
//! disk. A spill read that fails mid-stream does the same.

use crate::join::Keyed;
use crate::sort::{KeyedRow, SortKey};
use catalyst::error::Result;
use catalyst::physical::metrics::OperatorMetrics;
use catalyst::row::Row;
use catalyst::types::DataType;
use catalyst::value::Value;
use catalyst::vectorized::{Acc, BatchGroups, ColumnVector};
use columnar::SpillCodec;
use engine::{task, BoxIter, MemoryPool, SpillFile};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Rows per encoded spill block.
const BLOCK_ROWS: usize = 256;
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

/// Depth-salted hash bucket for recursive re-partitioning. Using a
/// different seed per depth breaks up collisions the previous round's
/// partitioning created.
fn bucket(key: &Row, depth: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    0x9E37_79B9_7F4A_7C15u64
        .wrapping_mul(depth as u64 + 1)
        .hash(&mut h);
    key.hash(&mut h);
    (h.finish() as usize) % FANOUT
}

// ---- external sort ----

/// Spill layout of a sort: a `(key, row)` pair crosses the disk boundary
/// flattened to `key ++ row`, and only then — pairs that never spill are
/// never flattened.
#[derive(Clone)]
pub(crate) struct SortLayout {
    codec: SpillCodec,
    key_width: usize,
    descending_mask: u64,
}

impl SortLayout {
    /// Layout for keys and rows of the given column types, ordered per
    /// `descending_mask` (see [`SortKey`]).
    pub(crate) fn new(
        mut key_dtypes: Vec<DataType>,
        row_dtypes: impl IntoIterator<Item = DataType>,
        descending_mask: u64,
    ) -> SortLayout {
        let key_width = key_dtypes.len();
        key_dtypes.extend(row_dtypes);
        SortLayout {
            codec: SpillCodec::new(key_dtypes),
            key_width,
            descending_mask,
        }
    }

    fn encode_block(&self, pairs: impl Iterator<Item = KeyedRow>) -> Vec<u8> {
        let flat: Vec<Row> = pairs
            .map(|(key, row)| {
                let mut values = key.into_values();
                values.extend(row.into_values());
                Row::new(values)
            })
            .collect();
        self.codec.encode_block(&flat)
    }

    fn decode_pair(&self, flat: Row) -> KeyedRow {
        let mut values = flat.into_values();
        let row = Row::new(values.split_off(self.key_width));
        (SortKey::new(values, self.descending_mask), row)
    }
}

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
/// and spilled as one run, and all runs k-way merge at the end. A pool
/// that never denies makes this exactly an in-memory stable sort.
pub(crate) fn external_sort(
    input: BoxIter<KeyedRow>,
    layout: &SortLayout,
    ctx: &SpillCtx,
) -> Result<BoxIter<KeyedRow>> {
    let mut reservation = ctx.pool.register();
    let mut runs: Vec<SpillFile> = Vec::new();
    let mut buf: Vec<KeyedRow> = Vec::new();
    for (key, row) in input {
        let bytes = key.approx_bytes() + row.approx_bytes();
        if !reservation.try_grow(bytes) && !buf.is_empty() {
            buf.sort_by(|a, b| a.0.cmp(&b.0));
            let mut file = ctx.pool.spill_file()?;
            let mut pairs = buf.drain(..).peekable();
            while pairs.peek().is_some() {
                file.append(&layout.encode_block(pairs.by_ref().take(BLOCK_ROWS)))?;
            }
            drop(pairs);
            ctx.note_spill(file.bytes_written());
            runs.push(file);
            reservation.free();
            // Re-reserve for the row that overflowed; a single row larger
            // than the fair share proceeds unreserved (it must go somewhere).
            reservation.try_grow(bytes);
        }
        buf.push((key, row));
    }
    buf.sort_by(|a, b| a.0.cmp(&b.0));
    let runs = runs
        .into_iter()
        .map(|file| {
            let layout = layout.clone();
            let mut run: BoxIter<KeyedRow> = Box::new(
                BlockRows::open(file, layout.codec.clone())?.map(move |r| layout.decode_pair(r)),
            );
            Ok((run.next(), run))
        })
        .collect::<Result<_>>()?;
    Ok(Box::new(MergeIter {
        runs,
        tail: buf.into_iter(),
        tail_head: None,
        _reservation: reservation,
    }))
}

// ---- grace hash join ----

/// Spill layout of one join side: `[present flag] ++ key ++ row`, so a
/// keyed pair — including the NULL-key sentinel outer joins rely on —
/// round-trips through the colfile codec.
#[derive(Clone)]
pub struct SideLayout {
    codec: SpillCodec,
    key_width: usize,
}

impl SideLayout {
    /// Layout for a side whose join keys and output columns have the
    /// given types.
    pub fn new(key_dtypes: Vec<DataType>, row_dtypes: Vec<DataType>) -> SideLayout {
        let key_width = key_dtypes.len();
        let mut dtypes = vec![DataType::Boolean];
        dtypes.extend(key_dtypes);
        dtypes.extend(row_dtypes);
        SideLayout {
            codec: SpillCodec::new(dtypes),
            key_width,
        }
    }

    fn encode_pair(&self, key: &Option<Row>, row: &Row) -> Row {
        let mut values = Vec::with_capacity(self.codec.width());
        match key {
            Some(k) => {
                values.push(Value::Boolean(true));
                values.extend(k.values().iter().cloned());
            }
            None => {
                values.push(Value::Boolean(false));
                values.extend(std::iter::repeat_n(Value::Null, self.key_width));
            }
        }
        values.extend(row.values().iter().cloned());
        Row::new(values)
    }

    fn decode_pair(&self, flat: Row) -> (Option<Row>, Row) {
        let mut values = flat.into_values();
        let row = Row::new(values.split_off(1 + self.key_width));
        let present = matches!(values[0], Value::Boolean(true));
        let key = if present {
            Some(Row::new(values.split_off(1)))
        } else {
            None
        };
        (key, row)
    }
}

/// One side's spill buckets: rows partitioned by depth-salted key hash
/// (NULL keys to bucket 0 — they never match, but outer joins must still
/// see them exactly once).
pub(crate) struct SpillBuckets {
    files: Vec<Option<SpillFile>>,
    bufs: Vec<Vec<Row>>,
    layout: SideLayout,
    depth: usize,
}

impl SpillBuckets {
    pub(crate) fn new(layout: SideLayout, depth: usize) -> SpillBuckets {
        SpillBuckets {
            files: (0..FANOUT).map(|_| None).collect(),
            bufs: vec![Vec::new(); FANOUT],
            layout,
            depth,
        }
    }

    pub(crate) fn push(&mut self, ctx: &SpillCtx, key: &Option<Row>, row: &Row) -> Result<()> {
        let b = match key {
            Some(k) => bucket(k, self.depth),
            None => 0,
        };
        self.bufs[b].push(self.layout.encode_pair(key, row));
        if self.bufs[b].len() >= BLOCK_ROWS {
            self.flush(ctx, b)?;
        }
        Ok(())
    }

    fn flush(&mut self, ctx: &SpillCtx, b: usize) -> Result<()> {
        if self.bufs[b].is_empty() {
            return Ok(());
        }
        let file = match &mut self.files[b] {
            Some(file) => file,
            empty => empty.insert(ctx.pool.spill_file()?),
        };
        file.append(&self.layout.codec.encode_block(&self.bufs[b]))?;
        self.bufs[b].clear();
        Ok(())
    }

    /// Seal all buckets, recording one spill per written file, and return
    /// per-bucket pair iterators (empty buckets yield empty iterators).
    pub(crate) fn finish(mut self, ctx: &SpillCtx) -> Result<Vec<BoxIter<Keyed>>> {
        for b in 0..FANOUT {
            self.flush(ctx, b)?;
        }
        self.files
            .into_iter()
            .map(|file| -> Result<BoxIter<Keyed>> {
                let Some(file) = file else {
                    return Ok(Box::new(std::iter::empty()));
                };
                ctx.note_spill(file.bytes_written());
                let layout = self.layout.clone();
                let rows = BlockRows::open(file, layout.codec.clone())?;
                Ok(Box::new(rows.map(move |flat| layout.decode_pair(flat))))
            })
            .collect()
    }
}

/// Streaming row reader over a sealed spill file. A failed read or
/// decode ends the stream and fails the task.
struct BlockRows {
    /// Keeps the backing file alive (and deleted when reading finishes).
    _file: SpillFile,
    blocks: engine::memory::SpillBlockIter,
    codec: SpillCodec,
    buf: std::vec::IntoIter<Row>,
}

impl BlockRows {
    fn open(mut file: SpillFile, codec: SpillCodec) -> Result<BlockRows> {
        let blocks = file.blocks()?;
        Ok(BlockRows {
            _file: file,
            blocks,
            codec,
            buf: Vec::new().into_iter(),
        })
    }
}

impl Iterator for BlockRows {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        loop {
            if let Some(row) = self.buf.next() {
                return Some(row);
            }
            let block = task::ok(self.blocks.next()?)?;
            self.buf = task::ok(self.codec.decode_block(&block))?.into_iter();
        }
    }
}

// ---- spillable aggregation ----

/// Spill layout for `(group key, accumulators)` pairs: the key columns
/// plus one Array column holding the tagged accumulator encodings
/// (`Acc::to_value`), stored through the same bucket writer the grace
/// join uses.
#[derive(Clone)]
pub struct AggLayout {
    side: SideLayout,
}

impl AggLayout {
    /// Layout for group keys with the given column types.
    pub fn new(key_dtypes: Vec<DataType>) -> AggLayout {
        AggLayout {
            side: SideLayout::new(
                key_dtypes,
                vec![DataType::Array(Box::new(DataType::String))],
            ),
        }
    }
}

fn accs_row(accs: &[Acc]) -> Row {
    Row::new(vec![Value::Array(Arc::new(
        accs.iter().map(Acc::to_value).collect(),
    ))])
}

fn accs_from_row(row: Row) -> Vec<Acc> {
    match row.into_values().pop() {
        Some(Value::Array(items)) => items.iter().map(Acc::from_value).collect(),
        _ => panic!("corrupt aggregate spill entry"),
    }
}

/// Merge two partial-accumulator lists of the same calls, `a` first.
pub(crate) fn merge_accs(a: Vec<Acc>, b: Vec<Acc>) -> Result<Vec<Acc>> {
    a.into_iter().zip(b).map(|(x, y)| x.merge(y)).collect()
}

/// Rough reservation size of one aggregation-table entry.
fn entry_bytes(key: &Row, accs: &[Acc]) -> u64 {
    key.approx_bytes() + 16 + accs.iter().map(Acc::approx_bytes).sum::<u64>()
}

/// Merge a stream of `(key, accumulators)` partials into one set of final
/// accumulators per key, spilling the hash table under memory pressure:
/// a denied grow dumps the table to disk partitioned by depth-salted key
/// hash, and each bucket merges recursively. Output order is
/// unspecified (hash order), like the in-memory combine.
pub fn merge_agg_partition(
    input: BoxIter<(Row, Vec<Acc>)>,
    layout: &AggLayout,
    ctx: &SpillCtx,
    depth: usize,
) -> Result<Vec<(Row, Vec<Acc>)>> {
    let mut reservation = ctx.pool.register();
    let reserve = depth < MAX_DEPTH;
    let mut table: HashMap<Row, Vec<Acc>> = HashMap::new();
    let mut buckets: Option<SpillBuckets> = None;
    for (key, accs) in input {
        let bytes = entry_bytes(&key, &accs);
        if reserve && !reservation.try_grow(bytes) && !table.is_empty() {
            let dump = buckets.get_or_insert_with(|| SpillBuckets::new(layout.side.clone(), depth));
            for (k, a) in table.drain() {
                dump.push(ctx, &Some(k), &accs_row(&a))?;
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
        dump.push(ctx, &Some(k), &accs_row(&a))?;
    }
    reservation.free();
    let mut out = Vec::new();
    for sub in dump.finish(ctx)? {
        let decoded: BoxIter<(Row, Vec<Acc>)> = Box::new(sub.map(move |(k, acc_row)| {
            (
                k.expect("aggregate spill entry lost its key"),
                accs_from_row(acc_row),
            )
        }));
        out.extend(merge_agg_partition(decoded, layout, ctx, depth + 1)?);
    }
    Ok(out)
}

// ---- spillable batch aggregation ----

/// The bucket, in `0..FANOUT`, of each of `rows` lanes of the key columns
/// `keys` at re-partitioning `depth`. The per-lane key hash agrees with
/// key equality ([`BatchGroups::key_hashes`]); a depth salt and a folded
/// multiply remix it, and the bucket is taken from the top of the
/// result, so it is independent of the `hash % reducers` that routed the
/// lanes to this reducer and of the bucket one depth up.
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

/// A reduce side's spill buckets for column blocks: every block pushed
/// is split by key bucket ([`ColumnVector::gather`]), and each non-empty
/// part is appended to its bucket's file as one encoded block.
pub(crate) struct BlockBuckets {
    codec: SpillCodec,
    key_width: usize,
    depth: usize,
    files: Vec<Option<SpillFile>>,
}

impl BlockBuckets {
    /// Buckets for blocks of columns of `dtypes`, the first `key_width`
    /// of them the key, at re-partitioning `depth`.
    pub(crate) fn new(dtypes: Vec<DataType>, key_width: usize, depth: usize) -> BlockBuckets {
        BlockBuckets {
            codec: SpillCodec::new(dtypes),
            key_width,
            depth,
            files: (0..FANOUT).map(|_| None).collect(),
        }
    }

    /// Split a block of `rows` lanes by bucket and append each part.
    pub(crate) fn push(
        &mut self,
        ctx: &SpillCtx,
        columns: &[Arc<ColumnVector>],
        rows: usize,
    ) -> Result<()> {
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); FANOUT];
        let buckets = lane_buckets(&columns[..self.key_width], rows, self.depth);
        for (lane, b) in buckets.into_iter().enumerate() {
            members[b].push(lane as u32);
        }
        for (lanes, file) in members.iter().zip(&mut self.files) {
            if lanes.is_empty() {
                continue;
            }
            let part: Vec<Arc<ColumnVector>> = if lanes.len() == rows {
                columns.to_vec()
            } else {
                columns.iter().map(|c| Arc::new(c.gather(lanes))).collect()
            };
            let file = match file {
                Some(file) => file,
                empty => empty.insert(ctx.pool.spill_file()?),
            };
            file.append(&self.codec.encode_vectors(&part, lanes.len()))?;
        }
        Ok(())
    }

    /// Seal the buckets, recording one spill per written file, and return
    /// a reader per non-empty bucket.
    pub(crate) fn finish(self, ctx: &SpillCtx) -> Result<Vec<SpilledBlocks>> {
        (self.files.into_iter().flatten())
            .map(|mut file| {
                ctx.note_spill(file.bytes_written());
                Ok(SpilledBlocks {
                    blocks: file.blocks()?,
                    _file: file,
                    codec: self.codec.clone(),
                })
            })
            .collect()
    }
}

/// One bucket's blocks, in write order, as `(rows, columns)`. A read or
/// decode that fails is an error item: the caller fails its task.
pub(crate) struct SpilledBlocks {
    /// Keeps the backing file alive (and deleted when reading finishes).
    _file: SpillFile,
    blocks: engine::memory::SpillBlockIter,
    codec: SpillCodec,
}

impl Iterator for SpilledBlocks {
    type Item = Result<(usize, Vec<ColumnVector>)>;

    fn next(&mut self) -> Option<Self::Item> {
        Some(match self.blocks.next()? {
            Ok(block) => self.codec.decode_vectors(&block),
            Err(e) => Err(e.into()),
        })
    }
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
    fn corrupt_spilled_blocks_fail_their_task_without_a_panic() {
        let columns = vec![
            Arc::new(ColumnVector::from_values(
                &DataType::Long,
                (0..100).map(Value::Long).collect(),
            )),
            Arc::new(ColumnVector::from_values(
                &DataType::String,
                (0..100).map(|i| Value::str(format!("s{i}"))).collect(),
            )),
        ];
        let dtypes = vec![DataType::Long, DataType::String];
        let block = SpillCodec::new(dtypes.clone()).encode_vectors(&columns, 100);
        let mut flipped = block.clone();
        flipped[7] ^= 1; // the column count
        let truncated = block[..block.len() / 2].to_vec();
        let dir = std::env::temp_dir().join(format!("spill-corrupt-{}", std::process::id()));
        let pool = MemoryPool::bounded(1 << 20, dir);
        for (bad, sound) in [(block, true), (truncated, false), (flipped, false)] {
            // Read the block back inside a task, as a reduce side does.
            let (sc, dtypes, pool) = (engine::SparkContext::new(1), dtypes.clone(), pool.clone());
            sc.set_chaos(None);
            let rows = sc.parallelize(vec![bad], 1).map_partitions(move |it| {
                let ctx = SpillCtx {
                    pool: pool.clone(),
                    node: None,
                };
                let read = |bad: Vec<u8>| -> Result<Vec<usize>> {
                    let mut file = pool.spill_file()?;
                    file.append(&bad)?;
                    let mut buckets = BlockBuckets::new(dtypes.clone(), 1, 0);
                    buckets.files[0] = Some(file);
                    let blocks = buckets.finish(&ctx)?.into_iter().flatten();
                    blocks.map(|b| b.map(|(rows, _)| rows)).collect()
                };
                crate::execution::task_iter(read(it.flatten().collect()))
            });
            match rows.try_collect() {
                Ok(rows) => assert!(sound && rows == vec![100], "a corrupt block decoded"),
                Err(e) => assert!(!sound, "a sound block failed: {e}"),
            }
            assert_eq!(sc.metrics().snapshot().task_panics, 0);
        }
        let stats = pool.stats();
        assert_eq!(stats.spill_files_created, 3);
        assert_eq!(stats.spill_files_created, stats.spill_files_deleted);
    }
}
