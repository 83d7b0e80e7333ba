//! Exchanges: the one place a shuffle is minted, read, adapted and
//! metered.
//!
//! The planner puts a [`PhysicalPlan::Exchange`] under every operator
//! that needs its input co-located. It lowers with the operator above
//! it: the operator lowers the exchange's input and builds its map-side
//! records, and the exchange routes them to reducers by the function
//! that operator's records have always been routed by — a hash of the
//! key, the reducer index a batch block carries, the hash of a window
//! key's PARTITION BY prefix, or sampled sort-key ranges. Batch sorts and
//! windows route lanes, not records: a [`Route`] picks each lane's
//! reducer on the map side, and the blocks travel by reducer index. A
//! shuffled join's two exchanges are read as a [`HashPair`], stage by
//! stage from measured sizes.
//!
//! Each shuffle is an engine [`ShuffleDependency`] read by its one reader.
//! An exchange records the id of the shuffle it minted on its own metrics
//! node and hands the shuffle's I/O counters to the execution, which
//! writes them onto that node; its read checks the cancel token.

use crate::execution::{cancel_checked, engine_err, ExecContext};
use crate::join::{pair_bytes, Keyed};
use crate::sort::{lane_order, KeyLanes, KeyedRow, SortKey};
use catalyst::adaptive::{rules, AdaptivePlanChange, AdaptiveRule};
use catalyst::error::{CatalystError, Result};
use catalyst::physical::{BuildSide, Partitioning, PhysicalPlan};
use catalyst::plan::JoinType;
use catalyst::row::Row;
use catalyst::types::DataType;
use catalyst::vectorized::{ColumnVector, RowBatch};
use engine::pair::SortedPairRdd;
use engine::rdd::Dependency;
use engine::scheduler::materialize_shuffle;
use engine::shuffle::{ShuffleDependencyBase, SizeFn};
use engine::{
    Data, HashPartitioner, PairRdd, Partitioner, RangePartitioner, RddRef, Reservoir,
    ShuffleDependency, ShuffleReadSpec,
};
use std::cmp::Ordering;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

/// An `Exchange` node bound for lowering by the operator above it.
pub(crate) struct Exchange<'a> {
    /// The exchange's own pre-order id: its metrics node.
    id: usize,
    partitioning: &'a Partitioning,
    /// What the exchange redistributes, and its pre-order id.
    pub(crate) input: &'a Arc<PhysicalPlan>,
    pub(crate) input_id: usize,
}

impl<'a> Exchange<'a> {
    /// The exchange `plan` (pre-order id `id`), an operator's child.
    pub(crate) fn at(plan: &'a PhysicalPlan, id: usize) -> Result<Exchange<'a>> {
        let PhysicalPlan::Exchange {
            input,
            partitioning,
        } = plan
        else {
            return Err(CatalystError::Internal(format!(
                "expected an Exchange, found {}",
                plan.node_description()
            )));
        };
        Ok(Exchange {
            id,
            partitioning,
            input,
            input_id: id + 1,
        })
    }

    /// Reducer count.
    pub(crate) fn partitions(&self) -> usize {
        match self.partitioning {
            Partitioning::Hash { partitions, .. } | Partitioning::Range { partitions, .. } => {
                *partitions
            }
            Partitioning::Single => 1,
        }
    }

    /// Record that this exchange minted `shuffle`: its id on the metrics
    /// node, its I/O counters in the execution's shuffle log.
    fn minted(&self, shuffle: &dyn ShuffleDependencyBase, ctx: &ExecContext) {
        if let Some(pm) = &ctx.metrics {
            pm.node(self.id).add_shuffle_id(shuffle.shuffle_id());
            ctx.shuffles.lock().unwrap().push((self.id, shuffle.io()));
        }
    }

    /// The reduce side of `shuffled`: its shuffle recorded, its read
    /// cancellable.
    fn read<T: Data>(&self, shuffled: RddRef<T>, ctx: &ExecContext) -> RddRef<T> {
        for dep in shuffled.as_inner().dependencies() {
            if let Dependency::Shuffle(dep) = dep {
                self.minted(&*dep, ctx);
            }
        }
        cancel_checked(&shuffled, ctx)
    }

    /// Route records by a hash of their key: join sides, and the row
    /// GROUP BY kernel's `(key, accumulators)` pairs.
    pub(crate) fn hash<K, V>(&self, records: &RddRef<(K, V)>, ctx: &ExecContext) -> RddRef<(K, V)>
    where
        K: Data + Hash + Eq,
        V: Data,
    {
        let partitioner = HashPartitioner::new(self.partitions());
        self.read(records.partition_by(Arc::new(partitioner)), ctx)
    }

    /// Route records to the reducer index they are keyed by: the batch
    /// pipelines' one block per map task and reducer. A `Single`
    /// exchange coalesces them into one partition instead, with no
    /// shuffle.
    pub(crate) fn by_index<V: Data>(
        &self,
        records: &RddRef<(usize, V)>,
        bytes: fn(&V) -> u64,
        ctx: &ExecContext,
    ) -> RddRef<(usize, V)> {
        if let Partitioning::Single = self.partitioning {
            return self.read(records.coalesce(1), ctx);
        }
        let partitioner = Arc::new(IndexPartitioner(self.partitions()));
        let size_fn: SizeFn<usize, V> = Arc::new(move |_, block| bytes(block));
        let dep =
            ShuffleDependency::new(records.as_inner(), partitioner, None, false, Some(size_fn));
        self.read(dep.read_all(), ctx)
    }

    /// Co-locate window rows by their key's PARTITION BY prefix (the
    /// exchange's keys), or all of them in one partition.
    pub(crate) fn window_rows(
        &self,
        records: &RddRef<KeyedRow>,
        ctx: &ExecContext,
    ) -> RddRef<KeyedRow> {
        let prefix = match self.partitioning {
            Partitioning::Hash { keys, .. } => keys.len(),
            _ => return self.read(records.coalesce(1), ctx),
        };
        let partitions = self.partitions();
        let partitioner = PrefixPartitioner { prefix, partitions };
        self.read(records.partition_by(Arc::new(partitioner)), ctx)
    }

    /// Range-partition sort rows on boundaries sampled from them (the
    /// sketch job runs now).
    pub(crate) fn range_rows(
        &self,
        records: &RddRef<KeyedRow>,
        ctx: &ExecContext,
    ) -> Result<RddRef<KeyedRow>> {
        let shuffled = records.try_range_partition(true, self.partitions());
        Ok(self.read(shuffled.map_err(engine_err)?, ctx))
    }

    /// The route of a window's key lanes (PARTITION BY, then ORDER BY):
    /// where [`Exchange::window_rows`] sends their rows.
    pub(crate) fn window_route(&self) -> Route {
        match self.partitioning {
            Partitioning::Hash { keys, partitions } => Route::Hash {
                prefix: keys.len(),
                partitions: *partitions,
            },
            _ => Route::Single,
        }
    }

    /// The route of sort-key lanes to this exchange's ranges, on bounds
    /// from one sketch job over `keys` (batches of key columns of types
    /// `dtypes`, ordered per `descending_mask`): each input partition's
    /// row count and a fixed-size sample of its keys, weighed into
    /// quantiles by [`RangePartitioner::bounds_from_weighted_sample`].
    /// `None` when the input is empty; a single range needs no sketch.
    pub(crate) fn range(
        &self,
        keys: &RddRef<RowBatch>,
        dtypes: &[DataType],
        descending_mask: u64,
        ctx: &ExecContext,
    ) -> Result<Option<Route>> {
        let partitions = self.partitions();
        if partitions <= 1 {
            return Ok(Some(Route::Single));
        }
        let size = RangePartitioner::<SortKey>::sample_size(partitions, keys.num_partitions());
        let sketches = cancel_checked(keys, ctx)
            .run_job(move |p, batches| {
                let mut sample = Reservoir::new(size, 0xC0FFEE ^ p as u64);
                for batch in batches {
                    batch.for_each_selected(|i| {
                        sample.offer(|| {
                            let key = batch.columns().iter().map(|c| c.get(i)).collect();
                            SortKey::new(key, descending_mask)
                        })
                    });
                }
                sample
            })
            .map_err(engine_err)?;
        if sketches.iter().all(|s| s.seen() == 0) {
            return Ok(None);
        }
        let sample = sketches.into_iter().flat_map(Reservoir::weighted).collect();
        let bounds = RangePartitioner::bounds_from_weighted_sample(sample, partitions);
        let columns = (dtypes.iter().enumerate())
            .map(|(k, dtype)| {
                let values = bounds.iter().map(|b| b.values()[k].clone()).collect();
                Arc::new(ColumnVector::from_values(dtype, values))
            })
            .collect();
        Ok(Some(Route::Range {
            bounds: columns,
            count: bounds.len(),
            descending_mask,
        }))
    }
}

/// Where a batch pipeline's lanes go: the map side of a batch sort or
/// window picks each selected lane's reducer by its key lanes.
pub(crate) enum Route {
    /// Reducer `r` takes the keys from bound `r - 1` (inclusive) to bound
    /// `r`: a binary search under the sort's key order.
    Range {
        /// The bounds, one lane each, as key columns.
        bounds: Vec<Arc<ColumnVector>>,
        count: usize,
        descending_mask: u64,
    },
    /// The reducer a [`PrefixPartitioner`] sends the key's first
    /// `prefix` columns (its PARTITION BY values) to.
    Hash { prefix: usize, partitions: usize },
    /// Everything to reducer 0.
    Single,
}

impl Route {
    /// Append each selected lane of `keys` (a batch of key columns) to
    /// its reducer's list in `members`.
    pub(crate) fn split(&self, keys: &RowBatch, members: &mut [Vec<u32>]) {
        match self {
            Route::Single => keys.for_each_selected(|i| members[0].push(i as u32)),
            Route::Range {
                bounds,
                count,
                descending_mask,
            } => {
                let (bounds, lanes) = (KeyLanes::all(bounds), KeyLanes::all(keys.columns()));
                keys.for_each_selected(|i| {
                    // How many bounds are at or below the key.
                    let (mut lo, mut hi) = (0, *count);
                    while lo < hi {
                        let mid = (lo + hi) / 2;
                        match lane_order(&bounds, mid, &lanes, i, *descending_mask) {
                            Ordering::Greater => hi = mid,
                            _ => lo = mid + 1,
                        }
                    }
                    members[lo].push(i as u32);
                });
            }
            Route::Hash { prefix, partitions } => {
                let columns = &keys.columns()[..*prefix];
                keys.for_each_selected(|i| {
                    members[hash_route(columns, i, *partitions)].push(i as u32);
                });
            }
        }
    }
}

/// The reducer a [`PrefixPartitioner`] sends a key whose PARTITION BY
/// values are lane `i` of `columns`. The `DefaultHasher` gets the writes
/// hashing those values as a `[Value]` makes — the slice's length, then
/// each value — with a string lane's written from its bytes (the tag
/// `2u8`, the bytes, `str`'s `0xff` terminator), so no `Value` is built
/// for it.
fn hash_route(columns: &[Arc<ColumnVector>], i: usize, partitions: usize) -> usize {
    let mut h = DefaultHasher::new();
    h.write_usize(columns.len());
    for c in columns {
        match c.str_lanes() {
            Some(lanes) if !c.is_null(i) => {
                h.write_u8(2);
                h.write(lanes[i].as_bytes());
                h.write_u8(0xff);
            }
            _ => c.get(i).hash(&mut h),
        }
    }
    (h.finish() % partitions.max(1) as u64) as usize
}

/// Routes a record keyed by its reduce partition to that partition.
struct IndexPartitioner(usize);

impl Partitioner<usize> for IndexPartitioner {
    fn num_partitions(&self) -> usize {
        self.0
    }

    fn partition(&self, reducer: &usize) -> usize {
        *reducer
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

type JoinShuffle = Arc<ShuffleDependency<Option<Row>, Row, Row>>;

/// One of a [`HashPair`]'s exchanges: its keyed rows, and their shuffle
/// once its map stage ran.
struct PairSide<'a> {
    exchange: Exchange<'a>,
    records: RddRef<Keyed>,
    shuffle: Option<JoinShuffle>,
}

impl PairSide<'_> {
    /// Run this side's map stage (once), measuring its output.
    fn materialize(&mut self, ctx: &ExecContext) -> Result<&JoinShuffle> {
        if self.shuffle.is_none() {
            let size_fn: SizeFn<Option<Row>, Row> = Arc::new(pair_bytes);
            let partitioner = Arc::new(HashPartitioner::new(self.exchange.partitions()));
            let records = self.records.as_inner();
            let dep = ShuffleDependency::new(records, partitioner, None, false, Some(size_fn));
            materialize_shuffle(&ctx.sc, dep.clone()).map_err(engine_err)?;
            self.exchange.minted(&*dep, ctx);
            self.shuffle = Some(dep);
        }
        Ok(self.shuffle.as_ref().expect("materialized above"))
    }
}

/// A shuffled join's two co-partitioned `Hash` exchanges, executed stage
/// by stage: each side's map output is materialized and measured before
/// the join decides how to read it.
pub(crate) struct HashPair<'a>([PairSide<'a>; 2]);

impl<'a> HashPair<'a> {
    /// The left and right exchanges, each over its keyed rows.
    pub(crate) fn new(sides: [(Exchange<'a>, RddRef<Keyed>); 2]) -> HashPair<'a> {
        HashPair(sides.map(|(exchange, records)| PairSide {
            exchange,
            records,
            shuffle: None,
        }))
    }

    fn side(&mut self, side: BuildSide) -> &mut PairSide<'a> {
        &mut self.0[usize::from(side == BuildSide::Right)]
    }

    /// Measured bytes of `side`'s map output, materializing it first.
    pub(crate) fn measure(&mut self, side: BuildSide, ctx: &ExecContext) -> Result<u64> {
        Ok(self.side(side).materialize(ctx)?.total_bytes())
    }

    /// Every row of `side`, read back from its shuffle in reducer order.
    pub(crate) fn collect(&mut self, side: BuildSide, ctx: &ExecContext) -> Result<Vec<Row>> {
        let read = self.side(side).materialize(ctx)?.read_all();
        let pairs = cancel_checked(&read, ctx).try_collect();
        Ok(pairs
            .map_err(engine_err)?
            .into_iter()
            .map(|(_, row)| row)
            .collect())
    }

    /// Both sides as co-partitioned streams, re-planned from their
    /// measured sizes for the `join_type` join with pre-order id `join`:
    ///
    /// 1. **Partition coalescing** — small neighboring reduce partitions
    ///    merge up to `adaptive_target_partition_bytes` per task.
    /// 2. **Skew splitting** — an un-coalesced reduce partition exceeding
    ///    `adaptive_skew_factor` × the median splits into map-range
    ///    sub-partitions on the side legal to split, replicating the other
    ///    side's bucket against each.
    pub(crate) fn read(
        mut self,
        join_type: JoinType,
        join: usize,
        ctx: &ExecContext,
    ) -> Result<(RddRef<Keyed>, RddRef<Keyed>)> {
        let target = ctx.conf.adaptive_target_partition_bytes.max(1);
        let factor = ctx.conf.adaptive_skew_factor;
        let partitions = self.0[0].exchange.partitions();
        let [left, right] = &mut self.0;
        let (lmat, rmat) = (left.materialize(ctx)?, right.materialize(ctx)?);
        let lsizes = lmat.reduce_sizes();
        let rsizes = rmat.reduce_sizes();
        let totals: Vec<u64> = lsizes.iter().zip(&rsizes).map(|(a, b)| a + b).collect();
        let ranges = rules::coalesce_partitions(&totals, target);
        let lmed = rules::median(&lsizes);
        let rmed = rules::median(&rsizes);
        let whole =
            |mat: &JoinShuffle, start, end| ShuffleReadSpec::reducers(start, end, mat.num_maps());

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
                let split_left = rules::can_split_side(join_type, BuildSide::Left)
                    && rules::is_skewed(lsizes[r], lmed, factor, target);
                let split_right = !split_left
                    && rules::can_split_side(join_type, BuildSide::Right)
                    && rules::is_skewed(rsizes[r], rmed, factor, target);
                let map_ranges = if split_left {
                    rules::split_map_ranges(&lmat.map_sizes_for(r), target)
                } else if split_right {
                    rules::split_map_ranges(&rmat.map_sizes_for(r), target)
                } else {
                    vec![]
                };
                if map_ranges.len() > 1 {
                    skew_splits += map_ranges.len();
                    for mr in map_ranges {
                        let split = ShuffleReadSpec::map_range(r, mr.start, mr.end);
                        if split_left {
                            lspecs.push(split);
                            rspecs.push(whole(rmat, r, r + 1));
                        } else {
                            lspecs.push(whole(lmat, r, r + 1));
                            rspecs.push(split);
                        }
                    }
                    continue;
                }
            }
            lspecs.push(whole(lmat, range.start, range.end));
            rspecs.push(whole(rmat, range.start, range.end));
        }

        if ranges.len() != partitions {
            ctx.adaptive.record(AdaptivePlanChange {
                node_id: join,
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
                node_id: join,
                rule: AdaptiveRule::SkewSplit,
                description: format!(
                    "split skewed reduce partition(s) into {skew_splits} map-range sub-partitions \
                     (factor {factor}, median {lmed}/{rmed} B)",
                ),
                replacement: None,
            });
        }
        if let Some(pm) = &ctx.metrics {
            let node = pm.node(join);
            node.set_extra("adaptive_partitions", lspecs.len() as u64);
            node.set_extra("adaptive_skew_splits", skew_splits as u64);
        }
        let (lread, rread) = (lmat.read(lspecs), rmat.read(rspecs));
        Ok((cancel_checked(&lread, ctx), cancel_checked(&rread, ctx)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalyst::value::Value;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// `Route::Hash` reads lanes where a [`PrefixPartitioner`] reads the
    /// key's values; both must send every key to the same reducer.
    #[test]
    fn lane_routing_is_prefix_partitioner_routing() {
        let strs = [
            "",
            "seven77",
            "eight888",
            "twenty-bytes-long-xx",
            "naïve",
            "日本",
        ];
        let edges = |dtype: &DataType| -> Vec<Value> {
            let mut values = match dtype {
                DataType::String => strs.map(Value::str).to_vec(),
                DataType::Int => vec![Value::Int(0), Value::Int(-7), Value::Int(i32::MAX)],
                DataType::Long => vec![Value::Long(1), Value::Long(i64::MIN)],
                _ => vec![Value::Date(0), Value::Date(19_000)],
            };
            values.push(Value::Null);
            values
        };
        let dtypes = [
            DataType::String,
            DataType::Int,
            DataType::Long,
            DataType::Date,
        ];
        let mut rng = StdRng::seed_from_u64(44);
        for round in 0..200 {
            let width = 1 + round % 3;
            let rows = 1 + rng.random_range(0..40);
            let columns: Vec<(DataType, Vec<Value>)> = (0..width)
                .map(|_| {
                    let dtype = dtypes[rng.random_range(0..dtypes.len())].clone();
                    let pool = edges(&dtype);
                    let values = (0..rows).map(|_| pool[rng.random_range(0..pool.len())].clone());
                    (dtype, values.collect())
                })
                .collect();
            let vectors: Vec<Arc<ColumnVector>> = (columns.iter())
                .map(|(dtype, values)| Arc::new(ColumnVector::from_values(dtype, values.clone())))
                .collect();
            let partitions = 1 + rng.random_range(0..8);
            let prefix = 1 + rng.random_range(0..width);
            let route = Route::Hash { prefix, partitions };
            let mut members = vec![Vec::new(); partitions];
            route.split(&RowBatch::new(vectors, rows), &mut members);
            let partitioner = PrefixPartitioner { prefix, partitions };
            for (reducer, lanes) in members.iter().enumerate() {
                for &i in lanes {
                    let key = columns.iter().map(|(_, values)| values[i as usize].clone());
                    let key = SortKey::new(key.collect(), 0);
                    assert_eq!(partitioner.partition(&key), reducer, "{:?}", key.values());
                }
            }
            assert_eq!(members.iter().map(Vec::len).sum::<usize>(), rows);
        }
    }
}
