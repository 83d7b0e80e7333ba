//! Materialized shuffle exchanges: the engine half of adaptive query
//! execution.
//!
//! A [`MaterializedShuffle`] eagerly runs a shuffle's map stage (plus any
//! shuffles upstream of it) via [`crate::scheduler::materialize_shuffle`],
//! then exposes the *measured* per-bucket byte sizes its
//! [`crate::shuffle::ShuffleDependency`] recorded when the map output was
//! written into it. A consumer can inspect those sizes and read the
//! output back through arbitrary [`ShuffleReadSpec`] windows:
//! several reduce buckets merged into one output partition (partition
//! coalescing), or a single oversized reduce bucket split by map-task
//! ranges into several output partitions (skew splitting). The classic
//! one-partition-per-reducer shape is [`MaterializedShuffle::read_all`].
//!
//! The handle and every reader RDD it builds hold the dependency, and the
//! dependency holds the map output: the output is freed when the last of
//! them is dropped, and no store outlives them. Reads keep a
//! [`Dependency::Shuffle`] edge on the dependency, so lineage-based
//! recovery still works: if map output is lost (an executor loss, a
//! fetch failure), the next job re-runs the missing map tasks.

use crate::error::Result;
use crate::partitioner::Partitioner;
use crate::rdd::{BoxIter, Data, Dependency, Rdd, RddBase, RddId, RddRef, TaskContext};
use crate::scheduler;
use crate::shuffle::{Aggregator, ShuffleDependency, ShuffleDependencyBase, SizeFn};
use crate::SparkContext;
use std::hash::Hash;
use std::sync::Arc;

/// One output partition of a range shuffle read: the reduce buckets
/// `[reduce_start, reduce_end)` of map outputs `[map_start, map_end)`.
///
/// Correctness caveats are the caller's to uphold:
/// - coalescing (reduce_end - reduce_start > 1) is always safe as long as
///   the reduce ranges are disjoint;
/// - map-range splitting (map ranges narrower than all maps) must only be
///   used on *raw* (non-aggregated) shuffles — a map-side-combined key can
///   appear in several map outputs, and splitting would emit it once per
///   range instead of merging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShuffleReadSpec {
    /// First reduce bucket (inclusive).
    pub reduce_start: usize,
    /// Last reduce bucket (exclusive).
    pub reduce_end: usize,
    /// First map output (inclusive).
    pub map_start: usize,
    /// Last map output (exclusive).
    pub map_end: usize,
}

impl ShuffleReadSpec {
    /// A spec covering reduce buckets `[reduce_start, reduce_end)` across
    /// all `num_maps` map outputs.
    pub fn reducers(reduce_start: usize, reduce_end: usize, num_maps: usize) -> Self {
        ShuffleReadSpec {
            reduce_start,
            reduce_end,
            map_start: 0,
            map_end: num_maps,
        }
    }

    /// A spec for one reduce bucket restricted to map outputs
    /// `[map_start, map_end)` — a skew sub-partition.
    pub fn map_range(reduce: usize, map_start: usize, map_end: usize) -> Self {
        ShuffleReadSpec {
            reduce_start: reduce,
            reduce_end: reduce + 1,
            map_start,
            map_end,
        }
    }
}

/// A shuffle whose map stage has already run, with measured output sizes.
pub struct MaterializedShuffle<K: Data, V: Data, C: Data> {
    dep: Arc<ShuffleDependency<K, V, C>>,
    ctx: SparkContext,
    num_maps: usize,
    num_reduce: usize,
}

impl<K, V, C> MaterializedShuffle<K, V, C>
where
    K: Data + Hash + Eq,
    V: Data,
    C: Data,
{
    /// Shuffle `parent` through `partitioner` and block until the map
    /// stage (and everything upstream of it) has completed.
    pub fn create(
        parent: &RddRef<(K, V)>,
        partitioner: Arc<dyn Partitioner<K>>,
        aggregator: Option<Aggregator<K, V, C>>,
        map_side_combine: bool,
        size_fn: Option<SizeFn<K, C>>,
    ) -> Result<Self> {
        let inner = parent.as_inner();
        let ctx = inner.context();
        let num_maps = inner.num_partitions();
        let num_reduce = partitioner.num_partitions();
        let dep = Arc::new(ShuffleDependency::new_sized(
            inner,
            partitioner,
            aggregator,
            map_side_combine,
            size_fn,
        ));
        scheduler::materialize_shuffle(&ctx, dep.clone() as Arc<dyn ShuffleDependencyBase>)?;
        Ok(MaterializedShuffle {
            dep,
            ctx,
            num_maps,
            num_reduce,
        })
    }

    /// The shuffle id assigned by the context.
    pub fn shuffle_id(&self) -> usize {
        self.dep.shuffle_id()
    }

    /// Number of completed map outputs.
    pub fn num_maps(&self) -> usize {
        self.num_maps
    }

    /// Measured bytes per bucket, indexed `[map][reduce]`.
    pub fn map_output_sizes(&self) -> Vec<Vec<u64>> {
        self.dep.map_output_sizes()
    }

    /// Measured bytes per reduce partition (summed over map outputs).
    pub fn reduce_sizes(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.num_reduce];
        for per_map in self.map_output_sizes() {
            for (r, b) in per_map.iter().enumerate() {
                out[r] += b;
            }
        }
        out
    }

    /// Measured bytes each map task contributed to reduce bucket `r`.
    pub fn map_sizes_for(&self, r: usize) -> Vec<u64> {
        self.map_output_sizes()
            .iter()
            .map(|m| m.get(r).copied().unwrap_or(0))
            .collect()
    }

    /// Total measured bytes of the map output.
    pub fn total_bytes(&self) -> u64 {
        self.reduce_sizes().iter().sum()
    }

    /// Read the materialized output through `specs`, one output partition
    /// per spec.
    pub fn read(&self, specs: Vec<ShuffleReadSpec>) -> RddRef<(K, C)> {
        RddRef::new(Arc::new(ShuffleRangeReaderRdd {
            id: self.ctx.new_rdd_id(),
            dep: self.dep.clone(),
            ctx: self.ctx.clone(),
            specs: Arc::new(specs),
        }))
    }

    /// Read everything back in the classic one-partition-per-reducer shape.
    pub fn read_all(&self) -> RddRef<(K, C)> {
        let specs = (0..self.num_reduce)
            .map(|r| ShuffleReadSpec::reducers(r, r + 1, self.num_maps))
            .collect();
        self.read(specs)
    }
}

/// Reduce-side RDD over arbitrary bucket/map windows of a materialized
/// shuffle; partition `i` reads `specs[i]`.
struct ShuffleRangeReaderRdd<K: Data, V: Data, C: Data> {
    id: RddId,
    dep: Arc<ShuffleDependency<K, V, C>>,
    ctx: SparkContext,
    specs: Arc<Vec<ShuffleReadSpec>>,
}

impl<K, V, C> RddBase for ShuffleRangeReaderRdd<K, V, C>
where
    K: Data + Hash + Eq,
    V: Data,
    C: Data,
{
    fn id(&self) -> RddId {
        self.id
    }
    fn num_partitions(&self) -> usize {
        self.specs.len()
    }
    fn dependencies(&self) -> Vec<Dependency> {
        vec![Dependency::Shuffle(
            self.dep.clone() as Arc<dyn ShuffleDependencyBase>
        )]
    }
    fn context(&self) -> SparkContext {
        self.ctx.clone()
    }
    fn name(&self) -> &'static str {
        "shuffle_range_read"
    }
}

impl<K, V, C> Rdd for ShuffleRangeReaderRdd<K, V, C>
where
    K: Data + Hash + Eq,
    V: Data,
    C: Data,
{
    type Item = (K, C);

    fn compute(&self, split: usize, _tc: &TaskContext) -> BoxIter<(K, C)> {
        let spec = &self.specs[split];
        let records = (self.dep).read(
            spec.map_start..spec.map_end,
            spec.reduce_start..spec.reduce_end,
        );
        Box::new(crate::task::ok(records).into_iter().flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::HashPartitioner;
    use crate::SparkContext;

    fn materialize_mod4(sc: &SparkContext) -> MaterializedShuffle<i64, i64, i64> {
        let pairs: Vec<(i64, i64)> = (0..100).map(|i| (i % 10, i)).collect();
        let rdd = sc.parallelize(pairs, 4);
        MaterializedShuffle::create(
            &rdd,
            Arc::new(HashPartitioner::new(4)),
            None,
            false,
            Some(Arc::new(|_k: &i64, _v: &i64| 16)),
        )
        .expect("materialize")
    }

    #[test]
    fn sizes_are_measured_and_reads_cover_everything() {
        let sc = SparkContext::new(2);
        let mat = materialize_mod4(&sc);
        assert_eq!(mat.num_maps(), 4);
        assert_eq!(mat.total_bytes(), 100 * 16);
        assert_eq!(mat.reduce_sizes().len(), 4);

        // Full read equals the plain shuffled result.
        let mut all: Vec<(i64, i64)> = mat.read_all().collect();
        all.sort_unstable();
        let mut expect: Vec<(i64, i64)> = (0..100).map(|i| (i % 10, i)).collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }

    #[test]
    fn coalesced_and_split_reads_preserve_the_multiset() {
        let sc = SparkContext::new(2);
        let mat = materialize_mod4(&sc);

        // Coalesce all four reducers into one partition.
        let coalesced = mat.read(vec![ShuffleReadSpec::reducers(0, 4, mat.num_maps())]);
        assert_eq!(coalesced.num_partitions(), 1);
        let mut got: Vec<(i64, i64)> = coalesced.collect();
        got.sort_unstable();

        // Split reducer 0 by map ranges, keep the rest whole.
        let split = mat.read(vec![
            ShuffleReadSpec::map_range(0, 0, 2),
            ShuffleReadSpec::map_range(0, 2, 4),
            ShuffleReadSpec::reducers(1, 4, mat.num_maps()),
        ]);
        assert_eq!(split.num_partitions(), 3);
        let mut got2: Vec<(i64, i64)> = split.collect();
        got2.sort_unstable();
        assert_eq!(got, got2);

        let mut expect: Vec<(i64, i64)> = (0..100).map(|i| (i % 10, i)).collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn aggregated_reads_merge_across_maps() {
        let sc = SparkContext::new(2);
        let pairs: Vec<(i64, i64)> = (0..100).map(|i| (i % 5, 1)).collect();
        let rdd = sc.parallelize(pairs, 4);
        let agg = Aggregator::new(|v: i64| v, |c, v| c + v, |a, b| a + b);
        let mat = MaterializedShuffle::create(
            &rdd,
            Arc::new(HashPartitioner::new(3)),
            Some(agg),
            true,
            None,
        )
        .expect("materialize");
        let mut got: Vec<(i64, i64)> = mat
            .read(vec![ShuffleReadSpec::reducers(0, 3, mat.num_maps())])
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 20), (1, 20), (2, 20), (3, 20), (4, 20)]);
    }
}
