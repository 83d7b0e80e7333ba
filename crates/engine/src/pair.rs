//! Operations on RDDs of key-value pairs: shuffles, joins, sorting.

use crate::partitioner::{HashPartitioner, Partitioner, RangePartitioner, Reservoir};
use crate::rdd::{BoxIter, Data, Dependency, Rdd, RddBase, RddId, RddRef, TaskContext};
use crate::shuffle::{Aggregator, ShuffleDependency, ShuffleDependencyBase};
use crate::SparkContext;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Reduce-side RDD of a shuffle: partition `i` merges bucket `i` of every
/// map task's output.
pub struct ShuffledRdd<K: Data, V: Data, C: Data> {
    id: RddId,
    dep: Arc<ShuffleDependency<K, V, C>>,
    ctx: SparkContext,
    num_reduce: usize,
    num_maps: usize,
}

impl<K, V, C> ShuffledRdd<K, V, C>
where
    K: Data + Hash + Eq,
    V: Data,
    C: Data,
{
    /// Build a shuffled RDD from a pair RDD, a partitioner and an optional
    /// aggregator.
    pub fn new(
        parent: Arc<dyn Rdd<Item = (K, V)>>,
        partitioner: Arc<dyn Partitioner<K>>,
        aggregator: Option<Aggregator<K, V, C>>,
        map_side_combine: bool,
    ) -> Self {
        let ctx = parent.context();
        let num_maps = parent.num_partitions();
        let num_reduce = partitioner.num_partitions();
        let dep = Arc::new(ShuffleDependency::new(
            parent,
            partitioner,
            aggregator,
            map_side_combine,
        ));
        ShuffledRdd {
            id: ctx.new_rdd_id(),
            dep,
            ctx,
            num_reduce,
            num_maps,
        }
    }
}

impl<K, V, C> RddBase for ShuffledRdd<K, V, C>
where
    K: Data + Hash + Eq,
    V: Data,
    C: Data,
{
    fn id(&self) -> RddId {
        self.id
    }
    fn num_partitions(&self) -> usize {
        self.num_reduce
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
        "shuffle"
    }
}

impl<K, V, C> Rdd for ShuffledRdd<K, V, C>
where
    K: Data + Hash + Eq,
    V: Data,
    C: Data,
{
    type Item = (K, C);
    fn compute(&self, split: usize, _tc: &TaskContext) -> BoxIter<(K, C)> {
        let records = self.dep.read(0..self.num_maps, split..split + 1);
        Box::new(crate::task::ok(records).into_iter().flatten())
    }
}

/// Reduce-side RDD co-grouping two shuffles with the same partitioner —
/// the substrate for engine-level joins.
pub struct CoGroupedRdd<K: Data, V: Data, W: Data> {
    id: RddId,
    left: Arc<ShuffleDependency<K, V, V>>,
    right: Arc<ShuffleDependency<K, W, W>>,
    ctx: SparkContext,
    num_reduce: usize,
    left_maps: usize,
    right_maps: usize,
}

impl<K, V, W> CoGroupedRdd<K, V, W>
where
    K: Data + Hash + Eq,
    V: Data,
    W: Data,
{
    /// Shuffle both sides with `partitions` hash buckets.
    pub fn new(
        left: Arc<dyn Rdd<Item = (K, V)>>,
        right: Arc<dyn Rdd<Item = (K, W)>>,
        partitions: usize,
    ) -> Self {
        let ctx = left.context();
        let left_maps = left.num_partitions();
        let right_maps = right.num_partitions();
        let lp: Arc<dyn Partitioner<K>> = Arc::new(HashPartitioner::new(partitions));
        let rp: Arc<dyn Partitioner<K>> = Arc::new(HashPartitioner::new(partitions));
        CoGroupedRdd {
            id: ctx.new_rdd_id(),
            left: Arc::new(ShuffleDependency::new(left, lp, None, false)),
            right: Arc::new(ShuffleDependency::new(right, rp, None, false)),
            ctx,
            num_reduce: partitions.max(1),
            left_maps,
            right_maps,
        }
    }
}

impl<K, V, W> RddBase for CoGroupedRdd<K, V, W>
where
    K: Data + Hash + Eq,
    V: Data,
    W: Data,
{
    fn id(&self) -> RddId {
        self.id
    }
    fn num_partitions(&self) -> usize {
        self.num_reduce
    }
    fn dependencies(&self) -> Vec<Dependency> {
        vec![
            Dependency::Shuffle(self.left.clone() as Arc<dyn ShuffleDependencyBase>),
            Dependency::Shuffle(self.right.clone() as Arc<dyn ShuffleDependencyBase>),
        ]
    }
    fn context(&self) -> SparkContext {
        self.ctx.clone()
    }
    fn name(&self) -> &'static str {
        "cogroup"
    }
}

impl<K, V, W> Rdd for CoGroupedRdd<K, V, W>
where
    K: Data + Hash + Eq,
    V: Data,
    W: Data,
{
    type Item = (K, (Vec<V>, Vec<W>));

    fn compute(&self, split: usize, _tc: &TaskContext) -> BoxIter<(K, (Vec<V>, Vec<W>))> {
        let reduce = split..split + 1;
        let sides = (self.left.read(0..self.left_maps, reduce.clone()))
            .and_then(|left| Ok((left, self.right.read(0..self.right_maps, reduce)?)));
        let Some((left, right)) = crate::task::ok(sides) else {
            return Box::new(std::iter::empty());
        };
        let mut groups: HashMap<K, (Vec<V>, Vec<W>)> = HashMap::new();
        for (k, v) in left {
            groups.entry(k).or_default().0.push(v);
        }
        for (k, w) in right {
            groups.entry(k).or_default().1.push(w);
        }
        Box::new(groups.into_iter())
    }
}

/// Key-value operations available on `RddRef<(K, V)>`.
pub trait PairRdd<K: Data + Hash + Eq, V: Data> {
    /// General combine-by-key with an explicit partitioner (the primitive
    /// the rest are built on).
    fn combine_by_key<C: Data>(
        &self,
        aggregator: Aggregator<K, V, C>,
        partitioner: Arc<dyn Partitioner<K>>,
        map_side_combine: bool,
    ) -> RddRef<(K, C)>;

    /// Merge values per key with an associative function.
    fn reduce_by_key(
        &self,
        f: impl Fn(V, V) -> V + Send + Sync + 'static,
        num_partitions: usize,
    ) -> RddRef<(K, V)>;

    /// Collect all values per key.
    fn group_by_key(&self, num_partitions: usize) -> RddRef<(K, Vec<V>)>;

    /// Fold values per key starting from `zero`.
    fn aggregate_by_key<C: Data>(
        &self,
        zero: C,
        seq: impl Fn(C, V) -> C + Send + Sync + 'static,
        comb: impl Fn(C, C) -> C + Send + Sync + 'static,
        num_partitions: usize,
    ) -> RddRef<(K, C)>;

    /// Repartition by key without combining values.
    fn partition_by(&self, partitioner: Arc<dyn Partitioner<K>>) -> RddRef<(K, V)>;

    /// Inner join on key.
    fn join<W: Data>(&self, other: &RddRef<(K, W)>, num_partitions: usize) -> RddRef<(K, (V, W))>;

    /// Full co-group on key.
    fn cogroup<W: Data>(
        &self,
        other: &RddRef<(K, W)>,
        num_partitions: usize,
    ) -> RddRef<(K, (Vec<V>, Vec<W>))>;

    /// Count records per key on the driver.
    fn count_by_key(&self) -> HashMap<K, u64>;

    /// Just the keys.
    fn keys(&self) -> RddRef<K>;

    /// Just the values.
    fn values(&self) -> RddRef<V>;

    /// Map the value, keeping the key.
    fn map_values<U: Data>(&self, f: impl Fn(V) -> U + Send + Sync + 'static) -> RddRef<(K, U)>;
}

impl<K: Data + Hash + Eq, V: Data> PairRdd<K, V> for RddRef<(K, V)> {
    fn combine_by_key<C: Data>(
        &self,
        aggregator: Aggregator<K, V, C>,
        partitioner: Arc<dyn Partitioner<K>>,
        map_side_combine: bool,
    ) -> RddRef<(K, C)> {
        RddRef::new(Arc::new(ShuffledRdd::new(
            self.as_inner(),
            partitioner,
            Some(aggregator),
            map_side_combine,
        )))
    }

    fn reduce_by_key(
        &self,
        f: impl Fn(V, V) -> V + Send + Sync + 'static,
        num_partitions: usize,
    ) -> RddRef<(K, V)> {
        let f = Arc::new(f);
        let f2 = f.clone();
        let agg = Aggregator::new(|v| v, move |c, v| f(c, v), move |a, b| f2(a, b));
        self.combine_by_key(agg, Arc::new(HashPartitioner::new(num_partitions)), true)
    }

    fn group_by_key(&self, num_partitions: usize) -> RddRef<(K, Vec<V>)> {
        let agg = Aggregator::new(
            |v| vec![v],
            |mut c: Vec<V>, v| {
                c.push(v);
                c
            },
            |mut a: Vec<V>, mut b| {
                a.append(&mut b);
                a
            },
        );
        self.combine_by_key(agg, Arc::new(HashPartitioner::new(num_partitions)), true)
    }

    fn aggregate_by_key<C: Data>(
        &self,
        zero: C,
        seq: impl Fn(C, V) -> C + Send + Sync + 'static,
        comb: impl Fn(C, C) -> C + Send + Sync + 'static,
        num_partitions: usize,
    ) -> RddRef<(K, C)> {
        let seq = Arc::new(seq);
        let seq2 = seq.clone();
        let agg = Aggregator::new(move |v| seq(zero.clone(), v), move |c, v| seq2(c, v), comb);
        self.combine_by_key(agg, Arc::new(HashPartitioner::new(num_partitions)), true)
    }

    fn partition_by(&self, partitioner: Arc<dyn Partitioner<K>>) -> RddRef<(K, V)> {
        RddRef::new(Arc::new(ShuffledRdd::<K, V, V>::new(
            self.as_inner(),
            partitioner,
            None,
            false,
        )))
    }

    fn join<W: Data>(&self, other: &RddRef<(K, W)>, num_partitions: usize) -> RddRef<(K, (V, W))> {
        self.cogroup(other, num_partitions)
            .flat_map(|(k, (vs, ws))| {
                let mut out = Vec::with_capacity(vs.len() * ws.len());
                for v in &vs {
                    for w in &ws {
                        out.push((k.clone(), (v.clone(), w.clone())));
                    }
                }
                out
            })
    }

    fn cogroup<W: Data>(
        &self,
        other: &RddRef<(K, W)>,
        num_partitions: usize,
    ) -> RddRef<(K, (Vec<V>, Vec<W>))> {
        RddRef::new(Arc::new(CoGroupedRdd::new(
            self.as_inner(),
            other.as_inner(),
            num_partitions,
        )))
    }

    fn count_by_key(&self) -> HashMap<K, u64> {
        self.map(|(k, _)| (k, 1u64))
            .reduce_by_key(|a, b| a + b, 1)
            .collect()
            .into_iter()
            .collect()
    }

    fn keys(&self) -> RddRef<K> {
        self.map(|(k, _)| k)
    }

    fn values(&self) -> RddRef<V> {
        self.map(|(_, v)| v)
    }

    fn map_values<U: Data>(&self, f: impl Fn(V) -> U + Send + Sync + 'static) -> RddRef<(K, U)> {
        self.map(move |(k, v)| (k, f(v)))
    }
}

/// Sorting for pair RDDs with ordered keys.
pub trait SortedPairRdd<K: Data + Hash + Eq + Ord, V: Data> {
    /// Globally sort by key via sampled range partitioning followed by a
    /// per-partition sort (Spark's `sortByKey`). Panics if the sketch
    /// job fails; fallible callers (e.g. services running queries on
    /// worker threads) should use [`SortedPairRdd::try_sort_by_key`].
    fn sort_by_key(&self, ascending: bool, num_partitions: usize) -> RddRef<(K, V)> {
        self.try_sort_by_key(ascending, num_partitions)
            .expect("job failed")
    }

    /// Like [`SortedPairRdd::sort_by_key`], but surfaces failures (task
    /// errors, cancellation) from the driver-side sketch job instead
    /// of panicking.
    fn try_sort_by_key(
        &self,
        ascending: bool,
        num_partitions: usize,
    ) -> crate::Result<RddRef<(K, V)>>;

    /// The shuffle half of a global sort: one sketch job counts each
    /// input partition and keeps a fixed-size sample of its keys, bounds
    /// are the sample's weighted quantiles, and the range shuffle puts
    /// in partition `i` only keys ordered before partition `i + 1`'s.
    /// Partitions come back unsorted — callers that sort them under a
    /// memory budget (the SQL layer's external sort) start from here. An
    /// empty input comes back as it is.
    fn try_range_partition(
        &self,
        ascending: bool,
        num_partitions: usize,
    ) -> crate::Result<RddRef<(K, V)>>;
}

impl<K: Data + Hash + Eq + Ord, V: Data> SortedPairRdd<K, V> for RddRef<(K, V)> {
    fn try_range_partition(
        &self,
        ascending: bool,
        num_partitions: usize,
    ) -> crate::Result<RddRef<(K, V)>> {
        let size = RangePartitioner::<K>::sample_size(num_partitions, self.num_partitions());
        let sketches = self.run_job(move |p, it| {
            let mut sample = Reservoir::new(size, 0xC0FFEE ^ p as u64);
            for (k, _) in it {
                sample.offer(|| k);
            }
            sample
        })?;
        if sketches.iter().all(|s| s.seen() == 0) {
            return Ok(self.clone());
        }
        let sample = sketches.into_iter().flat_map(Reservoir::weighted).collect();
        let bounds = RangePartitioner::bounds_from_weighted_sample(sample, num_partitions);
        let partitioner: Arc<dyn Partitioner<K>> =
            Arc::new(RangePartitioner::new(bounds, ascending));
        Ok(self.partition_by(partitioner))
    }

    fn try_sort_by_key(
        &self,
        ascending: bool,
        num_partitions: usize,
    ) -> crate::Result<RddRef<(K, V)>> {
        let partitioned = self.try_range_partition(ascending, num_partitions)?;
        Ok(partitioned.map_partitions(move |it| {
            let mut rows: Vec<(K, V)> = it.collect();
            if ascending {
                rows.sort_by(|a, b| a.0.cmp(&b.0));
            } else {
                rows.sort_by(|a, b| b.0.cmp(&a.0));
            }
            Box::new(rows.into_iter())
        }))
    }
}
