//! Operations on RDDs of key-value pairs: shuffles, joins, sorting.
//!
//! Every shuffle here is a [`ShuffleDependency`] read one partition per
//! reducer; `cogroup` (and `join` on it) zips two such reads.

use crate::partitioner::{HashPartitioner, Partitioner, RangePartitioner, Reservoir};
use crate::rdd::{Data, RddRef};
use crate::shuffle::{Aggregator, ShuffleDependency};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

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
        ShuffleDependency::new(
            self.as_inner(),
            partitioner,
            Some(aggregator),
            map_side_combine,
            None,
        )
        .read_all()
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
        ShuffleDependency::<K, V, V>::new(self.as_inner(), partitioner, None, false, None)
            .read_all()
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
        let partitioner: Arc<dyn Partitioner<K>> = Arc::new(HashPartitioner::new(num_partitions));
        let left = self.partition_by(partitioner.clone());
        left.zip_partitions(&other.partition_by(partitioner), |left, right| {
            let mut groups: HashMap<K, (Vec<V>, Vec<W>)> = HashMap::new();
            for (k, v) in left {
                groups.entry(k).or_default().0.push(v);
            }
            for (k, w) in right {
                groups.entry(k).or_default().1.push(w);
            }
            Box::new(groups.into_iter())
        })
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
