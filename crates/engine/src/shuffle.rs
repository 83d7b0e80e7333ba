//! In-memory shuffle service and the shuffle dependency.
//!
//! A shuffle dependency splits the lineage graph into stages: the map
//! stage runs [`ShuffleDependencyBase::run_map_task`] for every parent
//! partition, writing per-reducer buckets into the [`ShuffleManager`];
//! reduce-side RDDs ([`crate::pair::ShuffledRdd`]) then read and merge
//! those buckets. Buckets are stored type-erased (`Arc<dyn Any>`) since
//! all "executors" share one address space — the in-process analogue of
//! Spark's shuffle files.
//!
//! Reads go through [`fetch_bucket`]. A missing bucket (dropped by
//! [`ShuffleManager::remove_output`], an executor loss, or an injected
//! chaos fault) is an [`EngineError::FetchFailed`] the reading task
//! records in its error slot ([`crate::task`]). The scheduler answers it
//! by unregistering the lost map output and resubmitting the parent map
//! stage from lineage — the RDD recovery protocol, bounded by
//! `max_stage_retries` resubmissions per shuffle. A map task that
//! recorded an error publishes no buckets.

use crate::context::SparkContext;
use crate::error::{EngineError, Result};
use crate::partitioner::Partitioner;
use crate::rdd::{Data, Rdd, RddBase, TaskContext};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;

/// Upcast a typed RDD handle to its scheduler-facing base object.
pub fn as_base<T: Data>(rdd: Arc<dyn Rdd<Item = T>>) -> Arc<dyn RddBase> {
    rdd
}

/// Type-erased map-task output: one `Vec<(K, C)>` per reduce partition.
pub type Bucket = Arc<dyn Any + Send + Sync>;

/// Fetch one map task's bucket: [`EngineError::FetchFailed`] if it is
/// missing or the context's chaos plan faults the read. Every shuffle
/// read path in the engine funnels through here so that lost output is
/// always recoverable.
pub fn fetch_bucket(ctx: &SparkContext, shuffle_id: usize, map_id: usize) -> Result<Bucket> {
    let faulted = ctx
        .chaos()
        .is_some_and(|chaos| chaos.fetch_fault(shuffle_id, map_id));
    match ctx.shuffle_manager().get(shuffle_id, map_id) {
        Some(b) if !faulted => Ok(b),
        _ => Err(EngineError::FetchFailed { shuffle_id, map_id }),
    }
}

/// Stores map-task output buckets, keyed by `(shuffle, map partition)`.
#[derive(Default)]
pub struct ShuffleManager {
    state: Mutex<ShuffleState>,
}

#[derive(Default)]
struct ShuffleState {
    /// (shuffle_id, map_id) -> per-reducer buckets.
    outputs: HashMap<(usize, usize), Bucket>,
    /// (shuffle_id, map_id) -> serialized bytes per reducer bucket,
    /// recorded at write time so consumers (adaptive planning, EXPLAIN
    /// ANALYZE) see measured sizes rather than row counts times a guess.
    sizes: HashMap<(usize, usize), Vec<u64>>,
    /// shuffle_id -> completed map partitions.
    completed: HashMap<usize, HashSet<usize>>,
    /// (shuffle_id, map_id) -> executor that produced the bucket
    /// (`usize::MAX` for the driver), so losing an executor can drop
    /// exactly the outputs it held.
    owners: HashMap<(usize, usize), usize>,
    /// Shuffles that were complete at least once — distinguishes
    /// first-time map stages from recovery recomputation in metrics.
    ever_completed: HashSet<usize>,
}

impl ShuffleManager {
    /// Record the output of one map task together with the byte size of
    /// each per-reducer bucket (`bucket_bytes[r]` = bytes destined for
    /// reduce partition `r`). Returns true when this `(shuffle, map)`
    /// output was newly registered, false when it overwrote an existing
    /// one (a speculative or retried task) — callers use this to avoid
    /// double-counting shuffle-write metrics.
    pub fn put(
        &self,
        shuffle_id: usize,
        map_id: usize,
        bucket: Bucket,
        bucket_bytes: Vec<u64>,
    ) -> bool {
        let owner = crate::pool::current_executor().unwrap_or(usize::MAX);
        let mut st = self.state.lock();
        let fresh = st.outputs.insert((shuffle_id, map_id), bucket).is_none();
        st.sizes.insert((shuffle_id, map_id), bucket_bytes);
        st.owners.insert((shuffle_id, map_id), owner);
        st.completed.entry(shuffle_id).or_default().insert(map_id);
        fresh
    }

    /// Unregister one map task's output (a fetch failure was observed);
    /// the scheduler then resubmits just the missing map partitions.
    pub fn remove_output(&self, shuffle_id: usize, map_id: usize) {
        let mut st = self.state.lock();
        st.outputs.remove(&(shuffle_id, map_id));
        st.sizes.remove(&(shuffle_id, map_id));
        st.owners.remove(&(shuffle_id, map_id));
        if let Some(done) = st.completed.get_mut(&shuffle_id) {
            done.remove(&map_id);
        }
    }

    /// Drop every shuffle bucket the given executor produced — the
    /// shuffle half of losing an executor. Returns the ids of shuffles
    /// that lost output.
    pub fn drop_executor(&self, executor: usize) -> Vec<usize> {
        let mut st = self.state.lock();
        let lost: Vec<(usize, usize)> = st
            .owners
            .iter()
            .filter(|(_, owner)| **owner == executor)
            .map(|(key, _)| *key)
            .collect();
        for key in &lost {
            st.outputs.remove(key);
            st.sizes.remove(key);
            st.owners.remove(key);
            if let Some(done) = st.completed.get_mut(&key.0) {
                done.remove(&key.1);
            }
        }
        let mut shuffles: Vec<usize> = lost.into_iter().map(|(sid, _)| sid).collect();
        shuffles.sort_unstable();
        shuffles.dedup();
        shuffles
    }

    /// Map partitions of `shuffle_id` with no registered output, out of
    /// `num_maps` total.
    pub fn missing_maps(&self, shuffle_id: usize, num_maps: usize) -> Vec<usize> {
        let st = self.state.lock();
        let done = st.completed.get(&shuffle_id);
        (0..num_maps)
            .filter(|m| !done.is_some_and(|s| s.contains(m)))
            .collect()
    }

    /// True when `shuffle_id` was observed complete at some point, even
    /// if output has since been lost.
    pub fn ever_complete(&self, shuffle_id: usize) -> bool {
        self.state.lock().ever_completed.contains(&shuffle_id)
    }

    /// Measured byte sizes of one shuffle's map output, indexed
    /// `[map][reduce]` with maps in ascending map-id order. Empty until
    /// at least one map task of the shuffle has reported.
    pub fn map_output_sizes(&self, shuffle_id: usize) -> Vec<Vec<u64>> {
        let st = self.state.lock();
        let mut map_ids: Vec<usize> = st
            .completed
            .get(&shuffle_id)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        map_ids.sort_unstable();
        map_ids
            .iter()
            .filter_map(|m| st.sizes.get(&(shuffle_id, *m)).cloned())
            .collect()
    }

    /// Fetch the output of one map task, if present.
    pub fn get(&self, shuffle_id: usize, map_id: usize) -> Option<Bucket> {
        self.state
            .lock()
            .outputs
            .get(&(shuffle_id, map_id))
            .cloned()
    }

    /// True when every one of `num_maps` map partitions has reported.
    /// Also remembers completion (see [`ShuffleManager::ever_complete`]).
    pub fn is_complete(&self, shuffle_id: usize, num_maps: usize) -> bool {
        let mut st = self.state.lock();
        let complete = st
            .completed
            .get(&shuffle_id)
            .is_some_and(|s| s.len() >= num_maps);
        if complete {
            st.ever_completed.insert(shuffle_id);
        }
        complete
    }

    /// Drop all output of one shuffle. The next job that needs it finds
    /// the shuffle incomplete and reruns its map stage from lineage
    /// (`scheduler::ensure_shuffles`); a concurrent reader instead records
    /// [`EngineError::FetchFailed`] and the scheduler resubmits the map
    /// stage.
    pub fn invalidate(&self, shuffle_id: usize) {
        let mut st = self.state.lock();
        st.outputs.retain(|(sid, _), _| *sid != shuffle_id);
        st.sizes.retain(|(sid, _), _| *sid != shuffle_id);
        st.owners.retain(|(sid, _), _| *sid != shuffle_id);
        st.completed.remove(&shuffle_id);
    }

    /// Drop every shuffle output in the context.
    pub fn invalidate_all(&self) {
        let mut st = self.state.lock();
        st.outputs.clear();
        st.sizes.clear();
        st.owners.clear();
        st.completed.clear();
    }

    /// Ids of all shuffles with at least one stored output.
    pub fn known_shuffles(&self) -> Vec<usize> {
        let st = self.state.lock();
        let mut ids: Vec<usize> = st.completed.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

/// How map output is combined before/after the wire.
pub struct Aggregator<K, V, C> {
    /// Turn the first value for a key into a combiner.
    pub create: Arc<dyn Fn(V) -> C + Send + Sync>,
    /// Fold another value into an existing combiner.
    pub merge_value: Arc<dyn Fn(C, V) -> C + Send + Sync>,
    /// Merge combiners produced by different map tasks.
    pub merge_combiners: Arc<dyn Fn(C, C) -> C + Send + Sync>,
    _k: PhantomData<fn(&K)>,
}

impl<K, V, C> Aggregator<K, V, C> {
    /// Build an aggregator from its three closures.
    pub fn new(
        create: impl Fn(V) -> C + Send + Sync + 'static,
        merge_value: impl Fn(C, V) -> C + Send + Sync + 'static,
        merge_combiners: impl Fn(C, C) -> C + Send + Sync + 'static,
    ) -> Self {
        Aggregator {
            create: Arc::new(create),
            merge_value: Arc::new(merge_value),
            merge_combiners: Arc::new(merge_combiners),
            _k: PhantomData,
        }
    }
}

impl<K, V, C> Clone for Aggregator<K, V, C> {
    fn clone(&self) -> Self {
        Aggregator {
            create: self.create.clone(),
            merge_value: self.merge_value.clone(),
            merge_combiners: self.merge_combiners.clone(),
            _k: PhantomData,
        }
    }
}

/// Type-erased face of a shuffle dependency, what the scheduler sees.
pub trait ShuffleDependencyBase: Send + Sync {
    /// Unique shuffle id within the context.
    fn shuffle_id(&self) -> usize;
    /// The map-side RDD.
    fn parent(&self) -> Arc<dyn RddBase>;
    /// Number of reduce partitions.
    fn num_reduce_partitions(&self) -> usize;
    /// Execute the map task for `map_partition`: compute the parent
    /// partition, bucket records by reducer, optionally combine map-side,
    /// and publish to the shuffle manager — unless the task recorded an
    /// error ([`crate::task::failed`]).
    fn run_map_task(&self, map_partition: usize, tc: &TaskContext);
}

/// Measures the byte footprint of one shuffled record. The engine cannot
/// inspect `Data` values itself (the trait is a blanket impl), so callers
/// that know their record layout — e.g. SQL rows — pass one of these to
/// get real byte accounting instead of `size_of::<(K, C)>()` guesses.
pub type SizeFn<K, C> = Arc<dyn Fn(&K, &C) -> u64 + Send + Sync>;

/// Typed shuffle dependency from an RDD of `(K, V)` pairs to reduce-side
/// combiners of type `C`.
pub struct ShuffleDependency<K: Data, V: Data, C: Data> {
    shuffle_id: usize,
    parent: Arc<dyn Rdd<Item = (K, V)>>,
    partitioner: Arc<dyn Partitioner<K>>,
    aggregator: Option<Aggregator<K, V, C>>,
    map_side_combine: bool,
    size_fn: Option<SizeFn<K, C>>,
    ctx: SparkContext,
}

impl<K, V, C> ShuffleDependency<K, V, C>
where
    K: Data + Hash + Eq,
    V: Data,
    C: Data,
{
    /// Create a dependency; `aggregator: None` means raw repartitioning
    /// (requires `C == V` — enforced by the only constructor that passes
    /// `None`, `PairRdd::partition_by`).
    pub fn new(
        parent: Arc<dyn Rdd<Item = (K, V)>>,
        partitioner: Arc<dyn Partitioner<K>>,
        aggregator: Option<Aggregator<K, V, C>>,
        map_side_combine: bool,
    ) -> Self {
        Self::new_sized(parent, partitioner, aggregator, map_side_combine, None)
    }

    /// Like [`ShuffleDependency::new`], with a caller-supplied record size
    /// measure used for per-bucket byte accounting.
    pub fn new_sized(
        parent: Arc<dyn Rdd<Item = (K, V)>>,
        partitioner: Arc<dyn Partitioner<K>>,
        aggregator: Option<Aggregator<K, V, C>>,
        map_side_combine: bool,
        size_fn: Option<SizeFn<K, C>>,
    ) -> Self {
        let ctx = parent.context();
        ShuffleDependency {
            shuffle_id: ctx.new_shuffle_id(),
            parent,
            partitioner,
            aggregator,
            map_side_combine,
            size_fn,
            ctx,
        }
    }

    /// Bucket type stored in the shuffle manager: one `Vec<(K, C)>` per
    /// reduce partition.
    fn erase(buckets: Vec<Vec<(K, C)>>) -> Bucket {
        Arc::new(buckets)
    }

    /// The records of reduce buckets `reducers` in map outputs `maps`,
    /// combiners merged across maps when the shuffle aggregates. A
    /// missing map output is [`EngineError::FetchFailed`].
    pub(crate) fn read(&self, maps: Range<usize>, reducers: Range<usize>) -> Result<Vec<(K, C)>> {
        let (mut records, mut read) = (Vec::new(), 0u64);
        let mut merged: HashMap<K, Option<C>> = HashMap::new();
        for map_id in maps {
            let bucket = fetch_bucket(&self.ctx, self.shuffle_id, map_id)?;
            let typed =
                (bucket.downcast_ref::<Vec<Vec<(K, C)>>>()).expect("shuffle bucket type mismatch");
            for reduce in &typed[reducers.clone()] {
                read += reduce.len() as u64;
                let Some(agg) = &self.aggregator else {
                    records.extend(reduce.iter().cloned());
                    continue;
                };
                for (k, c) in reduce {
                    let slot = merged.entry(k.clone()).or_insert(None);
                    *slot = Some(match slot.take() {
                        Some(prev) => (agg.merge_combiners)(prev, c.clone()),
                        None => c.clone(),
                    });
                }
            }
        }
        self.ctx
            .metrics()
            .record_shuffle_read(self.shuffle_id, read);
        records.extend(merged.into_iter().map(|(k, c)| (k, c.expect("combiner"))));
        Ok(records)
    }
}

impl<K, V, C> ShuffleDependencyBase for ShuffleDependency<K, V, C>
where
    K: Data + Hash + Eq,
    V: Data,
    C: Data,
{
    fn shuffle_id(&self) -> usize {
        self.shuffle_id
    }

    fn parent(&self) -> Arc<dyn RddBase> {
        as_base(self.parent.clone())
    }

    fn num_reduce_partitions(&self) -> usize {
        self.partitioner.num_partitions()
    }

    fn run_map_task(&self, map_partition: usize, tc: &TaskContext) {
        let n = self.partitioner.num_partitions();
        let mut buckets: Vec<Vec<(K, C)>> = (0..n).map(|_| Vec::new()).collect();
        let input = self.parent.compute(map_partition, tc);
        let mut written = 0u64;

        match (&self.aggregator, self.map_side_combine) {
            (Some(agg), true) => {
                // Combine per bucket before publishing (Spark's map-side
                // combine; what makes reduce_by_key cheap). Slots hold
                // Option<C> so values fold in without cloning combiners.
                let mut maps: Vec<HashMap<K, Option<C>>> = (0..n).map(|_| HashMap::new()).collect();
                for (k, v) in input {
                    let b = self.partitioner.partition(&k);
                    let slot = maps[b].entry(k).or_insert(None);
                    *slot = Some(match slot.take() {
                        Some(c) => (agg.merge_value)(c, v),
                        None => (agg.create)(v),
                    });
                }
                for (b, m) in maps.into_iter().enumerate() {
                    buckets[b].extend(m.into_iter().map(|(k, c)| (k, c.expect("combiner"))));
                }
            }
            (Some(agg), false) => {
                for (k, v) in input {
                    let b = self.partitioner.partition(&k);
                    buckets[b].push((k, (agg.create)(v)));
                }
            }
            (None, _) => {
                // Raw repartition: C == V by construction. An `Option<V>`
                // on the stack, viewed as `Option<C>`, converts without a
                // cast or an allocation.
                for (k, v) in input {
                    let b = self.partitioner.partition(&k);
                    let mut v = Some(v);
                    let c = (&mut v as &mut dyn Any)
                        .downcast_mut::<Option<C>>()
                        .and_then(Option::take)
                        .expect("raw shuffle requires C == V");
                    buckets[b].push((k, c));
                }
            }
        }

        if crate::task::failed() {
            return;
        }
        // Per-bucket byte accounting: measured via the caller's size_fn
        // when available, otherwise approximated from the in-memory record
        // footprint (the store holds typed Vec<(K, C)> buckets, not
        // serialized frames).
        let mut bucket_bytes: Vec<u64> = Vec::with_capacity(n);
        let mut bytes = 0u64;
        for bucket in &buckets {
            written += bucket.len() as u64;
            let b = match &self.size_fn {
                Some(f) => bucket.iter().map(|(k, c)| f(k, c)).sum(),
                None => bucket.len() as u64 * std::mem::size_of::<(K, C)>() as u64,
            };
            bytes += b;
            bucket_bytes.push(b);
        }
        let fresh = self.ctx.shuffle_manager().put(
            self.shuffle_id,
            map_partition,
            Self::erase(buckets),
            bucket_bytes,
        );
        // Only count output the store newly registered; a retried map task
        // overwriting its own bucket must not inflate shuffle volume.
        if fresh {
            self.ctx
                .metrics()
                .record_shuffle_write(self.shuffle_id, written, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manager_roundtrip_and_invalidate() {
        let m = ShuffleManager::default();
        let buckets: Vec<Vec<(i64, i64)>> = vec![vec![(1, 2)], vec![]];
        m.put(7, 0, Arc::new(buckets), vec![16, 0]);
        assert!(m.get(7, 0).is_some());
        assert!(m.is_complete(7, 1));
        assert!(!m.is_complete(7, 2));
        assert_eq!(m.map_output_sizes(7), vec![vec![16, 0]]);
        m.invalidate(7);
        assert!(m.get(7, 0).is_none());
        assert!(!m.is_complete(7, 1));
        assert!(m.map_output_sizes(7).is_empty());
    }

    #[test]
    fn invalidate_all_clears_everything() {
        let m = ShuffleManager::default();
        m.put(1, 0, Arc::new(Vec::<Vec<(i64, i64)>>::new()), vec![]);
        m.put(2, 0, Arc::new(Vec::<Vec<(i64, i64)>>::new()), vec![]);
        assert_eq!(m.known_shuffles(), vec![1, 2]);
        m.invalidate_all();
        assert!(m.known_shuffles().is_empty());
    }

    #[test]
    fn map_output_sizes_ordered_by_map_id() {
        let m = ShuffleManager::default();
        m.put(3, 1, Arc::new(Vec::<Vec<(i64, i64)>>::new()), vec![8, 24]);
        m.put(3, 0, Arc::new(Vec::<Vec<(i64, i64)>>::new()), vec![0, 48]);
        assert_eq!(m.map_output_sizes(3), vec![vec![0, 48], vec![8, 24]]);
    }

    #[test]
    fn put_reports_whether_output_is_new() {
        let m = ShuffleManager::default();
        assert!(m.put(1, 0, Arc::new(Vec::<Vec<(i64, i64)>>::new()), vec![]));
        assert!(!m.put(1, 0, Arc::new(Vec::<Vec<(i64, i64)>>::new()), vec![]));
        m.remove_output(1, 0);
        assert!(m.put(1, 0, Arc::new(Vec::<Vec<(i64, i64)>>::new()), vec![]));
    }

    #[test]
    fn remove_output_leaves_shuffle_partially_complete() {
        let m = ShuffleManager::default();
        m.put(5, 0, Arc::new(Vec::<Vec<(i64, i64)>>::new()), vec![]);
        m.put(5, 1, Arc::new(Vec::<Vec<(i64, i64)>>::new()), vec![]);
        assert!(m.is_complete(5, 2));
        m.remove_output(5, 1);
        assert!(!m.is_complete(5, 2));
        assert_eq!(m.missing_maps(5, 2), vec![1]);
        assert!(m.get(5, 0).is_some());
        assert!(m.get(5, 1).is_none());
        // Completion is remembered even after loss.
        assert!(m.ever_complete(5));
    }
}
