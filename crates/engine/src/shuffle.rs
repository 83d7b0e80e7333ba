//! Shuffle dependencies and the map output they own.
//!
//! A shuffle dependency splits the lineage graph into stages: the map
//! stage runs [`ShuffleDependencyBase::run_map_task`] for every parent
//! partition, and each map task publishes its per-reducer buckets into
//! the dependency itself, one slot per map partition. Reduce-side RDDs
//! ([`crate::pair::ShuffledRdd`], [`crate::exchange::MaterializedShuffle`])
//! hold the dependency and read from it. There is no context-wide store:
//! map output lives exactly as long as some RDD references its
//! dependency, so a query's shuffles are freed with the lineage that
//! could recompute them — the in-process analogue of Spark's shuffle
//! files.
//!
//! A read of a missing output (dropped by
//! [`ShuffleDependencyBase::remove_output`], written by an executor lost
//! since, or faulted by the chaos plan) is an [`EngineError::FetchFailed`]
//! the reading task records in its error slot ([`crate::task`]). The
//! scheduler answers it by removing that map output and resubmitting the
//! parent map stage from lineage — the RDD recovery protocol, bounded by
//! `max_stage_retries` resubmissions per shuffle. A map task that
//! recorded an error publishes no buckets.
//!
//! Executor loss is lazy: [`SparkContext::lose_executor`] bumps the
//! executor's loss generation, and an output stamped with an older
//! generation counts as missing wherever it is looked at.

use crate::cache::DRIVER_OWNER;
use crate::context::SparkContext;
use crate::error::{EngineError, Result};
use crate::partitioner::Partitioner;
use crate::rdd::{Data, Rdd, RddBase, TaskContext};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::hash::Hash;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Upcast a typed RDD handle to its scheduler-facing base object.
pub fn as_base<T: Data>(rdd: Arc<dyn Rdd<Item = T>>) -> Arc<dyn RddBase> {
    rdd
}

/// One map task's published output.
struct MapOutput<K, C> {
    /// One `Vec<(K, C)>` per reduce partition.
    buckets: Arc<Vec<Vec<(K, C)>>>,
    /// Bytes per reduce bucket, recorded at write time so consumers
    /// (adaptive planning, EXPLAIN ANALYZE) see measured sizes rather
    /// than row counts times a guess.
    sizes: Vec<u64>,
    /// Executor that wrote it ([`DRIVER_OWNER`] for the driver).
    executor: usize,
    /// That executor's loss generation when it wrote the output.
    generation: u64,
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
    /// and publish the buckets into this dependency — unless the task
    /// recorded an error ([`crate::task::failed`]).
    fn run_map_task(&self, map_partition: usize, tc: &TaskContext);
    /// Map partitions with no live output. An empty answer means the
    /// shuffle is complete, which the dependency remembers
    /// ([`ShuffleDependencyBase::was_complete`]).
    fn missing_maps(&self) -> Vec<usize>;
    /// Drop one map task's output (a fetch failure was observed); the
    /// scheduler then resubmits just the missing map partitions.
    fn remove_output(&self, map_id: usize);
    /// True when the shuffle was complete at some point, even if output
    /// has since been lost — tells recovery from a first run in metrics.
    fn was_complete(&self) -> bool;
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
    /// One slot per map partition.
    outputs: Mutex<Vec<Option<MapOutput<K, C>>>>,
    was_complete: AtomicBool,
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
        let outputs = (0..parent.num_partitions()).map(|_| None).collect();
        ShuffleDependency {
            shuffle_id: ctx.new_shuffle_id(),
            parent,
            partitioner,
            aggregator,
            map_side_combine,
            size_fn,
            ctx,
            outputs: Mutex::new(outputs),
            was_complete: AtomicBool::new(false),
        }
    }

    /// The output in `slot`, unless its executor was lost after writing it.
    fn live<'a>(&self, slot: &'a Option<MapOutput<K, C>>) -> Option<&'a MapOutput<K, C>> {
        slot.as_ref()
            .filter(|o| self.ctx.loss_generation(o.executor) == o.generation)
    }

    /// Publish one map task's output, written by `executor`, with the
    /// byte size of each per-reducer bucket. Returns true when no live
    /// output of `map_id` was there, false when it replaced one (a
    /// speculative or retried task) — callers use this to avoid
    /// double-counting shuffle-write metrics.
    fn put(
        &self,
        map_id: usize,
        buckets: Vec<Vec<(K, C)>>,
        sizes: Vec<u64>,
        executor: usize,
    ) -> bool {
        let output = MapOutput {
            buckets: Arc::new(buckets),
            sizes,
            executor,
            generation: self.ctx.loss_generation(executor),
        };
        let mut outputs = self.outputs.lock();
        let fresh = self.live(&outputs[map_id]).is_none();
        outputs[map_id] = Some(output);
        fresh
    }

    /// Measured byte sizes of the live map outputs, indexed
    /// `[map][reduce]` in ascending map-id order.
    pub fn map_output_sizes(&self) -> Vec<Vec<u64>> {
        let outputs = self.outputs.lock();
        (outputs.iter())
            .filter_map(|slot| self.live(slot).map(|o| o.sizes.clone()))
            .collect()
    }

    /// The buckets of one map output: [`EngineError::FetchFailed`] if it
    /// is missing or the context's chaos plan faults the read. Every read
    /// funnels through here so that lost output is always recoverable.
    fn fetch(&self, map_id: usize) -> Result<Arc<Vec<Vec<(K, C)>>>> {
        let shuffle_id = self.shuffle_id;
        let faulted = (self.ctx.chaos()).is_some_and(|chaos| chaos.fetch_fault(shuffle_id, map_id));
        let buckets = self
            .live(&self.outputs.lock()[map_id])
            .map(|o| o.buckets.clone());
        match buckets {
            Some(b) if !faulted => Ok(b),
            _ => Err(EngineError::FetchFailed { shuffle_id, map_id }),
        }
    }

    /// The records of reduce buckets `reducers` in map outputs `maps`,
    /// combiners merged across maps when the shuffle aggregates. A
    /// missing map output is [`EngineError::FetchFailed`].
    pub(crate) fn read(&self, maps: Range<usize>, reducers: Range<usize>) -> Result<Vec<(K, C)>> {
        let (mut records, mut read) = (Vec::new(), 0u64);
        let mut merged: HashMap<K, Option<C>> = HashMap::new();
        for map_id in maps {
            let buckets = self.fetch(map_id)?;
            for reduce in &buckets[reducers.clone()] {
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
        // footprint (the dependency holds typed Vec<(K, C)> buckets, not
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
        let executor = crate::pool::current_executor().unwrap_or(DRIVER_OWNER);
        let fresh = self.put(map_partition, buckets, bucket_bytes, executor);
        // Only count output newly registered; a retried map task
        // overwriting its own bucket must not inflate shuffle volume.
        if fresh {
            self.ctx
                .metrics()
                .record_shuffle_write(self.shuffle_id, written, bytes);
        }
    }

    fn missing_maps(&self) -> Vec<usize> {
        let outputs = self.outputs.lock();
        let missing: Vec<usize> = (0..outputs.len())
            .filter(|&m| self.live(&outputs[m]).is_none())
            .collect();
        if missing.is_empty() {
            self.was_complete.store(true, Ordering::Relaxed);
        }
        missing
    }

    fn remove_output(&self, map_id: usize) {
        self.outputs.lock()[map_id] = None;
    }

    fn was_complete(&self) -> bool {
        self.was_complete.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::HashPartitioner;

    /// A raw two-reducer shuffle over `maps` empty map partitions, on a
    /// context with two executors and no chaos plan.
    fn dep(maps: usize) -> ShuffleDependency<i64, i64, i64> {
        let sc = SparkContext::new(2);
        sc.set_chaos(None);
        let parent = sc.parallelize(Vec::<(i64, i64)>::new(), maps).as_inner();
        ShuffleDependency::new(parent, Arc::new(HashPartitioner::new(2)), None, false)
    }

    fn empty() -> Vec<Vec<(i64, i64)>> {
        vec![vec![], vec![]]
    }

    #[test]
    fn output_round_trips_through_the_dependency() {
        let d = dep(2);
        assert_eq!(d.missing_maps(), vec![0, 1]);
        d.put(0, vec![vec![(1, 2)], vec![]], vec![16, 0], DRIVER_OWNER);
        assert_eq!(d.read(0..1, 0..2).unwrap(), vec![(1, 2)]);
        assert_eq!(d.missing_maps(), vec![1]);
        assert_eq!(d.map_output_sizes(), vec![vec![16, 0]]);
        assert!(matches!(
            d.read(0..2, 0..2),
            Err(EngineError::FetchFailed { map_id: 1, .. })
        ));
        assert!(!d.was_complete());
        d.put(1, empty(), vec![0, 0], DRIVER_OWNER);
        assert!(d.missing_maps().is_empty());
        assert!(d.was_complete());
    }

    #[test]
    fn map_output_sizes_ordered_by_map_id() {
        let d = dep(2);
        d.put(1, empty(), vec![8, 24], DRIVER_OWNER);
        d.put(0, empty(), vec![0, 48], DRIVER_OWNER);
        assert_eq!(d.map_output_sizes(), vec![vec![0, 48], vec![8, 24]]);
    }

    #[test]
    fn a_rewrite_is_not_fresh() {
        let d = dep(1);
        assert!(d.put(0, empty(), vec![], DRIVER_OWNER));
        assert!(!d.put(0, empty(), vec![], DRIVER_OWNER));
        d.remove_output(0);
        assert!(d.put(0, empty(), vec![], DRIVER_OWNER));
    }

    #[test]
    fn remove_output_leaves_the_shuffle_partial() {
        let d = dep(2);
        d.put(0, empty(), vec![], DRIVER_OWNER);
        d.put(1, empty(), vec![], DRIVER_OWNER);
        assert!(d.missing_maps().is_empty());
        d.remove_output(1);
        assert_eq!(d.missing_maps(), vec![1]);
        assert!(d.read(0..1, 0..2).is_ok());
        assert!(d.read(1..2, 0..2).is_err());
    }

    #[test]
    fn completion_is_remembered_after_a_loss() {
        let d = dep(2);
        d.put(0, empty(), vec![], 0);
        d.put(1, empty(), vec![], 1);
        assert!(d.missing_maps().is_empty());
        d.remove_output(0);
        d.ctx.lose_executor(1);
        assert_eq!(d.missing_maps(), vec![0, 1]);
        assert!(d.was_complete());
    }

    #[test]
    fn output_written_before_its_executor_was_lost_is_missing() {
        let d = dep(3);
        d.put(0, empty(), vec![1, 0], 1);
        d.put(1, empty(), vec![2, 0], 0);
        d.put(2, empty(), vec![3, 0], DRIVER_OWNER);
        d.ctx.lose_executor(1);
        assert_eq!(d.missing_maps(), vec![0]);
        assert_eq!(d.map_output_sizes(), vec![vec![2, 0], vec![3, 0]]);
        assert!(d.read(0..1, 0..2).is_err());
        // Written by the same executor after the loss: live, and new.
        assert!(d.put(0, empty(), vec![1, 0], 1));
        assert!(d.missing_maps().is_empty());
        d.ctx.lose_executor(DRIVER_OWNER);
        assert_eq!(d.missing_maps(), vec![2]);
        // An id no executor has loses nothing.
        d.ctx.lose_executor(7);
        assert_eq!(d.missing_maps(), vec![2]);
    }
}
