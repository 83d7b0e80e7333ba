//! Shuffle dependencies: the map output they own, its counters, and the
//! one reader over it.
//!
//! A shuffle dependency splits the lineage graph into stages: the map
//! stage runs [`ShuffleDependencyBase::run_map_task`] for every parent
//! partition, and each map task publishes its per-reducer buckets into
//! the dependency itself, one slot per map partition. The reduce side is
//! one reader RDD ([`ShuffleDependency::read`]) over a list of
//! [`ShuffleReadSpec`]s: one per reducer for `partition_by` and
//! `combine_by_key`, coalesced or map-range-split windows for the
//! adaptive join, which first runs the map stage alone
//! ([`crate::scheduler::materialize_shuffle`]) and plans from the
//! measured sizes ([`ShuffleDependency::map_output_sizes`]). There is no
//! context-wide store: map output, its sizes and its I/O counters
//! ([`ShuffleIo`]) live exactly as long as some RDD references the
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
use crate::metrics::Metrics;
use crate::partitioner::Partitioner;
use crate::rdd::{BoxIter, Data, Dependency, Rdd, RddBase, RddId, RddRef, TaskContext};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::hash::Hash;
use std::marker::PhantomData;
use std::ops::{AddAssign, Range};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// I/O volume of one shuffle, counted by its dependency: what lets the
/// SQL layer attribute shuffle traffic to the Exchange that minted it.
/// A caller that wants the figures keeps the handle
/// ([`ShuffleDependencyBase::io`]); otherwise they go with the shuffle.
#[derive(Debug, Default)]
pub struct ShuffleIo {
    records_written: AtomicU64,
    bytes_written: AtomicU64,
    records_read: AtomicU64,
}

impl ShuffleIo {
    /// The counts so far.
    pub fn stats(&self) -> ShuffleStats {
        ShuffleStats {
            records_written: Metrics::get(&self.records_written),
            bytes_written: Metrics::get(&self.bytes_written),
            records_read: Metrics::get(&self.records_read),
        }
    }
}

/// A copy of [`ShuffleIo`]'s counts, summable across shuffles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShuffleStats {
    /// Records published by map outputs newly registered (a retried
    /// task's rewrite of a live output is not counted).
    pub records_written: u64,
    /// Measured bytes of those records.
    pub bytes_written: u64,
    /// Records fetched by reduce tasks.
    pub records_read: u64,
}

impl AddAssign for ShuffleStats {
    fn add_assign(&mut self, other: ShuffleStats) {
        self.records_written += other.records_written;
        self.bytes_written += other.bytes_written;
        self.records_read += other.records_read;
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
    /// This shuffle's I/O counters.
    fn io(&self) -> Arc<ShuffleIo>;
}

/// Measures the byte footprint of one shuffled record. The engine cannot
/// inspect `Data` values itself (the trait is a blanket impl), so callers
/// that know their record layout — e.g. SQL rows — pass one of these to
/// get real byte accounting instead of `size_of::<(K, C)>()` guesses.
pub type SizeFn<K, C> = Arc<dyn Fn(&K, &C) -> u64 + Send + Sync>;

/// One output partition of a shuffle read: the reduce buckets
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
    /// Per map partition: a chaos fetch fault has been decided for it
    /// (each fires once unless the plan repeats them).
    fetch_faulted: Vec<AtomicBool>,
    was_complete: AtomicBool,
    io: Arc<ShuffleIo>,
}

impl<K, V, C> ShuffleDependency<K, V, C>
where
    K: Data + Hash + Eq,
    V: Data,
    C: Data,
{
    /// Shuffle `parent` through `partitioner`. `aggregator: None` means
    /// raw repartitioning, which requires `C == V` (`PairRdd::partition_by`
    /// and the SQL join's exchanges). `size_fn` measures a record's bytes
    /// for the per-bucket sizes; without it a record counts as its
    /// in-memory footprint.
    pub fn new(
        parent: Arc<dyn Rdd<Item = (K, V)>>,
        partitioner: Arc<dyn Partitioner<K>>,
        aggregator: Option<Aggregator<K, V, C>>,
        map_side_combine: bool,
        size_fn: Option<SizeFn<K, C>>,
    ) -> Arc<Self> {
        let ctx = parent.context();
        let maps = parent.num_partitions();
        Arc::new(ShuffleDependency {
            shuffle_id: ctx.new_shuffle_id(),
            parent,
            partitioner,
            aggregator,
            map_side_combine,
            size_fn,
            ctx,
            outputs: Mutex::new((0..maps).map(|_| None).collect()),
            fetch_faulted: (0..maps).map(|_| AtomicBool::new(false)).collect(),
            was_complete: AtomicBool::new(false),
            io: Arc::default(),
        })
    }

    /// Number of map partitions.
    pub fn num_maps(&self) -> usize {
        self.fetch_faulted.len()
    }

    /// The reduce side: partition `i` reads `specs[i]`, combiners merged
    /// across the maps it reads when the shuffle aggregates. The reader
    /// keeps a [`Dependency::Shuffle`] edge on this dependency, so a job
    /// over it runs the missing map tasks first.
    pub fn read(self: &Arc<Self>, specs: Vec<ShuffleReadSpec>) -> RddRef<(K, C)> {
        RddRef::new(Arc::new(ShuffleReader {
            id: self.ctx.new_rdd_id(),
            dep: self.clone(),
            specs,
        }))
    }

    /// One output partition per reducer, each over every map output.
    pub fn read_all(self: &Arc<Self>) -> RddRef<(K, C)> {
        let maps = self.num_maps();
        let reducers = self.num_reduce_partitions();
        self.read(
            (0..reducers)
                .map(|r| ShuffleReadSpec::reducers(r, r + 1, maps))
                .collect(),
        )
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

    /// Measured byte sizes per map output, indexed `[map][reduce]` by map
    /// id. A missing output (not yet written, removed, or written by an
    /// executor lost since) reads as zero bytes in every bucket, so the
    /// positions stay map ids.
    pub fn map_output_sizes(&self) -> Vec<Vec<u64>> {
        let reducers = self.num_reduce_partitions();
        let outputs = self.outputs.lock();
        (outputs.iter())
            .map(|slot| {
                self.live(slot)
                    .map_or_else(|| vec![0; reducers], |o| o.sizes.clone())
            })
            .collect()
    }

    /// Measured bytes per reduce partition, summed over map outputs.
    pub fn reduce_sizes(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.num_reduce_partitions()];
        for per_map in self.map_output_sizes() {
            for (r, b) in per_map.iter().enumerate() {
                out[r] += b;
            }
        }
        out
    }

    /// Total measured bytes of the map output.
    pub fn total_bytes(&self) -> u64 {
        self.reduce_sizes().iter().sum()
    }

    /// Measured bytes each map output contributed to reduce bucket `r`,
    /// indexed by map id.
    pub fn map_sizes_for(&self, r: usize) -> Vec<u64> {
        (self.map_output_sizes().iter())
            .map(|m| m.get(r).copied().unwrap_or(0))
            .collect()
    }

    /// The buckets of one map output: [`EngineError::FetchFailed`] if it
    /// is missing or the context's chaos plan faults the read. Every read
    /// funnels through here so that lost output is always recoverable.
    fn fetch(&self, map_id: usize) -> Result<Arc<Vec<Vec<(K, C)>>>> {
        let shuffle_id = self.shuffle_id;
        let faulted = (self.ctx.chaos()).is_some_and(|chaos| {
            chaos.fetch_fault(shuffle_id, map_id, &self.fetch_faulted[map_id])
        });
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
    fn records(&self, maps: Range<usize>, reducers: Range<usize>) -> Result<Vec<(K, C)>> {
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
        Metrics::add(&self.io.records_read, read);
        Metrics::add(&self.ctx.metrics().shuffle_records_read, read);
        records.extend(merged.into_iter().map(|(k, c)| (k, c.expect("combiner"))));
        Ok(records)
    }
}

/// The reduce side of a shuffle: partition `i` reads `specs[i]`.
struct ShuffleReader<K: Data, V: Data, C: Data> {
    id: RddId,
    dep: Arc<ShuffleDependency<K, V, C>>,
    specs: Vec<ShuffleReadSpec>,
}

impl<K, V, C> RddBase for ShuffleReader<K, V, C>
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
        self.dep.ctx.clone()
    }
    fn name(&self) -> &'static str {
        "shuffle"
    }
}

impl<K, V, C> Rdd for ShuffleReader<K, V, C>
where
    K: Data + Hash + Eq,
    V: Data,
    C: Data,
{
    type Item = (K, C);

    fn compute(&self, split: usize, _tc: &TaskContext) -> BoxIter<(K, C)> {
        let spec = &self.specs[split];
        let records = (self.dep).records(
            spec.map_start..spec.map_end,
            spec.reduce_start..spec.reduce_end,
        );
        Box::new(crate::task::ok(records).into_iter().flatten())
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
            Metrics::add(&self.io.records_written, written);
            Metrics::add(&self.io.bytes_written, bytes);
            Metrics::add(&self.ctx.metrics().shuffle_records_written, written);
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

    fn io(&self) -> Arc<ShuffleIo> {
        self.io.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::HashPartitioner;
    use crate::scheduler::materialize_shuffle;

    /// A raw two-reducer shuffle over `maps` empty map partitions, on a
    /// context with two executors and no chaos plan.
    fn dep(maps: usize) -> Arc<ShuffleDependency<i64, i64, i64>> {
        let sc = SparkContext::new(2);
        sc.set_chaos(None);
        let parent = sc.parallelize(Vec::<(i64, i64)>::new(), maps).as_inner();
        ShuffleDependency::new(parent, Arc::new(HashPartitioner::new(2)), None, false, None)
    }

    /// `(i % 10, i)` for `i` in `0..100`, sorted.
    fn mod10() -> Vec<(i64, i64)> {
        let mut pairs: Vec<(i64, i64)> = (0..100).map(|i| (i % 10, i)).collect();
        pairs.sort_unstable();
        pairs
    }

    /// [`mod10`] over 4 map partitions shuffled raw to 4 reducers, each
    /// record measured at 16 bytes, its map stage run.
    fn materialize_mod4(sc: &SparkContext) -> Arc<ShuffleDependency<i64, i64, i64>> {
        let rdd = sc.parallelize(mod10(), 4);
        let size_fn: SizeFn<i64, i64> = Arc::new(|_k, _v| 16);
        let partitioner = Arc::new(HashPartitioner::new(4));
        let dep = ShuffleDependency::new(rdd.as_inner(), partitioner, None, false, Some(size_fn));
        materialize_shuffle(sc, dep.clone()).expect("materialize");
        dep
    }

    fn sorted<T: Data + Ord>(rdd: RddRef<T>) -> Vec<T> {
        let mut all = rdd.collect();
        all.sort_unstable();
        all
    }

    fn empty() -> Vec<Vec<(i64, i64)>> {
        vec![vec![], vec![]]
    }

    #[test]
    fn output_round_trips_through_the_dependency() {
        let d = dep(2);
        assert_eq!(d.missing_maps(), vec![0, 1]);
        d.put(0, vec![vec![(1, 2)], vec![]], vec![16, 0], DRIVER_OWNER);
        assert_eq!(d.records(0..1, 0..2).unwrap(), vec![(1, 2)]);
        assert_eq!(d.missing_maps(), vec![1]);
        assert_eq!(d.map_output_sizes(), vec![vec![16, 0], vec![0, 0]]);
        assert!(matches!(
            d.records(0..2, 0..2),
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
        assert!(d.records(0..1, 0..2).is_ok());
        assert!(d.records(1..2, 0..2).is_err());
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
        assert_eq!(
            d.map_output_sizes(),
            vec![vec![0, 0], vec![2, 0], vec![3, 0]]
        );
        assert!(d.records(0..1, 0..2).is_err());
        // Written by the same executor after the loss: live, and new.
        assert!(d.put(0, empty(), vec![1, 0], 1));
        assert!(d.missing_maps().is_empty());
        d.ctx.lose_executor(DRIVER_OWNER);
        assert_eq!(d.missing_maps(), vec![2]);
        // An id no executor has loses nothing.
        d.ctx.lose_executor(7);
        assert_eq!(d.missing_maps(), vec![2]);
    }

    #[test]
    fn sizes_are_measured_and_reads_cover_everything() {
        let sc = SparkContext::new(2);
        let dep = materialize_mod4(&sc);
        assert_eq!(dep.num_maps(), 4);
        assert_eq!(dep.total_bytes(), 100 * 16);
        assert_eq!(dep.reduce_sizes().len(), 4);
        // Full read equals the plain shuffled result.
        assert_eq!(sorted(dep.read_all()), mod10());
    }

    #[test]
    fn coalesced_and_split_reads_preserve_the_multiset() {
        let sc = SparkContext::new(2);
        let dep = materialize_mod4(&sc);

        // Coalesce all four reducers into one partition.
        let coalesced = dep.read(vec![ShuffleReadSpec::reducers(0, 4, dep.num_maps())]);
        assert_eq!(coalesced.num_partitions(), 1);
        let got = sorted(coalesced);

        // Split reducer 0 by map ranges, keep the rest whole.
        let split = dep.read(vec![
            ShuffleReadSpec::map_range(0, 0, 2),
            ShuffleReadSpec::map_range(0, 2, 4),
            ShuffleReadSpec::reducers(1, 4, dep.num_maps()),
        ]);
        assert_eq!(split.num_partitions(), 3);
        assert_eq!(got, sorted(split));
        assert_eq!(got, mod10());
    }

    #[test]
    fn aggregated_reads_merge_across_maps() {
        let sc = SparkContext::new(2);
        let pairs: Vec<(i64, i64)> = (0..100).map(|i| (i % 5, 1)).collect();
        let rdd = sc.parallelize(pairs, 4);
        let agg = Aggregator::new(|v: i64| v, |c, v| c + v, |a, b| a + b);
        let partitioner = Arc::new(HashPartitioner::new(3));
        let dep = ShuffleDependency::new(rdd.as_inner(), partitioner, Some(agg), true, None);
        materialize_shuffle(&sc, dep.clone()).expect("materialize");
        let got = sorted(dep.read(vec![ShuffleReadSpec::reducers(0, 3, dep.num_maps())]));
        assert_eq!(got, vec![(0, 20), (1, 20), (2, 20), (3, 20), (4, 20)]);
    }

    #[test]
    fn skew_splits_after_an_executor_loss_read_every_map() {
        let sc = SparkContext::new(2);
        sc.set_chaos(None);
        let dep = materialize_mod4(&sc);
        let writer = dep.outputs.lock()[0].as_ref().expect("written").executor;
        sc.lose_executor(writer);
        assert!(!dep.missing_maps().is_empty());
        let sizes = dep.map_output_sizes();
        assert_eq!(sizes.len(), 4, "sizes are indexed by map id");
        // One sub-partition per map of every reducer, from the sizes.
        let specs = (0..4)
            .flat_map(|r| (0..dep.map_sizes_for(r).len()).map(move |m| (r, m)))
            .map(|(r, m)| ShuffleReadSpec::map_range(r, m, m + 1))
            .collect();
        assert_eq!(sorted(dep.read(specs)), mod10());
    }

    #[test]
    fn io_counts_fresh_writes_once_and_every_read() {
        let sc = SparkContext::new(2);
        sc.set_chaos(None);
        let dep = materialize_mod4(&sc);
        let io = dep.io();
        let written = ShuffleStats {
            records_written: 100,
            bytes_written: 100 * 16,
            records_read: 0,
        };
        assert_eq!(io.stats(), written);
        // A retried map task rewriting its live output is not counted.
        let tc = TaskContext {
            stage_id: 0,
            partition: 1,
            attempt: 1,
        };
        dep.run_map_task(1, &tc);
        assert_eq!(io.stats(), written);
        // Each read counts what it fetched.
        assert_eq!(dep.read_all().count(), 100);
        assert_eq!(io.stats().records_read, 100);
        let read = dep.read(vec![ShuffleReadSpec::map_range(0, 0, 2)]).count() as u64;
        assert_eq!(io.stats().records_read, 100 + read);
        // The context's global counters moved in lockstep.
        let m = sc.metrics();
        assert_eq!(Metrics::get(&m.shuffle_records_written), 100);
        assert_eq!(Metrics::get(&m.shuffle_records_read), 100 + read);
        // The handle outlives the shuffle.
        drop(dep);
        assert_eq!(io.stats().records_written, 100);
    }
}
