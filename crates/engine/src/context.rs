//! The driver-side entry point: configuration, id allocation, and the
//! shared services (cache, executor pool, metrics). Shuffle output is
//! not among them: each [`crate::shuffle::ShuffleDependency`] owns its
//! own.

use crate::broadcast::Broadcast;
use crate::cache::{CacheManager, DRIVER_OWNER};
use crate::chaos::{ChaosConf, ChaosPlan};
use crate::metrics::Metrics;
use crate::ops::{GeneratedRdd, ParallelCollection};
use crate::pool::ThreadPool;
use crate::rdd::{BoxIter, Data, RddRef};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Where a task failure is about to happen — handed to the failure
/// injector so tests can target specific stages/partitions/attempts.
#[derive(Debug, Clone, Copy)]
pub struct FailureSite {
    /// Stage id of the task.
    pub stage_id: usize,
    /// Partition the task computes.
    pub partition: usize,
    /// Retry attempt (0 = first try).
    pub attempt: usize,
}

/// Decides whether a task should be killed before running.
pub type FailureInjector = Arc<dyn Fn(FailureSite) -> bool + Send + Sync>;

/// Engine configuration.
#[derive(Clone)]
pub struct EngineConf {
    /// Executor threads (simulated cluster cores).
    pub executor_threads: usize,
    /// Max retries per task before the job fails.
    pub max_task_retries: usize,
    /// Max times one shuffle's map stage may be resubmitted after fetch
    /// failures before the job fails.
    pub max_stage_retries: usize,
    /// Default partition count for shuffles when callers pass 0.
    pub default_parallelism: usize,
}

impl Default for EngineConf {
    fn default() -> Self {
        EngineConf {
            executor_threads: 4,
            max_task_retries: 3,
            max_stage_retries: 4,
            default_parallelism: 4,
        }
    }
}

struct ContextInner {
    conf: EngineConf,
    next_rdd_id: AtomicUsize,
    next_shuffle_id: AtomicUsize,
    next_broadcast_id: AtomicUsize,
    next_stage_id: AtomicUsize,
    /// Losses per executor, the driver's last: shuffle output stamped
    /// with an older count was written before its executor was lost.
    losses: Box<[AtomicU64]>,
    cache: CacheManager,
    pool: ThreadPool,
    metrics: Metrics,
    failure_injector: parking_lot::RwLock<Option<FailureInjector>>,
    chaos: parking_lot::RwLock<Option<Arc<ChaosPlan>>>,
}

/// Cheaply cloneable handle to the simulated cluster.
#[derive(Clone)]
pub struct SparkContext {
    inner: Arc<ContextInner>,
}

impl SparkContext {
    /// Create a context with `executor_threads` workers and defaults
    /// otherwise.
    pub fn new(executor_threads: usize) -> Self {
        SparkContext::with_conf(EngineConf {
            executor_threads,
            ..Default::default()
        })
    }

    /// Create a context from a full configuration. When
    /// `ENGINE_CHAOS_SEED` is set in the environment a seeded
    /// [`ChaosPlan`] is installed automatically, so an entire test suite
    /// can run under fault injection without code changes.
    pub fn with_conf(conf: EngineConf) -> Self {
        let pool = ThreadPool::new(conf.executor_threads);
        let losses = (0..=pool.size()).map(|_| AtomicU64::new(0)).collect();
        let chaos = ChaosConf::from_env().map(|c| Arc::new(ChaosPlan::new(c)));
        SparkContext {
            inner: Arc::new(ContextInner {
                conf,
                next_rdd_id: AtomicUsize::new(0),
                next_shuffle_id: AtomicUsize::new(0),
                next_broadcast_id: AtomicUsize::new(0),
                next_stage_id: AtomicUsize::new(0),
                losses,
                cache: CacheManager::default(),
                pool,
                metrics: Metrics::default(),
                failure_injector: parking_lot::RwLock::new(None),
                chaos: parking_lot::RwLock::new(chaos),
            }),
        }
    }

    /// The configuration this context was built with.
    pub fn conf(&self) -> &EngineConf {
        &self.inner.conf
    }

    /// Distribute an in-memory collection over `num_partitions` partitions.
    pub fn parallelize<T: Data>(&self, data: Vec<T>, num_partitions: usize) -> RddRef<T> {
        RddRef::new(Arc::new(ParallelCollection::new(
            self.clone(),
            data,
            num_partitions,
        )))
    }

    /// Create a source RDD whose partitions are produced lazily by `gen`
    /// on the executors (for large synthetic datasets).
    pub fn generate<T: Data>(
        &self,
        num_partitions: usize,
        gen: impl Fn(usize) -> BoxIter<T> + Send + Sync + 'static,
    ) -> RddRef<T> {
        RddRef::new(Arc::new(GeneratedRdd::new(
            self.clone(),
            num_partitions,
            Arc::new(gen),
        )))
    }

    /// Ship a read-only value to every task.
    pub fn broadcast<T: Send + Sync>(&self, value: T, approx_bytes: usize) -> Broadcast<T> {
        Broadcast::new(self.new_broadcast_id(), value, approx_bytes)
    }

    /// Install (or clear) a failure injector for fault-tolerance tests.
    pub fn set_failure_injector(&self, injector: Option<FailureInjector>) {
        *self.inner.failure_injector.write() = injector;
    }

    /// Current failure injector, if any.
    pub fn failure_injector(&self) -> Option<FailureInjector> {
        self.inner.failure_injector.read().clone()
    }

    /// Install (or clear) a chaos fault-injection plan. Passing `None`
    /// also overrides a plan auto-installed from `ENGINE_CHAOS_SEED` —
    /// tests that assert exact task/stage counters use this to opt out
    /// of suite-wide chaos runs.
    pub fn set_chaos(&self, plan: Option<Arc<ChaosPlan>>) {
        *self.inner.chaos.write() = plan;
    }

    /// Current chaos plan, if any.
    pub fn chaos(&self) -> Option<Arc<ChaosPlan>> {
        self.inner.chaos.read().clone()
    }

    /// Kill executor `executor` ([`DRIVER_OWNER`] for the driver): drop
    /// every cache block it produced and bump its loss generation. The
    /// shuffle half is lazy — no registry of live shuffles is walked;
    /// every map output the executor wrote before the bump counts as
    /// missing wherever its dependency is read or asked what is missing.
    /// Lineage makes the loss recoverable: the scheduler reruns the
    /// missing map partitions on next access and the cache manager
    /// recomputes lost blocks from their parent RDDs.
    pub fn lose_executor(&self, executor: usize) {
        if let Some(losses) = self.losses_of(executor) {
            losses.fetch_add(1, Ordering::SeqCst);
        }
        self.inner.cache.drop_executor(executor);
        Metrics::add(&self.inner.metrics.executors_lost, 1);
    }

    /// How often `executor` has been lost (0 for an id no executor has).
    pub(crate) fn loss_generation(&self, executor: usize) -> u64 {
        self.losses_of(executor)
            .map_or(0, |losses| losses.load(Ordering::SeqCst))
    }

    fn losses_of(&self, executor: usize) -> Option<&AtomicU64> {
        let (driver, executors) = self.inner.losses.split_last()?;
        match executor {
            DRIVER_OWNER => Some(driver),
            _ => executors.get(executor),
        }
    }

    /// The partition cache.
    pub fn cache_manager(&self) -> &CacheManager {
        &self.inner.cache
    }

    /// The executor thread pool.
    pub fn pool(&self) -> &ThreadPool {
        &self.inner.pool
    }

    /// Execution counters.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Allocate a fresh RDD id.
    pub fn new_rdd_id(&self) -> usize {
        self.inner.next_rdd_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocate a fresh shuffle id.
    pub fn new_shuffle_id(&self) -> usize {
        self.inner.next_shuffle_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Peek at the next shuffle id without allocating it. Shuffle ids are
    /// allocated eagerly when a shuffle dependency is constructed, so a
    /// snapshot before and after a job bounds the shuffles it minted.
    pub fn current_shuffle_id(&self) -> usize {
        self.inner.next_shuffle_id.load(Ordering::Relaxed)
    }

    /// Allocate a fresh broadcast id.
    pub fn new_broadcast_id(&self) -> usize {
        self.inner.next_broadcast_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocate a fresh stage id.
    pub fn new_stage_id(&self) -> usize {
        self.inner.next_stage_id.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelize_and_collect_roundtrip() {
        let sc = SparkContext::new(2);
        let data: Vec<i64> = (0..100).collect();
        let rdd = sc.parallelize(data.clone(), 7);
        assert_eq!(rdd.num_partitions(), 7);
        assert_eq!(rdd.collect(), data);
    }

    #[test]
    fn generate_produces_per_partition_data() {
        let sc = SparkContext::new(2);
        let rdd = sc.generate(3, |p| Box::new((0..2).map(move |i| (p, i))));
        let mut got = rdd.collect();
        got.sort();
        assert_eq!(got, vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]);
    }

    #[test]
    fn broadcast_value_is_shared() {
        let sc = SparkContext::new(1);
        let b = sc.broadcast(vec![1, 2, 3], 24);
        assert_eq!(b.value(), &vec![1, 2, 3]);
        assert_eq!(b.approx_bytes(), 24);
        let b2 = b.clone();
        assert_eq!(b2.id(), b.id());
    }

    #[test]
    fn ids_are_unique() {
        let sc = SparkContext::new(1);
        let a = sc.new_rdd_id();
        let b = sc.new_rdd_id();
        assert_ne!(a, b);
    }
}
