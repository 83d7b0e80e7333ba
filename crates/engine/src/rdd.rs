//! Resilient Distributed Dataset traits and the user-facing handle.
//!
//! An RDD is a lazily evaluated, partitioned collection (§2.1 of the
//! paper). Concrete RDDs implement [`Rdd`]; users hold an [`RddRef`],
//! which offers the familiar functional operators (`map`, `filter`,
//! `flat_map`, …) plus output operations (`collect`, `count`, `reduce`)
//! that submit a job to the DAG scheduler.

use crate::cache::CachedRdd;
use crate::context::SparkContext;
use crate::error::Result;
use crate::ops::{
    CoalescedRdd, FilterRdd, FlatMapRdd, MapPartitionsRdd, MapRdd, SampleRdd, UnionRdd,
    ZippedPartitionsRdd,
};
use crate::scheduler;
use std::sync::Arc;

/// Marker bound for element types an RDD may carry.
///
/// Elements cross executor-thread boundaries and may be retained by
/// shuffle dependencies and the cache manager, hence
/// `Send + Sync + 'static`; lineage recomputation requires `Clone`.
pub trait Data: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> Data for T {}

/// Iterator type produced by partition computation.
pub type BoxIter<T> = Box<dyn Iterator<Item = T> + Send>;

/// Unique identifier of an RDD within one context.
pub type RddId = usize;

/// Per-task metadata handed to `compute`.
#[derive(Debug, Clone, Copy)]
pub struct TaskContext {
    /// Stage the task belongs to.
    pub stage_id: usize,
    /// Partition index being computed.
    pub partition: usize,
    /// Zero-based retry attempt.
    pub attempt: usize,
}

/// A dependency edge in the lineage graph.
#[derive(Clone)]
pub enum Dependency {
    /// Each partition of the child depends on a bounded set of parent
    /// partitions; computed in the same stage (pipelined).
    Narrow(Arc<dyn RddBase>),
    /// Requires a shuffle: the parent's stage must run to completion and
    /// write map output before the child can read it.
    Shuffle(Arc<dyn crate::shuffle::ShuffleDependencyBase>),
}

/// Type-erased view of an RDD, used by the scheduler to walk lineage.
pub trait RddBase: Send + Sync {
    /// Unique id within the owning context.
    fn id(&self) -> RddId;
    /// Number of partitions.
    fn num_partitions(&self) -> usize;
    /// Lineage edges to parent RDDs.
    fn dependencies(&self) -> Vec<Dependency>;
    /// The owning context.
    fn context(&self) -> SparkContext;
    /// Human-readable operator name for debug output.
    fn name(&self) -> &'static str {
        "rdd"
    }
}

/// A typed RDD: knows how to compute one partition as an iterator.
pub trait Rdd: RddBase {
    /// Element type.
    type Item: Data;

    /// Compute the contents of `split` from parent data (or source data).
    fn compute(&self, split: usize, tc: &TaskContext) -> BoxIter<Self::Item>;
}

/// Cheaply cloneable user-facing handle around a concrete RDD.
pub struct RddRef<T: Data> {
    inner: Arc<dyn Rdd<Item = T>>,
}

impl<T: Data> Clone for RddRef<T> {
    fn clone(&self) -> Self {
        RddRef {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Data> RddRef<T> {
    /// Wrap a concrete RDD.
    pub fn new(inner: Arc<dyn Rdd<Item = T>>) -> Self {
        RddRef { inner }
    }

    /// The underlying trait object (for building derived RDDs).
    pub fn as_inner(&self) -> Arc<dyn Rdd<Item = T>> {
        self.inner.clone()
    }

    /// The owning context.
    pub fn context(&self) -> SparkContext {
        self.inner.context()
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.inner.num_partitions()
    }

    // ---- transformations (lazy) ----

    /// Apply `f` to every element.
    pub fn map<U: Data>(&self, f: impl Fn(T) -> U + Send + Sync + 'static) -> RddRef<U> {
        RddRef::new(Arc::new(MapRdd::new(self.inner.clone(), Arc::new(f))))
    }

    /// Keep elements for which `f` returns true.
    pub fn filter(&self, f: impl Fn(&T) -> bool + Send + Sync + 'static) -> RddRef<T> {
        RddRef::new(Arc::new(FilterRdd::new(self.inner.clone(), Arc::new(f))))
    }

    /// Apply `f` and flatten the results.
    pub fn flat_map<U: Data, I>(&self, f: impl Fn(T) -> I + Send + Sync + 'static) -> RddRef<U>
    where
        I: IntoIterator<Item = U>,
        I::IntoIter: Send + 'static,
    {
        let g = move |t: T| -> BoxIter<U> { Box::new(f(t).into_iter()) };
        RddRef::new(Arc::new(FlatMapRdd::new(self.inner.clone(), Arc::new(g))))
    }

    /// Transform a whole partition iterator at once (pipelined, no
    /// per-element closure overhead; what physical operators compile to).
    pub fn map_partitions<U: Data>(
        &self,
        f: impl Fn(BoxIter<T>) -> BoxIter<U> + Send + Sync + 'static,
    ) -> RddRef<U> {
        let g = move |_idx: usize, it: BoxIter<T>| f(it);
        RddRef::new(Arc::new(MapPartitionsRdd::new(
            self.inner.clone(),
            Arc::new(g),
        )))
    }

    /// Like [`RddRef::map_partitions`] but also passes the partition index.
    pub fn map_partitions_with_index<U: Data>(
        &self,
        f: impl Fn(usize, BoxIter<T>) -> BoxIter<U> + Send + Sync + 'static,
    ) -> RddRef<U> {
        RddRef::new(Arc::new(MapPartitionsRdd::new(
            self.inner.clone(),
            Arc::new(f),
        )))
    }

    /// Concatenate two RDDs (partitions of both, in order).
    pub fn union(&self, other: &RddRef<T>) -> RddRef<T> {
        RddRef::new(Arc::new(UnionRdd::new(vec![
            self.inner.clone(),
            other.inner.clone(),
        ])))
    }

    /// Pairwise combine equal-numbered partitions of two RDDs.
    ///
    /// Panics if partition counts differ. This is the narrow-dependency
    /// primitive used by co-partitioned shuffled hash joins.
    pub fn zip_partitions<B: Data, U: Data>(
        &self,
        other: &RddRef<B>,
        f: impl Fn(BoxIter<T>, BoxIter<B>) -> BoxIter<U> + Send + Sync + 'static,
    ) -> RddRef<U> {
        assert_eq!(
            self.num_partitions(),
            other.num_partitions(),
            "zip_partitions requires equal partition counts"
        );
        RddRef::new(Arc::new(ZippedPartitionsRdd::new(
            self.inner.clone(),
            other.as_inner(),
            Arc::new(f),
        )))
    }

    /// Bernoulli sample of roughly `fraction` of the elements.
    pub fn sample(&self, fraction: f64, seed: u64) -> RddRef<T> {
        RddRef::new(Arc::new(SampleRdd::new(self.inner.clone(), fraction, seed)))
    }

    /// Reduce the number of partitions without a shuffle by grouping
    /// consecutive parent partitions.
    pub fn coalesce(&self, num_partitions: usize) -> RddRef<T> {
        RddRef::new(Arc::new(CoalescedRdd::new(
            self.inner.clone(),
            num_partitions.max(1),
        )))
    }

    /// Persist computed partitions in the cache manager; later jobs read
    /// the cached data instead of recomputing lineage (§2.1, §3.6).
    pub fn cache(&self) -> RddRef<T> {
        RddRef::new(Arc::new(CachedRdd::new(self.inner.clone())))
    }

    // ---- actions (launch a job) ----

    /// Run a function over every partition and gather the results.
    pub fn run_job<U: Send + 'static>(
        &self,
        f: impl Fn(usize, BoxIter<T>) -> U + Send + Sync + 'static,
    ) -> Result<Vec<U>> {
        scheduler::run_job(&self.context(), self.inner.clone(), Arc::new(f))
    }

    /// Gather every element to the driver.
    pub fn collect(&self) -> Vec<T> {
        self.try_collect().expect("job failed")
    }

    /// Gather every element to the driver, surfacing job errors.
    pub fn try_collect(&self) -> Result<Vec<T>> {
        let parts = self.run_job(|_, it| it.collect::<Vec<T>>())?;
        Ok(parts.into_iter().flatten().collect())
    }

    /// Count elements.
    pub fn count(&self) -> u64 {
        self.run_job(|_, it| it.count() as u64)
            .expect("job failed")
            .into_iter()
            .sum()
    }

    /// Combine all elements with an associative function.
    pub fn reduce(&self, f: impl Fn(T, T) -> T + Send + Sync + 'static) -> Option<T> {
        let f = Arc::new(f);
        let g = f.clone();
        let partials = self
            .run_job(move |_, it| it.reduce(|a, b| f(a, b)))
            .expect("job failed");
        partials.into_iter().flatten().reduce(move |a, b| g(a, b))
    }

    /// Fold with a zero value per partition, then across partitions.
    pub fn fold<U: Data>(
        &self,
        zero: U,
        fold_part: impl Fn(U, T) -> U + Send + Sync + 'static,
        combine: impl Fn(U, U) -> U + Send + Sync + 'static,
    ) -> U {
        let z = zero.clone();
        let partials = self
            .run_job(move |_, it| it.fold(z.clone(), &fold_part))
            .expect("job failed");
        partials.into_iter().fold(zero, combine)
    }

    /// First `n` elements (scans partitions in order on the driver).
    pub fn take(&self, n: usize) -> Vec<T> {
        if n == 0 {
            return vec![];
        }
        // One job that caps each partition at n, then trim on the driver.
        let parts = self
            .run_job(move |_, it| it.take(n).collect::<Vec<T>>())
            .expect("job failed");
        let mut out = Vec::with_capacity(n);
        for p in parts {
            for t in p {
                if out.len() == n {
                    return out;
                }
                out.push(t);
            }
        }
        out
    }

    /// First element, if any.
    pub fn first(&self) -> Option<T> {
        self.take(1).into_iter().next()
    }

    /// Run `f` for its side effects on every element.
    pub fn for_each(&self, f: impl Fn(T) + Send + Sync + 'static) {
        self.run_job(move |_, it| it.for_each(&f))
            .expect("job failed");
    }
}

impl<T: Data + std::hash::Hash + Eq> RddRef<T> {
    /// Remove duplicates (shuffles by value).
    pub fn distinct(&self, num_partitions: usize) -> RddRef<T> {
        use crate::pair::PairRdd;
        self.map(|t| (t, ()))
            .reduce_by_key(|a, _| a, num_partitions)
            .map(|(t, _)| t)
    }
}
