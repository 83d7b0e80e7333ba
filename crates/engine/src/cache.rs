//! Block cache manager and the caching RDD wrapper.
//!
//! `RddRef::cache()` wraps an RDD in a [`CachedRdd`]; the first job to
//! touch a partition computes and stores it, later jobs read the stored
//! block. Evicting blocks — explicitly, via [`CacheManager::clear`], or
//! because the executor holding them died — forces lineage
//! recomputation on next access: the fault-tolerance path the paper's
//! RDD model relies on (§2.1). Blocks remember which executor produced
//! them so [`crate::SparkContext::lose_executor`] can drop exactly that
//! executor's blocks, and losses are tracked so recomputation after a
//! failure is distinguishable (in metrics) from a first-time fill.

use crate::context::SparkContext;
use crate::metrics::Metrics;
use crate::rdd::{BoxIter, Data, Dependency, Rdd, RddBase, RddId, TaskContext};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

type Block = Arc<dyn Any + Send + Sync>;

/// Owner id recorded for blocks stored from the driver thread.
pub const DRIVER_OWNER: usize = usize::MAX;

/// Which block to sacrifice when the cache exceeds its byte budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used sized block.
    #[default]
    Lru,
    /// Evict the block with the lowest `(hits + 1) / bytes` density —
    /// cheap-to-keep, frequently-read blocks survive; large cold ones go
    /// first (the reference-count/cost-aware family of Yang et al.,
    /// PAPERS.md). Ties fall back to LRU order.
    CostAware,
}

impl EvictionPolicy {
    /// Parse a conf string ("lru" / "cost"), defaulting to LRU.
    pub fn parse(s: &str) -> EvictionPolicy {
        match s.to_ascii_lowercase().as_str() {
            "cost" | "costaware" | "cost-aware" => EvictionPolicy::CostAware,
            _ => EvictionPolicy::Lru,
        }
    }
}

/// Accounting metadata kept for blocks stored with a byte size.
struct BlockMeta {
    bytes: u64,
    /// Logical clock of the last get (or the put, if never read).
    last_access: u64,
    hits: u64,
}

/// Budget and eviction counters, readable at any time via
/// [`CacheManager::budget_stats`]. Query-level observability diffs two
/// snapshots, so counters are cumulative for the manager's lifetime.
#[derive(Debug, Clone, Copy)]
pub struct CacheBudgetStats {
    /// Byte budget, `None` when unbounded.
    pub budget: Option<u64>,
    /// Bytes currently held by sized blocks.
    pub used_bytes: u64,
    /// Sized blocks currently resident.
    pub resident_blocks: usize,
    /// Blocks evicted to stay within budget (not failure drops).
    pub evictions: u64,
    /// Bytes freed by budget evictions.
    pub evicted_bytes: u64,
}

#[derive(Default)]
struct CacheState {
    /// (rdd id, partition) -> (block, producing executor).
    blocks: HashMap<(RddId, usize), (Block, usize)>,
    /// Keys whose block was dropped after having been stored — consulted
    /// (and consumed) by readers to count failure-driven recomputation.
    /// Budget evictions deliberately do *not* land here: refilling an
    /// evicted block is a cold miss, not failure recovery.
    lost: HashSet<(RddId, usize)>,
    /// Size/recency/frequency accounting for blocks stored via
    /// [`CacheManager::put_sized`]. Unsized blocks are exempt from the
    /// budget (their size is unknown) and never evicted by it.
    meta: HashMap<(RddId, usize), BlockMeta>,
    clock: u64,
    used_bytes: u64,
    budget: Option<u64>,
    policy: EvictionPolicy,
    evictions: u64,
    evicted_bytes: u64,
}

impl CacheState {
    fn forget(&mut self, key: &(RddId, usize)) {
        if let Some(meta) = self.meta.remove(key) {
            self.used_bytes -= meta.bytes;
        }
    }

    /// Evict sized blocks (never `keep`) until `used_bytes` fits the
    /// budget or no candidates remain.
    fn enforce_budget(&mut self, keep: Option<(RddId, usize)>) {
        let Some(budget) = self.budget else { return };
        while self.used_bytes > budget {
            let victim = self
                .meta
                .iter()
                .filter(|(k, _)| Some(**k) != keep)
                .min_by(|(_, a), (_, b)| match self.policy {
                    EvictionPolicy::Lru => a.last_access.cmp(&b.last_access),
                    EvictionPolicy::CostAware => {
                        let da = (a.hits + 1) as f64 / a.bytes.max(1) as f64;
                        let db = (b.hits + 1) as f64 / b.bytes.max(1) as f64;
                        da.total_cmp(&db)
                            .then_with(|| a.last_access.cmp(&b.last_access))
                    }
                })
                .map(|(k, _)| *k);
            let Some(key) = victim else { break };
            self.blocks.remove(&key);
            let meta = self.meta.remove(&key).expect("victim has meta");
            self.used_bytes -= meta.bytes;
            self.evictions += 1;
            self.evicted_bytes += meta.bytes;
        }
    }
}

/// Stores computed partitions keyed by `(rdd id, partition)`.
#[derive(Default)]
pub struct CacheManager {
    state: Mutex<CacheState>,
}

impl CacheManager {
    /// Fetch a cached partition, updating recency/frequency accounting.
    pub fn get(&self, rdd: RddId, partition: usize) -> Option<Block> {
        let mut st = self.state.lock();
        st.clock += 1;
        let clock = st.clock;
        if let Some(meta) = st.meta.get_mut(&(rdd, partition)) {
            meta.last_access = clock;
            meta.hits += 1;
        }
        st.blocks.get(&(rdd, partition)).map(|(b, _)| b.clone())
    }

    /// Fetch a cached partition *without* touching the eviction clock or
    /// the hit count. Planning-time readers (statistics, footprint,
    /// residency checks) use this: only a scan is a use of the block.
    pub fn peek(&self, rdd: RddId, partition: usize) -> Option<Block> {
        let st = self.state.lock();
        st.blocks.get(&(rdd, partition)).map(|(b, _)| b.clone())
    }

    /// Set (or clear) the byte budget and eviction policy. Shrinking the
    /// budget below current usage evicts immediately.
    pub fn set_budget(&self, budget: Option<u64>, policy: EvictionPolicy) {
        let mut st = self.state.lock();
        st.budget = budget;
        st.policy = policy;
        st.enforce_budget(None);
    }

    /// Current budget usage and cumulative eviction counters.
    pub fn budget_stats(&self) -> CacheBudgetStats {
        let st = self.state.lock();
        CacheBudgetStats {
            budget: st.budget,
            used_bytes: st.used_bytes,
            resident_blocks: st.meta.len(),
            evictions: st.evictions,
            evicted_bytes: st.evicted_bytes,
        }
    }

    /// Store a computed partition, owned by the calling thread's executor
    /// (the driver when called outside the pool).
    pub fn put(&self, rdd: RddId, partition: usize, block: Block) {
        let owner = crate::pool::current_executor().unwrap_or(DRIVER_OWNER);
        self.put_owned(rdd, partition, block, owner);
    }

    /// Store a computed partition under an explicit owner. Callers that
    /// materialize many partitions from one driver-side job use this to
    /// spread ownership across executors, so simulated executor loss
    /// exercises cached-block recovery.
    pub fn put_owned(&self, rdd: RddId, partition: usize, block: Block, owner: usize) {
        let mut st = self.state.lock();
        st.blocks.insert((rdd, partition), (block, owner));
        st.forget(&(rdd, partition));
        st.lost.remove(&(rdd, partition));
    }

    /// Store a computed partition with a known byte size, making it
    /// subject to the cache budget. The just-inserted block is never its
    /// own victim, so a single block larger than the budget still caches
    /// (and evicts everything else sized) rather than thrashing forever.
    pub fn put_sized(&self, rdd: RddId, partition: usize, block: Block, owner: usize, bytes: u64) {
        let mut st = self.state.lock();
        st.blocks.insert((rdd, partition), (block, owner));
        st.lost.remove(&(rdd, partition));
        st.forget(&(rdd, partition));
        st.clock += 1;
        let clock = st.clock;
        st.meta.insert(
            (rdd, partition),
            BlockMeta {
                bytes,
                last_access: clock,
                hits: 0,
            },
        );
        st.used_bytes += bytes;
        st.enforce_budget(Some((rdd, partition)));
    }

    /// Drop a single partition (simulates losing an executor's block).
    pub fn evict(&self, rdd: RddId, partition: usize) -> bool {
        let mut st = self.state.lock();
        let had = st.blocks.remove(&(rdd, partition)).is_some();
        if had {
            st.lost.insert((rdd, partition));
            st.forget(&(rdd, partition));
        }
        had
    }

    /// Drop every block of one RDD.
    pub fn evict_rdd(&self, rdd: RddId) {
        let mut st = self.state.lock();
        let keys: Vec<_> = st
            .blocks
            .keys()
            .filter(|(id, _)| *id == rdd)
            .copied()
            .collect();
        for k in keys {
            st.blocks.remove(&k);
            st.lost.insert(k);
            st.forget(&k);
        }
    }

    /// Release every block of an RDD whose owner is gone: the blocks and
    /// their budget share are freed and nothing is marked lost, because
    /// nobody is left to refill them — this is disposal, not a failure
    /// for recovery accounting to count.
    pub fn release_rdd(&self, rdd: RddId) {
        let mut st = self.state.lock();
        st.blocks.retain(|(id, _), _| *id != rdd);
        st.lost.retain(|(id, _)| *id != rdd);
        let sized: Vec<_> = st
            .meta
            .keys()
            .filter(|(id, _)| *id == rdd)
            .copied()
            .collect();
        for k in sized {
            st.forget(&k);
        }
    }

    /// Drop everything.
    pub fn clear(&self) {
        let mut st = self.state.lock();
        let keys: Vec<_> = st.blocks.keys().copied().collect();
        for k in keys {
            st.blocks.remove(&k);
            st.lost.insert(k);
            st.forget(&k);
        }
    }

    /// Drop every block the given executor produced — the cache half of
    /// losing an executor. Returns how many blocks were dropped.
    pub fn drop_executor(&self, executor: usize) -> usize {
        let mut st = self.state.lock();
        let keys: Vec<_> = st
            .blocks
            .iter()
            .filter(|(_, (_, owner))| *owner == executor)
            .map(|(k, _)| *k)
            .collect();
        for k in &keys {
            st.blocks.remove(k);
            st.lost.insert(*k);
            st.forget(k);
        }
        keys.len()
    }

    /// True (once) if this partition's block was lost after being cached.
    /// Readers call this on a cache miss to tell recovery recomputation
    /// apart from a cold first fill.
    pub fn take_lost(&self, rdd: RddId, partition: usize) -> bool {
        self.state.lock().lost.remove(&(rdd, partition))
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.state.lock().blocks.len()
    }

    /// True if no blocks are cached.
    pub fn is_empty(&self) -> bool {
        self.state.lock().blocks.is_empty()
    }
}

/// An RDD whose partitions are served from the cache when available.
pub struct CachedRdd<T: Data> {
    id: RddId,
    parent: Arc<dyn Rdd<Item = T>>,
    ctx: SparkContext,
}

impl<T: Data> CachedRdd<T> {
    pub(crate) fn new(parent: Arc<dyn Rdd<Item = T>>) -> Self {
        let ctx = parent.context();
        CachedRdd {
            id: ctx.new_rdd_id(),
            parent,
            ctx,
        }
    }

    /// The id under which blocks are stored (for eviction in tests).
    pub fn cache_id(&self) -> RddId {
        self.id
    }
}

impl<T: Data> RddBase for CachedRdd<T> {
    fn id(&self) -> RddId {
        self.id
    }
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn dependencies(&self) -> Vec<Dependency> {
        vec![Dependency::Narrow(crate::shuffle::as_base(
            self.parent.clone(),
        ))]
    }
    fn context(&self) -> SparkContext {
        self.ctx.clone()
    }
    fn name(&self) -> &'static str {
        "cache"
    }
}

impl<T: Data> Rdd for CachedRdd<T> {
    type Item = T;

    fn compute(&self, split: usize, tc: &TaskContext) -> BoxIter<T> {
        let cm = self.ctx.cache_manager();
        if let Some(block) = cm.get(self.id, split) {
            Metrics::add(&self.ctx.metrics().cache_hits, 1);
            let data = block
                .downcast_ref::<Vec<T>>()
                .expect("cache block type")
                .clone();
            return Box::new(data.into_iter());
        }
        Metrics::add(&self.ctx.metrics().cache_misses, 1);
        if cm.take_lost(self.id, split) {
            Metrics::add(&self.ctx.metrics().cache_recomputes, 1);
        }
        let data: Vec<T> = self.parent.compute(split, tc).collect();
        // A failed task's partition is partial: never store it.
        if !crate::task::failed() {
            cm.put(self.id, split, Arc::new(data.clone()));
        }
        Box::new(data.into_iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_executor_removes_only_its_blocks() {
        let cm = CacheManager::default();
        cm.put_owned(1, 0, Arc::new(vec![1i64]), 0);
        cm.put_owned(1, 1, Arc::new(vec![2i64]), 1);
        cm.put_owned(2, 0, Arc::new(vec![3i64]), 0);
        assert_eq!(cm.drop_executor(0), 2);
        assert!(cm.get(1, 0).is_none());
        assert!(cm.get(2, 0).is_none());
        assert!(cm.get(1, 1).is_some());
        // Lost markers fire once per partition.
        assert!(cm.take_lost(1, 0));
        assert!(!cm.take_lost(1, 0));
        assert!(!cm.take_lost(1, 1));
    }

    #[test]
    fn lru_budget_evicts_least_recently_used() {
        let cm = CacheManager::default();
        cm.set_budget(Some(100), EvictionPolicy::Lru);
        cm.put_sized(1, 0, Arc::new(vec![0u8; 40]), 0, 40);
        cm.put_sized(1, 1, Arc::new(vec![0u8; 40]), 0, 40);
        // Touch partition 0 so partition 1 becomes the LRU victim.
        assert!(cm.get(1, 0).is_some());
        cm.put_sized(1, 2, Arc::new(vec![0u8; 40]), 0, 40);
        assert!(cm.get(1, 1).is_none(), "LRU victim evicted");
        assert!(cm.get(1, 0).is_some());
        assert!(cm.get(1, 2).is_some());
        let stats = cm.budget_stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.evicted_bytes, 40);
        assert_eq!(stats.used_bytes, 80);
        // Budget evictions are not failures: no recompute marker.
        assert!(!cm.take_lost(1, 1));
    }

    #[test]
    fn release_frees_blocks_and_budget_without_marking_them_lost() {
        let cm = CacheManager::default();
        cm.put_sized(1, 0, Arc::new(vec![0u8; 40]), 0, 40);
        cm.put_sized(1, 1, Arc::new(vec![0u8; 40]), 1, 40);
        cm.put_sized(2, 0, Arc::new(vec![0u8; 10]), 0, 10);
        // A block already lost to a failure is forgotten with the rest.
        assert!(cm.evict(1, 1));
        cm.release_rdd(1);
        assert_eq!(cm.len(), 1);
        assert_eq!(cm.budget_stats().used_bytes, 10);
        assert_eq!(cm.budget_stats().resident_blocks, 1);
        assert!(!cm.take_lost(1, 0) && !cm.take_lost(1, 1));
        assert!(cm.get(2, 0).is_some());
    }

    #[test]
    fn peek_leaves_eviction_order_alone() {
        for policy in [EvictionPolicy::Lru, EvictionPolicy::CostAware] {
            let cm = CacheManager::default();
            cm.set_budget(Some(100), policy);
            cm.put_sized(1, 0, Arc::new(vec![0u8; 40]), 0, 40);
            cm.put_sized(1, 1, Arc::new(vec![0u8; 40]), 0, 40);
            // However often the older block is peeked, it stays the victim.
            for _ in 0..50 {
                assert!(cm.peek(1, 0).is_some());
            }
            cm.put_sized(1, 2, Arc::new(vec![0u8; 40]), 0, 40);
            assert!(cm.peek(1, 0).is_none(), "{policy:?}: peeks kept it alive");
            // One real read of the now-oldest block is enough to save it.
            assert!(cm.get(1, 1).is_some());
            cm.put_sized(1, 3, Arc::new(vec![0u8; 40]), 0, 40);
            assert!(cm.peek(1, 1).is_some(), "{policy:?}: a get is a use");
            assert!(cm.peek(1, 2).is_none());
        }
    }

    #[test]
    fn cost_aware_keeps_hot_dense_blocks() {
        let cm = CacheManager::default();
        cm.set_budget(Some(100), EvictionPolicy::CostAware);
        // Big cold block vs small hot block.
        cm.put_sized(1, 0, Arc::new(vec![0u8; 60]), 0, 60);
        cm.put_sized(1, 1, Arc::new(vec![0u8; 20]), 0, 20);
        for _ in 0..5 {
            assert!(cm.get(1, 1).is_some());
        }
        // Recency now favors partition 1 *and* so does density; but also
        // touch partition 0 last so pure LRU would evict partition 1.
        assert!(cm.get(1, 0).is_some());
        cm.put_sized(1, 2, Arc::new(vec![0u8; 60]), 0, 60);
        assert!(cm.get(1, 0).is_none(), "cold low-density block evicted");
        assert!(cm.get(1, 1).is_some(), "hot dense block survives");
    }

    #[test]
    fn oversized_block_still_caches_without_thrashing() {
        let cm = CacheManager::default();
        cm.set_budget(Some(10), EvictionPolicy::Lru);
        cm.put_sized(3, 0, Arc::new(vec![0u8; 64]), 0, 64);
        assert!(cm.get(3, 0).is_some(), "own insert is never its own victim");
        // The next sized insert evicts it.
        cm.put_sized(3, 1, Arc::new(vec![0u8; 8]), 0, 8);
        assert!(cm.get(3, 0).is_none());
        assert!(cm.get(3, 1).is_some());
    }

    #[test]
    fn shrinking_budget_evicts_immediately() {
        let cm = CacheManager::default();
        cm.put_sized(5, 0, Arc::new(vec![0u8; 32]), 0, 32);
        cm.put_sized(5, 1, Arc::new(vec![0u8; 32]), 0, 32);
        assert_eq!(cm.budget_stats().used_bytes, 64);
        cm.set_budget(Some(40), EvictionPolicy::Lru);
        let stats = cm.budget_stats();
        assert!(stats.used_bytes <= 40);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn unsized_blocks_are_exempt_from_budget() {
        let cm = CacheManager::default();
        cm.set_budget(Some(10), EvictionPolicy::Lru);
        cm.put_owned(9, 0, Arc::new(vec![0u8; 1000]), 0);
        cm.put_sized(9, 1, Arc::new(vec![0u8; 8]), 0, 8);
        assert!(cm.get(9, 0).is_some(), "unsized block never evicted");
        assert_eq!(cm.budget_stats().used_bytes, 8);
    }

    #[test]
    fn refill_clears_lost_marker() {
        let cm = CacheManager::default();
        cm.put_owned(7, 0, Arc::new(vec![1i64]), 0);
        assert!(cm.evict(7, 0));
        cm.put_owned(7, 0, Arc::new(vec![1i64]), 1);
        assert!(!cm.take_lost(7, 0), "refilled block is no longer lost");
    }
}
