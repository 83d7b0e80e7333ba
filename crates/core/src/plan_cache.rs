//! Plan a statement once: the per-session plan cache behind
//! [`crate::SQLContext::sql`] and the plan memo every
//! [`crate::DataFrame`] carries.
//!
//! A cache entry is keyed by the exact statement text and holds the
//! analyzed plan, a memo slot for its optimized + physical plans, and what
//! those were made against: the identity of every catalog entry analysis
//! resolved and a stamp of the session configuration version and the
//! extension-registry generation. A lookup re-validates those in a few hash
//! lookups; an entry that fails is dropped on the spot — so it cannot pin
//! a relation that left the catalog — and the statement is planned again
//! by the one planning path there is. Nothing is ever told to invalidate.
//!
//! Only `SELECT` statements are cached. What belongs to one execution —
//! metrics, the query id, lowering, shuffle ids, the rule-health report —
//! is not in the entry.

use catalyst::analysis::catalog::entries_unchanged;
use catalyst::analysis::Catalog;
use catalyst::physical::PhysicalPlan;
use catalyst::plan::LogicalPlan;
use catalyst::source::BaseRelation;
use catalyst::tree::TreeNode;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Statements a session keeps plans for; the least recently used entry
/// makes room for a new one. A constant, not a configuration key: an
/// entry is a few KB and an interactive session or a service connection
/// re-sends tens of distinct texts, not thousands.
pub const PLAN_CACHE_CAPACITY: usize = 256;

/// What planning reads besides the analyzed plan: the version of the
/// session's configuration (bumped by every `SET` / `set_conf`) and the
/// generation of the extension registries (bumped by UDF, UDT, strategy
/// and optimizer-batch registration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlanStamp {
    pub conf_version: u64,
    pub generation: u64,
}

/// Every relation `analyzed` scans with its statistics epoch as of now:
/// what the optimizer and planner are about to read sizes, row counts and
/// column statistics from.
pub(crate) fn statistics_epochs(analyzed: &LogicalPlan) -> Vec<(Arc<dyn BaseRelation>, u64)> {
    let mut out = Vec::new();
    analyzed.for_each(&mut |p| {
        if let LogicalPlan::Scan { relation, .. } = p {
            out.push((relation.clone(), relation.statistics_epoch()));
        }
    });
    out
}

/// The optimized and physical plans of one analyzed plan, and what they
/// were made under.
pub(crate) struct Planned {
    pub optimized: LogicalPlan,
    pub physical: PhysicalPlan,
    pub stamp: PlanStamp,
    /// From [`statistics_epochs`], read before planning.
    pub statistics: Vec<(Arc<dyn BaseRelation>, u64)>,
}

impl Planned {
    pub fn is_current(&self, stamp: PlanStamp) -> bool {
        self.stamp == stamp
            && self
                .statistics
                .iter()
                .all(|(relation, epoch)| relation.statistics_epoch() == *epoch)
    }
}

/// Where a DataFrame keeps its [`Planned`] once something has asked for
/// it. Clones of the DataFrame, and the cache entry it came from, share
/// the slot; whoever plans first fills it for the rest.
#[derive(Clone, Default)]
pub(crate) struct PlanMemo(Arc<Mutex<Option<Arc<Planned>>>>);

impl PlanMemo {
    /// The memoised plans, if they were made under `stamp` and from the
    /// statistics their relations still report.
    pub fn get(&self, stamp: PlanStamp) -> Option<Arc<Planned>> {
        self.0.lock().clone().filter(|p| p.is_current(stamp))
    }

    pub fn set(&self, planned: Arc<Planned>) {
        *self.0.lock() = Some(planned);
    }
}

/// Counters of one session's plan cache (see
/// [`crate::SQLContext::plan_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// `sql()` calls answered from a validated entry.
    pub hits: u64,
    /// `SELECT` statements that had to be parsed and analyzed.
    pub misses: u64,
    /// Entries dropped because a table, the configuration or an extension
    /// registry changed under them.
    pub invalidations: u64,
    /// Entries resident now.
    pub entries: usize,
}

struct Entry {
    analyzed: LogicalPlan,
    /// `(table name, catalog entry id)` for every relation analysis
    /// resolved.
    tables: Vec<(String, u64)>,
    stamp: PlanStamp,
    memo: PlanMemo,
    last_used: u64,
}

#[derive(Default)]
pub(crate) struct PlanCache {
    entries: HashMap<String, Entry>,
    clock: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl PlanCache {
    /// The analyzed plan and memo kept for `text`, if the session still
    /// looks the way it did when they were made.
    pub fn get(
        &mut self,
        text: &str,
        stamp: PlanStamp,
        catalog: &dyn Catalog,
    ) -> Option<(LogicalPlan, PlanMemo)> {
        let entry = self.entries.get_mut(text)?;
        if entry.stamp != stamp || !entries_unchanged(catalog, &entry.tables) {
            self.entries.remove(text);
            self.invalidations += 1;
            return None;
        }
        self.clock += 1;
        entry.last_used = self.clock;
        self.hits += 1;
        Some((entry.analyzed.clone(), entry.memo.clone()))
    }

    /// Keep a freshly analyzed statement, evicting the least recently
    /// used entry when full.
    pub fn insert(
        &mut self,
        text: &str,
        analyzed: LogicalPlan,
        tables: Vec<(String, u64)>,
        stamp: PlanStamp,
        memo: PlanMemo,
    ) {
        self.misses += 1;
        if self.entries.len() >= PLAN_CACHE_CAPACITY && !self.entries.contains_key(text) {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            if let Some(k) = oldest {
                self.entries.remove(&k);
            }
        }
        self.clock += 1;
        self.entries.insert(
            text.to_string(),
            Entry {
                analyzed,
                tables,
                stamp,
                memo,
                last_used: self.clock,
            },
        );
    }

    /// Drop every entry over a table for which `live(name, entry id)` is
    /// false. The session calls this when it changes its own catalog, so
    /// a relation it just let go of is not kept alive by statements
    /// nobody sends again.
    pub fn drop_stale(&mut self, live: impl Fn(&str, u64) -> bool) {
        let before = self.entries.len();
        self.entries
            .retain(|_, e| e.tables.iter().all(|(name, id)| live(name, *id)));
        self.invalidations += (before - self.entries.len()) as u64;
    }

    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits,
            misses: self.misses,
            invalidations: self.invalidations,
            entries: self.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalyst::analysis::SimpleCatalog;

    fn table() -> LogicalPlan {
        LogicalPlan::LocalRelation {
            output: vec![],
            rows: Arc::new(vec![]),
        }
    }

    const STAMP: PlanStamp = PlanStamp {
        conf_version: 0,
        generation: 0,
    };

    fn insert(cache: &mut PlanCache, catalog: &SimpleCatalog, text: &str, table_name: &str) {
        let id = catalog.lookup_entry(table_name).expect("registered").id;
        cache.insert(
            text,
            table(),
            vec![(table_name.to_string(), id)],
            STAMP,
            PlanMemo::default(),
        );
    }

    #[test]
    fn a_changed_table_or_stamp_drops_the_entry_at_lookup() {
        let catalog = SimpleCatalog::default();
        catalog.register("t", table());
        let mut cache = PlanCache::default();
        insert(&mut cache, &catalog, "q", "t");
        assert!(cache.get("q", STAMP, &catalog).is_some());
        assert!(cache.get("other", STAMP, &catalog).is_none());

        let newer = PlanStamp {
            conf_version: 1,
            ..STAMP
        };
        assert!(cache.get("q", newer, &catalog).is_none());
        assert_eq!(cache.stats().entries, 0, "dropped, not kept for later");

        insert(&mut cache, &catalog, "q", "t");
        catalog.register("t", table());
        assert!(cache.get("q", STAMP, &catalog).is_none());
        assert_eq!(
            cache.stats(),
            PlanCacheStats {
                hits: 1,
                misses: 2,
                invalidations: 2,
                entries: 0
            }
        );
    }

    #[test]
    fn capacity_evicts_the_least_recently_used() {
        let catalog = SimpleCatalog::default();
        catalog.register("t", table());
        let mut cache = PlanCache::default();
        for i in 0..PLAN_CACHE_CAPACITY {
            insert(&mut cache, &catalog, &format!("q{i}"), "t");
        }
        // q0 is the oldest until it is used again; then q1 is.
        assert!(cache.get("q0", STAMP, &catalog).is_some());
        insert(&mut cache, &catalog, "one more", "t");
        assert_eq!(cache.stats().entries, PLAN_CACHE_CAPACITY);
        assert!(cache.get("q1", STAMP, &catalog).is_none());
        assert!(cache.get("q0", STAMP, &catalog).is_some());
        assert_eq!(cache.stats().invalidations, 0, "eviction is not staleness");
    }

    #[test]
    fn drop_stale_keeps_what_still_resolves() {
        let catalog = SimpleCatalog::default();
        catalog.register("t", table());
        catalog.register("u", table());
        let mut cache = PlanCache::default();
        insert(&mut cache, &catalog, "over t", "t");
        insert(&mut cache, &catalog, "over u", "u");
        catalog.unregister("u");
        cache.drop_stale(|name, id| catalog.lookup_entry(name).is_some_and(|e| e.id == id));
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.get("over t", STAMP, &catalog).is_some());
    }
}
