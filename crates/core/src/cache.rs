//! In-memory caching of DataFrames (§3.6).
//!
//! `cache()` materializes a DataFrame's partitions into compressed
//! columnar batches (dictionary/RLE, see the `columnar` crate) on first
//! use. The cached relation is itself a `PrunedFilteredScan`-tier data
//! source: later queries prune columns (undecoded) and skip whole batches
//! via min/max statistics. Both of its scans are one batch scan
//! (`ColumnarBatch::scan_to_row_batch`); the row scan compacts those
//! batches into rows. With `columnar_cache_enabled = false` the rows
//! are kept as plain objects — the "Spark native cache" baseline the
//! paper compares against.
//!
//! Cached blocks live in the engine's [`engine::cache::CacheManager`],
//! one block per source partition, with ownership spread across executor
//! threads. That makes `CACHE TABLE` data subject to the same fault model
//! as RDD caching: when `SparkContext::lose_executor` (or the chaos
//! injector) drops an executor's blocks, the next scan re-runs the
//! materializer from lineage and refills only the missing partitions,
//! counting each refill in the engine's `cache_recomputes` metric.

use catalyst::error::{CatalystError, Result};
use catalyst::row::Row;
use catalyst::schema::SchemaRef;
use catalyst::source::{BaseRelation, BatchIter, Filter, RowIter, ScanCapability};
use catalyst::vectorized::RowBatch;
use columnar::stats::{merge_batch_stats, to_relation_statistics};
use columnar::{batch_rows, ColumnStats, ColumnarBatch};
use engine::metrics::Metrics;
use engine::rdd::RddId;
use engine::SparkContext;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One cached partition: its data plus everything planning asks about
/// it, computed once when the block is filled. Because the summary lives
/// *in* the block, eviction or executor loss takes it away with the data
/// and a refill brings it back — there is nothing to invalidate.
struct CachedPartition {
    data: PartitionData,
    /// Footprint in bytes (compressed for columnar blocks).
    bytes: u64,
    rows: u64,
}

/// Materialized form of one cached partition.
enum PartitionData {
    Columnar {
        batches: Arc<Vec<ColumnarBatch>>,
        /// Each column's statistics merged over `batches`.
        stats: Vec<ColumnStats>,
    },
    Rows(Arc<Vec<Row>>),
}

/// Materializer: produces all source partitions. Re-runnable — recovery
/// calls it again when cached blocks are lost to an executor failure.
pub type Materializer = Box<dyn Fn() -> Result<Vec<Vec<Row>>> + Send + Sync>;

/// A cached (materialized-on-first-use) relation.
pub struct CachedRelation {
    name: String,
    schema: SchemaRef,
    sc: SparkContext,
    /// Block-store key: blocks live at `(cache_id, partition)` in the
    /// engine cache manager.
    cache_id: RddId,
    materializer: Materializer,
    ever_filled: AtomicBool,
    columnar: bool,
    batch_size: usize,
    num_partitions: usize,
}

impl CachedRelation {
    /// Create a lazily materialized cache over `num_partitions` source
    /// partitions, storing blocks in `sc`'s cache manager.
    pub fn new(
        name: impl Into<String>,
        schema: SchemaRef,
        num_partitions: usize,
        columnar: bool,
        batch_size: usize,
        sc: SparkContext,
        materializer: Materializer,
    ) -> Self {
        let cache_id = sc.new_rdd_id();
        CachedRelation {
            name: name.into(),
            schema,
            sc,
            cache_id,
            materializer,
            ever_filled: AtomicBool::new(false),
            columnar,
            batch_size,
            num_partitions: num_partitions.max(1),
        }
    }

    /// The engine cache-manager id this relation's blocks are stored
    /// under (for targeted eviction in tests).
    pub fn cache_id(&self) -> RddId {
        self.cache_id
    }

    /// How many of this relation's partitions are currently resident in
    /// the block store.
    pub fn resident_partitions(&self) -> usize {
        (0..self.num_partitions)
            .filter(|&p| self.peek(p).is_some())
            .count()
    }

    fn encode(&self, rows: Vec<Row>) -> CachedPartition {
        let num_rows = rows.len() as u64;
        if self.columnar {
            let batches = batch_rows(self.schema.clone(), rows, self.batch_size);
            CachedPartition {
                bytes: batches.iter().map(ColumnarBatch::bytes).sum(),
                rows: num_rows,
                data: PartitionData::Columnar {
                    stats: merge_batch_stats(&batches, self.schema.len()),
                    batches: Arc::new(batches),
                },
            }
        } else {
            CachedPartition {
                bytes: rows.iter().map(Row::approx_bytes).sum(),
                rows: num_rows,
                data: PartitionData::Rows(Arc::new(rows)),
            }
        }
    }

    /// A resident block, read without counting as a use of it: planning
    /// must not reorder eviction.
    fn peek(&self, partition: usize) -> Option<Arc<CachedPartition>> {
        let block = self.sc.cache_manager().peek(self.cache_id, partition)?;
        block.downcast::<CachedPartition>().ok()
    }

    /// Ensure every partition is resident, re-running the materializer
    /// for whatever is missing (everything on first use; only the lost
    /// blocks' data is re-stored after a failure).
    ///
    /// Deliberately lock-free across the materializer call: scans run
    /// inside scheduler tasks, and the materializer runs a nested engine
    /// job, so a reader that blocked on a fill lock here could be the
    /// very thread (via work stealing) the fill needs to make progress —
    /// a deadlock. Concurrent first-touch scans may instead each run the
    /// materializer; puts are idempotent and `take_lost` fires once per
    /// lost partition, so results and recovery accounting stay exact.
    fn ensure(&self) -> Result<()> {
        let cm = self.sc.cache_manager();
        let missing: Vec<usize> = (0..self.num_partitions)
            .filter(|&p| cm.peek(self.cache_id, p).is_none())
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        let mut parts = (self.materializer)()?;
        parts.resize_with(self.num_partitions.max(parts.len()), Vec::new);
        // Spread ownership across executor slots so simulated executor
        // loss drops a subset of this relation's blocks, not all or none.
        let slots = self.sc.conf().executor_threads.max(1);
        for p in missing {
            if cm.take_lost(self.cache_id, p) {
                Metrics::add(&self.sc.metrics().cache_recomputes, 1);
            }
            let block = self.encode(std::mem::take(&mut parts[p]));
            // Sized puts participate in the cache budget: under
            // `spark.sql.cache.budgetBytes` the store may evict other
            // blocks (policy-chosen) to admit this one.
            let bytes = block.bytes;
            cm.put_sized(self.cache_id, p, Arc::new(block), p % slots, bytes);
        }
        self.ever_filled.store(true, Ordering::SeqCst);
        Ok(())
    }

    /// Fetch one partition's block for a scan, materializing if it is
    /// missing. Counts in the engine's `cache_hits` when the block was
    /// resident and in `cache_misses` when it had to be filled.
    fn partition(&self, partition: usize) -> Result<Option<Arc<CachedPartition>>> {
        if partition >= self.num_partitions {
            return Ok(None);
        }
        let cm = self.sc.cache_manager();
        let block = match cm.get(self.cache_id, partition) {
            Some(b) => {
                Metrics::add(&self.sc.metrics().cache_hits, 1);
                b
            }
            None => {
                Metrics::add(&self.sc.metrics().cache_misses, 1);
                self.ensure()?;
                match cm.get(self.cache_id, partition) {
                    Some(b) => b,
                    // Under a bounded budget the block `ensure` just
                    // stored can already be gone again: it alone may
                    // exceed the budget, or concurrent fills from other
                    // sessions churned it out. The cache is a
                    // performance layer, never a correctness dependency
                    // — serve this scan from a direct recompute.
                    None => {
                        let mut parts = (self.materializer)()?;
                        let rows = if partition < parts.len() {
                            std::mem::take(&mut parts[partition])
                        } else {
                            Vec::new()
                        };
                        return Ok(Some(Arc::new(self.encode(rows))));
                    }
                }
            }
        };
        block
            .downcast::<CachedPartition>()
            .map(Some)
            .map_err(|_| CatalystError::Internal("cache block type mismatch".into()))
    }

    /// True once the data has been materialized at least once (lost
    /// blocks are refilled transparently on the next scan).
    pub fn is_materialized(&self) -> bool {
        self.ever_filled.load(Ordering::SeqCst)
    }

    /// `(bytes, rows)` summed over resident blocks — `None` unless every
    /// partition is resident. Planning-time sizing must never run the
    /// materializer (a nested engine job), so after an eviction or an
    /// executor loss the relation simply reports unknown until the next
    /// scan refills it.
    fn resident_footprint(&self) -> Option<(u64, u64)> {
        let mut bytes = 0u64;
        let mut rows = 0u64;
        for p in 0..self.num_partitions {
            let part = self.peek(p)?;
            bytes += part.bytes;
            rows += part.rows;
        }
        Some((bytes, rows))
    }

    /// `(bytes, rows)` over every partition, materializing what is missing.
    fn filled_footprint(&self) -> Result<(u64, u64)> {
        let mut total = (0u64, 0u64);
        for p in 0..self.num_partitions {
            let part = self.partition(p)?.expect("in range");
            total.0 += part.bytes;
            total.1 += part.rows;
        }
        Ok(total)
    }

    /// Total cached footprint in bytes (materializes if needed).
    pub fn cached_bytes(&self) -> Result<u64> {
        self.filled_footprint().map(|(bytes, _)| bytes)
    }

    /// Total row count (materializes if needed).
    pub fn cached_rows(&self) -> Result<u64> {
        self.filled_footprint().map(|(_, rows)| rows)
    }
}

/// The relation owns its blocks: once no catalog entry, plan or RDD holds
/// it, nothing can read them again, so they leave the block store with it
/// (`UNCACHE TABLE`, a re-registered name, a closed service session).
impl Drop for CachedRelation {
    fn drop(&mut self) {
        self.sc.cache_manager().release_rdd(self.cache_id);
    }
}

impl BaseRelation for CachedRelation {
    fn name(&self) -> String {
        format!("InMemoryCache:{}", self.name)
    }

    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn size_in_bytes(&self) -> Option<u64> {
        // Known once cached (footnote 5: cached tables have size
        // estimates, enabling broadcast joins) — but only from resident
        // blocks: sizing runs at planning time and must not trigger a
        // fill or a lost-block recompute.
        self.resident_footprint().map(|(bytes, _)| bytes)
    }

    fn row_count(&self) -> Option<u64> {
        self.resident_footprint().map(|(_, rows)| rows)
    }

    fn capability(&self) -> ScanCapability {
        if self.columnar {
            ScanCapability::PrunedFilteredScan
        } else {
            ScanCapability::TableScan
        }
    }

    fn column_statistics(&self) -> Option<Vec<catalyst::source::ColumnStatistics>> {
        // Statistics come from whatever partitions are *resident*. This
        // runs at planning time, so it must not trigger materialization:
        // a missing partition (evicted, lost with its executor, never
        // filled) is simply not counted — but its absence makes the
        // result PARTIAL, and partial stats are lower bounds only (no
        // always-empty proofs, no stats-answered aggregates, no min/max
        // domains). Execution refills missing partitions with recovery
        // accounting as usual.
        if !self.columnar {
            return None;
        }
        let mut merged = vec![ColumnStats::default(); self.schema.len()];
        let mut missing = 0usize;
        for p in 0..self.num_partitions {
            let Some(part) = self.peek(p) else {
                missing += 1;
                continue;
            };
            let PartitionData::Columnar { stats, .. } = &part.data else {
                return None;
            };
            for (m, s) in merged.iter_mut().zip(stats) {
                m.merge(s);
            }
        }
        if missing == self.num_partitions {
            return None;
        }
        let mut stats = to_relation_statistics(merged);
        if missing > 0 {
            for s in &mut stats {
                s.partial = true;
            }
        }
        Some(stats)
    }

    fn statistics_epoch(&self) -> u64 {
        // The data never changes, so the three statistics answers depend
        // only on which partitions are resident — and which of "none",
        // "some" and "all" it is decides every rewrite they feed.
        self.resident_partitions() as u64
    }

    fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    fn scan_partition(
        &self,
        partition: usize,
        projection: Option<&[usize]>,
        filters: &[Filter],
    ) -> Result<RowIter> {
        let Some(part) = self.partition(partition)? else {
            return Ok(Box::new(std::iter::empty()));
        };
        match &part.data {
            PartitionData::Rows(rows) => {
                let rows = rows.clone();
                Ok(Box::new((0..rows.len()).map(move |i| rows[i].clone())))
            }
            PartitionData::Columnar { batches, .. } => {
                let batches = scan_batches(batches.clone(), projection, filters);
                Ok(Box::new(batches.flat_map(RowBatch::into_selected_rows)))
            }
        }
    }

    fn scan_partition_vectors(
        &self,
        partition: usize,
        projection: Option<&[usize]>,
        filters: &[Filter],
    ) -> Result<Option<BatchIter>> {
        let Some(part) = self.partition(partition)? else {
            return Ok(None);
        };
        let PartitionData::Columnar { batches, .. } = &part.data else {
            // Row-cached partitions use the generic row→batch adapter in
            // the executor.
            return Ok(None);
        };
        Ok(Some(scan_batches(batches.clone(), projection, filters)))
    }

    fn handled_filters(&self, filters: &[Filter]) -> Vec<bool> {
        if !self.columnar {
            return vec![false; filters.len()];
        }
        filters
            .iter()
            .map(|f| self.schema.index_of(f.column()).is_ok())
            .collect()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Stream cached batches out as a vectorized scan: statistics skip whole
/// batches, then each survivor decodes only the columns the projection
/// and the filters touch, with the filters as its selection vector.
fn scan_batches(
    batches: Arc<Vec<ColumnarBatch>>,
    projection: Option<&[usize]>,
    filters: &[Filter],
) -> BatchIter {
    let projection: Option<Vec<usize>> = projection.map(<[usize]>::to_vec);
    let filters = filters.to_vec();
    Box::new((0..batches.len()).filter_map(move |i| {
        let b = &batches[i];
        b.may_match(&filters)
            .then(|| b.scan_to_row_batch(projection.as_deref(), &filters))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalyst::schema::Schema;
    use catalyst::types::{DataType, StructField};
    use catalyst::value::Value;
    use std::sync::atomic::AtomicUsize;

    fn schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            StructField::new("id", DataType::Long, false),
            StructField::new("cat", DataType::String, false),
        ]))
    }

    fn make(columnar: bool) -> CachedRelation {
        CachedRelation::new(
            "t",
            schema(),
            2,
            columnar,
            16,
            SparkContext::new(2),
            Box::new(|| {
                Ok((0..2)
                    .map(|p| {
                        (0..100)
                            .map(|i| {
                                Row::new(vec![
                                    Value::Long(p * 100 + i),
                                    Value::str(format!("c{}", i % 3)),
                                ])
                            })
                            .collect()
                    })
                    .collect())
            }),
        )
    }

    #[test]
    fn lazy_materialization_and_scan() {
        let rel = make(true);
        assert!(!rel.is_materialized());
        assert!(rel.size_in_bytes().is_none());
        let rows: Vec<Row> = rel.scan_partition(0, None, &[]).unwrap().collect();
        assert_eq!(rows.len(), 100);
        assert!(rel.is_materialized());
        assert!(rel.size_in_bytes().unwrap() > 0);
        assert_eq!(rel.cached_rows().unwrap(), 200);
    }

    #[test]
    fn filters_and_projection_on_cached_batches() {
        let rel = make(true);
        let filters = [Filter::Gt("id".into(), Value::Long(150))];
        let p0: Vec<Row> = rel
            .scan_partition(0, Some(&[0]), &filters)
            .unwrap()
            .collect();
        assert!(p0.is_empty(), "partition 0 has ids 0..100");
        let p1: Vec<Row> = rel
            .scan_partition(1, Some(&[0]), &filters)
            .unwrap()
            .collect();
        assert_eq!(p1.len(), 49);
        assert_eq!(p1[0].len(), 1);
    }

    #[test]
    fn columnar_cache_is_smaller_than_object_cache() {
        let col = make(true);
        let obj = make(false);
        assert!(col.cached_bytes().unwrap() < obj.cached_bytes().unwrap());
        // Row cache is TableScan tier: no pushdown claims.
        assert_eq!(obj.capability(), ScanCapability::TableScan);
        assert_eq!(
            obj.handled_filters(&[Filter::IsNull("id".into())]),
            vec![false]
        );
    }

    #[test]
    fn lost_blocks_refill_from_the_materializer() {
        let sc = SparkContext::new(2);
        sc.set_chaos(None);
        let runs = Arc::new(AtomicUsize::new(0));
        let runs2 = runs.clone();
        let rel = CachedRelation::new(
            "t",
            schema(),
            2,
            true,
            16,
            sc.clone(),
            Box::new(move || {
                runs2.fetch_add(1, Ordering::SeqCst);
                Ok((0..2)
                    .map(|p| {
                        (0..10)
                            .map(|i| Row::new(vec![Value::Long(p * 10 + i), Value::str("c")]))
                            .collect()
                    })
                    .collect())
            }),
        );
        assert_eq!(rel.cached_rows().unwrap(), 20);
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(rel.resident_partitions(), 2);
        // Repeated scans are served from the block store.
        let _: Vec<Row> = rel.scan_partition(0, None, &[]).unwrap().collect();
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        // Drop one block (partition 0 is owned by executor slot 0): the
        // next scan re-runs the materializer and refills only the loss.
        let before = Metrics::get(&sc.metrics().cache_recomputes);
        sc.lose_executor(0);
        assert_eq!(rel.resident_partitions(), 1);
        let rows: Vec<Row> = rel.scan_partition(0, None, &[]).unwrap().collect();
        assert_eq!(rows.len(), 10);
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        assert_eq!(rel.resident_partitions(), 2);
        assert_eq!(Metrics::get(&sc.metrics().cache_recomputes), before + 1);
        assert!(rel.is_materialized());
    }

    #[test]
    fn partial_eviction_marks_statistics_partial() {
        let sc = SparkContext::new(2);
        sc.set_chaos(None);
        let rel = CachedRelation::new(
            "t",
            schema(),
            2,
            true,
            16,
            sc.clone(),
            Box::new(|| {
                Ok((0..2i64)
                    .map(|p| {
                        (0..100)
                            .map(|i| Row::new(vec![Value::Long(p * 100 + i), Value::str("c")]))
                            .collect()
                    })
                    .collect())
            }),
        );
        // Planning before first materialization sees no statistics —
        // column_statistics must not trigger a fill.
        assert!(rel.column_statistics().is_none());
        assert!(!rel.is_materialized());

        rel.cached_rows().unwrap();
        let full = rel.column_statistics().expect("resident stats");
        assert!(full.iter().all(|s| !s.partial));
        assert_eq!(full[0].min, Some(Value::Long(0)));
        assert_eq!(full[0].max, Some(Value::Long(199)));

        // Drop partition 1 (owned by executor slot 1): the surviving
        // partition's max is 99, far below the true 199. If these stats
        // were not flagged partial, a `WHERE id > 150` could be "proven"
        // always-empty and MAX(id) "answered" as 99.
        sc.lose_executor(1);
        assert_eq!(rel.resident_partitions(), 1);
        let partial = rel.column_statistics().expect("partial stats");
        assert!(partial.iter().all(|s| s.partial));
        assert_eq!(partial[0].max, Some(Value::Long(99)));

        // Fully evicted: no stats at all rather than empty-set stats,
        // which would "prove" every aggregate is NULL and every scan
        // empty.
        sc.lose_executor(0);
        assert_eq!(rel.resident_partitions(), 0);
        assert!(rel.column_statistics().is_none());

        // The data itself is never lost: the next scan refills.
        assert_eq!(rel.cached_rows().unwrap(), 200);
        assert!(rel
            .column_statistics()
            .is_some_and(|s| s.iter().all(|c| !c.partial)));
    }

    fn long_rows(p: i64, n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| {
                let id = if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Long(p * n + i)
                };
                Row::new(vec![id, Value::str(format!("c{}", i % 5))])
            })
            .collect()
    }

    #[test]
    fn block_statistics_equal_statistics_over_all_batches() {
        let sc = SparkContext::new(2);
        sc.set_chaos(None);
        let nullable = Arc::new(Schema::new(vec![
            StructField::new("id", DataType::Long, true),
            StructField::new("cat", DataType::String, false),
        ]));
        // Partition 2 is empty: its block holds no batch at all.
        let parts = || vec![long_rows(0, 1000), long_rows(1, 333), Vec::new()];
        let rel = CachedRelation::new(
            "t",
            nullable.clone(),
            3,
            true,
            64,
            sc.clone(),
            Box::new(move || Ok(parts())),
        );
        rel.cached_rows().unwrap();
        // The oracle: walk every batch of the relation in partition order.
        let expected = {
            let batches: Vec<ColumnarBatch> = parts()
                .into_iter()
                .flat_map(|rows| batch_rows(nullable.clone(), rows, 64))
                .collect();
            columnar::stats::relation_statistics(&batches, nullable.len())
        };
        assert!(expected[0].ndv.unwrap() > 256, "sketch must be past exact");
        assert_eq!(rel.column_statistics(), Some(expected.clone()));
        assert_eq!(rel.row_count(), Some(1333));
        assert_eq!(rel.size_in_bytes(), Some(rel.cached_bytes().unwrap()));

        // Losing a block loses its share of the statistics; the refill
        // brings exactly that share back.
        sc.lose_executor(1);
        let partial = rel.column_statistics().expect("two partitions left");
        assert!(partial.iter().all(|s| s.partial));
        assert_eq!(partial[0].row_count, Some(1000));
        assert_eq!(rel.row_count(), None);
        let _: Vec<Row> = rel.scan_partition(1, None, &[]).unwrap().collect();
        assert_eq!(rel.column_statistics(), Some(expected));
    }

    #[test]
    fn planning_reads_leave_eviction_order_alone() {
        use engine::cache::EvictionPolicy;
        // `scanned` is read by a scan before the planning reads; the other
        // block is then the least recently *used* however often planned.
        for scanned in [None, Some(0usize)] {
            let sc = SparkContext::new(2);
            sc.set_chaos(None);
            let rel = CachedRelation::new(
                "t",
                schema(),
                2,
                true,
                64,
                sc.clone(),
                Box::new(|| Ok(vec![long_rows(0, 500), long_rows(1, 500)])),
            );
            let cm = sc.cache_manager();
            // Fills and then reads partition 0 before partition 1.
            let bytes = rel.cached_bytes().unwrap();
            cm.set_budget(Some(bytes), EvictionPolicy::Lru);
            if let Some(p) = scanned {
                let _: Vec<Row> = rel.scan_partition(p, None, &[]).unwrap().collect();
            }
            for _ in 0..25 {
                assert!(rel.column_statistics().is_some());
                assert_eq!(rel.size_in_bytes(), Some(bytes));
                assert_eq!(rel.row_count(), Some(1000));
                assert_eq!(rel.resident_partitions(), 2);
            }
            // One more byte than fits: the least recently used block goes.
            cm.put_sized(sc.new_rdd_id(), 0, Arc::new(0u8), 0, 1);
            let victim = if scanned == Some(0) { 1 } else { 0 };
            assert!(rel.peek(victim).is_none(), "scanned {scanned:?}");
            assert!(rel.peek(1 - victim).is_some(), "scanned {scanned:?}");
        }
    }
}
