//! The data source API (§4.4.1): Catalyst's first public extension point.
//!
//! A source implements [`BaseRelation`] and declares, via
//! [`ScanCapability`], how much of the query it can absorb:
//!
//! * `TableScan` — returns all rows of the table;
//! * `PrunedScan` — takes the column indices to read;
//! * `PrunedFilteredScan` — additionally takes an array of advisory
//!   [`Filter`]s (a deliberately small subset of expression syntax:
//!   comparisons against constants and IN, each on one attribute);
//! * `CatalystScan` — receives complete Catalyst expression trees.
//!
//! Filters are *advisory*: a source may return false positives for
//! filters it cannot evaluate; the engine re-applies the predicate above
//! the scan unless the source reports the filter as exactly handled.

use crate::error::Result;
use crate::expr::Expr;
use crate::row::Row;
use crate::schema::SchemaRef;
use crate::value::Value;
use std::any::Any;
use std::sync::{Arc, OnceLock};

/// Boxed row iterator produced by one scan partition.
pub type RowIter = Box<dyn Iterator<Item = Row> + Send>;

/// Boxed batch iterator produced by one vectorized scan partition.
pub type BatchIter = Box<dyn Iterator<Item = crate::vectorized::RowBatch> + Send>;

/// How sophisticated a relation's scan interface is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanCapability {
    /// Full scans only.
    TableScan,
    /// Column pruning.
    PrunedScan,
    /// Column pruning + advisory filter pushdown.
    PrunedFilteredScan,
    /// Receives raw Catalyst predicate expressions.
    CatalystScan,
}

/// The advisory filter language pushed into sources (§4.4.1 footnote 7:
/// "equality, comparisons against a constant, and IN clauses, each on one
/// attribute").
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// `column = value`.
    Eq(String, Value),
    /// `column > value`.
    Gt(String, Value),
    /// `column >= value`.
    GtEq(String, Value),
    /// `column < value`.
    Lt(String, Value),
    /// `column <= value`.
    LtEq(String, Value),
    /// `column IN (values…)`.
    In(String, Vec<Value>),
    /// `column IS NOT NULL`.
    IsNotNull(String),
    /// `column IS NULL`.
    IsNull(String),
    /// `column LIKE 'prefix%'` → prefix match.
    StringStartsWith(String, String),
    /// `column LIKE '%infix%'` → containment.
    StringContains(String, String),
}

impl Filter {
    /// The single attribute this filter constrains.
    pub fn column(&self) -> &str {
        match self {
            Filter::Eq(c, _)
            | Filter::Gt(c, _)
            | Filter::GtEq(c, _)
            | Filter::Lt(c, _)
            | Filter::LtEq(c, _)
            | Filter::In(c, _)
            | Filter::IsNotNull(c)
            | Filter::IsNull(c)
            | Filter::StringStartsWith(c, _)
            | Filter::StringContains(c, _) => c,
        }
    }

    /// Evaluate against a value of the filtered column.
    pub fn matches(&self, v: &Value) -> bool {
        use crate::expr::BinaryOperator::*;
        let holds = |op, w: &Value| {
            let test = crate::scalar::comparison(op);
            test.is_some_and(|test| v.sql_cmp(w).is_some_and(test))
        };
        match self {
            Filter::Eq(_, w) => holds(Eq, w),
            Filter::Gt(_, w) => holds(Gt, w),
            Filter::GtEq(_, w) => holds(GtEq, w),
            Filter::Lt(_, w) => holds(Lt, w),
            Filter::LtEq(_, w) => holds(LtEq, w),
            Filter::In(_, list) => list.iter().any(|w| holds(Eq, w)),
            Filter::IsNotNull(_) => !v.is_null(),
            Filter::IsNull(_) => v.is_null(),
            Filter::StringStartsWith(_, p) => v.as_str().is_some_and(|s| s.starts_with(p)),
            Filter::StringContains(_, p) => v.as_str().is_some_and(|s| s.contains(p)),
        }
    }
}

/// Relation-level statistics for one column, aggregated over every
/// partition/row group of a source. Feeds the constraint analysis
/// ([`crate::analysis::constraints`]): a zero null count proves
/// non-nullability, min/max bound the column's domain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnStatistics {
    /// Minimum non-null value across the relation, if known.
    pub min: Option<Value>,
    /// Maximum non-null value across the relation, if known.
    pub max: Option<Value>,
    /// Exact number of NULLs across the relation, if known.
    pub null_count: Option<u64>,
    /// Exact number of rows across the relation, if known.
    pub row_count: Option<u64>,
    /// Estimated number of distinct non-null values (NDV), if known —
    /// from a [`crate::ndv::NdvSketch`] merged across row groups /
    /// cache partitions, or an exact count for small in-memory tables.
    pub ndv: Option<u64>,
    /// True when these statistics cover only *part* of the relation
    /// (e.g. the resident partitions of a partially evicted cache).
    /// Partial stats are lower bounds: `row_count`, `null_count`, and
    /// `ndv` undercount, and min/max do not bound unseen rows — so they
    /// must never be used as relation-wide proofs (constraint domains,
    /// stats-answered aggregates), only as cost-estimation floors.
    pub partial: bool,
}

/// One column's statistics, folded one value at a time: min and max by
/// [`Value::total_cmp`], null and row counts, and a distinct-count sketch
/// of the non-null values. This is the only such fold: the columnar
/// encoder, in-memory tables and `LocalRelation` estimates feed it, and
/// per-block folds [`merge`](Self::merge) into relation-level ones.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColumnStats {
    /// Minimum non-null value.
    pub min: Option<Value>,
    /// Maximum non-null value.
    pub max: Option<Value>,
    /// Number of nulls.
    pub null_count: u64,
    /// Number of values folded.
    pub row_count: u64,
    /// Distinct-count sketch over the non-null values.
    pub ndv: crate::ndv::NdvSketch,
}

impl ColumnStats {
    /// Fold one value in.
    pub fn update(&mut self, v: &Value) {
        self.row_count += 1;
        if v.is_null() {
            self.null_count += 1;
            return;
        }
        self.ndv.insert(v);
        self.widen(Some(v), Some(v));
    }

    /// Fold another fold of the same column in.
    pub fn merge(&mut self, other: &ColumnStats) {
        self.null_count += other.null_count;
        self.row_count += other.row_count;
        self.ndv.merge(&other.ndv);
        self.widen(other.min.as_ref(), other.max.as_ref());
    }

    /// Lower min to `lo` and raise max to `hi`; a tie keeps the value
    /// seen first.
    fn widen(&mut self, lo: Option<&Value>, hi: Option<&Value>) {
        use std::cmp::Ordering::{Greater, Less};
        if let Some(lo) = lo.filter(|v| self.min.as_ref().is_none_or(|m| v.total_cmp(m) == Less)) {
            self.min = Some(lo.clone());
        }
        if let Some(hi) = hi.filter(|v| self.max.as_ref().is_none_or(|m| v.total_cmp(m) == Greater))
        {
            self.max = Some(hi.clone());
        }
    }

    /// The fold as exact relation-level statistics.
    pub fn into_statistics(self) -> ColumnStatistics {
        ColumnStatistics {
            ndv: Some(self.ndv.estimate()),
            min: self.min,
            max: self.max,
            null_count: Some(self.null_count),
            row_count: Some(self.row_count),
            partial: false,
        }
    }
}

/// A table exposed to the optimizer by a data source.
pub trait BaseRelation: Send + Sync {
    /// Human-readable name (file path, table name…).
    fn name(&self) -> String;

    /// The relation's schema.
    fn schema(&self) -> SchemaRef;

    /// Estimated size in bytes, if known — feeds the cost-based join
    /// selection (§4.3.3 footnote 5).
    fn size_in_bytes(&self) -> Option<u64> {
        None
    }

    /// Estimated row count, if known.
    fn row_count(&self) -> Option<u64> {
        None
    }

    /// Scan interface tier.
    fn capability(&self) -> ScanCapability {
        ScanCapability::TableScan
    }

    /// Number of scan partitions this relation naturally splits into.
    fn num_partitions(&self) -> usize {
        1
    }

    /// Scan one partition.
    ///
    /// `projection` (indices into [`BaseRelation::schema`]) is honored by
    /// `PrunedScan`+ sources; `filters` by `PrunedFilteredScan`+ sources,
    /// advisorily. Lower-tier sources may ignore both — the execution
    /// layer compensates.
    fn scan_partition(
        &self,
        partition: usize,
        projection: Option<&[usize]>,
        filters: &[Filter],
    ) -> Result<RowIter>;

    /// `CatalystScan` tier: scan with full predicate expressions. Default
    /// delegates to [`BaseRelation::scan_partition`] without filters.
    fn catalyst_scan_partition(
        &self,
        partition: usize,
        projection: Option<&[usize]>,
        _predicates: &[Expr],
    ) -> Result<RowIter> {
        self.scan_partition(partition, projection, &[])
    }

    /// Vectorized scan: yield [`crate::vectorized::RowBatch`]es directly
    /// (columns restricted to `projection`, advisory `filters` applied as
    /// a selection vector), skipping the row materialization round-trip.
    ///
    /// `Ok(None)` — the default — means the source has no native batch
    /// path; the executor then chunks [`BaseRelation::scan_partition`]
    /// rows into batches itself. Sources that return `Some` must apply
    /// `projection` and `filters` with the same semantics as their row
    /// scan.
    fn scan_partition_vectors(
        &self,
        _partition: usize,
        _projection: Option<&[usize]>,
        _filters: &[Filter],
    ) -> Result<Option<BatchIter>> {
        Ok(None)
    }

    /// Which of `filters` this source evaluates *exactly* (no false
    /// positives), so the engine can skip re-evaluation. Default: none —
    /// filters are advisory.
    fn handled_filters(&self, filters: &[Filter]) -> Vec<bool> {
        vec![false; filters.len()]
    }

    /// Write support: append rows. Default: unsupported.
    fn insert(&self, _rows: Vec<Row>) -> Result<()> {
        Err(crate::error::CatalystError::DataSource(format!(
            "relation '{}' is read-only",
            self.name()
        )))
    }

    /// Per-column statistics in [`BaseRelation::schema`] field order, if
    /// the source tracks them (colfile row-group stats, columnar-cache
    /// batch stats). `None` — the default — means unknown; consumers must
    /// fall back to declared nullability and unbounded domains.
    fn column_statistics(&self) -> Option<Vec<ColumnStatistics>> {
        None
    }

    /// A number that moves whenever [`BaseRelation::size_in_bytes`],
    /// [`BaseRelation::row_count`] or [`BaseRelation::column_statistics`]
    /// may answer differently than before. A plan kept for reuse
    /// remembers it for every relation it scans and is made again once it
    /// moved, so a statement first planned while a cache was cold gets
    /// its statistics-driven plan after the fill. Sources whose answers
    /// never change keep the default.
    fn statistics_epoch(&self) -> u64 {
        0
    }

    /// Downcasting hook for engine-specific integrations.
    fn as_any(&self) -> &dyn Any;
}

/// A relation backed by host-program data the optimizer can't interpret
/// (e.g. an RDD of rows created from native objects, §3.5). The execution
/// layer downcasts `as_any` to recover its handle.
pub trait ExternalData: Send + Sync {
    /// Display name.
    fn name(&self) -> String;
    /// The schema inferred for the native objects.
    fn schema(&self) -> SchemaRef;
    /// Estimated size in bytes, if known.
    fn size_in_bytes(&self) -> Option<u64> {
        None
    }
    /// Downcasting hook.
    fn as_any(&self) -> &dyn Any;
}

/// An in-memory relation materialized from literal rows.
pub struct MemoryTable {
    name: String,
    schema: SchemaRef,
    partitions: Vec<Arc<Vec<Row>>>,
    /// Computed on first request: the rows never change.
    statistics: OnceLock<Option<Vec<ColumnStatistics>>>,
}

impl MemoryTable {
    /// Build from rows, split into `num_partitions` chunks.
    pub fn new(
        name: impl Into<String>,
        schema: SchemaRef,
        rows: Vec<Row>,
        num_partitions: usize,
    ) -> Self {
        let num_partitions = num_partitions.max(1);
        let total = rows.len();
        let base = total / num_partitions;
        let extra = total % num_partitions;
        let mut it = rows.into_iter();
        let mut partitions = Vec::with_capacity(num_partitions);
        for i in 0..num_partitions {
            let len = base + usize::from(i < extra);
            partitions.push(Arc::new(it.by_ref().take(len).collect::<Vec<Row>>()));
        }
        MemoryTable {
            name: name.into(),
            schema,
            partitions,
            statistics: OnceLock::new(),
        }
    }

    /// Total row count.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(|p| p.len()).sum()
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl BaseRelation for MemoryTable {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn size_in_bytes(&self) -> Option<u64> {
        Some(self.len() as u64 * self.schema.approx_row_bytes())
    }

    fn row_count(&self) -> Option<u64> {
        Some(self.len() as u64)
    }

    fn capability(&self) -> ScanCapability {
        ScanCapability::TableScan
    }

    fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    fn scan_partition(
        &self,
        partition: usize,
        _projection: Option<&[usize]>,
        _filters: &[Filter],
    ) -> Result<RowIter> {
        let rows = self.partitions[partition].clone();
        Ok(Box::new((0..rows.len()).map(move |i| rows[i].clone())))
    }

    fn column_statistics(&self) -> Option<Vec<ColumnStatistics>> {
        self.statistics
            .get_or_init(|| self.compute_statistics())
            .clone()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl MemoryTable {
    fn compute_statistics(&self) -> Option<Vec<ColumnStatistics>> {
        // Exact single-pass stats; skipped for very large tables to keep
        // planning cheap.
        const STATS_CAP: usize = 65_536;
        let total = self.len() as u64;
        if total as usize > STATS_CAP {
            return None;
        }
        let mut folds = vec![ColumnStats::default(); self.schema.len()];
        for row in self.partitions.iter().flat_map(|p| p.iter()) {
            for (i, fold) in folds.iter_mut().enumerate() {
                fold.update(row.get(i));
            }
        }
        Some(
            folds
                .into_iter()
                .map(ColumnStats::into_statistics)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::types::{DataType, StructField};

    #[test]
    fn filter_matching() {
        assert!(Filter::Eq("x".into(), Value::Int(5)).matches(&Value::Int(5)));
        assert!(Filter::Gt("x".into(), Value::Int(5)).matches(&Value::Int(6)));
        assert!(!Filter::Gt("x".into(), Value::Int(5)).matches(&Value::Null));
        assert!(Filter::In("x".into(), vec![Value::Int(1), Value::Int(2)]).matches(&Value::Int(2)));
        assert!(Filter::StringStartsWith("s".into(), "he".into()).matches(&Value::str("hello")));
        assert!(Filter::IsNull("s".into()).matches(&Value::Null));
    }

    #[test]
    fn memory_table_partitions_and_scans() {
        let schema = Arc::new(Schema::new(vec![StructField::new(
            "x",
            DataType::Int,
            false,
        )]));
        let rows: Vec<Row> = (0..10).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let t = MemoryTable::new("t", schema, rows, 3);
        assert_eq!(t.num_partitions(), 3);
        let mut all = Vec::new();
        for p in 0..3 {
            all.extend(t.scan_partition(p, None, &[]).unwrap());
        }
        assert_eq!(all.len(), 10);
        assert_eq!(t.row_count(), Some(10));
        assert!(t.size_in_bytes().unwrap() > 0);
    }
}
