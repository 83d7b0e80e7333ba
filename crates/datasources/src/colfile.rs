//! "ColFile": a self-describing columnar file format — the reproduction's
//! stand-in for Parquet (§4.4.1: "a columnar file format for which we
//! support column pruning as well as filters").
//!
//! Layout: magic, schema, then row groups; each row group stores one
//! encoded column chunk per field (dictionary/RLE/bit-packed, with null
//! bitmap and min/max statistics), written from lanes by
//! [`ColumnarBatch::from_rows`]. Scans skip entire row groups whose
//! statistics cannot match the pushed filters, then decode only the
//! needed chunks into lanes with the filters as a selection vector
//! ([`ColumnarBatch::scan_to_row_batch`]); the row scan is that batch
//! scan compacted into rows.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use catalyst::error::{CatalystError, Result};
use catalyst::row::Row;
use catalyst::schema::{Schema, SchemaRef};
use catalyst::source::{BaseRelation, BatchIter, Filter, RowIter, ScanCapability};
use catalyst::types::DataType;
use catalyst::vectorized::RowBatch;
use columnar::serde::{checked, get_column, get_dtype, put_column, put_dtype};
use columnar::ColumnarBatch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

const MAGIC: &[u8; 4] = b"RCF1";

// Value/type/column serialization lives in `columnar::serde` (shared
// with operator spill files); this module supplies the file framing.

fn corrupt(msg: impl Into<String>) -> CatalystError {
    CatalystError::DataSource(format!("corrupt colfile: {}", msg.into()))
}

// ---- file-level API ----

/// Serialize rows into colfile bytes with `rows_per_group` per row group.
pub fn write_colfile(schema: &SchemaRef, rows: &[Row], rows_per_group: usize) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    // Schema.
    put_dtype(&mut buf, &schema.as_struct_type());
    let groups: Vec<&[Row]> = rows.chunks(rows_per_group.max(1)).collect();
    buf.put_u32(groups.len() as u32);
    for g in groups {
        let batch = ColumnarBatch::from_rows(schema.clone(), g.to_vec());
        buf.put_u64(g.len() as u64);
        for c in batch.columns() {
            put_column(&mut buf, c);
        }
    }
    buf.freeze()
}

/// Parsed colfile: schema + row groups of encoded columns.
pub struct ColFile {
    /// Schema.
    pub schema: SchemaRef,
    /// Row groups.
    pub groups: Vec<ColumnarBatch>,
}

/// Deserialize a colfile.
pub fn read_colfile(mut data: Bytes) -> Result<ColFile> {
    let mut magic = [0u8; 4];
    checked(&mut data, 4)?.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let schema = match get_dtype(&mut data)? {
        DataType::Struct(fields) => Arc::new(Schema::new(fields.as_ref().clone())),
        _ => return Err(corrupt("schema is not a struct")),
    };
    let ngroups = checked(&mut data, 4)?.get_u32() as usize;
    let mut groups = Vec::with_capacity(ngroups);
    for _ in 0..ngroups {
        let nrows = checked(&mut data, 8)?.get_u64() as usize;
        let mut columns = Vec::with_capacity(schema.len());
        for _ in 0..schema.len() {
            columns.push(get_column(&mut data)?);
        }
        groups.push(ColumnarBatch::from_columns(schema.clone(), columns, nrows));
    }
    Ok(ColFile { schema, groups })
}

/// A relation over a colfile (in memory or loaded from disk), with column
/// pruning and statistics-based row-group skipping.
pub struct ColFileRelation {
    name: String,
    file: ColFile,
    bytes: u64,
    /// Row groups skipped via statistics since creation (observability
    /// for tests and the ablation bench).
    groups_skipped: AtomicU64,
    /// Row groups actually decoded.
    groups_read: AtomicU64,
    /// Row-group footers merged on first request: the file never changes.
    statistics: OnceLock<Vec<catalyst::source::ColumnStatistics>>,
}

impl ColFileRelation {
    /// Wrap parsed bytes.
    pub fn from_bytes(name: impl Into<String>, data: Bytes) -> Result<Self> {
        let bytes = data.len() as u64;
        Ok(ColFileRelation {
            name: name.into(),
            file: read_colfile(data)?,
            bytes,
            groups_skipped: AtomicU64::new(0),
            groups_read: AtomicU64::new(0),
            statistics: OnceLock::new(),
        })
    }

    /// Load from a file path.
    pub fn from_path(path: &str) -> Result<Self> {
        let data = std::fs::read(path)
            .map_err(|e| CatalystError::DataSource(format!("cannot read '{path}': {e}")))?;
        Self::from_bytes(path, Bytes::from(data))
    }

    /// Write rows to a colfile on disk.
    pub fn write_path(
        path: &str,
        schema: &SchemaRef,
        rows: &[Row],
        rows_per_group: usize,
    ) -> Result<()> {
        let data = write_colfile(schema, rows, rows_per_group);
        std::fs::write(path, &data)
            .map_err(|e| CatalystError::DataSource(format!("cannot write '{path}': {e}")))
    }

    /// Row group `partition` as one batch: `None` when there is no such
    /// group or its statistics rule the filters out; otherwise only the
    /// needed columns decoded into lanes, with the filters as the batch's
    /// selection vector.
    fn scan_group(
        &self,
        partition: usize,
        projection: Option<&[usize]>,
        filters: &[Filter],
    ) -> Option<RowBatch> {
        let group = self.file.groups.get(partition)?;
        if !group.may_match(filters) {
            self.groups_skipped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.groups_read.fetch_add(1, Ordering::Relaxed);
        Some(group.scan_to_row_batch(projection, filters))
    }

    /// Row groups skipped by statistics so far.
    pub fn groups_skipped(&self) -> u64 {
        self.groups_skipped.load(Ordering::Relaxed)
    }

    /// Row groups decoded so far.
    pub fn groups_read(&self) -> u64 {
        self.groups_read.load(Ordering::Relaxed)
    }
}

impl BaseRelation for ColFileRelation {
    fn name(&self) -> String {
        format!("colfile:{}", self.name)
    }

    fn schema(&self) -> SchemaRef {
        self.file.schema.clone()
    }

    fn size_in_bytes(&self) -> Option<u64> {
        Some(self.bytes)
    }

    fn row_count(&self) -> Option<u64> {
        Some(self.file.groups.iter().map(|g| g.num_rows() as u64).sum())
    }

    fn column_statistics(&self) -> Option<Vec<catalyst::source::ColumnStatistics>> {
        let stats = self.statistics.get_or_init(|| {
            columnar::stats::relation_statistics(self.file.groups.iter(), self.file.schema.len())
        });
        Some(stats.clone())
    }

    fn capability(&self) -> ScanCapability {
        ScanCapability::PrunedFilteredScan
    }

    fn num_partitions(&self) -> usize {
        self.file.groups.len().max(1)
    }

    fn scan_partition(
        &self,
        partition: usize,
        projection: Option<&[usize]>,
        filters: &[Filter],
    ) -> Result<RowIter> {
        let batch = self.scan_group(partition, projection, filters);
        Ok(Box::new(
            batch.into_iter().flat_map(RowBatch::into_selected_rows),
        ))
    }

    fn scan_partition_vectors(
        &self,
        partition: usize,
        projection: Option<&[usize]>,
        filters: &[Filter],
    ) -> Result<Option<BatchIter>> {
        let batch = self.scan_group(partition, projection, filters);
        Ok(Some(Box::new(batch.into_iter())))
    }

    fn handled_filters(&self, filters: &[Filter]) -> Vec<bool> {
        // Filters on known columns are evaluated exactly.
        filters
            .iter()
            .map(|f| self.file.schema.index_of(f.column()).is_ok())
            .collect()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalyst::types::StructField;
    use catalyst::value::Value;

    fn sample_schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            StructField::new("id", DataType::Long, false),
            StructField::new("cat", DataType::String, false),
            StructField::new("score", DataType::Double, true),
        ]))
    }

    fn sample_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Long(i as i64),
                    Value::str(format!("c{}", i % 3)),
                    if i % 10 == 0 {
                        Value::Null
                    } else {
                        Value::Double(i as f64 / 2.0)
                    },
                ])
            })
            .collect()
    }

    #[test]
    fn roundtrip_preserves_rows() {
        let schema = sample_schema();
        let rows = sample_rows(1000);
        let bytes = write_colfile(&schema, &rows, 128);
        let file = read_colfile(bytes).unwrap();
        assert_eq!(*file.schema, *schema);
        let decoded: Vec<Row> = file.groups.iter().flat_map(|g| g.decode(None)).collect();
        assert_eq!(decoded, rows);
    }

    #[test]
    fn relation_scans_with_projection_and_filters() {
        let schema = sample_schema();
        let rows = sample_rows(1000);
        let rel = ColFileRelation::from_bytes("t", write_colfile(&schema, &rows, 100)).unwrap();
        assert_eq!(rel.num_partitions(), 10);
        let filters = [Filter::Gt("id".into(), Value::Long(950))];
        let mut out = Vec::new();
        for p in 0..rel.num_partitions() {
            out.extend(rel.scan_partition(p, Some(&[0]), &filters).unwrap());
        }
        assert_eq!(out.len(), 49);
        assert_eq!(out[0].len(), 1); // projected
                                     // 9 of 10 groups skipped by min/max stats.
        assert_eq!(rel.groups_skipped(), 9);
        assert_eq!(rel.groups_read(), 1);
    }

    #[test]
    fn filters_are_exact_for_known_columns() {
        let schema = sample_schema();
        let rel =
            ColFileRelation::from_bytes("t", write_colfile(&schema, &sample_rows(10), 10)).unwrap();
        let fs = [
            Filter::Gt("id".into(), Value::Long(1)),
            Filter::Eq("missing".into(), Value::Long(1)),
        ];
        assert_eq!(rel.handled_filters(&fs), vec![true, false]);
    }

    #[test]
    fn corrupt_files_error() {
        assert!(read_colfile(Bytes::from_static(b"NOPE")).is_err());
        assert!(read_colfile(Bytes::from_static(b"RCF1")).is_err());
        let schema = sample_schema();
        let good = write_colfile(&schema, &sample_rows(10), 10);
        let truncated = good.slice(0..good.len() - 5);
        assert!(read_colfile(truncated).is_err());
    }

    #[test]
    fn disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("colfile-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.rcf");
        let schema = sample_schema();
        let rows = sample_rows(100);
        ColFileRelation::write_path(path.to_str().unwrap(), &schema, &rows, 50).unwrap();
        let rel = ColFileRelation::from_path(path.to_str().unwrap()).unwrap();
        assert_eq!(rel.row_count(), Some(100));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
