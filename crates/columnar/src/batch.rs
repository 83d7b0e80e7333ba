//! Columnar batches: a horizontal slice of a cached table or a colfile
//! row group, one encoded column per field, with per-column statistics
//! for batch skipping.
//!
//! A batch is written from lanes and read as lanes: the row entry points
//! ([`ColumnarBatch::from_rows`], [`ColumnarBatch::decode`],
//! [`batch_rows`]) are thin wrappers over [`ColumnVector`]s, and every row
//! scan of a stored batch is its batch scan
//! ([`ColumnarBatch::scan_to_row_batch`]) compacted into rows.

use crate::column::EncodedColumn;
use crate::stats::ColumnStats;
use catalyst::row::Row;
use catalyst::schema::SchemaRef;
use catalyst::source::Filter;
use catalyst::value::Value;
use catalyst::vectorized::{ColumnVector, RowBatch};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default rows per batch for cached relations.
pub const DEFAULT_BATCH_SIZE: usize = 4096;

/// One encoded batch of rows.
#[derive(Debug, Clone)]
pub struct ColumnarBatch {
    schema: SchemaRef,
    columns: Vec<EncodedColumn>,
    num_rows: usize,
}

impl ColumnarBatch {
    /// Encode rows into a batch: each column's values are moved into
    /// lanes ([`ColumnVector::from_values`]) and encoded from them.
    pub fn from_rows(schema: SchemaRef, rows: Vec<Row>) -> Self {
        let num_rows = rows.len();
        let mut cols: Vec<Vec<Value>> = (0..schema.len())
            .map(|_| Vec::with_capacity(num_rows))
            .collect();
        for row in rows {
            let mut vals = row.into_values().into_iter();
            for col in cols.iter_mut() {
                col.push(vals.next().unwrap_or(Value::Null));
            }
        }
        let columns = (schema.fields().iter().zip(cols))
            .map(|(field, vals)| {
                EncodedColumn::encode(&ColumnVector::from_values(&field.dtype, vals))
            })
            .collect();
        ColumnarBatch {
            schema,
            columns,
            num_rows,
        }
    }

    /// Reassemble a batch from already-encoded columns (file format
    /// deserialization). Column order must match the schema.
    pub fn from_columns(schema: SchemaRef, columns: Vec<EncodedColumn>, num_rows: usize) -> Self {
        assert_eq!(schema.len(), columns.len(), "column count mismatch");
        ColumnarBatch {
            schema,
            columns,
            num_rows,
        }
    }

    /// Schema of the batch.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Encoded columns.
    pub fn columns(&self) -> &[EncodedColumn] {
        &self.columns
    }

    /// Decode back to rows, optionally projecting a subset of columns
    /// (column pruning: untouched columns are never decoded).
    pub fn decode(&self, projection: Option<&[usize]>) -> Vec<Row> {
        self.to_row_batch(projection).into_selected_rows()
    }

    /// Could any row satisfy all `filters`? (`false` ⇒ skip the batch.)
    /// Filters reference columns by name against this batch's schema.
    pub fn may_match(&self, filters: &[Filter]) -> bool {
        for f in filters {
            if let Ok(i) = self.schema.index_of(f.column()) {
                if !crate::stats::may_match(&self.columns[i].stats, f) {
                    return false;
                }
            }
        }
        true
    }

    /// Decode into an execution [`RowBatch`] of typed column vectors,
    /// optionally projecting — the batch-path analogue of
    /// [`ColumnarBatch::decode`], with no intermediate [`Row`]s.
    pub fn to_row_batch(&self, projection: Option<&[usize]>) -> RowBatch {
        let indices: Vec<usize> = match projection {
            Some(p) => p.to_vec(),
            None => (0..self.columns.len()).collect(),
        };
        let columns = indices
            .iter()
            .map(|&i| Arc::new(self.columns[i].decode_vector()))
            .collect();
        RowBatch::new(columns, self.num_rows)
    }

    /// Vectorized scan of this batch: decode only the columns named by
    /// `projection` ∪ `filters` (each once), evaluate the advisory
    /// filters into a selection vector, and return the projected columns.
    /// Filters on columns the schema doesn't know are kept conservative
    /// (no selection), like the row-path scan.
    pub fn scan_to_row_batch(&self, projection: Option<&[usize]>, filters: &[Filter]) -> RowBatch {
        let out_indices: Vec<usize> = match projection {
            Some(p) => p.to_vec(),
            None => (0..self.columns.len()).collect(),
        };
        let mut cache: BTreeMap<usize, Arc<ColumnVector>> = BTreeMap::new();
        for &i in &out_indices {
            cache
                .entry(i)
                .or_insert_with(|| Arc::new(self.columns[i].decode_vector()));
        }
        let mut filter_cols: Vec<(usize, &Filter)> = Vec::new();
        for f in filters {
            if let Ok(i) = self.schema.index_of(f.column()) {
                cache
                    .entry(i)
                    .or_insert_with(|| Arc::new(self.columns[i].decode_vector()));
                filter_cols.push((i, f));
            }
        }
        let columns = out_indices.iter().map(|i| cache[i].clone()).collect();
        let batch = RowBatch::new(columns, self.num_rows);
        if filter_cols.is_empty() {
            return batch;
        }
        let selection: Vec<u32> = (0..self.num_rows)
            .filter(|&r| filter_cols.iter().all(|(i, f)| f.matches(&cache[i].get(r))))
            .map(|r| r as u32)
            .collect();
        batch.with_selection(selection)
    }

    /// Re-encode an execution batch (compacting its selection vector) —
    /// the inverse of [`ColumnarBatch::to_row_batch`]. Column order and
    /// types must match `schema`.
    pub fn from_row_batch(schema: SchemaRef, batch: &RowBatch) -> Self {
        assert_eq!(schema.len(), batch.num_columns(), "column count mismatch");
        let columns = (batch.columns().iter())
            .map(|c| match batch.selection() {
                Some(sel) => EncodedColumn::encode(&c.gather(sel)),
                None => EncodedColumn::encode(c),
            })
            .collect();
        ColumnarBatch {
            schema,
            columns,
            num_rows: batch.selected_count(),
        }
    }

    /// Per-column stats.
    pub fn stats(&self, column: usize) -> &ColumnStats {
        &self.columns[column].stats
    }

    /// Compressed footprint in bytes.
    pub fn bytes(&self) -> u64 {
        self.columns.iter().map(EncodedColumn::bytes).sum()
    }
}

/// Split rows into encoded batches of `batch_size`, consuming them.
pub fn batch_rows(schema: SchemaRef, rows: Vec<Row>, batch_size: usize) -> Vec<ColumnarBatch> {
    let batch_size = batch_size.max(1);
    let mut out = Vec::with_capacity(rows.len().div_ceil(batch_size));
    let mut it = rows.into_iter();
    loop {
        let chunk: Vec<Row> = it.by_ref().take(batch_size).collect();
        if chunk.is_empty() {
            break;
        }
        out.push(ColumnarBatch::from_rows(schema.clone(), chunk));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalyst::schema::Schema;
    use catalyst::types::{DataType, StructField};
    use std::sync::Arc;

    fn schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            StructField::new("id", DataType::Long, false),
            StructField::new("cat", DataType::String, false),
        ]))
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Long(i as i64),
                    Value::str(format!("c{}", i % 3)),
                ])
            })
            .collect()
    }

    #[test]
    fn roundtrip_and_projection() {
        let rs = rows(100);
        let b = ColumnarBatch::from_rows(schema(), rs.clone());
        assert_eq!(b.decode(None), rs);
        let projected = b.decode(Some(&[1]));
        assert_eq!(projected[0], Row::new(vec![Value::str("c0")]));
        assert_eq!(projected.len(), 100);
    }

    #[test]
    fn batch_skipping_via_stats() {
        let batches = batch_rows(schema(), rows(100), 10);
        assert_eq!(batches.len(), 10);
        // Batch 0 holds ids 0..10; a filter on id > 50 skips it.
        assert!(!batches[0].may_match(&[Filter::Gt("id".into(), Value::Long(50))]));
        assert!(batches[9].may_match(&[Filter::Gt("id".into(), Value::Long(50))]));
        // Unknown column: conservative true.
        assert!(batches[0].may_match(&[Filter::Gt("nope".into(), Value::Long(50))]));
    }

    #[test]
    fn compressed_batches_are_smaller_than_rows() {
        let rs = rows(4096);
        let b = ColumnarBatch::from_rows(schema(), rs.clone());
        let row_bytes: u64 = rs.iter().map(Row::approx_bytes).sum();
        assert!(
            b.bytes() * 2 < row_bytes,
            "columnar {} vs rows {row_bytes}",
            b.bytes()
        );
    }
}
