//! Row ↔ bytes and column-vector ↔ bytes codec for operator spill
//! files, built on the colfile column format ([`crate::serde`]).
//!
//! A spilled buffer is a sequence of *blocks*; each block is a batch of
//! rows encoded column-wise with [`EncodedColumn`] — the same dictionary
//! / RLE / bit-packing machinery the columnar cache uses, so spilled
//! data compresses instead of serializing boxed values one by one.
//!
//! The one extra requirement spill files have over cache batches is
//! **exact** round-trips: differential tests compare spilled runs
//! byte-for-byte against in-memory runs, and execution rows sometimes
//! hold values whose variant is narrower than the declared column type
//! (`Value::Int` in a `Long` column), which the typed encodings would
//! silently widen on decode. [`SpillCodec`] therefore checks each block's
//! column for exact variant agreement with the declared type and falls
//! back to the boxed [`ColumnData::Values`] payload (which round-trips
//! any value losslessly) when they disagree.
//!
//! Blocks of execution column vectors ([`SpillCodec::encode_vectors`])
//! skip the per-value step: typed lanes are already exact, so each lane
//! vector is copied into a plain typed part
//! ([`EncodedColumn::from_vector`]) and decoded straight back into lanes;
//! only boxed lanes take the check above.

use crate::column::{ColumnData, EncodedColumn};
use crate::serde;
use crate::stats::ColumnStats;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use catalyst::error::Result;
use catalyst::row::Row;
use catalyst::types::DataType;
use catalyst::value::Value;
use catalyst::vectorized::ColumnVector;
use std::sync::Arc;

/// Encodes and decodes blocks of rows with a fixed column layout.
#[derive(Clone, Debug)]
pub struct SpillCodec {
    dtypes: Vec<DataType>,
}

/// Does this value decode back to exactly itself under `dtype`'s typed
/// encoding? (Nulls always do, via the null bitmap.)
fn variant_matches(dtype: &DataType, v: &Value) -> bool {
    match (dtype, v) {
        (_, Value::Null) => true,
        (DataType::Int, Value::Int(_)) => true,
        (DataType::Date, Value::Date(_)) => true,
        (DataType::Long, Value::Long(_)) => true,
        (DataType::Timestamp, Value::Timestamp(_)) => true,
        (DataType::Float, Value::Float(_)) => true,
        (DataType::Double, Value::Double(_)) => true,
        (DataType::String, Value::Str(_)) => true,
        (DataType::Boolean, Value::Boolean(_)) => true,
        (DataType::Struct(fields), Value::Struct(items)) => {
            fields.len() == items.len()
                && fields
                    .iter()
                    .zip(items.iter())
                    .all(|(f, item)| variant_matches(&f.dtype, item))
        }
        // Every other dtype already encodes as boxed `Values`.
        (
            DataType::Null
            | DataType::Decimal(_, _)
            | DataType::Binary
            | DataType::Array(_)
            | DataType::Map(_, _),
            _,
        ) => true,
        _ => false,
    }
}

/// Encode one column losslessly: typed when every value agrees with the
/// declared type, boxed otherwise.
pub(crate) fn encode_exact(dtype: &DataType, values: &[Value]) -> EncodedColumn {
    if values.iter().all(|v| variant_matches(dtype, v)) {
        EncodedColumn::encode(dtype, values)
    } else {
        let stats = ColumnStats {
            row_count: values.len() as u64,
            ..ColumnStats::default()
        };
        EncodedColumn::from_parts(
            dtype.clone(),
            None,
            stats,
            ColumnData::Values(values.to_vec()),
            values.len(),
        )
    }
}

impl SpillCodec {
    /// A codec for rows whose columns have the given types. Rows narrower
    /// or wider than the layout are a caller bug and will corrupt blocks.
    pub fn new(dtypes: Vec<DataType>) -> SpillCodec {
        SpillCodec { dtypes }
    }

    /// Column count of the layout.
    pub fn width(&self) -> usize {
        self.dtypes.len()
    }

    /// Encode one block of rows.
    pub fn encode_block(&self, rows: &[Row]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_u32(rows.len() as u32);
        buf.put_u32(self.dtypes.len() as u32);
        let mut values = Vec::with_capacity(rows.len());
        for (i, dt) in self.dtypes.iter().enumerate() {
            values.clear();
            values.extend(rows.iter().map(|r| r.get(i).clone()));
            serde::put_column(&mut buf, &encode_exact(dt, &values));
        }
        buf.freeze().as_slice().to_vec()
    }

    /// Encode one block of column vectors, `rows` lanes each, lane for
    /// lane ([`EncodedColumn::from_vector`]): no [`Value`] per typed lane.
    pub fn encode_vectors(&self, columns: &[Arc<ColumnVector>], rows: usize) -> Vec<u8> {
        debug_assert_eq!(columns.len(), self.dtypes.len(), "block width");
        let mut buf = BytesMut::new();
        buf.put_u32(rows as u32);
        buf.put_u32(columns.len() as u32);
        for c in columns {
            debug_assert_eq!(c.len(), rows, "column length");
            serde::put_column(&mut buf, &EncodedColumn::from_vector(c));
        }
        buf.freeze().as_slice().to_vec()
    }

    /// Decode one [`encode_vectors`](Self::encode_vectors) block back into
    /// its row count and columns. A block that is truncated, or whose
    /// width, column types or lengths disagree with the layout, is an
    /// error.
    pub fn decode_vectors(&self, block: &[u8]) -> Result<(usize, Vec<ColumnVector>)> {
        let mut buf = Bytes::from(block);
        let (nrows, ncols) = self.header(&mut buf)?;
        let mut columns = Vec::with_capacity(ncols);
        for dtype in &self.dtypes {
            let col = serde::get_column(&mut buf)?;
            if col.len() != nrows || &col.dtype != dtype {
                return Err(serde::corrupt(format!(
                    "spill block column of {} {:?} rows, layout expects {nrows} {dtype:?}",
                    col.len(),
                    col.dtype
                )));
            }
            columns.push(col.decode_vector());
        }
        Ok((nrows, columns))
    }

    /// A block's row and column counts, checked against the layout.
    fn header(&self, buf: &mut Bytes) -> Result<(usize, usize)> {
        let nrows = serde::checked(buf, 4)?.get_u32() as usize;
        let ncols = serde::checked(buf, 4)?.get_u32() as usize;
        if ncols != self.dtypes.len() {
            return Err(serde::corrupt(format!(
                "spill block has {ncols} columns, layout expects {}",
                self.dtypes.len()
            )));
        }
        Ok((nrows, ncols))
    }

    /// Decode one block back into rows.
    pub fn decode_block(&self, block: &[u8]) -> Result<Vec<Row>> {
        let mut buf = Bytes::from(block);
        let (nrows, ncols) = self.header(&mut buf)?;
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let col = serde::get_column(&mut buf)?;
            if col.len() != nrows {
                return Err(serde::corrupt("spill block column length mismatch"));
            }
            columns.push(col.decode_all());
        }
        Ok((0..nrows)
            .map(|r| Row::new(columns.iter().map(|c| c[r].clone()).collect()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn codec() -> SpillCodec {
        SpillCodec::new(vec![
            DataType::Long,
            DataType::String,
            DataType::Double,
            DataType::Array(Box::new(DataType::Long)),
        ])
    }

    #[test]
    fn block_roundtrip_exact() {
        let rows = vec![
            Row::new(vec![
                Value::Long(1),
                Value::str("a"),
                Value::Double(0.5),
                Value::Array(Arc::new(vec![Value::Long(9)])),
            ]),
            Row::new(vec![Value::Null, Value::Null, Value::Null, Value::Null]),
            Row::new(vec![
                Value::Long(-3),
                Value::str(""),
                Value::Double(f64::NEG_INFINITY),
                Value::Array(Arc::new(vec![])),
            ]),
        ];
        let c = codec();
        let block = c.encode_block(&rows);
        assert_eq!(c.decode_block(&block).unwrap(), rows);
    }

    #[test]
    fn mismatched_variants_roundtrip_via_boxed_fallback() {
        // An Int value in a Long column would widen under the typed
        // encoding; the codec must bring it back exactly.
        let c = SpillCodec::new(vec![DataType::Long, DataType::String]);
        let rows = vec![
            Row::new(vec![Value::Int(7), Value::str("x")]),
            Row::new(vec![Value::Long(8), Value::Boolean(true)]),
        ];
        let block = c.encode_block(&rows);
        assert_eq!(c.decode_block(&block).unwrap(), rows);
    }

    #[test]
    fn empty_block_roundtrip() {
        let c = codec();
        let block = c.encode_block(&[]);
        assert_eq!(c.decode_block(&block).unwrap(), Vec::<Row>::new());
    }

    /// A random vector of `kind` (0..=9): every `VectorData` storage,
    /// `Long` lanes declared Int/Long/Date/Timestamp, `Double` lanes
    /// declared Float/Double, and boxed lanes that conform to their type
    /// and that do not.
    fn arb_vector(rng: &mut StdRng, kind: usize, n: usize) -> ColumnVector {
        use catalyst::vectorized::VectorData;
        let mut longs = || (0..n).map(|_| rng.random_range(-1000i64..1000)).collect();
        let (dtype, data) = match kind {
            0..=3 => {
                let dtype = [
                    DataType::Int,
                    DataType::Long,
                    DataType::Date,
                    DataType::Timestamp,
                ];
                (dtype[kind].clone(), VectorData::Long(longs()))
            }
            4 | 5 => {
                let dtype = [DataType::Float, DataType::Double][kind - 4].clone();
                let special = [0.1, -0.0, f64::INFINITY, 1e300, 2.5];
                let lanes = (0..n).map(|i| special[i % special.len()] * (i as f64 + 1.0));
                (dtype, VectorData::Double(lanes.collect()))
            }
            6 => (
                DataType::Boolean,
                VectorData::Bool((0..n).map(|i| i % 3 == 0).collect()),
            ),
            7 => {
                let lanes = (0..n).map(|i| Arc::from(["", "a", "человек", "zz"][i % 4]));
                (DataType::String, VectorData::Str(lanes.collect()))
            }
            8 => {
                let lanes = (0..n).map(|i| Value::Decimal(i as i128 * 7, 10, 2));
                (
                    DataType::Decimal(10, 2),
                    VectorData::Values(lanes.collect()),
                )
            }
            _ => {
                // Int and string values in a Long column: no typed lane
                // holds them exactly.
                let lanes = (0..n).map(|i| match i % 3 {
                    0 => Value::Int(i as i32),
                    1 => Value::Long(i as i64),
                    _ => Value::str("x"),
                });
                (DataType::Long, VectorData::Values(lanes.collect()))
            }
        };
        let nulls = rng
            .random_bool(0.5)
            .then(|| (0..n).map(|_| rng.random_bool(0.3)).collect());
        ColumnVector::new(dtype, data, nulls)
    }

    /// Typed vectors come back identical, filler lanes under NULLs and
    /// the presence of a mask included; boxed ones value for value, each
    /// value with its own tag.
    fn assert_lanes_identical(got: &ColumnVector, want: &ColumnVector, what: &str) {
        use catalyst::vectorized::VectorData;
        assert_eq!(got.dtype(), want.dtype(), "{what}");
        if matches!(want.data(), VectorData::Values(_)) {
            let lanes = |c: &ColumnVector| -> Vec<String> {
                (0..c.len()).map(|i| format!("{:?}", c.get(i))).collect()
            };
            assert_eq!(lanes(got), lanes(want), "{what}");
        } else {
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
        }
    }

    #[test]
    fn vectors_round_trip_lane_for_lane() {
        let mut rng = StdRng::seed_from_u64(0xC0DEC);
        for case in 0..240 {
            let (kind, n) = (case % 10, [0usize, 1, 5, 64, 65, 300][case / 10 % 6]);
            let v = arb_vector(&mut rng, kind, n);
            let what = format!("case {case}: {:?} {:?}", v.dtype(), v.nulls().is_some());
            let mut buf = BytesMut::new();
            serde::put_column(&mut buf, &EncodedColumn::from_vector(&v));
            let back = serde::get_column(&mut buf.freeze())
                .unwrap()
                .decode_vector();
            assert_lanes_identical(&back, &v, &what);
        }
        // A block of every kind at once, and an empty one.
        for n in [0usize, 33] {
            let cols: Vec<Arc<ColumnVector>> = (0..10)
                .map(|kind| Arc::new(arb_vector(&mut rng, kind, n)))
                .collect();
            let codec = SpillCodec::new(cols.iter().map(|c| c.dtype().clone()).collect());
            let (rows, back) = codec
                .decode_vectors(&codec.encode_vectors(&cols, n))
                .unwrap();
            assert_eq!(rows, n);
            for (got, want) in back.iter().zip(&cols) {
                assert_lanes_identical(got, want, &format!("block of {n}"));
            }
        }
    }

    #[test]
    fn corrupt_vector_blocks_are_errors() {
        let mut rng = StdRng::seed_from_u64(0xBAD);
        let cols: Vec<Arc<ColumnVector>> = [1, 4, 6, 7, 9]
            .iter()
            .map(|&k| Arc::new(arb_vector(&mut rng, k, 40)))
            .collect();
        let codec = SpillCodec::new(cols.iter().map(|c| c.dtype().clone()).collect());
        let block = codec.encode_vectors(&cols, 40);
        assert!(codec.decode_vectors(&block).is_ok());
        for cut in 0..block.len() {
            assert!(codec.decode_vectors(&block[..cut]).is_err(), "cut at {cut}");
        }
        let mut flipped = block.clone();
        flipped[7] ^= 1; // the column count
        assert!(codec.decode_vectors(&flipped).is_err());
        // Any single corrupt byte is an error or a block of the layout,
        // never a panic.
        for at in 0..block.len() {
            for bits in [0x01u8, 0x80, 0xff] {
                let mut bad = block.clone();
                bad[at] ^= bits;
                if let Ok((rows, back)) = codec.decode_vectors(&bad) {
                    assert!(back.iter().all(|c| c.len() == rows), "byte {at}");
                }
            }
        }
    }

    #[test]
    fn wrong_width_errors() {
        let narrow = SpillCodec::new(vec![DataType::Long]);
        let block = narrow.encode_block(&[Row::new(vec![Value::Long(1)])]);
        assert!(codec().decode_block(&block).is_err());
    }
}
