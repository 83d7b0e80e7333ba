//! Column-vector ↔ bytes codec for operator spill files, built on the
//! colfile column format ([`crate::serde`]).
//!
//! A spilled buffer is a sequence of *blocks*; each block is a row count,
//! a column count and one column per layout type. Every lane vector is
//! copied into a plain typed part ([`EncodedColumn::from_vector`]) and
//! decoded straight back into lanes ([`EncodedColumn::decode_vector`],
//! the one decoder, which cached and colfile columns also go through):
//! no compression search and no statistics, which no spill reader looks
//! at — those belong to [`EncodedColumn::encode`], which stores cache
//! and colfile columns. Boxed lanes stay boxed.
//!
//! Spill files need **exact** round-trips: differential tests compare
//! spilled runs byte-for-byte against in-memory runs, and execution rows
//! sometimes hold values whose variant is narrower than the declared
//! column type (`Value::Int` in a `Long` column). Typed lanes are exact
//! by construction, and [`ColumnVector::from_values`] boxes any column
//! whose values disagree with its type, so the row adapters
//! ([`SpillCodec::encode_block`], [`SpillCodec::decode_block`]) give back
//! every value with its own variant.

use crate::column::EncodedColumn;
use crate::serde;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use catalyst::error::Result;
use catalyst::row::Row;
use catalyst::types::DataType;
use catalyst::vectorized::{ColumnVector, RowBatch};
use std::sync::Arc;

/// Encodes and decodes blocks of columns with a fixed column layout.
#[derive(Clone, Debug)]
pub struct SpillCodec {
    dtypes: Vec<DataType>,
}

impl SpillCodec {
    /// A codec for blocks whose columns have the given types. Blocks
    /// narrower or wider than the layout are a caller bug and will
    /// corrupt the file.
    pub fn new(dtypes: Vec<DataType>) -> SpillCodec {
        SpillCodec { dtypes }
    }

    /// The layout's column types.
    pub fn dtypes(&self) -> &[DataType] {
        &self.dtypes
    }

    /// Encode one block of rows: the rows as column vectors
    /// ([`RowBatch::from_rows`]), then [`encode_vectors`](Self::encode_vectors).
    pub fn encode_block(&self, rows: &[Row]) -> Vec<u8> {
        let batch = RowBatch::from_rows(&self.dtypes, rows);
        self.encode_vectors(batch.columns(), rows.len())
    }

    /// Encode one block of column vectors, `rows` lanes each, lane for
    /// lane ([`EncodedColumn::from_vector`]).
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
        let nrows = serde::checked(&mut buf, 4)?.get_u32() as usize;
        let ncols = serde::checked(&mut buf, 4)?.get_u32() as usize;
        if ncols != self.dtypes.len() {
            return Err(serde::corrupt(format!(
                "spill block has {ncols} columns, layout expects {}",
                self.dtypes.len()
            )));
        }
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

    /// Decode one block back into rows.
    pub fn decode_block(&self, block: &[u8]) -> Result<Vec<Row>> {
        let (nrows, columns) = self.decode_vectors(block)?;
        Ok((0..nrows)
            .map(|r| Row::new(columns.iter().map(|c| c.get(r)).collect()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalyst::value::Value;
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

    /// Encode and decode `rows`, comparing Debug forms: `==` is
    /// `Value::total_cmp`, which equates `Int(7)` with `Long(7)`.
    fn assert_roundtrip_exact(c: &SpillCodec, rows: &[Row]) {
        let back = c.decode_block(&c.encode_block(rows)).unwrap();
        assert_eq!(format!("{back:?}"), format!("{rows:?}"));
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
        assert_roundtrip_exact(&codec(), &rows);
        let point = DataType::struct_type(vec![
            catalyst::types::StructField::new("x", DataType::Int, true),
            catalyst::types::StructField::new("tag", DataType::String, true),
        ]);
        let c = SpillCodec::new(vec![
            DataType::Date,
            DataType::Timestamp,
            DataType::Float,
            DataType::Boolean,
            point,
        ]);
        let rows: Vec<Row> = (0..5)
            .map(|i| {
                Row::new(vec![
                    Value::Date(18_000 + i),
                    Value::Timestamp(1_600_000_000_000_000 + i as i64),
                    Value::Float(i as f32 + 0.25),
                    Value::Boolean(i % 2 == 0),
                    Value::Struct(Arc::new(vec![Value::Int(i), Value::str(format!("p{i}"))])),
                ])
            })
            .chain([Row::new(vec![Value::Null; 5])])
            .collect();
        assert_roundtrip_exact(&c, &rows);
    }

    #[test]
    fn mismatched_variants_roundtrip_via_boxed_fallback() {
        // An Int in a Long column, a Float in a Double column and a
        // Boolean in a String column would each change variant in a
        // typed lane; the codec must bring them back exactly.
        let c = SpillCodec::new(vec![DataType::Long, DataType::String, DataType::Double]);
        let rows = vec![
            Row::new(vec![Value::Int(7), Value::str("x"), Value::Float(1.5)]),
            Row::new(vec![
                Value::Long(8),
                Value::Boolean(true),
                Value::Double(2.5),
            ]),
            Row::new(vec![Value::Null, Value::Null, Value::Null]),
        ];
        assert_roundtrip_exact(&c, &rows);
    }

    #[test]
    fn empty_block_roundtrip() {
        assert_roundtrip_exact(&codec(), &[]);
    }

    #[test]
    fn blocks_carry_no_statistics() {
        // 256 distinct values per column: a statistics sketch would add
        // a hash per value. A block is its payload plus a fixed header.
        let c = SpillCodec::new(vec![DataType::Double, DataType::String]);
        let rows: Vec<Row> = (0..256)
            .map(|i| {
                Row::new(vec![
                    Value::Double(i as f64 * 1.5),
                    Value::str(format!("s{i}")),
                ])
            })
            .collect();
        let strings: usize = (0..256).map(|i| 4 + format!("s{i}").len()).sum();
        let payload = 256 * 8 + strings;
        // Row and column counts, then per column: type, length, null
        // flag, two NULL bounds, two counts, the sketch's two counts and
        // the payload's tag and length.
        let header = 8 + 2 * (1 + 8 + 1 + 2 + 16 + 8 + 5);
        let block = c.encode_block(&rows);
        assert!(
            block.len() <= payload + header,
            "{} bytes for a {payload}-byte payload",
            block.len()
        );
        assert_roundtrip_exact(&c, &rows);
    }

    /// A random vector of `kind` (0..=9): every `VectorData` storage,
    /// `Long` lanes declared Int/Long/Date/Timestamp, `Double` lanes
    /// declared Float/Double, and boxed lanes that conform to their type
    /// and that do not.
    fn arb_vector(rng: &mut StdRng, kind: usize, n: usize) -> ColumnVector {
        use catalyst::vectorized::{StrLane, VectorData};
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
                // Inline (at most 7 bytes) and shared string lanes.
                let strs = ["", "a", "человек", "zz", "seven77", "eight888"];
                let lanes = (0..n).map(|i| StrLane::new(strs[i % strs.len()]));
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
