//! Encoded column vectors.
//!
//! A column picks its encoding from the data: run-length for repetitive
//! integers/dates, dictionary for low-cardinality strings, bit-packing
//! for booleans, plain typed vectors otherwise, and boxed values as the
//! fallback for complex types. This is what makes the in-memory cache an
//! order of magnitude smaller than rows of boxed objects (§3.6).

use crate::bitmap::Bitmap;
use crate::encoding;
use crate::stats::ColumnStats;
use catalyst::types::DataType;
use catalyst::value::Value;
use catalyst::vectorized::ColumnVector;
use std::sync::Arc;

/// Physical layout of one column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Plain i32 (Int, Date).
    Int(Vec<i32>),
    /// Plain i64 (Long, Timestamp).
    Long(Vec<i64>),
    /// Run-length encoded i32.
    RleInt(Vec<(i32, u32)>),
    /// Run-length encoded i64.
    RleLong(Vec<(i64, u32)>),
    /// Plain f32.
    Float(Vec<f32>),
    /// Plain f64.
    Double(Vec<f64>),
    /// Plain strings.
    Str(Vec<Arc<str>>),
    /// Dictionary-encoded strings.
    DictStr {
        /// Distinct values.
        dict: Vec<Arc<str>>,
        /// Per-row dictionary codes.
        codes: Vec<u32>,
    },
    /// Bit-packed booleans.
    Bool {
        /// Packed words.
        words: Vec<u64>,
        /// Logical length.
        len: usize,
    },
    /// Struct columns split into one encoded column per field (§4.4.2 of
    /// the paper: a UDT's x and y compress as separate columns).
    StructCols(Vec<EncodedColumn>),
    /// Boxed fallback (decimal, arrays, maps, …).
    Values(Vec<Value>),
}

/// One encoded column with nulls and statistics.
#[derive(Debug, Clone)]
pub struct EncodedColumn {
    /// Declared type.
    pub dtype: DataType,
    /// Null positions (absent when no nulls).
    pub nulls: Option<Bitmap>,
    /// Batch statistics.
    pub stats: ColumnStats,
    /// Payload.
    pub data: ColumnData,
    len: usize,
}

impl EncodedColumn {
    /// Encode a value slice of a single column.
    pub fn encode(dtype: &DataType, values: &[Value]) -> Self {
        let len = values.len();
        let stats = ColumnStats::from_values(values);
        let mut nulls = None;
        if stats.null_count > 0 {
            let mut b = Bitmap::new(len);
            for (i, v) in values.iter().enumerate() {
                if v.is_null() {
                    b.set(i);
                }
            }
            nulls = Some(b);
        }

        let data = match dtype {
            DataType::Int | DataType::Date => {
                let raw: Vec<i32> = values
                    .iter()
                    .map(|v| match v {
                        Value::Int(x) | Value::Date(x) => *x,
                        _ => 0,
                    })
                    .collect();
                let runs = encoding::rle_encode(&raw);
                if runs.len() * 2 <= raw.len() {
                    ColumnData::RleInt(runs)
                } else {
                    ColumnData::Int(raw)
                }
            }
            DataType::Long | DataType::Timestamp => {
                let raw: Vec<i64> = values
                    .iter()
                    .map(|v| match v {
                        Value::Long(x) | Value::Timestamp(x) => *x,
                        Value::Int(x) => *x as i64,
                        _ => 0,
                    })
                    .collect();
                let runs = encoding::rle_encode(&raw);
                if runs.len() * 2 <= raw.len() {
                    ColumnData::RleLong(runs)
                } else {
                    ColumnData::Long(raw)
                }
            }
            DataType::Float => ColumnData::Float(
                values
                    .iter()
                    .map(|v| match v {
                        Value::Float(x) => *x,
                        _ => 0.0,
                    })
                    .collect(),
            ),
            DataType::Double => ColumnData::Double(
                values
                    .iter()
                    .map(|v| match v {
                        Value::Double(x) => *x,
                        Value::Float(x) => *x as f64,
                        _ => 0.0,
                    })
                    .collect(),
            ),
            DataType::String => {
                let raw: Vec<Arc<str>> = values
                    .iter()
                    .map(|v| match v {
                        Value::Str(s) => s.clone(),
                        _ => Arc::from(""),
                    })
                    .collect();
                let distinct: std::collections::HashSet<&str> =
                    raw.iter().map(|s| s.as_ref()).collect();
                if distinct.len() * 2 <= raw.len() {
                    let (dict, codes) = encoding::dict_encode(&raw);
                    ColumnData::DictStr { dict, codes }
                } else {
                    ColumnData::Str(raw)
                }
            }
            DataType::Boolean => {
                let raw: Vec<bool> = values
                    .iter()
                    .map(|v| matches!(v, Value::Boolean(true)))
                    .collect();
                ColumnData::Bool {
                    words: encoding::bool_pack(&raw),
                    len,
                }
            }
            DataType::Struct(fields) => {
                // Shred the struct: one sub-column per field; struct-level
                // nulls live in this column's null bitmap and appear as
                // nulls in every sub-column.
                let sub_columns: Vec<EncodedColumn> = fields
                    .iter()
                    .enumerate()
                    .map(|(fi, field)| {
                        let field_values: Vec<Value> = values
                            .iter()
                            .map(|v| match v {
                                Value::Struct(items) => {
                                    items.get(fi).cloned().unwrap_or(Value::Null)
                                }
                                _ => Value::Null,
                            })
                            .collect();
                        EncodedColumn::encode(&field.dtype, &field_values)
                    })
                    .collect();
                ColumnData::StructCols(sub_columns)
            }
            _ => ColumnData::Values(values.to_vec()),
        };

        EncodedColumn {
            dtype: dtype.clone(),
            nulls,
            stats,
            data,
            len,
        }
    }

    /// Reassemble a column from parts (file-format deserialization).
    pub fn from_parts(
        dtype: DataType,
        nulls: Option<Bitmap>,
        stats: ColumnStats,
        data: ColumnData,
        len: usize,
    ) -> Self {
        EncodedColumn {
            dtype,
            nulls,
            stats,
            data,
            len,
        }
    }

    /// Encode an execution [`ColumnVector`] as plain parts, lane for
    /// lane, with no [`Value`] per typed lane: integer, float, boolean
    /// and string lanes copy (booleans bit-pack), a null mask becomes the
    /// null bitmap, boxed lanes stay boxed, and statistics stay at their
    /// defaults. [`decode_vector`](Self::decode_vector) gives the lanes
    /// back exactly.
    pub fn from_vector(v: &ColumnVector) -> EncodedColumn {
        use catalyst::vectorized::VectorData;
        let len = v.len();
        let data = match v.data() {
            VectorData::Long(lanes) => ColumnData::Long(lanes.clone()),
            VectorData::Double(lanes) => ColumnData::Double(lanes.clone()),
            VectorData::Bool(lanes) => ColumnData::Bool {
                words: encoding::bool_pack(lanes),
                len,
            },
            VectorData::Str(lanes) => ColumnData::Str(lanes.clone()),
            VectorData::Values(_) => ColumnData::Values((0..len).map(|i| v.get(i)).collect()),
        };
        let nulls = v.nulls().map(|mask| {
            let mut bits = Bitmap::new(len);
            (0..len).filter(|&i| mask[i]).for_each(|i| bits.set(i));
            bits
        });
        let stats = ColumnStats {
            row_count: len as u64,
            ..ColumnStats::default()
        };
        EncodedColumn::from_parts(v.dtype().clone(), nulls, stats, data, len)
    }

    /// Logical length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Which encoding is in use (for tests/EXPLAIN).
    pub fn encoding_name(&self) -> &'static str {
        match &self.data {
            ColumnData::Int(_) | ColumnData::Long(_) => "plain-int",
            ColumnData::RleInt(_) | ColumnData::RleLong(_) => "rle",
            ColumnData::Float(_) | ColumnData::Double(_) => "plain-float",
            ColumnData::Str(_) => "plain-str",
            ColumnData::DictStr { .. } => "dict",
            ColumnData::Bool { .. } => "bool-packed",
            ColumnData::StructCols(_) => "struct-cols",
            ColumnData::Values(_) => "boxed",
        }
    }

    /// Decode the value at row `i`.
    pub fn get(&self, i: usize) -> Value {
        if let Some(nulls) = &self.nulls {
            if nulls.get(i) {
                return Value::Null;
            }
        }
        let typed =
            |raw_i32: Option<i32>, raw_i64: Option<i64>| match (&self.dtype, raw_i32, raw_i64) {
                (DataType::Date, Some(x), _) => Value::Date(x),
                (_, Some(x), _) => Value::Int(x),
                (DataType::Timestamp, _, Some(x)) => Value::Timestamp(x),
                (_, _, Some(x)) => Value::Long(x),
                _ => Value::Null,
            };
        match &self.data {
            ColumnData::Int(v) => typed(Some(v[i]), None),
            ColumnData::RleInt(runs) => typed(encoding::rle_get(runs, i), None),
            ColumnData::Long(v) => typed(None, Some(v[i])),
            ColumnData::RleLong(runs) => typed(None, encoding::rle_get(runs, i)),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Double(v) => Value::Double(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
            ColumnData::DictStr { dict, codes } => Value::Str(dict[codes[i] as usize].clone()),
            ColumnData::Bool { words, .. } => Value::Boolean(encoding::bool_get(words, i)),
            ColumnData::StructCols(cols) => {
                Value::Struct(Arc::new(cols.iter().map(|c| c.get(i)).collect()))
            }
            ColumnData::Values(v) => v[i].clone(),
        }
    }

    /// Decode the whole column (amortizes RLE cursor work).
    pub fn decode_all(&self) -> Vec<Value> {
        match &self.data {
            ColumnData::RleInt(runs) => {
                let raw = encoding::rle_decode(runs);
                self.zip_nulls(raw.into_iter().map(|x| {
                    if self.dtype == DataType::Date {
                        Value::Date(x)
                    } else {
                        Value::Int(x)
                    }
                }))
            }
            ColumnData::RleLong(runs) => {
                let raw = encoding::rle_decode(runs);
                self.zip_nulls(raw.into_iter().map(|x| {
                    if self.dtype == DataType::Timestamp {
                        Value::Timestamp(x)
                    } else {
                        Value::Long(x)
                    }
                }))
            }
            ColumnData::StructCols(cols) => {
                let decoded: Vec<Vec<Value>> = cols.iter().map(|c| c.decode_all()).collect();
                self.zip_nulls((0..self.len).map(|i| {
                    Value::Struct(Arc::new(decoded.iter().map(|c| c[i].clone()).collect()))
                }))
            }
            _ => (0..self.len).map(|i| self.get(i)).collect(),
        }
    }

    /// Decode into an execution [`ColumnVector`] without a boxed-`Value`
    /// round-trip: plain numeric encodings copy (or widen) their lanes
    /// directly, RLE expands runs, dictionaries gather, bit-packed
    /// booleans unpack. Only complex types (struct, decimal, …) go
    /// through boxed values.
    pub fn decode_vector(&self) -> ColumnVector {
        use catalyst::vectorized::VectorData;
        let nulls = self
            .nulls
            .as_ref()
            .map(|b| (0..self.len).map(|i| b.get(i)).collect::<Vec<bool>>());
        let data = match &self.data {
            ColumnData::Int(v) => VectorData::Long(v.iter().map(|&x| x as i64).collect()),
            ColumnData::Long(v) => VectorData::Long(v.clone()),
            ColumnData::RleInt(runs) => VectorData::Long(
                encoding::rle_decode(runs)
                    .into_iter()
                    .map(|x| x as i64)
                    .collect(),
            ),
            ColumnData::RleLong(runs) => VectorData::Long(encoding::rle_decode(runs)),
            ColumnData::Float(v) => VectorData::Double(v.iter().map(|&x| x as f64).collect()),
            ColumnData::Double(v) => VectorData::Double(v.clone()),
            ColumnData::Str(v) => VectorData::Str(v.clone()),
            ColumnData::DictStr { dict, codes } => {
                VectorData::Str(codes.iter().map(|&c| dict[c as usize].clone()).collect())
            }
            ColumnData::Bool { words, .. } => VectorData::Bool(
                (0..self.len)
                    .map(|i| encoding::bool_get(words, i))
                    .collect(),
            ),
            ColumnData::StructCols(_) | ColumnData::Values(_) => {
                return ColumnVector::from_boxed(self.dtype.clone(), self.decode_all());
            }
        };
        ColumnVector::new(self.dtype.clone(), data, nulls)
    }

    fn zip_nulls(&self, values: impl Iterator<Item = Value>) -> Vec<Value> {
        match &self.nulls {
            None => values.collect(),
            Some(nulls) => values
                .enumerate()
                .map(|(i, v)| if nulls.get(i) { Value::Null } else { v })
                .collect(),
        }
    }

    /// Compressed in-memory footprint in bytes.
    pub fn bytes(&self) -> u64 {
        let data = match &self.data {
            ColumnData::Int(v) => (v.len() * 4) as u64,
            ColumnData::Long(v) => (v.len() * 8) as u64,
            ColumnData::RleInt(v) => (v.len() * 8) as u64,
            ColumnData::RleLong(v) => (v.len() * 12) as u64,
            ColumnData::Float(v) => (v.len() * 4) as u64,
            ColumnData::Double(v) => (v.len() * 8) as u64,
            ColumnData::Str(v) => v.iter().map(encoding::str_bytes).sum(),
            ColumnData::DictStr { dict, codes } => {
                dict.iter().map(encoding::str_bytes).sum::<u64>() + (codes.len() * 4) as u64
            }
            ColumnData::Bool { words, .. } => (words.len() * 8) as u64,
            ColumnData::StructCols(cols) => cols.iter().map(EncodedColumn::bytes).sum(),
            ColumnData::Values(v) => v.iter().map(encoding::value_bytes).sum(),
        };
        data + self.nulls.as_ref().map_or(0, Bitmap::bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetitive_longs_use_rle() {
        let values: Vec<Value> = (0..1000).map(|i| Value::Long(i / 100)).collect();
        let c = EncodedColumn::encode(&DataType::Long, &values);
        assert_eq!(c.encoding_name(), "rle");
        assert_eq!(c.decode_all(), values);
        assert!(c.bytes() < 1000); // 10 runs × 12B vs 8000B plain
    }

    #[test]
    fn random_longs_stay_plain() {
        let values: Vec<Value> = (0..100).map(|i| Value::Long(i * 7919 % 1000)).collect();
        let c = EncodedColumn::encode(&DataType::Long, &values);
        assert_eq!(c.encoding_name(), "plain-int");
        assert_eq!(c.decode_all(), values);
    }

    #[test]
    fn low_cardinality_strings_use_dictionary() {
        let values: Vec<Value> = (0..1000)
            .map(|i| Value::str(format!("cat{}", i % 4)))
            .collect();
        let c = EncodedColumn::encode(&DataType::String, &values);
        assert_eq!(c.encoding_name(), "dict");
        assert_eq!(c.decode_all(), values);
        let plain: u64 = values.iter().map(Value::approx_bytes).sum();
        assert!(c.bytes() < plain / 2);
    }

    #[test]
    fn unique_strings_stay_plain() {
        let values: Vec<Value> = (0..100).map(|i| Value::str(format!("s{i}"))).collect();
        let c = EncodedColumn::encode(&DataType::String, &values);
        assert_eq!(c.encoding_name(), "plain-str");
        assert_eq!(c.decode_all(), values);
    }

    #[test]
    fn booleans_bit_pack() {
        let values: Vec<Value> = (0..256).map(|i| Value::Boolean(i % 3 == 0)).collect();
        let c = EncodedColumn::encode(&DataType::Boolean, &values);
        assert_eq!(c.encoding_name(), "bool-packed");
        assert_eq!(c.decode_all(), values);
        assert_eq!(c.bytes(), 32); // 256 bits = 4 words
    }

    #[test]
    fn nulls_roundtrip() {
        let values: Vec<Value> = (0..10)
            .map(|i| {
                if i % 3 == 0 {
                    Value::Null
                } else {
                    Value::Int(i)
                }
            })
            .collect();
        let c = EncodedColumn::encode(&DataType::Int, &values);
        assert_eq!(c.decode_all(), values);
        assert_eq!(c.stats.null_count, 4);
        assert_eq!(c.get(0), Value::Null);
        assert_eq!(c.get(1), Value::Int(1));
    }

    #[test]
    fn struct_columns_shred_per_field() {
        use catalyst::types::StructField;
        let point = DataType::struct_type(vec![
            StructField::new("x", DataType::Double, false),
            StructField::new("y", DataType::Double, false),
        ]);
        let values: Vec<Value> = (0..100)
            .map(|i| {
                if i % 10 == 0 {
                    Value::Null
                } else {
                    Value::Struct(Arc::new(vec![
                        Value::Double(i as f64),
                        Value::Double(-(i as f64)),
                    ]))
                }
            })
            .collect();
        let c = EncodedColumn::encode(&point, &values);
        assert_eq!(c.encoding_name(), "struct-cols");
        assert_eq!(c.decode_all(), values);
        assert_eq!(c.get(0), Value::Null);
        match c.get(11) {
            Value::Struct(items) => assert_eq!(items[0], Value::Double(11.0)),
            other => panic!("{other:?}"),
        }
        // Shredded storage beats boxed values on footprint.
        let boxed: u64 = values.iter().map(Value::approx_bytes).sum();
        assert!(c.bytes() < boxed, "{} vs {boxed}", c.bytes());
    }

    #[test]
    fn dates_and_decimals() {
        let dates: Vec<Value> = (0..10).map(|i| Value::Date(1000 + i / 5)).collect();
        let c = EncodedColumn::encode(&DataType::Date, &dates);
        assert_eq!(c.decode_all(), dates);

        let decimals: Vec<Value> = (0..10).map(|i| Value::Decimal(i, 10, 2)).collect();
        let c = EncodedColumn::encode(&DataType::Decimal(10, 2), &decimals);
        assert_eq!(c.encoding_name(), "boxed");
        assert_eq!(c.decode_all(), decimals);
    }
}
