//! Encoded column vectors: a stored column is written from lanes and
//! read back as lanes.
//!
//! [`EncodedColumn::encode`] takes a [`ColumnVector`] and picks the
//! encoding from its lanes: run-length for repetitive integers/dates,
//! dictionary for low-cardinality strings, bit-packing for booleans,
//! plain typed vectors otherwise, struct columns shredded into one column
//! per field, and boxed values for everything else. That is what makes
//! the in-memory cache an order of magnitude smaller than rows of boxed
//! objects (§3.6). [`EncodedColumn::decode_vector`] is the one decoder;
//! [`EncodedColumn::from_vector`] is the plain, statistics-free form that
//! spill blocks store.

use crate::bitmap::Bitmap;
use crate::encoding;
use crate::stats::ColumnStats;
use catalyst::types::{DataType, StructField};
use catalyst::value::Value;
use catalyst::vectorized::{ColumnVector, StrLane, VectorData};
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
    Str(Vec<StrLane>),
    /// Dictionary-encoded strings.
    DictStr {
        /// Distinct values.
        dict: Vec<StrLane>,
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
    /// Encode one column of lanes, compressed, with its statistics folded
    /// from the same lanes.
    ///
    /// Boxed lanes whose values all have a variant the column's storage
    /// holds (`Int` or `Date` in an INT or DATE column; `Int`, `Long` or
    /// `Timestamp` in a BIGINT or TIMESTAMP column; `Float` or `Double` in
    /// a DOUBLE column) are stored typed, and the statistics fold the
    /// values as given. Any other mismatch stays boxed, exactly.
    pub fn encode(v: &ColumnVector) -> EncodedColumn {
        let mut stats = ColumnStats::default();
        (0..v.len()).for_each(|i| stats.update(&v.get(i)));
        let data = compressed(v).unwrap_or_else(|| plain(v));
        let nulls = null_bitmap(v).filter(|_| stats.null_count > 0);
        EncodedColumn::from_parts(v.dtype().clone(), nulls, stats, data, v.len())
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

    /// Copy a vector into plain parts, lane for lane: integer, float,
    /// boolean and string lanes copy (booleans bit-pack), NULLs become the
    /// null bitmap, boxed lanes stay boxed, and statistics stay at their
    /// defaults. [`decode_vector`](Self::decode_vector) gives the lanes
    /// back exactly.
    pub fn from_vector(v: &ColumnVector) -> EncodedColumn {
        let stats = ColumnStats {
            row_count: v.len() as u64,
            ..ColumnStats::default()
        };
        EncodedColumn::from_parts(v.dtype().clone(), null_bitmap(v), stats, plain(v), v.len())
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

    /// Decode into lanes: plain numeric encodings copy (or widen) their
    /// lanes, RLE expands runs, dictionaries gather, bit-packed booleans
    /// unpack, shredded structs reassemble from their fields' lanes, and
    /// boxed values stay boxed with their NULLs in place.
    pub fn decode_vector(&self) -> ColumnVector {
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
            ColumnData::StructCols(cols) => {
                let fields: Vec<ColumnVector> = cols.iter().map(Self::decode_vector).collect();
                let row = |i| Value::Struct(Arc::new(fields.iter().map(|f| f.get(i)).collect()));
                VectorData::Values((0..self.len).map(row).collect())
            }
            ColumnData::Values(v) => VectorData::Values(v.clone()),
        };
        match (data, nulls) {
            (VectorData::Values(mut values), nulls) => {
                for (value, _) in values
                    .iter_mut()
                    .zip(nulls.iter().flatten())
                    .filter(|p| *p.1)
                {
                    *value = Value::Null;
                }
                ColumnVector::from_boxed(self.dtype.clone(), values)
            }
            (data, nulls) => ColumnVector::new(self.dtype.clone(), data, nulls),
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
            ColumnData::Values(v) => v.iter().map(Value::approx_bytes).sum(),
        };
        data + self.nulls.as_ref().map_or(0, Bitmap::bytes)
    }
}

/// NULL positions of `v`; absent when it has neither a NULL nor a mask.
fn null_bitmap(v: &ColumnVector) -> Option<Bitmap> {
    let mut bits = v.nulls().map(|_| Bitmap::new(v.len()));
    for i in (0..v.len()).filter(|&i| v.is_null(i)) {
        bits.get_or_insert_with(|| Bitmap::new(v.len())).set(i);
    }
    bits
}

/// `v`'s lanes as plain parts, copied as they are.
fn plain(v: &ColumnVector) -> ColumnData {
    match v.data() {
        VectorData::Long(lanes) => ColumnData::Long(lanes.clone()),
        VectorData::Double(lanes) => ColumnData::Double(lanes.clone()),
        VectorData::Bool(lanes) => ColumnData::Bool {
            words: encoding::bool_pack(lanes),
            len: v.len(),
        },
        VectorData::Str(lanes) => ColumnData::Str(lanes.clone()),
        VectorData::Values(values) => ColumnData::Values(values.clone()),
    }
}

/// `v`'s lanes in the storage its declared type calls for, with `null` at
/// NULL lanes: typed lanes through `lane`, boxed values through `value`.
/// `None` when the lanes are neither, or a boxed value has no such form.
fn lanes<L, T: Clone>(
    v: &ColumnVector,
    typed: Option<&[L]>,
    null: T,
    lane: impl Fn(&L) -> T,
    value: impl Fn(&Value) -> Option<T>,
) -> Option<Vec<T>> {
    match (typed, v.data()) {
        (Some(typed), _) => Some(
            (typed.iter().enumerate())
                .map(|(i, x)| if v.is_null(i) { null.clone() } else { lane(x) })
                .collect(),
        ),
        (None, VectorData::Values(values)) => (values.iter().enumerate())
            .map(|(i, x)| {
                if v.is_null(i) {
                    Some(null.clone())
                } else {
                    value(x)
                }
            })
            .collect(),
        _ => None,
    }
}

/// Run-length runs when they at most halve the lanes, else plain lanes.
fn rle_or_plain<T: PartialEq + Copy>(
    raw: Vec<T>,
    rle: fn(Vec<(T, u32)>) -> ColumnData,
    plain: fn(Vec<T>) -> ColumnData,
) -> ColumnData {
    let runs = encoding::rle_encode(&raw);
    if runs.len() * 2 <= raw.len() {
        rle(runs)
    } else {
        plain(raw)
    }
}

/// `v` in the compressed encoding its declared type calls for; `None`
/// when it stays plain (types with no typed storage, mismatched values).
fn compressed(v: &ColumnVector) -> Option<ColumnData> {
    let (ints, floats, bools, strs) = match v.data() {
        VectorData::Long(l) => (Some(l.as_slice()), None, None, None),
        VectorData::Double(l) => (None, Some(l.as_slice()), None, None),
        VectorData::Bool(l) => (None, None, Some(l.as_slice()), None),
        VectorData::Str(l) => (None, None, None, Some(l.as_slice())),
        VectorData::Values(_) => (None, None, None, None),
    };
    Some(match v.dtype() {
        DataType::Int | DataType::Date => {
            let raw = lanes(
                v,
                ints,
                0,
                |&x| x as i32,
                |x| match x {
                    Value::Int(x) | Value::Date(x) => Some(*x),
                    _ => None,
                },
            )?;
            rle_or_plain(raw, ColumnData::RleInt, ColumnData::Int)
        }
        DataType::Long | DataType::Timestamp => {
            let raw = lanes(
                v,
                ints,
                0,
                |&x| x,
                |x| match x {
                    Value::Long(x) | Value::Timestamp(x) => Some(*x),
                    Value::Int(x) => Some(*x as i64),
                    _ => None,
                },
            )?;
            rle_or_plain(raw, ColumnData::RleLong, ColumnData::Long)
        }
        DataType::Float => ColumnData::Float(lanes(
            v,
            floats,
            0.0,
            |&x| x as f32,
            |x| match x {
                Value::Float(x) => Some(*x),
                _ => None,
            },
        )?),
        DataType::Double => ColumnData::Double(lanes(
            v,
            floats,
            0.0,
            |&x| x,
            |x| match x {
                Value::Double(x) => Some(*x),
                Value::Float(x) => Some(*x as f64),
                _ => None,
            },
        )?),
        DataType::String => {
            let raw = lanes(v, strs, StrLane::default(), StrLane::clone, |x| match x {
                Value::Str(s) => Some(StrLane::shared(s.clone())),
                _ => None,
            })?;
            let distinct: std::collections::HashSet<&[u8]> =
                raw.iter().map(StrLane::as_bytes).collect();
            if distinct.len() * 2 <= raw.len() {
                let (dict, codes) = encoding::dict_encode(&raw);
                ColumnData::DictStr { dict, codes }
            } else {
                ColumnData::Str(raw)
            }
        }
        DataType::Boolean => {
            let raw = lanes(
                v,
                bools,
                false,
                |&b| b,
                |x| match x {
                    Value::Boolean(b) => Some(*b),
                    _ => None,
                },
            )?;
            ColumnData::Bool {
                words: encoding::bool_pack(&raw),
                len: v.len(),
            }
        }
        // Shred the struct: one column per field. Struct-level NULLs live
        // in this column's bitmap and appear as NULLs in every field.
        DataType::Struct(fields) => {
            let VectorData::Values(values) = v.data() else {
                return None;
            };
            let mut cols = vec![Vec::with_capacity(v.len()); fields.len()];
            for (i, x) in values.iter().enumerate() {
                match x {
                    _ if v.is_null(i) => cols.iter_mut().for_each(|c| c.push(Value::Null)),
                    Value::Struct(items) if items.len() == fields.len() => {
                        (cols.iter_mut().zip(items.iter())).for_each(|(c, x)| c.push(x.clone()))
                    }
                    _ => return None,
                }
            }
            let field = |(f, values): (&StructField, Vec<Value>)| {
                EncodedColumn::encode(&ColumnVector::from_values(&f.dtype, values))
            };
            ColumnData::StructCols(fields.iter().zip(cols).map(field).collect())
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::discriminant;

    fn lanes_of(dtype: DataType, values: Vec<Value>) -> ColumnVector {
        ColumnVector::from_values(&dtype, values)
    }

    /// Every lane, Debug-printed: tells `Int(1)` from `Long(1)` and prints
    /// NaN and -0.0 exactly.
    fn shown(v: &ColumnVector) -> Vec<String> {
        (0..v.len()).map(|i| format!("{:?}", v.get(i))).collect()
    }

    /// Encode `v` and check that the decoder gives its lanes back: the
    /// same type, storage, null mask and values.
    fn roundtrip(v: &ColumnVector) -> EncodedColumn {
        let c = EncodedColumn::encode(v);
        let back = c.decode_vector();
        assert_eq!(back.dtype(), v.dtype());
        assert_eq!(discriminant(back.data()), discriminant(v.data()));
        assert_eq!(back.nulls(), v.nulls());
        assert_eq!(shown(&back), shown(v));
        c
    }

    #[test]
    fn repetitive_longs_use_rle() {
        let values: Vec<Value> = (0..1000).map(|i| Value::Long(i / 100)).collect();
        let c = roundtrip(&lanes_of(DataType::Long, values));
        assert_eq!(c.encoding_name(), "rle");
        assert!(c.bytes() < 1000); // 10 runs × 12B vs 8000B plain
    }

    #[test]
    fn random_longs_stay_plain() {
        let values: Vec<Value> = (0..100).map(|i| Value::Long(i * 7919 % 1000)).collect();
        let c = roundtrip(&lanes_of(DataType::Long, values));
        assert_eq!(c.encoding_name(), "plain-int");
    }

    #[test]
    fn low_cardinality_strings_use_dictionary() {
        let values: Vec<Value> = (0..1000)
            .map(|i| Value::str(format!("cat{}", i % 4)))
            .collect();
        let plain: u64 = values.iter().map(Value::approx_bytes).sum();
        let c = roundtrip(&lanes_of(DataType::String, values));
        assert_eq!(c.encoding_name(), "dict");
        assert!(c.bytes() < plain / 2);
    }

    #[test]
    fn unique_strings_stay_plain() {
        let values: Vec<Value> = (0..100).map(|i| Value::str(format!("s{i}"))).collect();
        let c = roundtrip(&lanes_of(DataType::String, values));
        assert_eq!(c.encoding_name(), "plain-str");
    }

    #[test]
    fn booleans_bit_pack() {
        let values: Vec<Value> = (0..256).map(|i| Value::Boolean(i % 3 == 0)).collect();
        let c = roundtrip(&lanes_of(DataType::Boolean, values));
        assert_eq!(c.encoding_name(), "bool-packed");
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
        let c = roundtrip(&lanes_of(DataType::Int, values));
        assert_eq!(c.stats.null_count, 4);
        let back = c.decode_vector();
        assert_eq!(back.get(0), Value::Null);
        assert_eq!(back.get(1), Value::Int(1));
    }

    #[test]
    fn struct_columns_shred_per_field() {
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
        let boxed: u64 = values.iter().map(Value::approx_bytes).sum();
        let c = roundtrip(&lanes_of(point, values));
        assert_eq!(c.encoding_name(), "struct-cols");
        let back = c.decode_vector();
        assert_eq!(back.get(0), Value::Null);
        match back.get(11) {
            Value::Struct(items) => assert_eq!(items[0], Value::Double(11.0)),
            other => panic!("{other:?}"),
        }
        // Shredded storage beats boxed values on footprint.
        assert!(c.bytes() < boxed, "{} vs {boxed}", c.bytes());
    }

    #[test]
    fn dates_and_decimals() {
        let dates: Vec<Value> = (0..10).map(|i| Value::Date(1000 + i / 5)).collect();
        roundtrip(&lanes_of(DataType::Date, dates));

        let decimals: Vec<Value> = (0..10)
            .map(|i| match i {
                3 => Value::Null,
                i => Value::Decimal(i, 10, 2),
            })
            .collect();
        let c = roundtrip(&lanes_of(DataType::Decimal(10, 2), decimals));
        assert_eq!(c.encoding_name(), "boxed");
        assert_eq!(c.stats.null_count, 1);
    }

    /// A boxed vector whose values are a narrower variant of the column's
    /// storage (an INT sum's `Int`s in a BIGINT column, `Float`s in a
    /// DOUBLE column) is stored typed and reads back in the column's own
    /// variant; its statistics fold the values as given.
    #[test]
    fn widened_values_are_stored_typed() {
        let ints: Vec<Value> = (0..8).map(|i| Value::Int(i / 4)).collect();
        let c = EncodedColumn::encode(&ColumnVector::from_boxed(DataType::Long, ints));
        assert_eq!(c.encoding_name(), "rle");
        assert_eq!(format!("{:?}", c.stats.max), "Some(Int(1))");
        let back = c.decode_vector();
        assert!(matches!(back.data(), VectorData::Long(_)));
        assert_eq!(shown(&back)[7], "Long(1)");

        let floats = vec![Value::Float(0.5), Value::Null, Value::Double(2.0)];
        let c = EncodedColumn::encode(&ColumnVector::from_boxed(DataType::Double, floats));
        assert_eq!(c.encoding_name(), "plain-float");
        assert_eq!(c.stats.null_count, 1);
        assert_eq!(
            shown(&c.decode_vector()),
            ["Double(0.5)", "Null", "Double(2.0)"]
        );
    }

    /// Values no storage of the column's type holds stay boxed and come
    /// back exactly, NULLs included.
    #[test]
    fn mismatched_values_stay_boxed() {
        let cases = [
            (
                DataType::Int,
                vec![Value::Long(1 << 40), Value::Null, Value::Int(2)],
            ),
            (DataType::Float, vec![Value::Double(0.1), Value::Float(2.0)]),
            (DataType::Long, vec![Value::Date(3), Value::Long(4)]),
            (DataType::Boolean, vec![Value::Int(1), Value::Boolean(true)]),
            (DataType::String, vec![Value::Null, Value::Long(9)]),
        ];
        for (dtype, values) in cases {
            let c = roundtrip(&lanes_of(dtype, values));
            assert_eq!(c.encoding_name(), "boxed");
        }
        let point = DataType::struct_type(vec![StructField::new("x", DataType::Long, true)]);
        let c = roundtrip(&lanes_of(point, vec![Value::Long(1), Value::Null]));
        assert_eq!(c.encoding_name(), "boxed");
    }

    /// Typed lanes under a NULL hold filler; the encoder stores the same
    /// zero it stores for a boxed NULL, so the bytes do not depend on it.
    #[test]
    fn null_lanes_encode_as_zero() {
        let lanes = VectorData::Long(vec![7, 99, 7, 7, 7, 7]);
        let nulls = (0..6).map(|i| i == 1).collect();
        let c = roundtrip(&ColumnVector::new(DataType::Long, lanes, Some(nulls)));
        match &c.data {
            ColumnData::RleLong(runs) => assert_eq!(runs, &[(7, 1), (0, 1), (7, 4)]),
            other => panic!("{other:?}"),
        }
    }
}
