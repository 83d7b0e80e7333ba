//! Binary serialization of values, data types, and encoded columns — the
//! wire layer of the colfile format (the reproduction's Parquet stand-in)
//! and of operator spill files.
//!
//! Everything is tagged and length-prefixed; readers validate lengths and
//! tags and surface corruption as `DataSource` errors instead of
//! panicking. This module moved here from the `datasources` colfile
//! implementation so that spill files (which live below the data source
//! layer) can share the exact same codec.

use crate::bitmap::Bitmap;
use crate::column::{ColumnData, EncodedColumn};
use crate::stats::ColumnStats;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use catalyst::error::{CatalystError, Result};
use catalyst::ndv::NdvSketch;
use catalyst::types::{DataType, StructField};
use catalyst::value::Value;
use catalyst::vectorized::StrLane;
use std::sync::Arc;

// ---- value serialization (tagged) ----

/// Append one tagged value.
pub fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Boolean(b) => {
            buf.put_u8(1);
            buf.put_u8(u8::from(*b));
        }
        Value::Int(x) => {
            buf.put_u8(2);
            buf.put_i32(*x);
        }
        Value::Long(x) => {
            buf.put_u8(3);
            buf.put_i64(*x);
        }
        Value::Float(x) => {
            buf.put_u8(4);
            buf.put_f32(*x);
        }
        Value::Double(x) => {
            buf.put_u8(5);
            buf.put_f64(*x);
        }
        Value::Decimal(u, p, s) => {
            buf.put_u8(6);
            buf.put_i128(*u);
            buf.put_u8(*p);
            buf.put_u8(*s);
        }
        Value::Str(s) => {
            buf.put_u8(7);
            put_str(buf, s);
        }
        Value::Date(d) => {
            buf.put_u8(8);
            buf.put_i32(*d);
        }
        Value::Timestamp(t) => {
            buf.put_u8(9);
            buf.put_i64(*t);
        }
        Value::Binary(b) => {
            buf.put_u8(10);
            buf.put_u32(b.len() as u32);
            buf.put_slice(b);
        }
        Value::Array(items) => {
            buf.put_u8(11);
            buf.put_u32(items.len() as u32);
            for i in items.iter() {
                put_value(buf, i);
            }
        }
        Value::Struct(items) => {
            buf.put_u8(12);
            buf.put_u32(items.len() as u32);
            for i in items.iter() {
                put_value(buf, i);
            }
        }
    }
}

/// Read one tagged value.
pub fn get_value(buf: &mut Bytes) -> Result<Value> {
    let tag = checked_u8(buf)?;
    Ok(match tag {
        0 => Value::Null,
        1 => Value::Boolean(checked_u8(buf)? != 0),
        2 => Value::Int(checked(buf, 4)?.get_i32()),
        3 => Value::Long(checked(buf, 8)?.get_i64()),
        4 => Value::Float(checked(buf, 4)?.get_f32()),
        5 => Value::Double(checked(buf, 8)?.get_f64()),
        6 => {
            let u = checked(buf, 16)?.get_i128();
            let p = checked_u8(buf)?;
            let s = checked_u8(buf)?;
            Value::Decimal(u, p, s)
        }
        7 => Value::Str(Arc::from(get_str(buf)?)),
        8 => Value::Date(checked(buf, 4)?.get_i32()),
        9 => Value::Timestamp(checked(buf, 8)?.get_i64()),
        10 => {
            let n = count(buf, 1)?;
            let mut v = vec![0u8; n];
            buf.copy_to_slice(&mut v);
            Value::Binary(Arc::from(v.into_boxed_slice()))
        }
        11 | 12 => {
            let n = count(buf, 1)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(get_value(buf)?);
            }
            if tag == 11 {
                Value::Array(Arc::new(items))
            } else {
                Value::Struct(Arc::new(items))
            }
        }
        other => return Err(corrupt(format!("bad value tag {other}"))),
    })
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Read a length-prefixed UTF-8 string.
pub fn get_str(buf: &mut Bytes) -> Result<String> {
    let n = count(buf, 1)?;
    let mut v = vec![0u8; n];
    buf.copy_to_slice(&mut v);
    String::from_utf8(v).map_err(|_| corrupt("invalid utf8"))
}

/// Read a length-prefixed UTF-8 string straight into a string lane, with
/// no `String` in between.
fn get_lane(buf: &mut Bytes) -> Result<StrLane> {
    let n = count(buf, 1)?;
    let s = std::str::from_utf8(&buf.as_slice()[..n]).map_err(|_| corrupt("invalid utf8"))?;
    let lane = StrLane::new(s);
    buf.advance(n);
    Ok(lane)
}

/// The error readers surface for malformed input.
pub fn corrupt(msg: impl Into<String>) -> CatalystError {
    CatalystError::DataSource(format!("corrupt column data: {}", msg.into()))
}

/// Bounds-check that `n` more bytes are available.
pub fn checked(buf: &mut Bytes, n: usize) -> Result<&mut Bytes> {
    if buf.remaining() < n {
        Err(corrupt("unexpected end of data"))
    } else {
        Ok(buf)
    }
}

/// Read a `u32` item count and check that the data left can hold that
/// many items of at least `min_bytes` each, so a corrupt count fails
/// here instead of sizing an allocation.
fn count(buf: &mut Bytes, min_bytes: usize) -> Result<usize> {
    let n = checked(buf, 4)?.get_u32() as usize;
    if n.saturating_mul(min_bytes) > buf.remaining() {
        return Err(corrupt(format!("count {n} overruns the data")));
    }
    Ok(n)
}

/// Bounds-checked single byte read.
pub fn checked_u8(buf: &mut Bytes) -> Result<u8> {
    Ok(checked(buf, 1)?.get_u8())
}

// ---- data type serialization ----

/// Append one tagged data type.
pub fn put_dtype(buf: &mut BytesMut, t: &DataType) {
    match t {
        DataType::Null => buf.put_u8(0),
        DataType::Boolean => buf.put_u8(1),
        DataType::Int => buf.put_u8(2),
        DataType::Long => buf.put_u8(3),
        DataType::Float => buf.put_u8(4),
        DataType::Double => buf.put_u8(5),
        DataType::Decimal(p, s) => {
            buf.put_u8(6);
            buf.put_u8(*p);
            buf.put_u8(*s);
        }
        DataType::String => buf.put_u8(7),
        DataType::Date => buf.put_u8(8),
        DataType::Timestamp => buf.put_u8(9),
        DataType::Binary => buf.put_u8(10),
        DataType::Array(e) => {
            buf.put_u8(11);
            put_dtype(buf, e);
        }
        DataType::Struct(fields) => {
            buf.put_u8(12);
            buf.put_u32(fields.len() as u32);
            for f in fields.iter() {
                put_str(buf, &f.name);
                put_dtype(buf, &f.dtype);
                buf.put_u8(u8::from(f.nullable));
            }
        }
        DataType::Map(k, v) => {
            buf.put_u8(13);
            put_dtype(buf, k);
            put_dtype(buf, v);
        }
    }
}

/// Read one tagged data type.
pub fn get_dtype(buf: &mut Bytes) -> Result<DataType> {
    Ok(match checked_u8(buf)? {
        0 => DataType::Null,
        1 => DataType::Boolean,
        2 => DataType::Int,
        3 => DataType::Long,
        4 => DataType::Float,
        5 => DataType::Double,
        6 => DataType::Decimal(checked_u8(buf)?, checked_u8(buf)?),
        7 => DataType::String,
        8 => DataType::Date,
        9 => DataType::Timestamp,
        10 => DataType::Binary,
        11 => DataType::Array(Box::new(get_dtype(buf)?)),
        12 => {
            let n = count(buf, 6)?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let name = get_str(buf)?;
                let dtype = get_dtype(buf)?;
                let nullable = checked_u8(buf)? != 0;
                fields.push(StructField::new(name, dtype, nullable));
            }
            DataType::struct_type(fields)
        }
        13 => DataType::Map(Box::new(get_dtype(buf)?), Box::new(get_dtype(buf)?)),
        other => return Err(corrupt(format!("bad type tag {other}"))),
    })
}

// ---- column serialization ----

/// Append one encoded column (type, nulls, stats, payload).
pub fn put_column(buf: &mut BytesMut, c: &EncodedColumn) {
    put_dtype(buf, &c.dtype);
    buf.put_u64(c.len() as u64);
    match &c.nulls {
        None => buf.put_u8(0),
        Some(b) => {
            buf.put_u8(1);
            buf.put_u32(b.words().len() as u32);
            for w in b.words() {
                buf.put_u64(*w);
            }
        }
    }
    // Stats.
    put_value(buf, &c.stats.min.clone().unwrap_or(Value::Null));
    put_value(buf, &c.stats.max.clone().unwrap_or(Value::Null));
    buf.put_u64(c.stats.null_count);
    buf.put_u64(c.stats.row_count);
    // NDV sketch: capacity, then the retained minimum hashes.
    buf.put_u32(c.stats.ndv.k() as u32);
    buf.put_u32(c.stats.ndv.hashes().len() as u32);
    for h in c.stats.ndv.hashes() {
        buf.put_u64(*h);
    }
    // Payload.
    match &c.data {
        ColumnData::Int(v) => {
            buf.put_u8(0);
            buf.put_u32(v.len() as u32);
            v.iter().for_each(|x| buf.put_i32(*x));
        }
        ColumnData::Long(v) => {
            buf.put_u8(1);
            buf.put_u32(v.len() as u32);
            v.iter().for_each(|x| buf.put_i64(*x));
        }
        ColumnData::RleInt(runs) => {
            buf.put_u8(2);
            buf.put_u32(runs.len() as u32);
            runs.iter().for_each(|(x, n)| {
                buf.put_i32(*x);
                buf.put_u32(*n);
            });
        }
        ColumnData::RleLong(runs) => {
            buf.put_u8(3);
            buf.put_u32(runs.len() as u32);
            runs.iter().for_each(|(x, n)| {
                buf.put_i64(*x);
                buf.put_u32(*n);
            });
        }
        ColumnData::Float(v) => {
            buf.put_u8(4);
            buf.put_u32(v.len() as u32);
            v.iter().for_each(|x| buf.put_f32(*x));
        }
        ColumnData::Double(v) => {
            buf.put_u8(5);
            buf.put_u32(v.len() as u32);
            v.iter().for_each(|x| buf.put_f64(*x));
        }
        ColumnData::Str(v) => {
            buf.put_u8(6);
            buf.put_u32(v.len() as u32);
            v.iter().for_each(|s| put_str(buf, s.as_str()));
        }
        ColumnData::DictStr { dict, codes } => {
            buf.put_u8(7);
            buf.put_u32(dict.len() as u32);
            dict.iter().for_each(|s| put_str(buf, s.as_str()));
            buf.put_u32(codes.len() as u32);
            codes.iter().for_each(|c| buf.put_u32(*c));
        }
        ColumnData::Bool { words, len } => {
            buf.put_u8(8);
            buf.put_u64(*len as u64);
            buf.put_u32(words.len() as u32);
            words.iter().for_each(|w| buf.put_u64(*w));
        }
        ColumnData::Values(v) => {
            buf.put_u8(9);
            buf.put_u32(v.len() as u32);
            v.iter().for_each(|x| put_value(buf, x));
        }
        ColumnData::StructCols(cols) => {
            buf.put_u8(10);
            buf.put_u32(cols.len() as u32);
            cols.iter().for_each(|c| put_column(buf, c));
        }
    }
}

/// Read one encoded column.
pub fn get_column(buf: &mut Bytes) -> Result<EncodedColumn> {
    let dtype = get_dtype(buf)?;
    let len = checked(buf, 8)?.get_u64() as usize;
    let nulls = match checked_u8(buf)? {
        0 => None,
        _ => {
            let nwords = count(buf, 8)?;
            if nwords != len.div_ceil(64) {
                return Err(corrupt(format!("{nwords} null words for {len} rows")));
            }
            Some(Bitmap::from_words(
                (0..nwords).map(|_| buf.get_u64()).collect(),
                len,
            ))
        }
    };
    let min = get_value(buf)?;
    let max = get_value(buf)?;
    let null_count = checked(buf, 8)?.get_u64();
    let row_count = checked(buf, 8)?.get_u64();
    let ndv_k = checked(buf, 4)?.get_u32() as usize;
    let ndv_len = count(buf, 8)?;
    let mut ndv_hashes = Vec::with_capacity(ndv_len);
    for _ in 0..ndv_len {
        ndv_hashes.push(checked(buf, 8)?.get_u64());
    }
    let stats = ColumnStats {
        min: if min.is_null() { None } else { Some(min) },
        max: if max.is_null() { None } else { Some(max) },
        null_count,
        row_count,
        ndv: NdvSketch::from_hashes(ndv_k, ndv_hashes),
    };
    let data = match checked_u8(buf)? {
        0 => {
            let n = count(buf, 4)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(checked(buf, 4)?.get_i32());
            }
            ColumnData::Int(v)
        }
        1 => {
            let n = count(buf, 8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(checked(buf, 8)?.get_i64());
            }
            ColumnData::Long(v)
        }
        2 => {
            let n = count(buf, 8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                let x = checked(buf, 4)?.get_i32();
                let c = checked(buf, 4)?.get_u32();
                v.push((x, c));
            }
            ColumnData::RleInt(v)
        }
        3 => {
            let n = count(buf, 12)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                let x = checked(buf, 8)?.get_i64();
                let c = checked(buf, 4)?.get_u32();
                v.push((x, c));
            }
            ColumnData::RleLong(v)
        }
        4 => {
            let n = count(buf, 4)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(checked(buf, 4)?.get_f32());
            }
            ColumnData::Float(v)
        }
        5 => {
            let n = count(buf, 8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(checked(buf, 8)?.get_f64());
            }
            ColumnData::Double(v)
        }
        6 => {
            let n = count(buf, 4)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(get_lane(buf)?);
            }
            ColumnData::Str(v)
        }
        7 => {
            let nd = count(buf, 4)?;
            let mut dict = Vec::with_capacity(nd);
            for _ in 0..nd {
                dict.push(get_lane(buf)?);
            }
            let nc = count(buf, 4)?;
            let mut codes = Vec::with_capacity(nc);
            for _ in 0..nc {
                codes.push(checked(buf, 4)?.get_u32());
            }
            ColumnData::DictStr { dict, codes }
        }
        8 => {
            let blen = checked(buf, 8)?.get_u64() as usize;
            let nwords = count(buf, 8)?;
            let mut words = Vec::with_capacity(nwords);
            for _ in 0..nwords {
                words.push(checked(buf, 8)?.get_u64());
            }
            ColumnData::Bool { words, len: blen }
        }
        9 => {
            let n = count(buf, 1)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(get_value(buf)?);
            }
            ColumnData::Values(v)
        }
        10 => {
            let n = count(buf, 1)?;
            let mut cols = Vec::with_capacity(n);
            for _ in 0..n {
                cols.push(get_column(buf)?);
            }
            ColumnData::StructCols(cols)
        }
        other => return Err(corrupt(format!("bad column tag {other}"))),
    };
    check_payload(&data, len)?;
    Ok(EncodedColumn::from_parts(dtype, nulls, stats, data, len))
}

/// Does a payload read back hold exactly `len` rows that decode without
/// indexing out of bounds?
fn check_payload(data: &ColumnData, len: usize) -> Result<()> {
    let rows = match data {
        ColumnData::Int(v) => v.len(),
        ColumnData::Long(v) => v.len(),
        ColumnData::Float(v) => v.len(),
        ColumnData::Double(v) => v.len(),
        ColumnData::Str(v) => v.len(),
        ColumnData::Values(v) => v.len(),
        ColumnData::RleInt(runs) => runs.iter().map(|r| r.1 as usize).sum(),
        ColumnData::RleLong(runs) => runs.iter().map(|r| r.1 as usize).sum(),
        ColumnData::DictStr { dict, codes } => {
            if codes.iter().any(|&c| c as usize >= dict.len()) {
                return Err(corrupt("dictionary code out of range"));
            }
            codes.len()
        }
        ColumnData::Bool { words, len: bits } => {
            if words.len() != bits.div_ceil(64) {
                return Err(corrupt(format!(
                    "{} words for {bits} booleans",
                    words.len()
                )));
            }
            *bits
        }
        ColumnData::StructCols(cols) => match cols.iter().find(|c| c.len() != len) {
            Some(c) => c.len(),
            None => len,
        },
    };
    if rows != len {
        return Err(corrupt(format!(
            "payload of {rows} rows in a column of {len}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip_all_variants() {
        let vs = vec![
            Value::Null,
            Value::Boolean(true),
            Value::Int(-7),
            Value::Long(1 << 40),
            Value::Float(1.5),
            Value::Double(-2.25),
            Value::Decimal(12345, 10, 2),
            Value::str("héllo"),
            Value::Date(19000),
            Value::Timestamp(1_700_000_000_000),
            Value::Binary(Arc::from(vec![1u8, 2, 3].into_boxed_slice())),
            Value::Array(Arc::new(vec![Value::Int(1), Value::Null])),
            Value::Struct(Arc::new(vec![Value::str("x"), Value::Long(2)])),
        ];
        let mut buf = BytesMut::new();
        for v in &vs {
            put_value(&mut buf, v);
        }
        let mut data = buf.freeze();
        for v in &vs {
            assert_eq!(&get_value(&mut data).unwrap(), v);
        }
        assert_eq!(data.remaining(), 0);
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = BytesMut::new();
        put_value(&mut buf, &Value::Long(42));
        let full = buf.freeze();
        let mut short = full.slice(0..full.len() - 1);
        assert!(get_value(&mut short).is_err());
    }
}
