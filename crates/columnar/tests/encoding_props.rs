//! Property tests: every encoding path round-trips arbitrary lanes —
//! typed, boxed values that conform to the column's storage, widened,
//! mismatched, NULL-bearing, a UDT's struct and a decimal — statistics
//! are sound (never skip a batch containing a match), and compression
//! never corrupts.
//!
//! Deterministic seeded sweeps (formerly proptest; rewritten because the
//! build environment vendors only a minimal rand shim).

use catalyst::row::Row;
use catalyst::schema::Schema;
use catalyst::source::Filter;
use catalyst::types::{DataType, StructField};
use catalyst::value::Value;
use catalyst::vectorized::{ColumnVector, VectorData};
use columnar::{batch_rows, ColumnarBatch, EncodedColumn};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use std::sync::Arc;

/// A long column from one of three regimes: repetitive (forces RLE),
/// random (forces plain), and nullable.
fn arb_long_col(rng: &mut StdRng) -> Vec<Value> {
    let len = rng.random_range(0usize..300);
    match rng.random_range(0u32..3) {
        0 => (0..len)
            .map(|_| Value::Long(rng.random_range(-3i64..3)))
            .collect(),
        1 => (0..len)
            .map(|_| Value::Long(rng.next_u64() as i64))
            .collect(),
        _ => (0..len)
            .map(|_| {
                if rng.random_bool(0.3) {
                    Value::Null
                } else {
                    Value::Long(rng.next_u64() as i64)
                }
            })
            .collect(),
    }
}

fn arb_str(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.random_range(0usize..max_len + 1);
    (0..len)
        .map(|_| char::from(rng.random_range(b'a'..b'z' + 1)))
        .collect()
}

/// A string column: low cardinality (forces dictionary) or high
/// cardinality (forces plain).
fn arb_str_col(rng: &mut StdRng) -> Vec<Value> {
    let len = rng.random_range(0usize..300);
    if rng.random_bool(0.5) {
        const POOL: &[&str] = &["a", "b", "c"];
        (0..len)
            .map(|_| Value::str(POOL[rng.random_range(0..POOL.len())]))
            .collect()
    } else {
        (0..len).map(|_| Value::str(arb_str(rng, 12))).collect()
    }
}

/// Every lane, Debug-printed: tells `Int(1)` from `Long(1)` and prints
/// NaN and -0.0 exactly.
fn shown(v: &ColumnVector) -> Vec<String> {
    (0..v.len()).map(|i| format!("{:?}", v.get(i))).collect()
}

/// Encode `v`, check its encoding is one of `names`, and check that the
/// decoder gives the lanes back exactly: type, storage, null mask and
/// values.
fn roundtrip(v: &ColumnVector, names: &[&str]) -> ColumnVector {
    let c = EncodedColumn::encode(v);
    assert!(names.contains(&c.encoding_name()), "{}", c.encoding_name());
    assert_eq!(c.len(), v.len());
    let back = c.decode_vector();
    assert_eq!(back.dtype(), v.dtype());
    assert_eq!(
        std::mem::discriminant(back.data()),
        std::mem::discriminant(v.data())
    );
    assert_eq!(back.nulls(), v.nulls());
    assert_eq!(shown(&back), shown(v));
    back
}

const LONG_ENCODINGS: &[&str] = &["rle", "plain-int"];

#[test]
fn long_column_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x5EED_2001);
    for _ in 0..64 {
        let values = arb_long_col(&mut rng);
        let v = ColumnVector::from_values(&DataType::Long, values.clone());
        let back = roundtrip(&v, LONG_ENCODINGS);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(&back.get(i), v);
        }
    }
}

#[test]
fn string_column_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x5EED_2002);
    for _ in 0..64 {
        let values = arb_str_col(&mut rng);
        let v = ColumnVector::from_values(&DataType::String, values);
        roundtrip(&v, &["dict", "plain-str"]);
    }
}

#[test]
fn bool_column_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x5EED_2003);
    for _ in 0..64 {
        let len = rng.random_range(0usize..300);
        let values: Vec<Value> = (0..len)
            .map(|_| {
                if rng.random_bool(0.2) {
                    Value::Null
                } else {
                    Value::Boolean(rng.random_bool(0.5))
                }
            })
            .collect();
        let v = ColumnVector::from_values(&DataType::Boolean, values);
        roundtrip(&v, &["bool-packed"]);
    }
}

#[test]
fn double_column_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x5EED_2004);
    for _ in 0..64 {
        let len = rng.random_range(0usize..200);
        let values: Vec<Value> = (0..len)
            .map(|_| Value::Double(f64::from_bits(rng.next_u64())))
            .collect();
        let v = ColumnVector::from_values(&DataType::Double, values);
        roundtrip(&v, &["plain-float"]);
    }
}

/// One value variant built from a drawn integer.
type Variant = fn(i64) -> Value;

/// Boxed vectors whose values are a variant the column's storage holds
/// are stored typed: `Int` and `Date` in INT/DATE columns, `Int`, `Long`
/// and `Timestamp` in BIGINT/TIMESTAMP columns, `Float` and `Double` in a
/// DOUBLE column. They read back typed in the column's own variant, and
/// the statistics keep the values as given.
#[test]
fn widened_columns_store_typed() {
    let mut rng = StdRng::seed_from_u64(0x5EED_2007);
    for _ in 0..64 {
        let len = rng.random_range(1usize..200);
        let (dtype, narrow, wide): (DataType, Variant, Variant) = match rng.random_range(0u32..4) {
            0 => (DataType::Long, |x| Value::Int(x as i32), Value::Long),
            1 => (DataType::Timestamp, Value::Long, Value::Timestamp),
            2 => (
                DataType::Int,
                |x| Value::Date(x as i32),
                |x| Value::Int(x as i32),
            ),
            _ => (
                DataType::Double,
                |x| Value::Float(x as f32 / 4.0),
                |x| Value::Double(x as f64 / 4.0),
            ),
        };
        let draws: Vec<Option<(bool, i64)>> = (0..len)
            .map(|_| {
                (!rng.random_bool(0.2)).then(|| (rng.random_bool(0.5), rng.random_range(-4i64..4)))
            })
            .collect();
        let given: Vec<Value> = (draws.iter())
            .map(|d| d.map_or(Value::Null, |(n, x)| if n { narrow(x) } else { wide(x) }))
            .collect();
        let expect: Vec<String> = (draws.iter())
            .map(|d| format!("{:?}", d.map_or(Value::Null, |(_, x)| wide(x))))
            .collect();
        let c = EncodedColumn::encode(&ColumnVector::from_boxed(dtype.clone(), given.clone()));
        assert_ne!(c.encoding_name(), "boxed");
        let back = c.decode_vector();
        assert!(!matches!(back.data(), VectorData::Values(_)));
        assert_eq!(shown(&back), expect);
        let mut fold = columnar::ColumnStats::default();
        given.iter().for_each(|v| fold.update(v));
        assert_eq!(format!("{:?}", c.stats), format!("{fold:?}"));
    }
}

/// Values no storage of the column's type holds, and the types with no
/// typed storage (a UDT's struct, a decimal), come back exactly.
#[test]
fn boxed_columns_roundtrip_exactly() {
    let point = DataType::struct_type(vec![
        StructField::new("x", DataType::Double, true),
        StructField::new("y", DataType::Double, true),
    ]);
    let mut rng = StdRng::seed_from_u64(0x5EED_2008);
    for _ in 0..64 {
        let len = rng.random_range(0usize..150);
        let null = |rng: &mut StdRng| rng.random_bool(0.2);
        let (dtype, names, values): (DataType, &[&str], Vec<Value>) =
            match rng.random_range(0u32..3) {
                0 => {
                    let values = (0..len)
                        .map(|_| match null(&mut rng) {
                            true => Value::Null,
                            false => Value::Struct(Arc::new(vec![
                                Value::Double(rng.random_range(0i64..8) as f64),
                                match rng.random_bool(0.1) {
                                    true => Value::Null,
                                    false => Value::Double(-(rng.random_range(0i64..8) as f64)),
                                },
                            ])),
                        })
                        .collect();
                    (point.clone(), &["struct-cols"], values)
                }
                1 => {
                    let values = (0..len)
                        .map(|_| match null(&mut rng) {
                            true => Value::Null,
                            false => Value::Decimal(rng.random_range(-999i64..999) as i128, 10, 2),
                        })
                        .collect();
                    (DataType::Decimal(10, 2), &["boxed"], values)
                }
                _ => {
                    let mut values: Vec<Value> = (0..len)
                        .map(|_| match null(&mut rng) {
                            true => Value::Null,
                            false => Value::Int(rng.random_range(-9i64..9) as i32),
                        })
                        .collect();
                    values.push(Value::str("not an int"));
                    (DataType::Int, &["boxed"], values)
                }
            };
        let v = ColumnVector::from_values(&dtype, values.clone());
        let back = roundtrip(&v, names);
        assert_eq!(
            shown(&back),
            values.iter().map(|v| format!("{v:?}")).collect::<Vec<_>>()
        );
    }
}

/// Soundness of batch skipping: if a batch is skipped for a filter,
/// no row in it matches the filter.
#[test]
fn stats_skipping_is_sound() {
    let mut rng = StdRng::seed_from_u64(0x5EED_2005);
    for _ in 0..64 {
        let len = rng.random_range(1usize..200);
        let values: Vec<i64> = (0..len).map(|_| rng.random_range(-100i64..100)).collect();
        let threshold = rng.random_range(-120i64..120);
        let schema = Arc::new(Schema::new(vec![StructField::new(
            "x",
            DataType::Long,
            false,
        )]));
        let rows: Vec<Row> = values
            .iter()
            .map(|&v| Row::new(vec![Value::Long(v)]))
            .collect();
        let batches = batch_rows(schema, rows.clone(), 16);
        for (fi, filter) in [
            Filter::Gt("x".into(), Value::Long(threshold)),
            Filter::Lt("x".into(), Value::Long(threshold)),
            Filter::Eq("x".into(), Value::Long(threshold)),
            Filter::GtEq("x".into(), Value::Long(threshold)),
            Filter::LtEq("x".into(), Value::Long(threshold)),
        ]
        .into_iter()
        .enumerate()
        {
            let mut matched_in_skipped = 0usize;
            for b in &batches {
                if !b.may_match(std::slice::from_ref(&filter)) {
                    for row in b.decode(None) {
                        if filter.matches(row.get(0)) {
                            matched_in_skipped += 1;
                        }
                    }
                }
            }
            assert_eq!(
                matched_in_skipped, 0,
                "filter #{fi} skipped a matching batch"
            );
        }
    }
}

/// Multi-column batches preserve row alignment.
#[test]
fn batch_alignment() {
    let mut rng = StdRng::seed_from_u64(0x5EED_2006);
    for _ in 0..64 {
        let len = rng.random_range(0usize..150);
        let schema = Arc::new(Schema::new(vec![
            StructField::new("n", DataType::Long, false),
            StructField::new("s", DataType::String, false),
            StructField::new("b", DataType::Boolean, false),
        ]));
        let rows: Vec<Row> = (0..len)
            .map(|_| {
                let s: String = (0..rng.random_range(1usize..3))
                    .map(|_| char::from(rng.random_range(b'a'..b'd')))
                    .collect();
                Row::new(vec![
                    Value::Long(rng.next_u64() as i64),
                    Value::str(&s),
                    Value::Boolean(rng.random_bool(0.5)),
                ])
            })
            .collect();
        let batch = ColumnarBatch::from_rows(schema, rows.clone());
        assert_eq!(batch.decode(None), rows);
        // Projection keeps alignment too.
        let projected = batch.decode(Some(&[2, 0]));
        for (p, r) in projected.iter().zip(&rows) {
            assert_eq!(p.get(0), r.get(2));
            assert_eq!(p.get(1), r.get(0));
        }
    }
}
