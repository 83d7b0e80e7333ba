//! Property tests for the columnar ↔ vectorized-execution bridge:
//! `encode → decode_vector`, `from_rows → to_row_batch(projection)`, and
//! the `from_row_batch` re-encode must all round-trip arbitrary typed
//! lanes — including null-heavy, all-null, and empty batches. The oracle
//! is the source data itself: there is one decoder.
//!
//! Deterministic seeded sweeps in the style of `encoding_props.rs` (the
//! build environment vendors only a minimal rand shim).

use catalyst::row::Row;
use catalyst::schema::{Schema, SchemaRef};
use catalyst::types::{DataType, StructField};
use catalyst::value::Value;
use catalyst::vectorized::ColumnVector;
use columnar::{ColumnarBatch, EncodedColumn};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use std::sync::Arc;

fn arb_dtype(rng: &mut StdRng) -> DataType {
    match rng.random_range(0u32..6) {
        0 => DataType::Long,
        1 => DataType::Int,
        2 => DataType::Double,
        3 => DataType::Float,
        4 => DataType::String,
        _ => DataType::Boolean,
    }
}

/// One value of `dtype`, drawn from regimes that force every encoding
/// (RLE via low cardinality, dictionary via pooled strings, plain via
/// high entropy).
fn arb_value(rng: &mut StdRng, dtype: &DataType, null_p: f64) -> Value {
    if rng.random_bool(null_p) {
        return Value::Null;
    }
    match dtype {
        DataType::Long => {
            if rng.random_bool(0.5) {
                Value::Long(rng.random_range(-3i64..3))
            } else {
                Value::Long(rng.next_u64() as i64)
            }
        }
        DataType::Int => Value::Int(rng.random_range(0i64..100) as i32 - 50),
        DataType::Double => Value::Double(rng.random_range(0i64..1000) as f64 / 8.0),
        DataType::Float => Value::Float(rng.random_range(0i64..1000) as f32 / 8.0),
        DataType::String => {
            const POOL: &[&str] = &["a", "bb", "ccc", ""];
            if rng.random_bool(0.5) {
                Value::str(POOL[rng.random_range(0..POOL.len())])
            } else {
                Value::str(format!("s{}", rng.next_u64() % 10_000))
            }
        }
        _ => Value::Boolean(rng.random_bool(0.5)),
    }
}

/// Null regimes: none, moderate, heavy (90%), and all-null.
fn arb_null_p(rng: &mut StdRng) -> f64 {
    match rng.random_range(0u32..4) {
        0 => 0.0,
        1 => 0.25,
        2 => 0.9,
        _ => 1.0,
    }
}

fn arb_schema(rng: &mut StdRng) -> SchemaRef {
    let fields = (0..rng.random_range(1usize..5))
        .map(|i| StructField::new(format!("c{i}"), arb_dtype(rng), true))
        .collect();
    Arc::new(Schema::new(fields))
}

fn arb_rows(rng: &mut StdRng, schema: &SchemaRef, len: usize) -> Vec<Row> {
    let null_ps: Vec<f64> = schema.fields().iter().map(|_| arb_null_p(rng)).collect();
    (0..len)
        .map(|_| {
            Row::new(
                schema
                    .fields()
                    .iter()
                    .zip(&null_ps)
                    .map(|(f, &p)| arb_value(rng, &f.dtype, p))
                    .collect(),
            )
        })
        .collect()
}

/// Rows as Debug strings: tells `Int(1)` from `Long(1)`.
fn shown(rows: &[Row]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

/// `encode → decode_vector`: every lane equals the source lane, with its
/// variant, storage and null mask.
#[test]
fn decode_vector_gives_the_source_lanes_back() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0x0DEC ^ (seed * 0x9E37_79B9));
        let dtype = arb_dtype(&mut rng);
        let null_p = arb_null_p(&mut rng);
        let len = rng.random_range(0usize..300);
        let vals: Vec<Value> = (0..len)
            .map(|_| arb_value(&mut rng, &dtype, null_p))
            .collect();
        let source = ColumnVector::from_values(&dtype, vals.clone());
        let vector = EncodedColumn::encode(&source).decode_vector();
        assert_eq!(vector.len(), vals.len(), "seed {seed}: length");
        assert_eq!(
            std::mem::discriminant(vector.data()),
            std::mem::discriminant(source.data()),
            "seed {seed}: storage"
        );
        assert_eq!(vector.nulls(), source.nulls(), "seed {seed}: null mask");
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&vector.get(i), v, "seed {seed}: lane {i} vs source");
            assert_eq!(
                format!("{:?}", vector.get(i)),
                format!("{v:?}"),
                "seed {seed}: lane {i} variant"
            );
            assert_eq!(vector.is_null(i), v.is_null(), "seed {seed}: null flag {i}");
        }
    }
}

/// `from_rows → to_row_batch(projection)`: the projected vectors hold the
/// projected source rows, for full, partial, and empty projections — and
/// for empty batches.
#[test]
fn to_row_batch_matches_row_decode_under_projection() {
    for seed in 0..120u64 {
        let mut rng = StdRng::seed_from_u64(0xBA7C ^ (seed * 0x85EB_CA6B));
        let schema = arb_schema(&mut rng);
        let len = if rng.random_bool(0.1) {
            0
        } else {
            rng.random_range(1usize..300)
        };
        let rows = arb_rows(&mut rng, &schema, len);
        let batch = ColumnarBatch::from_rows(schema.clone(), rows.clone());
        assert_eq!(batch.num_rows(), rows.len(), "seed {seed}");

        let projection: Option<Vec<usize>> = match rng.random_range(0u32..3) {
            0 => None,
            1 => Some((0..schema.len()).filter(|_| rng.random_bool(0.5)).collect()),
            _ => Some(vec![rng.random_range(0..schema.len() as u32) as usize]),
        };
        let rb = batch.to_row_batch(projection.as_deref());
        assert_eq!(rb.num_rows(), rows.len(), "seed {seed}: batch length");
        assert!(
            rb.selection().is_none(),
            "seed {seed}: plain decode has no selection"
        );
        let expect: Vec<Row> = match &projection {
            Some(p) => rows.iter().map(|r| r.project(p)).collect(),
            None => rows.clone(),
        };
        let got: Vec<Row> = (0..rb.num_rows()).map(|i| rb.row(i)).collect();
        assert_eq!(got, expect, "seed {seed}: projection {projection:?}");
        assert_eq!(shown(&got), shown(&expect), "seed {seed}: variants");
        assert_eq!(
            shown(&batch.decode(projection.as_deref())),
            shown(&expect),
            "seed {seed}: decode {projection:?}"
        );
    }
}

/// `from_rows → to_row_batch → from_row_batch`: re-encoding an execution
/// batch reproduces the original rows; with a selection vector applied it
/// compacts to exactly the selected rows.
#[test]
fn from_row_batch_reencodes_with_and_without_selection() {
    for seed in 0..120u64 {
        let mut rng = StdRng::seed_from_u64(0x5EED ^ (seed * 0xC2B2_AE35));
        let schema = arb_schema(&mut rng);
        let len = if rng.random_bool(0.1) {
            0
        } else {
            rng.random_range(1usize..300)
        };
        let rows = arb_rows(&mut rng, &schema, len);
        let batch = ColumnarBatch::from_rows(schema.clone(), rows.clone());
        let rb = batch.to_row_batch(None);

        // Full round-trip: encode(decode_vector(encode(rows))) == rows.
        let re = ColumnarBatch::from_row_batch(schema.clone(), &rb);
        assert_eq!(re.num_rows(), rows.len(), "seed {seed}");
        assert_eq!(re.decode(None), rows, "seed {seed}: full re-encode");
        assert_eq!(
            shown(&re.decode(None)),
            shown(&rows),
            "seed {seed}: variants"
        );

        // Selected round-trip: only the selected rows survive, in order.
        let selection: Vec<u32> = (0..len)
            .filter(|_| rng.random_bool(0.4))
            .map(|i| i as u32)
            .collect();
        let expect: Vec<Row> = selection
            .iter()
            .map(|&i| rows[i as usize].clone())
            .collect();
        let selected = rb.clone().with_selection(selection);
        let re = ColumnarBatch::from_row_batch(schema.clone(), &selected);
        assert_eq!(re.num_rows(), expect.len(), "seed {seed}: selected count");
        assert_eq!(re.decode(None), expect, "seed {seed}: selected re-encode");
        assert_eq!(
            shown(&re.decode(None)),
            shown(&expect),
            "seed {seed}: variants"
        );
        for (j, c) in re.columns().iter().enumerate() {
            let fresh = EncodedColumn::encode(&ColumnVector::from_values(
                &schema.fields()[j].dtype,
                expect.iter().map(|r| r.get(j).clone()).collect(),
            ));
            assert_eq!(c.stats, fresh.stats, "seed {seed}: column {j} statistics");
            assert_eq!(c.bytes(), fresh.bytes(), "seed {seed}: column {j} bytes");
        }
    }
}
