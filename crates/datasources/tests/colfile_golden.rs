//! A colfile written from a fixed table must not move by a byte, and must
//! read back as the table it was written from.
//!
//! The table covers every column encoding (run-length, plain integers,
//! dictionary and plain strings, bit-packed booleans, plain floats, a
//! shredded struct and a boxed decimal), NULLs in each, a row group in
//! which one column is all NULL, IEEE edge doubles, and the widened cases
//! a plan produces: `Int` values in BIGINT columns (an INT sum) and
//! `Float` values in a DOUBLE column. `golden/lanes.rcf` holds its bytes;
//! the statistics in every column chunk are part of them. Only a
//! deliberate format change rewrites it, with
//! `write_colfile(&schema(), &table(true), ROWS_PER_GROUP)`.

use catalyst::row::Row;
use catalyst::schema::{Schema, SchemaRef};
use catalyst::types::{DataType, StructField};
use catalyst::value::Value;
use datasources::{read_colfile, write_colfile};
use std::sync::Arc;

const GOLDEN: &[u8] = include_bytes!("golden/lanes.rcf");
const ROWS: usize = 300;
const ROWS_PER_GROUP: usize = 128;

fn schema() -> SchemaRef {
    let point = DataType::struct_type(vec![
        StructField::new("x", DataType::Double, true),
        StructField::new("y", DataType::Long, true),
    ]);
    let fields = [
        ("runs", DataType::Int),
        ("ints", DataType::Int),
        ("day", DataType::Date),
        ("big", DataType::Long),
        ("steps", DataType::Long),
        ("ts", DataType::Timestamp),
        ("f", DataType::Float),
        ("d", DataType::Double),
        ("cat", DataType::String),
        ("name", DataType::String),
        ("flag", DataType::Boolean),
        ("sparse", DataType::Int),
        ("point", point),
        ("amount", DataType::Decimal(10, 2)),
    ];
    Arc::new(Schema::new(
        fields
            .into_iter()
            .map(|(name, dtype)| StructField::new(name, dtype, true))
            .collect(),
    ))
}

fn null_or(null: bool, v: Value) -> Value {
    if null {
        Value::Null
    } else {
        v
    }
}

/// Row `i` of the table. With `narrow`, the widened cases hold the
/// narrower variant a plan produces; without it every value has its
/// column's own variant, which is what a read gives back.
fn row(i: usize, narrow: bool) -> Row {
    let n = i as i64;
    let long = |x: i64, narrow_here: bool| {
        if narrow && narrow_here {
            Value::Int(x as i32)
        } else {
            Value::Long(x)
        }
    };
    let d = match i % 9 {
        0 => Value::Double(f64::NAN),
        1 => Value::Double(-0.0),
        2 => Value::Double(0.0),
        3 => Value::Double(f64::INFINITY),
        4 => Value::Double(f64::NEG_INFINITY),
        _ if narrow && i.is_multiple_of(2) => Value::Float(n as f32 / 8.0),
        _ => Value::Double(n as f64 / 8.0),
    };
    let point = Value::Struct(Arc::new(vec![
        null_or(i % 7 == 3, Value::Double(n as f64 * 1.5)),
        null_or(i.is_multiple_of(6), long(n % 4, i % 2 == 1)),
    ]));
    Row::new(vec![
        null_or(i % 17 == 5, Value::Int((i / 40) as i32)),
        Value::Int((i * 7919 % 1000) as i32 - 500),
        null_or(i.is_multiple_of(23), Value::Date(18_000 + (i / 30) as i32)),
        null_or(
            i % 29 == 7,
            long(n * 104_729 % 100_003 - 50_000, i.is_multiple_of(3)),
        ),
        long(n / 64, i.is_multiple_of(2)),
        null_or(
            i.is_multiple_of(11),
            Value::Timestamp(1_600_000_000_000_000 + n * 1_000_003),
        ),
        null_or(i.is_multiple_of(13), Value::Float(n as f32 * 0.25 - 10.0)),
        null_or(i % 10 == 6, d),
        null_or(i.is_multiple_of(19), Value::str(format!("cat{}", i % 5))),
        match i % 50 {
            3 => Value::str(""),
            7 => Value::str(format!("é-{i}")),
            _ => Value::str(format!("name-{i}-{}", i * i % 97)),
        },
        null_or(i.is_multiple_of(7), Value::Boolean(i.is_multiple_of(3))),
        null_or(i >= 10, Value::Int(i as i32)),
        null_or(i.is_multiple_of(8), point),
        null_or(
            i.is_multiple_of(12),
            Value::Decimal(n as i128 * 125 - 7_000, 10, 2),
        ),
    ])
}

fn table(narrow: bool) -> Vec<Row> {
    (0..ROWS).map(|i| row(i, narrow)).collect()
}

#[test]
fn writing_the_table_gives_the_golden_bytes() {
    let written = write_colfile(&schema(), &table(true), ROWS_PER_GROUP);
    assert_eq!(written.len(), GOLDEN.len(), "colfile length moved");
    let first = written.iter().zip(GOLDEN).position(|(a, b)| a != b);
    assert_eq!(first, None, "colfile bytes moved at offset {first:?}");
}

#[test]
fn the_golden_file_reads_back_as_the_table() {
    let file = read_colfile(bytes::Bytes::from_static(GOLDEN)).expect("read golden");
    assert_eq!(*file.schema, *schema());
    assert_eq!(file.groups.len(), ROWS.div_ceil(ROWS_PER_GROUP));
    let encodings: Vec<Vec<&str>> = (file.groups.iter())
        .map(|g| g.columns().iter().map(|c| c.encoding_name()).collect())
        .collect();
    for names in &encodings {
        let expect = [
            "rle",
            "plain-int",
            "rle",
            "plain-int",
            "rle",
            "plain-int",
            "plain-float",
            "plain-float",
            "dict",
            "plain-str",
            "bool-packed",
            "rle",
            "struct-cols",
            "boxed",
        ];
        assert_eq!(names, &expect);
    }
    let read: Vec<Row> = file.groups.iter().flat_map(|g| g.decode(None)).collect();
    // Debug tells the variants apart (`Int(1)` from `Long(1)`) and prints
    // NaN and -0.0 exactly.
    let read: Vec<String> = read.iter().map(|r| format!("{r:?}")).collect();
    let expect: Vec<String> = table(false).iter().map(|r| format!("{r:?}")).collect();
    assert_eq!(read, expect);
}
