//! Layer probes with hand-written floors, in the manner of the paper's
//! Figure 4: each times one layer's primitive on the generated
//! `uservisits` with a fixed iteration count, beside the same job written
//! by hand with none of the layer's generality. The distance between the
//! two is what the layer could still give back.

use crate::data::{visits_schema, Tables, Visit, ROWS_PER_GROUP};
use crate::run::{put, Metrics};
use crate::stats::median;
use catalyst::{DataType, Row};
use columnar::{ColumnarBatch, SpillCodec};
use datasources::{read_colfile, write_colfile};
use service::server::row_json;
use service::wire::{read_frame, write_frame};
use service::Json;
use std::hint::black_box;
use std::time::Instant;

/// Rows each probe works on.
const ROWS: usize = 32_768;
/// Rows per spill block, as `core::spill` writes them.
const SPILL_BLOCK: usize = 256;
const REPS: usize = 3;

/// Median seconds of `REPS` runs of `f`.
fn seconds<T>(mut f: impl FnMut() -> T) -> f64 {
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&runs)
}

fn ns_per_row(seconds: f64, rows: usize) -> f64 {
    seconds * 1e9 / rows as f64
}

fn mb_per_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds
}

/// Record probe results that share a unit, each the median of `REPS`.
fn put_all<const N: usize>(layers: &mut Metrics, unit: &'static str, values: [(&str, f64); N]) {
    for (name, value) in values {
        put(layers, name, value, unit, REPS);
    }
}

// ---- the floors: one fixed schema, no encodings, no dynamic values ----

/// `uservisits` as four typed columns.
#[derive(Default)]
struct Columns {
    ip_bytes: Vec<u8>,
    ip_ends: Vec<u32>,
    url_bytes: Vec<u8>,
    url_ends: Vec<u32>,
    dates: Vec<i32>,
    revenues: Vec<f64>,
}

fn floor_to_columns(visits: &[Visit]) -> Columns {
    let mut c = Columns::default();
    for v in visits {
        c.ip_bytes.extend_from_slice(v.source_ip.as_bytes());
        c.ip_ends.push(c.ip_bytes.len() as u32);
        c.url_bytes.extend_from_slice(v.dest_url.as_bytes());
        c.url_ends.push(c.url_bytes.len() as u32);
        c.dates.push(v.visit_date);
        c.revenues.push(v.ad_revenue);
    }
    c
}

/// Column vectors a kernel could read: numbers copied, strings as views.
type Vectors<'a> = (Vec<&'a str>, Vec<&'a str>, Vec<i32>, Vec<f64>);

fn floor_to_vectors(c: &Columns) -> Vectors<'_> {
    fn views<'a>(bytes: &'a [u8], ends: &[u32]) -> Vec<&'a str> {
        let mut start = 0;
        ends.iter()
            .map(|&end| {
                let s = std::str::from_utf8(&bytes[start..end as usize]).expect("utf-8");
                start = end as usize;
                s
            })
            .collect()
    }
    (
        views(&c.ip_bytes, &c.ip_ends),
        views(&c.url_bytes, &c.url_ends),
        c.dates.clone(),
        c.revenues.clone(),
    )
}

/// Row-at-a-time, length-prefixed strings, little-endian numbers.
fn floor_encode(visits: &[Visit]) -> Vec<u8> {
    let mut out = Vec::with_capacity(visits.len() * 40);
    for v in visits {
        for s in [&v.source_ip, &v.dest_url] {
            out.push(s.len() as u8);
            out.extend_from_slice(s.as_bytes());
        }
        out.extend_from_slice(&v.visit_date.to_le_bytes());
        out.extend_from_slice(&v.ad_revenue.to_le_bytes());
    }
    out
}

fn floor_decode(mut bytes: &[u8]) -> Vec<(String, String, i32, f64)> {
    let mut rows = Vec::new();
    let text = |bytes: &mut &[u8]| {
        let (len, rest) = (bytes[0] as usize, &bytes[1..]);
        *bytes = &rest[len..];
        String::from_utf8_lossy(&rest[..len]).into_owned()
    };
    while !bytes.is_empty() {
        let (ip, url) = (text(&mut bytes), text(&mut bytes));
        let date = i32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
        let revenue = f64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes"));
        bytes = &bytes[12..];
        rows.push((ip, url, date, revenue));
    }
    rows
}

/// One pass over JSON text that finds what a parser must find — string
/// ends, escapes, and the commas and brackets outside strings — and
/// builds nothing.
fn floor_json_scan(text: &str) -> usize {
    let (mut structural, mut in_string, mut escaped) = (0, false, false);
    for b in text.bytes() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
        } else {
            match b {
                b'"' => in_string = true,
                b',' | b'[' | b']' | b'{' | b'}' | b':' => structural += 1,
                _ => {}
            }
        }
    }
    structural
}

// ---- the probes ----

fn columnar(rows: &[Row], visits: &[Visit], layers: &mut Metrics) {
    let schema = visits_schema();
    let chunks: Vec<Vec<Row>> = rows.chunks(ROWS_PER_GROUP).map(<[Row]>::to_vec).collect();
    let encode = seconds(|| {
        chunks
            .iter()
            .map(|c| ColumnarBatch::from_rows(schema.clone(), c.clone()))
            .collect::<Vec<_>>()
    });
    // `from_rows` takes its rows by value; the copy is not its work.
    let copy = seconds(|| chunks.to_vec());
    let batches: Vec<ColumnarBatch> = chunks
        .iter()
        .map(|c| ColumnarBatch::from_rows(schema.clone(), c.clone()))
        .collect();
    let decode = seconds(|| {
        batches
            .iter()
            .map(|b| b.to_row_batch(None))
            .collect::<Vec<_>>()
    });
    let floor_encode_s = seconds(|| floor_to_columns(visits));
    let columns = floor_to_columns(visits);
    let floor_decode_s = seconds(|| floor_to_vectors(&columns));
    let n = rows.len();
    put_all(
        layers,
        "ns",
        [
            (
                "columnar.encode_ns_per_row",
                ns_per_row((encode - copy).max(0.0), n),
            ),
            (
                "columnar.encode.floor_ns_per_row",
                ns_per_row(floor_encode_s, n),
            ),
            ("columnar.decode_ns_per_row", ns_per_row(decode, n)),
            (
                "columnar.decode.floor_ns_per_row",
                ns_per_row(floor_decode_s, n),
            ),
        ],
    );
}

fn spill_codec(rows: &[Row], visits: &[Visit], layers: &mut Metrics) {
    let codec = SpillCodec::new(vec![
        DataType::String,
        DataType::String,
        DataType::Date,
        DataType::Double,
    ]);
    let encode = seconds(|| {
        rows.chunks(SPILL_BLOCK)
            .map(|b| codec.encode_block(b))
            .collect::<Vec<_>>()
    });
    let blocks: Vec<Vec<u8>> = rows
        .chunks(SPILL_BLOCK)
        .map(|b| codec.encode_block(b))
        .collect();
    let bytes: usize = blocks.iter().map(Vec::len).sum();
    let decode = seconds(|| {
        blocks
            .iter()
            .map(|b| codec.decode_block(b).expect("decode spill block"))
            .collect::<Vec<_>>()
    });
    let floor_encode_s = seconds(|| {
        visits
            .chunks(SPILL_BLOCK)
            .map(floor_encode)
            .collect::<Vec<_>>()
    });
    let floor_blocks: Vec<Vec<u8>> = visits.chunks(SPILL_BLOCK).map(floor_encode).collect();
    let floor_bytes: usize = floor_blocks.iter().map(Vec::len).sum();
    let floor_decode_s = seconds(|| {
        floor_blocks
            .iter()
            .map(|b| floor_decode(b))
            .collect::<Vec<_>>()
    });
    put_all(
        layers,
        "MB/s",
        [
            ("columnar.spill_encode_mb_s", mb_per_s(bytes, encode)),
            (
                "columnar.spill_encode.floor_mb_s",
                mb_per_s(floor_bytes, floor_encode_s),
            ),
            ("columnar.spill_decode_mb_s", mb_per_s(bytes, decode)),
            (
                "columnar.spill_decode.floor_mb_s",
                mb_per_s(floor_bytes, floor_decode_s),
            ),
        ],
    );
}

fn colfile(rows: &[Row], visits: &[Visit], layers: &mut Metrics) {
    let schema = visits_schema();
    let write = seconds(|| write_colfile(&schema, rows, ROWS_PER_GROUP));
    let file = write_colfile(&schema, rows, ROWS_PER_GROUP);
    let decode = seconds(|| {
        let parsed = read_colfile(file.clone()).expect("read colfile");
        parsed
            .groups
            .iter()
            .map(|g| g.decode(None))
            .collect::<Vec<_>>()
    });
    let floor_write = seconds(|| floor_encode(visits));
    let floor_file = floor_encode(visits);
    let floor_decode_s = seconds(|| floor_decode(&floor_file));
    let n = rows.len();
    put_all(
        layers,
        "MB/s",
        [
            (
                "datasources.colfile_write_mb_s",
                mb_per_s(file.len(), write),
            ),
            (
                "datasources.colfile_write.floor_mb_s",
                mb_per_s(floor_file.len(), floor_write),
            ),
        ],
    );
    put_all(
        layers,
        "ns",
        [
            (
                "datasources.colfile_decode_ns_per_row",
                ns_per_row(decode, n),
            ),
            (
                "datasources.colfile_decode.floor_ns_per_row",
                ns_per_row(floor_decode_s, n),
            ),
        ],
    );
    put(
        layers,
        "datasources.colfile_bytes_per_row",
        file.len() as f64 / n as f64,
        "B",
        1,
    );
}

/// JSON at three sizes, so that parse cost per row growing with the size
/// of the reply is a number in the output.
fn json(tables: &Tables, layers: &mut Metrics) {
    let rows: Vec<Row> = tables
        .rankings_rows()
        .into_iter()
        .map(|r| r.project(&[0, 1]))
        .collect();
    for (label, n) in [("1k", 1 << 10), ("4k", 1 << 12), ("16k", 1 << 14)] {
        let rows = &rows[..n.min(rows.len())];
        let encode =
            || Json::obj([("rows", Json::Arr(rows.iter().map(row_json).collect()))]).encode();
        let text = encode();
        let parse = seconds(|| Json::parse(&text).expect("parse reply"));
        put(
            layers,
            format!("service.json_parse_ns_per_row.{label}"),
            ns_per_row(parse, rows.len()),
            "ns",
            REPS,
        );
        if label == "16k" {
            let encode_s = seconds(encode);
            let floor = seconds(|| floor_json_scan(&text));
            put(
                layers,
                "service.json_encode_ns_per_row",
                ns_per_row(encode_s, rows.len()),
                "ns",
                REPS,
            );
            put(
                layers,
                "service.json_parse.floor_ns_per_row",
                ns_per_row(floor, rows.len()),
                "ns",
                REPS,
            );
        }
    }
}

/// One small request written as a frame into memory and read back.
fn frame(layers: &mut Metrics) {
    const ROUND_TRIPS: usize = 2000;
    let request = Json::obj([
        ("op", Json::Str("query".into())),
        (
            "sql",
            Json::Str("SELECT pageURL, pageRank FROM rankings WHERE pageRank > 9000".into()),
        ),
    ]);
    let total = seconds(|| {
        let mut buffer = Vec::new();
        for _ in 0..ROUND_TRIPS {
            buffer.clear();
            write_frame(&mut buffer, &request).expect("write frame");
            black_box(read_frame(&mut buffer.as_slice()).expect("read frame"));
        }
    });
    put(
        layers,
        "service.frame_roundtrip_us",
        total * 1e6 / ROUND_TRIPS as f64,
        "us",
        REPS,
    );
}

/// Run every probe. The same in each workload's traced run: a probe
/// measures a layer, not a workload.
pub fn run(tables: &Tables, layers: &mut Metrics) {
    let visits = &tables.visits[..ROWS.min(tables.visits.len())];
    let rows: Vec<Row> = tables
        .visits_rows()
        .into_iter()
        .take(visits.len())
        .collect();
    columnar(&rows, visits, layers);
    spill_codec(&rows, visits, layers);
    colfile(&rows, visits, layers);
    json(tables, layers);
    frame(layers);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::generate;

    #[test]
    fn floors_round_trip_the_rows() {
        let t = generate(5, 10, 300);
        let want: Vec<(String, String, i32, f64)> = t
            .visits
            .iter()
            .map(|v| {
                (
                    v.source_ip.clone(),
                    v.dest_url.clone(),
                    v.visit_date,
                    v.ad_revenue,
                )
            })
            .collect();
        assert_eq!(floor_decode(&floor_encode(&t.visits)), want);
        let columns = floor_to_columns(&t.visits);
        let (ips, urls, dates, revenues) = floor_to_vectors(&columns);
        let back: Vec<(String, String, i32, f64)> = (0..dates.len())
            .map(|i| (ips[i].into(), urls[i].into(), dates[i], revenues[i]))
            .collect();
        assert_eq!(back, want);
    }

    #[test]
    fn json_scan_skips_strings_and_escapes() {
        assert_eq!(floor_json_scan(r#"{"a":[1,"x,]\"y,",2]}"#), 7);
    }
}
