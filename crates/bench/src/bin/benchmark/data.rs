//! Seeded generator for the AMPLab web-analytics tables (Pavlo et al.,
//! the schema behind the paper's Figure 8) and their registration with
//! the engine. The engine only ever sees what this module generates.

use catalyst::{DataType, Row, Schema, SchemaRef, StructField, Value};
use datasources::ColFileRelation;
use spark_sql::SQLContext;
use std::sync::Arc;

/// Rows of `rankings`.
pub const PAGES: usize = 100_000;
/// Rows of `uservisits`.
pub const VISITS: usize = 150_000;
/// Rows per colfile row group (= one scan task).
pub const ROWS_PER_GROUP: usize = 4096;

/// Days since 1970-01-01 of the dates the queries name.
pub const DAY_1980_01_01: i32 = 3652;
pub const DAY_1980_04_01: i32 = 3743;
pub const DAY_1983_01_01: i32 = 4748;
pub const DAY_2010_01_01: i32 = 14610;

/// splitmix64: small, seedable, and good enough to shape test data.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_A3B1_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

pub struct Ranking {
    pub page_url: String,
    pub page_rank: i32,
    pub avg_duration: i32,
}

pub struct Visit {
    pub source_ip: String,
    pub dest_url: String,
    pub visit_date: i32,
    /// A multiple of 1/1024 below 1000, so every sum of revenues is exact
    /// in an f64 and does not depend on the order the engine adds them in.
    pub ad_revenue: f64,
}

/// The raw generated vectors: the engine gets them as rows, the
/// hand-written references in `reference.rs` read them directly.
pub struct Tables {
    pub rankings: Vec<Ranking>,
    pub visits: Vec<Visit>,
}

pub fn generate(seed: u64, pages: usize, visits: usize) -> Tables {
    let mut rng = Rng::new(seed);
    let rankings = (0..pages)
        .map(|i| {
            // Cubed uniform: many small ranks, few large ones.
            let r = rng.unit();
            Ranking {
                page_url: format!("url{i}"),
                page_rank: (10_000.0 * r * r * r) as i32,
                avg_duration: 1 + rng.below(99) as i32,
            }
        })
        .collect();
    let visits = (0..visits)
        .map(|_| Visit {
            source_ip: format!(
                "{}.{}.{}.{}",
                1 + rng.below(239),
                rng.below(256),
                rng.below(256),
                rng.below(256)
            ),
            dest_url: format!("url{}", rng.below(pages as u64)),
            visit_date: DAY_1980_01_01 + rng.below((DAY_2010_01_01 - DAY_1980_01_01) as u64) as i32,
            ad_revenue: rng.below(1000 * 1024) as f64 / 1024.0,
        })
        .collect();
    Tables { rankings, visits }
}

pub fn rankings_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("pageURL", DataType::String, false),
        StructField::new("pageRank", DataType::Int, false),
        StructField::new("avgDuration", DataType::Int, false),
    ]))
}

pub fn visits_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("sourceIP", DataType::String, false),
        StructField::new("destURL", DataType::String, false),
        StructField::new("visitDate", DataType::Date, false),
        StructField::new("adRevenue", DataType::Double, false),
    ]))
}

impl Tables {
    pub fn rankings_rows(&self) -> Vec<Row> {
        self.rankings
            .iter()
            .map(|r| {
                Row::new(vec![
                    Value::str(&r.page_url),
                    Value::Int(r.page_rank),
                    Value::Int(r.avg_duration),
                ])
            })
            .collect()
    }

    pub fn visits_rows(&self) -> Vec<Row> {
        self.visits
            .iter()
            .map(|v| {
                Row::new(vec![
                    Value::str(&v.source_ip),
                    Value::str(&v.dest_url),
                    Value::Date(v.visit_date),
                    Value::Double(v.ad_revenue),
                ])
            })
            .collect()
    }

    /// Register both tables as in-memory relations.
    pub fn register_memory(&self, ctx: &SQLContext) {
        ctx.register_rows("rankings", rankings_schema(), self.rankings_rows())
            .expect("register rankings");
        ctx.register_rows("uservisits", visits_schema(), self.visits_rows())
            .expect("register uservisits");
    }

    /// Write both tables as colfiles under `dir` and register them
    /// file-backed (the paper's Parquet path). The relations are returned
    /// for their row-group counters.
    pub fn register_colfiles(&self, ctx: &SQLContext, dir: &str) -> [Arc<ColFileRelation>; 2] {
        let load = |name: &str, schema: SchemaRef, rows: Vec<Row>| {
            let path = format!("{dir}/{name}.colfile");
            ColFileRelation::write_path(&path, &schema, &rows, ROWS_PER_GROUP)
                .expect("write colfile");
            let rel = Arc::new(ColFileRelation::from_path(&path).expect("read colfile"));
            ctx.register_relation(name, rel.clone());
            rel
        };
        [
            load("rankings", rankings_schema(), self.rankings_rows()),
            load("uservisits", visits_schema(), self.visits_rows()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_tables() {
        let (a, b, c) = (
            generate(7, 50, 80),
            generate(7, 50, 80),
            generate(8, 50, 80),
        );
        let ips = |t: &Tables| {
            t.visits
                .iter()
                .map(|v| v.source_ip.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(ips(&a), ips(&b));
        assert_ne!(ips(&a), ips(&c));
    }

    #[test]
    fn date_constants_match_the_engine() {
        for (text, days) in [
            ("1980-01-01", DAY_1980_01_01),
            ("1980-04-01", DAY_1980_04_01),
            ("1983-01-01", DAY_1983_01_01),
            ("2010-01-01", DAY_2010_01_01),
        ] {
            assert_eq!(catalyst::value::parse_date(text), Some(days), "{text}");
        }
    }
}
