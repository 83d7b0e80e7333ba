//! The correctness oracle: each analytic query written by hand over the
//! raw generated vectors, never through the engine. Results are compared
//! as a row count plus an order-independent checksum.

use crate::data::{Tables, DAY_1980_01_01};
use catalyst::{Row, Value};
use std::collections::HashMap;

/// Row count and wrapping sum of per-row hashes: equal for equal
/// multisets of rows, whatever their order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

/// One cell, in the few shapes the benchmark's queries return.
pub enum Cell<'a> {
    Str(&'a str),
    Int(i64),
    F64(f64),
}

fn mix(h: u64, bytes: &[u8]) -> u64 {
    // FNV-1a, then a multiply-shift so short rows still spread.
    let mut h = h;
    for b in bytes {
        h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ (h >> 29)
}

impl Digest {
    pub fn add(&mut self, cells: &[Cell]) {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for c in cells {
            h = match c {
                Cell::Str(s) => mix(mix(h, b"s"), s.as_bytes()),
                Cell::Int(i) => mix(mix(h, b"i"), &i.to_le_bytes()),
                Cell::F64(f) => mix(mix(h, b"f"), &f.to_bits().to_le_bytes()),
            };
        }
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
    }

    /// Digest of engine output. Integer widths and dates collapse to
    /// `Int`, so the oracle does not depend on which the engine picks.
    pub fn of_rows(rows: &[Row]) -> Result<Digest, String> {
        let mut d = Digest::default();
        let mut cells = Vec::new();
        for row in rows {
            cells.clear();
            for v in row.values() {
                cells.push(match v {
                    Value::Str(s) => Cell::Str(s),
                    Value::Int(i) => Cell::Int(*i as i64),
                    Value::Long(i) => Cell::Int(*i),
                    Value::Date(i) => Cell::Int(*i as i64),
                    Value::Double(f) => Cell::F64(*f),
                    other => return Err(format!("unexpected value {other:?}")),
                });
            }
            d.add(&cells);
        }
        Ok(d)
    }
}

/// `SELECT pageURL, pageRank FROM rankings WHERE pageRank > threshold`
pub fn scan(t: &Tables, threshold: i32) -> Digest {
    let mut d = Digest::default();
    for r in t.rankings.iter().filter(|r| r.page_rank > threshold) {
        d.add(&[Cell::Str(&r.page_url), Cell::Int(r.page_rank as i64)]);
    }
    d
}

/// `substr(sourceIP, 1, len)`: addresses are ASCII, so bytes are chars.
pub fn ip_prefix(ip: &str, len: usize) -> &str {
    &ip[..len.min(ip.len())]
}

/// `SELECT substr(sourceIP,1,len), sum(adRevenue) FROM uservisits GROUP BY 1`
pub fn revenue_by_prefix(t: &Tables, len: usize) -> Digest {
    let mut groups: HashMap<&str, f64> = HashMap::new();
    for v in &t.visits {
        *groups.entry(ip_prefix(&v.source_ip, len)).or_insert(0.0) += v.ad_revenue;
    }
    let mut d = Digest::default();
    for (prefix, revenue) in groups {
        d.add(&[Cell::Str(prefix), Cell::F64(revenue)]);
    }
    d
}

/// The join query's answer: `(sourceIP, totalRevenue, avgPageRank)` of
/// every address tied for the highest revenue among visits dated from
/// 1980-01-01 to `hi_date` inclusive. `LIMIT 1` may return any of them.
pub fn top_revenue(t: &Tables, hi_date: i32) -> Vec<(String, f64, f64)> {
    let rank_of: HashMap<&str, i32> = t
        .rankings
        .iter()
        .map(|r| (r.page_url.as_str(), r.page_rank))
        .collect();
    let mut groups: HashMap<&str, (f64, i64, i64)> = HashMap::new();
    for v in &t.visits {
        if v.visit_date < DAY_1980_01_01 || v.visit_date > hi_date {
            continue;
        }
        if let Some(rank) = rank_of.get(v.dest_url.as_str()) {
            let g = groups.entry(&v.source_ip).or_insert((0.0, 0, 0));
            g.0 += v.ad_revenue;
            g.1 += *rank as i64;
            g.2 += 1;
        }
    }
    let best = groups.values().map(|g| g.0).fold(f64::MIN, f64::max);
    groups
        .into_iter()
        .filter(|(_, g)| g.0 == best)
        .map(|(ip, g)| (ip.to_string(), g.0, g.1 as f64 / g.2 as f64))
        .collect()
}

/// `SELECT sourceIP, adRevenue FROM uservisits ORDER BY adRevenue`
/// (the order itself is checked on the engine's rows by the caller).
pub fn visits_by_revenue(t: &Tables) -> Digest {
    let mut d = Digest::default();
    for v in &t.visits {
        d.add(&[Cell::Str(&v.source_ip), Cell::F64(v.ad_revenue)]);
    }
    d
}

/// `SELECT sourceIP, adRevenue, rank() OVER (PARTITION BY
/// substr(sourceIP,1,6) ORDER BY adRevenue DESC) FROM uservisits`
pub fn revenue_rank(t: &Tables) -> Digest {
    let mut parts: HashMap<&str, Vec<(&str, f64)>> = HashMap::new();
    for v in &t.visits {
        parts
            .entry(ip_prefix(&v.source_ip, 6))
            .or_default()
            .push((&v.source_ip, v.ad_revenue));
    }
    let mut d = Digest::default();
    for rows in parts.values_mut() {
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut rank = 0;
        for (i, (ip, revenue)) in rows.iter().enumerate() {
            // Ties share the rank of their first row.
            if i == 0 || rows[i - 1].1 != *revenue {
                rank = i as i64 + 1;
            }
            d.add(&[Cell::Str(ip), Cell::F64(*revenue), Cell::Int(rank)]);
        }
    }
    d
}

/// Is column `col` (a double) non-decreasing down the rows?
pub fn non_decreasing(rows: &[Row], col: usize) -> bool {
    rows.windows(2)
        .all(|w| w[0].get_double(col) <= w[1].get_double(col))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{generate, Ranking, Visit, DAY_2010_01_01};

    #[test]
    fn digest_ignores_order_but_not_content() {
        let (mut a, mut b, mut c) = (Digest::default(), Digest::default(), Digest::default());
        a.add(&[Cell::Str("x"), Cell::Int(1)]);
        a.add(&[Cell::Str("y"), Cell::F64(2.0)]);
        b.add(&[Cell::Str("y"), Cell::F64(2.0)]);
        b.add(&[Cell::Str("x"), Cell::Int(1)]);
        c.add(&[Cell::Str("x"), Cell::Int(2)]);
        c.add(&[Cell::Str("y"), Cell::F64(2.0)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn references_on_a_table_small_enough_to_check_by_eye() {
        let visit = |ip: &str, url: &str, day: i32, revenue: f64| Visit {
            source_ip: ip.into(),
            dest_url: url.into(),
            visit_date: day,
            ad_revenue: revenue,
        };
        let t = Tables {
            rankings: vec![
                Ranking {
                    page_url: "a".into(),
                    page_rank: 10,
                    avg_duration: 1,
                },
                Ranking {
                    page_url: "b".into(),
                    page_rank: 30,
                    avg_duration: 2,
                },
            ],
            visits: vec![
                visit("1.2.3.4", "a", DAY_1980_01_01, 5.0),
                visit("1.2.3.4", "b", DAY_1980_01_01 + 1, 7.0),
                visit("1.2.3.9", "b", DAY_1980_01_01, 12.0),
                visit("9.9.9.9", "nowhere", DAY_1980_01_01, 99.0),
                visit("1.2.3.9", "a", DAY_2010_01_01, 50.0),
            ],
        };
        assert_eq!(scan(&t, 10).rows, 1);
        assert_eq!(revenue_by_prefix(&t, 6).rows, 2);
        // Both addresses total 12.0 up to the day before 2010-01-01.
        let mut tied = top_revenue(&t, DAY_2010_01_01 - 1);
        tied.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(
            tied,
            vec![
                ("1.2.3.4".into(), 12.0, 20.0),
                ("1.2.3.9".into(), 12.0, 30.0)
            ]
        );
        assert_eq!(
            top_revenue(&t, DAY_2010_01_01),
            vec![("1.2.3.9".into(), 62.0, 20.0)]
        );
        let mut expect = Digest::default();
        expect.add(&[Cell::Str("1.2.3.9"), Cell::F64(50.0), Cell::Int(1)]);
        expect.add(&[Cell::Str("1.2.3.9"), Cell::F64(12.0), Cell::Int(2)]);
        expect.add(&[Cell::Str("1.2.3.4"), Cell::F64(7.0), Cell::Int(3)]);
        expect.add(&[Cell::Str("1.2.3.4"), Cell::F64(5.0), Cell::Int(4)]);
        expect.add(&[Cell::Str("9.9.9.9"), Cell::F64(99.0), Cell::Int(1)]);
        assert_eq!(revenue_rank(&t), expect);
    }

    #[test]
    fn rank_ties_share_a_rank() {
        let mut t = generate(3, 10, 0);
        for revenue in [4.0, 4.0, 1.0] {
            t.visits.push(Visit {
                source_ip: "1.1.1.1".into(),
                dest_url: "url0".into(),
                visit_date: DAY_1980_01_01,
                ad_revenue: revenue,
            });
        }
        let mut expect = Digest::default();
        expect.add(&[Cell::Str("1.1.1.1"), Cell::F64(4.0), Cell::Int(1)]);
        expect.add(&[Cell::Str("1.1.1.1"), Cell::F64(4.0), Cell::Int(1)]);
        expect.add(&[Cell::Str("1.1.1.1"), Cell::F64(1.0), Cell::Int(3)]);
        assert_eq!(revenue_rank(&t), expect);
    }
}
