//! Per-column statistics of a batch, used to skip whole batches during
//! cached scans and columnar-file scans. The fold itself is
//! [`catalyst::source::ColumnStats`], shared with in-memory tables; the
//! encoder feeds it the lanes it stores
//! ([`EncodedColumn::encode`](crate::EncodedColumn::encode)).

pub use catalyst::source::ColumnStats;
use catalyst::source::Filter;
use catalyst::value::Value;
use std::cmp::Ordering;

/// Could any row of a batch with `stats` satisfy `filter`? `false` means
/// the batch can be skipped entirely. Conservative: unknown ⇒ `true`.
pub fn may_match(stats: &ColumnStats, filter: &Filter) -> bool {
    let all_null = stats.null_count == stats.row_count;
    let contains = |v: &Value| match (&stats.min, &stats.max) {
        (Some(min), Some(max)) => {
            min.total_cmp(v) != Ordering::Greater && max.total_cmp(v) != Ordering::Less
        }
        _ => true,
    };
    match filter {
        Filter::IsNull(_) => stats.null_count > 0,
        Filter::IsNotNull(_) => !all_null,
        _ if all_null => false,
        Filter::Eq(_, v) => contains(v),
        Filter::Gt(_, v) => match &stats.max {
            Some(max) => max.total_cmp(v) == Ordering::Greater,
            None => true,
        },
        Filter::GtEq(_, v) => match &stats.max {
            Some(max) => max.total_cmp(v) != Ordering::Less,
            None => true,
        },
        Filter::Lt(_, v) => match &stats.min {
            Some(min) => min.total_cmp(v) == Ordering::Less,
            None => true,
        },
        Filter::LtEq(_, v) => match &stats.min {
            Some(min) => min.total_cmp(v) != Ordering::Greater,
            None => true,
        },
        Filter::In(_, vs) => vs.iter().any(contains),
        // Strings starting with `p` sort from `p` on, one contiguous
        // range: none lies below `p`, and a value above `p` that does not
        // start with it sorts after all of them.
        Filter::StringStartsWith(_, p) => match (&stats.min, &stats.max) {
            (Some(Value::Str(min)), Some(Value::Str(max))) => {
                let p = p.as_str();
                max.as_ref() >= p && (min.as_ref() <= p || min.starts_with(p))
            }
            _ => true,
        },
        Filter::StringContains(_, _) => true,
    }
}

/// Each column's stats merged over `batches` — what a cache block or a
/// file keeps beside its batches so nobody has to walk them again.
pub fn merge_batch_stats<'a>(
    batches: impl IntoIterator<Item = &'a crate::ColumnarBatch>,
    num_columns: usize,
) -> Vec<ColumnStats> {
    let mut merged: Vec<ColumnStats> = vec![ColumnStats::default(); num_columns];
    for b in batches {
        for (i, m) in merged.iter_mut().enumerate() {
            m.merge(b.stats(i));
        }
    }
    merged
}

/// Merged per-column stats as the relation-level
/// [`catalyst::source::ColumnStatistics`] a source reports to the
/// constraint pass. Stats merged over nothing are the exact statistics
/// of an empty relation (zero rows, zero nulls, zero distinct values).
pub fn to_relation_statistics(merged: Vec<ColumnStats>) -> Vec<catalyst::source::ColumnStatistics> {
    merged
        .into_iter()
        .map(ColumnStats::into_statistics)
        .collect()
}

/// Aggregate per-batch column stats into relation-level statistics, one
/// entry per column.
pub fn relation_statistics<'a>(
    batches: impl IntoIterator<Item = &'a crate::ColumnarBatch>,
    num_columns: usize,
) -> Vec<catalyst::source::ColumnStatistics> {
    to_relation_statistics(merge_batch_stats(batches, num_columns))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold(values: &[Value]) -> ColumnStats {
        let mut s = ColumnStats::default();
        values.iter().for_each(|v| s.update(v));
        s
    }

    fn stats(vals: &[i64]) -> ColumnStats {
        let values: Vec<Value> = vals.iter().map(|&v| Value::Long(v)).collect();
        fold(&values)
    }

    #[test]
    fn min_max_null_count() {
        let mut values: Vec<Value> = vec![Value::Long(5), Value::Null, Value::Long(-2)];
        values.push(Value::Long(9));
        let s = fold(&values);
        assert_eq!(s.min, Some(Value::Long(-2)));
        assert_eq!(s.max, Some(Value::Long(9)));
        assert_eq!(s.null_count, 1);
    }

    #[test]
    fn skipping_out_of_range_batches() {
        let s = stats(&[10, 20, 30]);
        assert!(!may_match(&s, &Filter::Gt("x".into(), Value::Long(30))));
        assert!(may_match(&s, &Filter::Gt("x".into(), Value::Long(29))));
        assert!(!may_match(&s, &Filter::Lt("x".into(), Value::Long(10))));
        assert!(may_match(&s, &Filter::LtEq("x".into(), Value::Long(10))));
        assert!(!may_match(&s, &Filter::Eq("x".into(), Value::Long(5))));
        assert!(may_match(&s, &Filter::Eq("x".into(), Value::Long(25))));
        assert!(!may_match(
            &s,
            &Filter::In("x".into(), vec![Value::Long(1), Value::Long(2)])
        ));
    }

    #[test]
    fn null_filters() {
        let s = stats(&[1, 2]);
        assert!(!may_match(&s, &Filter::IsNull("x".into())));
        assert!(may_match(&s, &Filter::IsNotNull("x".into())));
        let all_null = fold(&[Value::Null, Value::Null]);
        assert!(may_match(&all_null, &Filter::IsNull("x".into())));
        assert!(!may_match(&all_null, &Filter::IsNotNull("x".into())));
        assert!(!may_match(
            &all_null,
            &Filter::Eq("x".into(), Value::Long(1))
        ));
    }

    fn strings(values: &[&str]) -> ColumnStats {
        let values: Vec<Value> = values.iter().map(|&v| Value::str(v)).collect();
        fold(&values)
    }

    fn starts_with(p: &str) -> Filter {
        Filter::StringStartsWith("s".into(), p.into())
    }

    #[test]
    fn prefix_filters_skip_batches_outside_the_prefix_range() {
        let s = strings(&["apple", "banana"]);
        assert!(!may_match(&s, &starts_with("zebra")));
        assert!(!may_match(&s, &starts_with("aa")));
        assert!(!may_match(&s, &starts_with("bb")));
        for p in ["", "a", "ap", "apple", "b", "banana", "az"] {
            assert!(may_match(&s, &starts_with(p)), "{p}");
        }
    }

    /// Statistics of values one of which starts with `p` never let a
    /// prefix filter skip them, and a skip does happen for some batches.
    #[test]
    fn prefix_filters_never_skip_a_batch_holding_a_match() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        const ALPHABET: &[&str] = &["a", "b", "z", "é", "\u{0}", "ab"];
        let mut rng = StdRng::seed_from_u64(0x5747);
        let word = |rng: &mut StdRng, max: usize| -> String {
            (0..rng.random_range(0..max + 1))
                .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())])
                .collect()
        };
        let mut skipped = 0;
        for _ in 0..5_000 {
            let mut values: Vec<Value> = (0..rng.random_range(1usize..5))
                .map(|_| Value::str(word(&mut rng, 4)))
                .collect();
            if rng.random_bool(0.2) {
                values.push(Value::Null);
            }
            let filter = starts_with(&word(&mut rng, 3));
            let stats = fold(&values);
            let holds_a_match = values.iter().any(|v| filter.matches(v));
            if holds_a_match {
                assert!(may_match(&stats, &filter), "{values:?} {filter:?}");
            } else if !may_match(&stats, &filter) {
                skipped += 1;
            }
        }
        assert!(skipped > 100, "only {skipped} batches skipped");
    }
}
