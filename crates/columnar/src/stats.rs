//! Per-column min/max/null statistics, used to skip whole batches during
//! cached scans and columnar-file scans.

use catalyst::ndv::NdvSketch;
use catalyst::source::Filter;
use catalyst::value::Value;
use std::cmp::Ordering;

/// Statistics for one column of one batch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColumnStats {
    /// Minimum non-null value.
    pub min: Option<Value>,
    /// Maximum non-null value.
    pub max: Option<Value>,
    /// Number of nulls.
    pub null_count: u64,
    /// Number of rows.
    pub row_count: u64,
    /// Distinct-count sketch over the non-null values; merged across
    /// batches exactly like min/max, and serialized in the colfile
    /// footer so file scans report NDV without decoding data pages.
    pub ndv: NdvSketch,
}

impl ColumnStats {
    /// Compute stats over a value slice.
    pub fn from_values(values: &[Value]) -> Self {
        let mut s = ColumnStats {
            row_count: values.len() as u64,
            ..Default::default()
        };
        for v in values {
            s.update(v);
        }
        s
    }

    /// Fold one value in.
    pub fn update(&mut self, v: &Value) {
        if v.is_null() {
            self.null_count += 1;
            return;
        }
        self.ndv.insert(v);
        match &self.min {
            Some(m) if v.total_cmp(m) != Ordering::Less => {}
            _ => self.min = Some(v.clone()),
        }
        match &self.max {
            Some(m) if v.total_cmp(m) != Ordering::Greater => {}
            _ => self.max = Some(v.clone()),
        }
    }

    /// Could any row in this batch satisfy `filter`? `false` means the
    /// batch can be skipped entirely. Conservative: unknown ⇒ `true`.
    pub fn may_match(&self, filter: &Filter) -> bool {
        let all_null = self.null_count == self.row_count;
        match filter {
            Filter::IsNull(_) => self.null_count > 0,
            Filter::IsNotNull(_) => !all_null,
            _ if all_null => false,
            Filter::Eq(_, v) => self.contains(v),
            Filter::Gt(_, v) => match &self.max {
                Some(max) => max.total_cmp(v) == Ordering::Greater,
                None => true,
            },
            Filter::GtEq(_, v) => match &self.max {
                Some(max) => max.total_cmp(v) != Ordering::Less,
                None => true,
            },
            Filter::Lt(_, v) => match &self.min {
                Some(min) => min.total_cmp(v) == Ordering::Less,
                None => true,
            },
            Filter::LtEq(_, v) => match &self.min {
                Some(min) => min.total_cmp(v) != Ordering::Greater,
                None => true,
            },
            Filter::In(_, vs) => vs.iter().any(|v| self.contains(v)),
            // Prefix match: min/max on strings bound the prefix range.
            Filter::StringStartsWith(_, p) => match (&self.min, &self.max) {
                (Some(Value::Str(min)), Some(Value::Str(max))) => {
                    min.as_ref() <= p.as_str() || min.starts_with(p.as_str()) || {
                        // p could sort between min and max.
                        max.as_ref() >= p.as_str()
                    }
                }
                _ => true,
            },
            Filter::StringContains(_, _) => true,
        }
    }

    fn contains(&self, v: &Value) -> bool {
        match (&self.min, &self.max) {
            (Some(min), Some(max)) => {
                min.total_cmp(v) != Ordering::Greater && max.total_cmp(v) != Ordering::Less
            }
            _ => true,
        }
    }

    /// Fold another batch's stats for the same column into this one.
    pub fn merge(&mut self, other: &ColumnStats) {
        self.null_count += other.null_count;
        self.row_count += other.row_count;
        self.ndv.merge(&other.ndv);
        if let Some(m) = &other.min {
            match &self.min {
                Some(mine) if m.total_cmp(mine) != Ordering::Less => {}
                _ => self.min = Some(m.clone()),
            }
        }
        if let Some(m) = &other.max {
            match &self.max {
                Some(mine) if m.total_cmp(mine) != Ordering::Greater => {}
                _ => self.max = Some(m.clone()),
            }
        }
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
        .map(|s| catalyst::source::ColumnStatistics {
            ndv: Some(s.ndv.estimate()),
            min: s.min,
            max: s.max,
            null_count: Some(s.null_count),
            row_count: Some(s.row_count),
            partial: false,
        })
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

    fn stats(vals: &[i64]) -> ColumnStats {
        let values: Vec<Value> = vals.iter().map(|&v| Value::Long(v)).collect();
        ColumnStats::from_values(&values)
    }

    #[test]
    fn min_max_null_count() {
        let mut values: Vec<Value> = vec![Value::Long(5), Value::Null, Value::Long(-2)];
        values.push(Value::Long(9));
        let s = ColumnStats::from_values(&values);
        assert_eq!(s.min, Some(Value::Long(-2)));
        assert_eq!(s.max, Some(Value::Long(9)));
        assert_eq!(s.null_count, 1);
    }

    #[test]
    fn skipping_out_of_range_batches() {
        let s = stats(&[10, 20, 30]);
        assert!(!s.may_match(&Filter::Gt("x".into(), Value::Long(30))));
        assert!(s.may_match(&Filter::Gt("x".into(), Value::Long(29))));
        assert!(!s.may_match(&Filter::Lt("x".into(), Value::Long(10))));
        assert!(s.may_match(&Filter::LtEq("x".into(), Value::Long(10))));
        assert!(!s.may_match(&Filter::Eq("x".into(), Value::Long(5))));
        assert!(s.may_match(&Filter::Eq("x".into(), Value::Long(25))));
        assert!(!s.may_match(&Filter::In(
            "x".into(),
            vec![Value::Long(1), Value::Long(2)]
        )));
    }

    #[test]
    fn null_filters() {
        let s = stats(&[1, 2]);
        assert!(!s.may_match(&Filter::IsNull("x".into())));
        assert!(s.may_match(&Filter::IsNotNull("x".into())));
        let all_null = ColumnStats::from_values(&[Value::Null, Value::Null]);
        assert!(all_null.may_match(&Filter::IsNull("x".into())));
        assert!(!all_null.may_match(&Filter::IsNotNull("x".into())));
        assert!(!all_null.may_match(&Filter::Eq("x".into(), Value::Long(1))));
    }
}
