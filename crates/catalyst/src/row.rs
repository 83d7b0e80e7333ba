//! Rows: the tuple representation flowing between physical operators.

use crate::value::Value;
use std::fmt;

/// A single record. Field order matches the owning schema.
///
/// Clones are cheap-ish: scalar values copy inline and string/array
/// payloads are `Arc`-shared, which matters when rows cross the shuffle.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// Empty row.
    pub fn empty() -> Self {
        Row { values: vec![] }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the row has no fields.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Consume into the value vector.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// True if the value at `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.values[i].is_null()
    }

    /// i64 accessor (panics on type mismatch — used by typed readers).
    pub fn get_long(&self, i: usize) -> i64 {
        self.values[i].as_i64().expect("not an integral value")
    }

    /// f64 accessor.
    pub fn get_double(&self, i: usize) -> f64 {
        self.values[i].as_f64().expect("not a numeric value")
    }

    /// str accessor.
    pub fn get_str(&self, i: usize) -> &str {
        self.values[i].as_str().expect("not a string value")
    }

    /// bool accessor.
    pub fn get_bool(&self, i: usize) -> bool {
        self.values[i].as_bool().expect("not a boolean value")
    }

    /// Project a subset of columns into a new row.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row::new(indices.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Concatenate two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Row::new(values)
    }

    /// Approximate in-memory footprint (for the §3.6 cache comparison).
    pub fn approx_bytes(&self) -> u64 {
        Row::approx_bytes_of(&self.values)
    }

    /// [`Row::approx_bytes`] of a row holding `values`, without building it.
    pub fn approx_bytes_of<'a>(values: impl IntoIterator<Item = &'a Value>) -> u64 {
        24 + values.into_iter().map(Value::approx_bytes).sum::<u64>()
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Convenience macro for building rows in tests and examples.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::row::Row::new(vec![$($v),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn accessors_and_projection() {
        let r = Row::new(vec![Value::Long(1), Value::str("x"), Value::Double(2.5)]);
        assert_eq!(r.get_long(0), 1);
        assert_eq!(r.get_str(1), "x");
        assert_eq!(r.get_double(2), 2.5);
        let p = r.project(&[2, 0]);
        assert_eq!(p, Row::new(vec![Value::Double(2.5), Value::Long(1)]));
    }

    #[test]
    fn concat_joins_rows() {
        let a = Row::new(vec![Value::Int(1)]);
        let b = Row::new(vec![Value::Int(2), Value::Int(3)]);
        assert_eq!(a.concat(&b).len(), 3);
    }

    #[test]
    fn rows_are_hashable_group_keys() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Row::new(vec![Value::Int(1), Value::str("a")]));
        set.insert(Row::new(vec![Value::Int(1), Value::str("a")]));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn row_macro_builds_rows() {
        let r = row![Value::Int(1), Value::Null];
        assert_eq!(r.len(), 2);
        assert!(r.is_null(1));
    }
}
