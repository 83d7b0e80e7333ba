//! Columnar storage: typed column vectors and the [`RowBatch`] container.
//!
//! This file owns the data layout; the kernels in
//! [`kernels`](super::kernels) operate over it. The only place lanes are
//! copied back out into rows is [`RowBatch::into_selected_rows`] — the
//! single batch→row compaction boundary of the engine.
//!
//! A string lane is a [`StrLane`], as wide as an `Arc<str>` (16 bytes).
//! A string of at most [`StrLane::INLINE`] (7) bytes lives inside the
//! lane, wherever it comes from — a kernel, a stored or spilled block, a
//! [`Value`] — so it never touches the allocator or a refcount; a longer
//! one shares its `Arc<str>`. Only this file knows which form a lane
//! has: everything else reads [`StrLane::as_bytes`] (equality, hashing,
//! order, prefix words) or [`StrLane::as_str`], so the two forms of one
//! string are interchangeable.

use crate::row::Row;
use crate::types::DataType;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One string lane: a string of at most [`INLINE`](Self::INLINE) bytes
/// held in the lane, a longer one shared. The inline form sits in
/// `Arc<str>`'s null-pointer niche, so a lane is no wider than the
/// `Arc<str>` it replaces.
///
/// Build lanes with [`new`](Self::new) or [`shared`](Self::shared), which
/// pick the form; compare, hash and order them as their bytes.
#[derive(Clone)]
pub struct StrLane(Repr);

/// A lane's two forms. Private, so every inline lane holds at most
/// [`StrLane::INLINE`] bytes of UTF-8 and every short string is inline.
#[derive(Clone)]
enum Repr {
    /// The string's bytes, zero-padded, and its length.
    Inline([u8; StrLane::INLINE], u8),
    /// A string longer than [`StrLane::INLINE`] bytes.
    Shared(Arc<str>),
}

impl StrLane {
    /// The longest string a lane holds inline, in bytes.
    pub const INLINE: usize = 7;

    /// `s` as a lane: inline when it fits, else copied into a new
    /// `Arc<str>`.
    #[inline]
    pub fn new(s: &str) -> StrLane {
        match StrLane::inline(s) {
            Some(lane) => lane,
            None => StrLane(Repr::Shared(Arc::from(s))),
        }
    }

    /// `s` as a lane: inline when it fits, else sharing `s`.
    #[inline]
    pub fn shared(s: Arc<str>) -> StrLane {
        match StrLane::inline(&s) {
            Some(lane) => lane,
            None => StrLane(Repr::Shared(s)),
        }
    }

    #[inline]
    fn inline(s: &str) -> Option<StrLane> {
        let n = s.len();
        (n <= StrLane::INLINE).then(|| {
            let mut bytes = [0u8; StrLane::INLINE];
            bytes[..n].copy_from_slice(s.as_bytes());
            StrLane(Repr::Inline(bytes, n as u8))
        })
    }

    /// `s` in the shared form whatever its length — the form no
    /// constructor gives a short string — for tests that check the two
    /// forms agree.
    #[cfg(test)]
    pub(crate) fn forced_shared(s: &str) -> StrLane {
        StrLane(Repr::Shared(Arc::from(s)))
    }

    /// True when the string is held in the lane.
    #[cfg(test)]
    fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline(..))
    }

    /// The string's UTF-8 bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline(bytes, n) => &bytes[..*n as usize],
            Repr::Shared(s) => s.as_bytes(),
        }
    }

    /// The string. An inline lane's bytes are checked as UTF-8 here.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline(..) => {
                std::str::from_utf8(self.as_bytes()).expect("a string lane holds UTF-8")
            }
            Repr::Shared(s) => s,
        }
    }

    /// The string as an `Arc<str>`: a new one for an inline lane, the
    /// shared one otherwise.
    #[inline]
    pub fn to_arc(&self) -> Arc<str> {
        match &self.0 {
            Repr::Inline(..) => Arc::from(self.as_str()),
            Repr::Shared(s) => s.clone(),
        }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// True for the empty string.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for StrLane {
    fn default() -> StrLane {
        StrLane::new("")
    }
}

impl PartialEq for StrLane {
    fn eq(&self, other: &StrLane) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for StrLane {}

impl PartialOrd for StrLane {
    fn partial_cmp(&self, other: &StrLane) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Byte order, which is `str` order.
impl Ord for StrLane {
    fn cmp(&self, other: &StrLane) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

/// Hashes as the `str` it holds.
impl Hash for StrLane {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Debug for StrLane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for StrLane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Physical lane storage of one [`ColumnVector`].
///
/// `Long` lanes back Int/Long/Date/Timestamp columns and `Double` lanes
/// back Float/Double columns; the vector's declared [`DataType`] decides
/// how lanes are re-tagged into [`Value`]s (and which kernels may touch
/// them — Date/Timestamp lanes are deliberately *not* exposed to numeric
/// kernels, mirroring what the row-path code generator refuses to
/// compile).
#[derive(Debug, Clone)]
pub enum VectorData {
    /// 64-bit integer lanes (Int/Long/Date/Timestamp storage).
    Long(Vec<i64>),
    /// 64-bit float lanes (Float/Double storage).
    Double(Vec<f64>),
    /// Boolean lanes.
    Bool(Vec<bool>),
    /// String lanes: short strings inline, longer ones shared (clones
    /// are cheap either way).
    Str(Vec<StrLane>),
    /// Boxed values — the universal fallback representation.
    Values(Vec<Value>),
}

impl VectorData {
    fn len(&self) -> usize {
        match self {
            VectorData::Long(v) => v.len(),
            VectorData::Double(v) => v.len(),
            VectorData::Bool(v) => v.len(),
            VectorData::Str(v) => v.len(),
            VectorData::Values(v) => v.len(),
        }
    }

    /// Append `other`'s lanes; `false` (and nothing appended) when the
    /// two storages differ.
    fn extend_from(&mut self, other: &VectorData) -> bool {
        match (self, other) {
            (VectorData::Long(a), VectorData::Long(b)) => a.extend_from_slice(b),
            (VectorData::Double(a), VectorData::Double(b)) => a.extend_from_slice(b),
            (VectorData::Bool(a), VectorData::Bool(b)) => a.extend_from_slice(b),
            (VectorData::Str(a), VectorData::Str(b)) => a.extend_from_slice(b),
            (VectorData::Values(a), VectorData::Values(b)) => a.extend_from_slice(b),
            _ => return false,
        }
        true
    }
}

/// A [`ColumnVector::gather`] index that yields a NULL lane (the
/// null-extended side of an outer join).
pub const NULL_LANE: u32 = u32::MAX;

/// `indices` picked out of `lanes`, with `filler` at [`NULL_LANE`]s.
fn pick<T: Clone>(lanes: &[T], indices: &[u32], filler: T) -> Vec<T> {
    indices
        .iter()
        .map(|&i| {
            if i == NULL_LANE {
                filler.clone()
            } else {
                lanes[i as usize].clone()
            }
        })
        .collect()
}

/// `values` moved into lanes by `lane`; a value it has no lane for is a
/// NULL, which sets `nulls` (allocated on the first one) and takes
/// `filler`.
fn typed_lanes<T: Clone>(
    values: Vec<Value>,
    nulls: &mut Option<Vec<bool>>,
    filler: T,
    lane: impl Fn(Value) -> Option<T>,
) -> Vec<T> {
    let n = values.len();
    (values.into_iter().enumerate())
        .map(|(i, v)| {
            lane(v).unwrap_or_else(|| {
                nulls.get_or_insert_with(|| vec![false; n])[i] = true;
                filler.clone()
            })
        })
        .collect()
}

/// A typed column of lanes plus an optional null mask.
///
/// `nulls[i] == true` means lane `i` is NULL; the corresponding data lane
/// holds an arbitrary filler and must not be interpreted. A missing mask
/// means no lane is NULL (for typed data) — boxed [`VectorData::Values`]
/// lanes may additionally contain explicit [`Value::Null`]s.
#[derive(Debug, Clone)]
pub struct ColumnVector {
    pub(super) dtype: DataType,
    pub(super) data: VectorData,
    pub(super) nulls: Option<Vec<bool>>,
}

/// A typed view over the numeric lanes of a vector, for kernels.
pub(super) enum NumLanes<'a> {
    I(&'a [i64]),
    F(&'a [f64]),
}

impl ColumnVector {
    /// Build a vector from raw parts. `nulls`, when present, must be as
    /// long as `data`.
    pub fn new(dtype: DataType, data: VectorData, nulls: Option<Vec<bool>>) -> ColumnVector {
        debug_assert!(nulls.as_ref().is_none_or(|n| n.len() == data.len()));
        ColumnVector { dtype, data, nulls }
    }

    /// Build a boxed-values vector (the fallback representation).
    pub fn from_boxed(dtype: DataType, values: Vec<Value>) -> ColumnVector {
        ColumnVector {
            dtype,
            data: VectorData::Values(values),
            nulls: None,
        }
    }

    /// Build a typed vector from boxed values, falling back to boxed
    /// storage when a non-null value does not match `dtype`.
    pub fn from_values(dtype: &DataType, values: Vec<Value>) -> ColumnVector {
        let conforms = values.iter().all(|v| match dtype {
            DataType::Int => matches!(v, Value::Int(_) | Value::Null),
            DataType::Long => matches!(v, Value::Long(_) | Value::Null),
            DataType::Date => matches!(v, Value::Date(_) | Value::Null),
            DataType::Timestamp => matches!(v, Value::Timestamp(_) | Value::Null),
            DataType::Float => matches!(v, Value::Float(_) | Value::Null),
            DataType::Double => matches!(v, Value::Double(_) | Value::Null),
            DataType::Boolean => matches!(v, Value::Boolean(_) | Value::Null),
            DataType::String => matches!(v, Value::Str(_) | Value::Null),
            _ => false,
        });
        if !conforms {
            return ColumnVector::from_boxed(dtype.clone(), values);
        }
        let mut nulls = None;
        let data = match dtype {
            DataType::Int | DataType::Long | DataType::Date | DataType::Timestamp => {
                VectorData::Long(typed_lanes(values, &mut nulls, 0, |v| match v {
                    Value::Int(x) | Value::Date(x) => Some(x as i64),
                    Value::Long(x) | Value::Timestamp(x) => Some(x),
                    _ => None,
                }))
            }
            DataType::Float | DataType::Double => {
                VectorData::Double(typed_lanes(values, &mut nulls, 0.0, |v| match v {
                    Value::Float(x) => Some(x as f64),
                    Value::Double(x) => Some(x),
                    _ => None,
                }))
            }
            DataType::Boolean => {
                VectorData::Bool(typed_lanes(values, &mut nulls, false, |v| match v {
                    Value::Boolean(x) => Some(x),
                    _ => None,
                }))
            }
            DataType::String => VectorData::Str(typed_lanes(
                values,
                &mut nulls,
                StrLane::default(),
                |v| match v {
                    Value::Str(s) => Some(StrLane::shared(s)),
                    _ => None,
                },
            )),
            // Only an empty column of a type with no lanes conforms.
            _ => return ColumnVector::from_boxed(dtype.clone(), values),
        };
        ColumnVector::new(dtype.clone(), data, nulls)
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the vector has no lanes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Declared column type (decides lane re-tagging).
    pub fn dtype(&self) -> &DataType {
        &self.dtype
    }

    /// Raw lane storage.
    pub fn data(&self) -> &VectorData {
        &self.data
    }

    /// Null mask, if any lane is NULL (typed storage only).
    pub fn nulls(&self) -> Option<&[bool]> {
        self.nulls.as_deref()
    }

    /// Is lane `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        if self.nulls.as_ref().is_some_and(|n| n[i]) {
            return true;
        }
        matches!(&self.data, VectorData::Values(v) if v[i].is_null())
    }

    /// Lane `i` re-tagged as a [`Value`] according to the declared dtype.
    pub fn get(&self, i: usize) -> Value {
        if self.nulls.as_ref().is_some_and(|n| n[i]) {
            return Value::Null;
        }
        match &self.data {
            VectorData::Long(v) => match self.dtype {
                DataType::Int => Value::Int(v[i] as i32),
                DataType::Date => Value::Date(v[i] as i32),
                DataType::Timestamp => Value::Timestamp(v[i]),
                _ => Value::Long(v[i]),
            },
            VectorData::Double(v) => match self.dtype {
                DataType::Float => Value::Float(v[i] as f32),
                _ => Value::Double(v[i]),
            },
            VectorData::Bool(v) => Value::Boolean(v[i]),
            VectorData::Str(v) => Value::Str(v[i].to_arc()),
            VectorData::Values(v) => v[i].clone(),
        }
    }

    /// Predicate view of lane `i`: true iff the lane is a non-NULL SQL
    /// `TRUE` (NULL ⇒ false, mirroring `compile_predicate`).
    #[inline]
    pub fn is_true(&self, i: usize) -> bool {
        if self.nulls.as_ref().is_some_and(|n| n[i]) {
            return false;
        }
        match &self.data {
            VectorData::Bool(v) => v[i],
            VectorData::Values(v) => matches!(v[i], Value::Boolean(true)),
            _ => false,
        }
    }

    /// The lanes at `indices`, in that order, as a vector of the same type
    /// and storage; a [`NULL_LANE`] index yields a NULL lane.
    pub fn gather(&self, indices: &[u32]) -> ColumnVector {
        let data = match &self.data {
            VectorData::Long(v) => VectorData::Long(pick(v, indices, 0)),
            VectorData::Double(v) => VectorData::Double(pick(v, indices, 0.0)),
            VectorData::Bool(v) => VectorData::Bool(pick(v, indices, false)),
            VectorData::Str(v) => VectorData::Str(pick(v, indices, StrLane::default())),
            VectorData::Values(v) => VectorData::Values(pick(v, indices, Value::Null)),
        };
        let nulls = match &self.nulls {
            Some(mask) => Some(pick(mask, indices, true)),
            None if indices.contains(&NULL_LANE) => {
                Some(indices.iter().map(|&i| i == NULL_LANE).collect())
            }
            None => None,
        };
        ColumnVector::new(self.dtype.clone(), data, nulls)
    }

    /// The lanes split into `parts` vectors by `route`, which gives each
    /// lane its part: each part is [`gather`](Self::gather) of its lanes
    /// in order, with the lanes moved rather than copied.
    pub fn scatter(self, route: &[u32], parts: usize) -> Vec<ColumnVector> {
        fn split<T>(lanes: Vec<T>, route: &[u32], parts: usize) -> Vec<Vec<T>> {
            let mut out: Vec<Vec<T>> = (0..parts).map(|_| Vec::new()).collect();
            for (lane, &p) in lanes.into_iter().zip(route) {
                out[p as usize].push(lane);
            }
            out
        }
        fn each<T>(
            lanes: Vec<T>,
            route: &[u32],
            parts: usize,
            f: fn(Vec<T>) -> VectorData,
        ) -> Vec<VectorData> {
            split(lanes, route, parts).into_iter().map(f).collect()
        }
        let data = match self.data {
            VectorData::Long(v) => each(v, route, parts, VectorData::Long),
            VectorData::Double(v) => each(v, route, parts, VectorData::Double),
            VectorData::Bool(v) => each(v, route, parts, VectorData::Bool),
            VectorData::Str(v) => each(v, route, parts, VectorData::Str),
            VectorData::Values(v) => each(v, route, parts, VectorData::Values),
        };
        let mut nulls = self.nulls.map(|mask| split(mask, route, parts).into_iter());
        (data.into_iter())
            .map(|data| {
                ColumnVector::new(
                    self.dtype.clone(),
                    data,
                    nulls.as_mut().and_then(Iterator::next),
                )
            })
            .collect()
    }

    /// [`gather`](Self::gather) with `fill` in place of NULL at
    /// [`NULL_LANE`]s: a `lag`/`lead` default outside its partition.
    pub fn gather_or(&self, indices: &[u32], fill: &Value) -> ColumnVector {
        if fill.is_null() || !indices.contains(&NULL_LANE) {
            return self.gather(indices);
        }
        let values = (indices.iter())
            .map(|&i| match i {
                NULL_LANE => fill.clone(),
                i => self.get(i as usize),
            })
            .collect();
        ColumnVector::from_values(&self.dtype, values)
    }

    /// `parts` end to end as one vector of `dtype`. Parts sharing one
    /// declared type and storage concatenate lane for lane; anything else
    /// is rebuilt from its values.
    pub fn concat(dtype: &DataType, parts: &[Arc<ColumnVector>]) -> ColumnVector {
        let Some((first, rest)) = parts.split_first() else {
            return ColumnVector::from_values(dtype, Vec::new());
        };
        let mut out = (**first).clone();
        for p in rest {
            let before = out.len();
            if p.dtype != out.dtype || !out.data.extend_from(&p.data) {
                let values = parts.iter().flat_map(|p| (0..p.len()).map(|i| p.get(i)));
                return ColumnVector::from_values(dtype, values.collect());
            }
            if out.nulls.is_some() || p.nulls.is_some() {
                let mask = out.nulls.get_or_insert_with(|| vec![false; before]);
                match &p.nulls {
                    Some(m) => mask.extend_from_slice(m),
                    None => mask.resize(before + p.len(), false),
                }
            }
        }
        out
    }

    /// Approximate heap bytes of the lanes and the null mask.
    pub fn approx_bytes(&self) -> u64 {
        let lanes: u64 = match &self.data {
            VectorData::Long(v) => 8 * v.len() as u64,
            VectorData::Double(v) => 8 * v.len() as u64,
            VectorData::Bool(v) => v.len() as u64,
            VectorData::Str(v) => v.iter().map(|s| 32 + s.len() as u64).sum(),
            VectorData::Values(v) => v.iter().map(Value::approx_bytes).sum(),
        };
        lanes + self.nulls.as_ref().map_or(0, |n| n.len() as u64)
    }

    /// Integer lanes, only for Int/Long columns (Date/Timestamp lanes are
    /// hidden from numeric kernels, like in the code generator).
    pub(super) fn long_lanes(&self) -> Option<&[i64]> {
        match (&self.dtype, &self.data) {
            (DataType::Int | DataType::Long, VectorData::Long(v)) => Some(v),
            _ => None,
        }
    }

    pub(super) fn num_lanes(&self) -> Option<NumLanes<'_>> {
        match (&self.dtype, &self.data) {
            (DataType::Int | DataType::Long, VectorData::Long(v)) => Some(NumLanes::I(v)),
            (DataType::Float | DataType::Double, VectorData::Double(v)) => Some(NumLanes::F(v)),
            _ => None,
        }
    }

    pub(super) fn bool_lanes(&self) -> Option<&[bool]> {
        match (&self.dtype, &self.data) {
            (DataType::Boolean, VectorData::Bool(v)) => Some(v),
            _ => None,
        }
    }

    /// String lanes, only for String columns.
    pub fn str_lanes(&self) -> Option<&[StrLane]> {
        match (&self.dtype, &self.data) {
            (DataType::String, VectorData::Str(v)) => Some(v),
            _ => None,
        }
    }
}

/// A batch of rows in columnar form: column vectors sharing one lane
/// count, plus an optional selection vector of live lane indices.
///
/// Cloning is cheap (columns and selection are shared), so a `RowBatch`
/// flows through the engine's RDDs as an ordinary element.
#[derive(Debug, Clone)]
pub struct RowBatch {
    pub(super) columns: Vec<Arc<ColumnVector>>,
    pub(super) num_rows: usize,
    pub(super) selection: Option<Arc<Vec<u32>>>,
}

impl RowBatch {
    /// Build a batch from column vectors (each `num_rows` lanes long).
    pub fn new(columns: Vec<Arc<ColumnVector>>, num_rows: usize) -> RowBatch {
        debug_assert!(columns.iter().all(|c| c.len() == num_rows));
        RowBatch {
            columns,
            num_rows,
            selection: None,
        }
    }

    /// Transpose rows into a typed batch (the generic row→batch adapter
    /// for sources without a native vector scan).
    pub fn from_rows(dtypes: &[DataType], rows: &[Row]) -> RowBatch {
        let columns = dtypes
            .iter()
            .enumerate()
            .map(|(j, dt)| {
                let vals: Vec<Value> = rows
                    .iter()
                    .map(|r| r.values().get(j).cloned().unwrap_or(Value::Null))
                    .collect();
                Arc::new(ColumnVector::from_values(dt, vals))
            })
            .collect();
        RowBatch {
            columns,
            num_rows: rows.len(),
            selection: None,
        }
    }

    /// Physical lane count (selected or not).
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Live rows: selection length if present, else all lanes.
    pub fn selected_count(&self) -> usize {
        self.selection.as_ref().map_or(self.num_rows, |s| s.len())
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &Arc<ColumnVector> {
        &self.columns[i]
    }

    /// All columns.
    pub fn columns(&self) -> &[Arc<ColumnVector>] {
        &self.columns
    }

    /// The selection vector, if the batch has been filtered.
    pub fn selection(&self) -> Option<&[u32]> {
        self.selection.as_ref().map(|s| s.as_slice())
    }

    /// Replace the selection vector (callers pass indices already
    /// restricted to the previous selection).
    pub fn with_selection(mut self, selection: Vec<u32>) -> RowBatch {
        self.selection = Some(Arc::new(selection));
        self
    }

    /// Visit every selected lane index in order.
    #[inline]
    pub fn for_each_selected(&self, mut f: impl FnMut(usize)) {
        match &self.selection {
            Some(sel) => sel.iter().for_each(|&i| f(i as usize)),
            None => (0..self.num_rows).for_each(&mut f),
        }
    }

    /// Keep only the named columns (cheap: shares vectors). The selection
    /// vector is preserved.
    pub fn project(&self, indices: &[usize]) -> RowBatch {
        RowBatch {
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
            num_rows: self.num_rows,
            selection: self.selection.clone(),
        }
    }

    /// Gather lane `i` across all columns into a [`Row`] (fallback path).
    pub fn row(&self, i: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.get(i)).collect())
    }

    /// Compact the batch into materialized rows — the batch→row adapter.
    /// This is the only place selected lanes are copied out.
    pub fn into_selected_rows(self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.selected_count());
        self.for_each_selected(|i| out.push(self.row(i)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_build_and_get_round_trip() {
        let vals = vec![Value::Int(1), Value::Null, Value::Int(-3)];
        let v = ColumnVector::from_values(&DataType::Int, vals.clone());
        assert!(matches!(v.data(), VectorData::Long(_)));
        for (i, expect) in vals.iter().enumerate() {
            assert_eq!(&v.get(i), expect);
        }
    }

    fn values(v: &ColumnVector) -> Vec<Value> {
        (0..v.len()).map(|i| v.get(i)).collect()
    }

    #[test]
    fn gather_keeps_storage_and_picks_lanes_in_order() {
        let cases = [
            (
                DataType::Int,
                vec![Value::Int(1), Value::Null, Value::Int(-3)],
            ),
            (
                DataType::Date,
                vec![Value::Date(7), Value::Date(8), Value::Null],
            ),
            (
                DataType::Double,
                vec![Value::Double(0.5), Value::Null, Value::Double(-2.0)],
            ),
            (
                DataType::Boolean,
                vec![Value::Boolean(true), Value::Boolean(false), Value::Null],
            ),
            (
                DataType::String,
                vec![Value::str("a"), Value::Null, Value::str("c")],
            ),
        ];
        for (dtype, vals) in cases {
            let v = ColumnVector::from_values(&dtype, vals.clone());
            let g = v.gather(&[2, 0, 1, 2]);
            assert_eq!(
                std::mem::discriminant(g.data()),
                std::mem::discriminant(v.data()),
                "{dtype:?} changed storage"
            );
            assert_eq!(g.dtype(), &dtype);
            let expect: Vec<Value> = [2, 0, 1, 2].iter().map(|&i| vals[i].clone()).collect();
            assert_eq!(values(&g), expect, "{dtype:?}");
            assert!(v.gather(&[]).is_empty());
        }
    }

    #[test]
    fn scatter_is_a_gather_of_each_part() {
        let typed = vec![
            Value::str("a"),
            Value::Null,
            Value::str("c"),
            Value::str("d"),
        ];
        let boxed = vec![Value::Int(1), Value::str("x"), Value::Null, Value::Int(4)];
        for (dtype, vals) in [(DataType::String, typed), (DataType::Int, boxed)] {
            let v = ColumnVector::from_values(&dtype, vals);
            let route = [2, 0, 2, 0];
            let parts = v.clone().scatter(&route, 3);
            for (p, part) in parts.iter().enumerate() {
                let lanes: Vec<u32> = (0..4u32)
                    .filter(|&i| route[i as usize] == p as u32)
                    .collect();
                let want = v.gather(&lanes);
                assert_eq!(values(part), values(&want), "{dtype:?} part {p}");
                assert_eq!(part.nulls(), want.nulls(), "{dtype:?} part {p}");
                assert_eq!(
                    std::mem::discriminant(part.data()),
                    std::mem::discriminant(want.data())
                );
            }
        }
    }

    #[test]
    fn gather_null_lane_extends_with_nulls() {
        // No mask yet: the null lane creates one.
        let v = ColumnVector::from_values(&DataType::Long, vec![Value::Long(4), Value::Long(5)]);
        assert!(v.nulls().is_none());
        let g = v.gather(&[1, NULL_LANE, 0]);
        assert_eq!(g.nulls(), Some(&[false, true, false][..]));
        assert_eq!(
            values(&g),
            vec![Value::Long(5), Value::Null, Value::Long(4)]
        );
        // No null lane and no mask: none is made.
        assert!(v.gather(&[0, 1]).nulls().is_none());
    }

    #[test]
    fn gather_boxed_values_lanes() {
        let vals = vec![Value::Int(1), Value::str("x"), Value::Null];
        let v = ColumnVector::from_values(&DataType::Int, vals.clone());
        assert!(matches!(v.data(), VectorData::Values(_)));
        let g = v.gather(&[1, 2, NULL_LANE, 0]);
        assert!(matches!(g.data(), VectorData::Values(_)));
        assert_eq!(
            values(&g),
            vec![Value::str("x"), Value::Null, Value::Null, Value::Int(1)]
        );
        assert!(g.is_null(1) && g.is_null(2) && !g.is_null(0));
    }

    #[test]
    fn concat_joins_typed_parts_and_boxes_mixed_ones() {
        let a = Arc::new(ColumnVector::from_values(
            &DataType::Long,
            vec![Value::Long(1), Value::Long(2)],
        ));
        let b = Arc::new(ColumnVector::from_values(
            &DataType::Long,
            vec![Value::Null, Value::Long(3)],
        ));
        let c = ColumnVector::concat(&DataType::Long, &[a.clone(), b.clone()]);
        assert!(matches!(c.data(), VectorData::Long(_)));
        assert_eq!(c.nulls(), Some(&[false, false, true, false][..]));
        assert_eq!(
            values(&c),
            vec![Value::Long(1), Value::Long(2), Value::Null, Value::Long(3)]
        );
        let boxed = Arc::new(ColumnVector::from_boxed(
            DataType::Long,
            vec![Value::Long(9)],
        ));
        let m = ColumnVector::concat(&DataType::Long, &[b, boxed, a]);
        assert_eq!(
            values(&m),
            vec![
                Value::Null,
                Value::Long(3),
                Value::Long(9),
                Value::Long(1),
                Value::Long(2)
            ]
        );
        assert!(ColumnVector::concat(&DataType::String, &[]).is_empty());
    }

    /// Strings around the inline limit: 0, 6, 7, 8 and 9 bytes, and a
    /// 2-byte char ending at byte 7 and one straddling it.
    const LANE_EDGES: [&str; 7] = [
        "",
        "six666",
        "seven77",
        "eight888",
        "nine99999",
        "abcdeé",
        "abcdefé",
    ];

    #[test]
    fn a_lane_is_as_wide_as_an_arc_str() {
        assert_eq!(
            std::mem::size_of::<StrLane>(),
            std::mem::size_of::<Arc<str>>()
        );
    }

    #[test]
    fn new_and_shared_pick_the_form_by_length() {
        for make in [StrLane::new, |s: &str| StrLane::shared(Arc::from(s))] {
            for s in LANE_EDGES {
                assert_eq!(make(s).is_inline(), s.len() <= StrLane::INLINE, "{s:?}");
            }
        }
    }

    /// The inline and shared forms of one string are the same string to
    /// everything that reads a lane.
    #[test]
    fn both_forms_of_a_string_agree() {
        use std::hash::DefaultHasher;
        let hash = |lane: &StrLane| {
            let mut h = DefaultHasher::new();
            lane.hash(&mut h);
            h.finish()
        };
        for s in LANE_EDGES {
            let (made, shared) = (StrLane::new(s), StrLane::forced_shared(s));
            assert!(!shared.is_inline());
            for lane in [&made, &shared] {
                assert_eq!(lane.as_bytes(), s.as_bytes(), "{s:?}");
                assert_eq!(lane.as_str(), s);
                assert_eq!(&*lane.to_arc(), s);
                assert_eq!(lane.len(), s.len());
                assert_eq!(hash(lane), hash(&StrLane::new(s)), "{s:?}");
            }
            assert_eq!(made, shared, "{s:?}");
            assert_eq!(made.cmp(&shared), Ordering::Equal, "{s:?}");
            // And as a column: the same values, whichever form it holds.
            let column = |lane: &StrLane| {
                let data = VectorData::Str(vec![lane.clone()]);
                ColumnVector::new(DataType::String, data, None).get(0)
            };
            assert_eq!(column(&made), Value::str(s));
            assert_eq!(column(&shared), Value::str(s));
        }
        // Order is byte order across forms and lengths.
        for a in LANE_EDGES {
            for b in LANE_EDGES {
                let want = a.cmp(b);
                assert_eq!(StrLane::new(a).cmp(&StrLane::forced_shared(b)), want);
                assert_eq!(StrLane::forced_shared(a).cmp(&StrLane::new(b)), want);
            }
        }
    }

    #[test]
    fn mixed_values_fall_back_to_boxed() {
        let vals = vec![Value::Int(1), Value::str("x")];
        let v = ColumnVector::from_values(&DataType::Int, vals.clone());
        assert!(matches!(v.data(), VectorData::Values(_)));
        assert_eq!(v.get(1), Value::str("x"));
    }
}
