//! Columnar key hashing for batch-native hash aggregation and joins.
//!
//! [`BatchGroups`] interns each distinct key and hands back dense group
//! ids, one `(lane, group)` pair per selected lane, in arrival order. Key
//! equality is the row path's: [`Value`] equality, which canonicalizes
//! numerics, so `Int(1)`/`Long(1)` are one key. Typed caches keep the hot
//! loop from boxing: each key column (up to four) interns its values to
//! dense ids through raw `i64`/`Arc<str>` caches, a single-column key's
//! group is its value's id, and a multi-column key's group is found by its
//! packed id *signature*. Keys stay in those columns: a new group costs
//! its ids, not a [`Row`], and [`BatchGroups::key_columns`] hands every
//! key back as column vectors; [`BatchGroups::group_hashes`] routes groups
//! to reducers by a hash that agrees with key equality.
//! [`BatchGroups::find`] looks keys up without interning them, so a hash
//! join probes the groups its build side assigned with GROUP BY's key
//! equality.

use super::batch::{ColumnVector, RowBatch, VectorData};
use crate::row::Row;
use crate::types::DataType;
use crate::value::Value;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// How many key columns the packed-signature fast path covers; wider
/// keys fall back to boxed row interning per lane.
const MAX_SIG_COLS: usize = 4;

/// An unkeyed word-at-a-time multiply hasher (the FxHash family) for
/// the tables below, which hold engine data. A multiply carries bits
/// upward only, so [`finish`](Hasher::finish) folds the state's 128-bit
/// product with the constant back onto itself: every input bit then
/// reaches the low bits a table indexes by and the top bits it tags by.
#[derive(Default)]
struct FastHasher(u64);

/// The multiplier of [`FastHasher`]'s chain and of its final fold.
const FAST_MUL: u64 = 0xf135_7aea_2e62_a9c5;

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = self.0.wrapping_add(i).wrapping_mul(FAST_MUL);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn finish(&self) -> u64 {
        let wide = self.0 as u128 * FAST_MUL as u128;
        (wide >> 64) as u64 ^ wide as u64
    }
}

type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// The raw-cache key of an integer lane of `dtype`: `Int` and `Long`
/// share a class, as in [`Value`] equality; a `Date` lane never equals a
/// `Long` one.
fn long_key(dtype: &DataType, raw: i64) -> (u8, i64) {
    let class = match dtype {
        DataType::Date => 1,
        DataType::Timestamp => 2,
        _ => 0,
    };
    (class, raw)
}

/// Per-column value interner: a dense id per distinct value, in
/// first-seen order. Integer and string lanes hash their raw lanes. Until
/// some lane needs it (a boxed, float or other lane), no canonical
/// `Value → id` map is kept: every value came through a raw cache, which
/// then decides alone whether a value is new. Equal values get equal ids,
/// so two key rows are equal iff their id signatures are.
#[derive(Debug, Default)]
struct ColumnInterner {
    /// Distinct values by id.
    values: Vec<Value>,
    by_long: FastMap<(u8, i64), u32>,
    by_str: FastMap<Arc<str>, u32>,
    null_id: Option<u32>,
    /// Canonical value → id over all of `values`, once built.
    by_value: Option<FastMap<Value, u32>>,
}

impl ColumnInterner {
    /// The id of lane `i` of `col`, if its value has one.
    fn find(&self, col: &ColumnVector, i: usize) -> Option<u32> {
        if col.is_null(i) {
            return self.null_id;
        }
        let raw = match col.data() {
            VectorData::Long(lanes) => self.by_long.get(&long_key(col.dtype(), lanes[i])),
            VectorData::Str(lanes) => self.by_str.get(&lanes[i]),
            _ => return self.find_value(&col.get(i)),
        };
        match (raw, &self.by_value) {
            (Some(&id), _) => Some(id),
            (None, Some(by_value)) => by_value.get(&col.get(i)).copied(),
            (None, None) => None,
        }
    }

    /// The id of the non-NULL value `v`, if it has one.
    fn find_value(&self, v: &Value) -> Option<u32> {
        if let Some(by_value) = &self.by_value {
            return by_value.get(v).copied();
        }
        // Every value came through a raw cache: `v` can only equal a
        // string or an integer of its own class.
        let raw = match v {
            Value::Str(s) => return self.by_str.get(s).copied(),
            Value::Int(x) | Value::Date(x) => *x as i64,
            Value::Long(x) | Value::Timestamp(x) => *x,
            // A float equal to an integer: rare enough to scan for.
            _ => return self.values.iter().position(|u| u == v).map(|id| id as u32),
        };
        self.by_long.get(&long_key(&v.dtype(), raw)).copied()
    }

    /// The id of lane `i` of `col`, interning its value if new.
    fn id(&mut self, col: &ColumnVector, i: usize) -> u32 {
        if let Some(id) = self.find(col, i) {
            return id;
        }
        let id = self.values.len() as u32;
        let v = col.get(i);
        match col.data() {
            _ if v.is_null() => self.null_id = Some(id),
            VectorData::Long(lanes) => _ = self.by_long.insert(long_key(col.dtype(), lanes[i]), id),
            VectorData::Str(lanes) => _ = self.by_str.insert(lanes[i].clone(), id),
            // The first lane no raw cache covers builds the canonical map.
            _ if self.by_value.is_none() => {
                self.by_value = Some(self.values.iter().cloned().zip(0..).collect())
            }
            _ => {}
        }
        if let Some(by_value) = &mut self.by_value {
            by_value.insert(v.clone(), id);
        }
        self.values.push(v);
        id
    }
}

/// The routing hash of a value or key row: equal [`Value`]s (`Int(1)`,
/// `Long(1)`) hash alike, and every process hashes them the same way.
fn route_hash(v: &impl Hash) -> u64 {
    let mut h = FastHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// The hash of a multi-column key from its columns' value hashes.
fn combine(column_hashes: impl Iterator<Item = u64>) -> u64 {
    let mut h = FastHasher::default();
    column_hashes.for_each(|x| h.write_u64(x));
    h.finish()
}

/// Incremental key interner over batches of key columns.
///
/// A key of one to four columns is kept as columns: each column's
/// interner holds its distinct values, and a group is its per-column value
/// ids (a single column's group *is* its value id), so interning a new
/// group allocates no [`Row`]. Wider keys keep one row per group.
#[derive(Debug, Default)]
pub struct BatchGroups {
    /// Number of distinct groups.
    len: usize,
    /// One interner per key column, for keys of 1..=[`MAX_SIG_COLS`]
    /// columns.
    columns: Vec<ColumnInterner>,
    /// Per-column value ids of every group, `columns.len()` per group, in
    /// group order (multi-column keys only).
    ids: Vec<u32>,
    /// Packed per-column id signature → group id (multi-column keys, 32
    /// bits of id space per column).
    sig_cache: FastMap<u128, u32>,
    /// Key rows in group order, for keys too wide for a signature.
    wide: Vec<Row>,
    /// Key row → group id, for keys too wide for a signature.
    truth: FastMap<Row, u32>,
}

impl BatchGroups {
    /// Fresh, empty interner.
    pub fn new() -> BatchGroups {
        BatchGroups::default()
    }

    /// Number of distinct groups seen so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True before any key has been interned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Column `j` of group `g`'s key (signature path only).
    fn value(&self, g: usize, j: usize) -> &Value {
        let id = match self.columns.len() {
            1 => g,
            w => self.ids[g * w + j] as usize,
        };
        &self.columns[j].values[id]
    }

    /// The key row of group `g`, built on demand.
    pub fn key(&self, g: usize) -> Row {
        if self.columns.is_empty() {
            return self.wide[g].clone();
        }
        Row::new(
            (0..self.columns.len())
                .map(|j| self.value(g, j).clone())
                .collect(),
        )
    }

    /// `self.key(g).approx_bytes()`, without building the row.
    pub fn key_bytes(&self, g: usize) -> u64 {
        if self.columns.is_empty() {
            return self.wide[g].approx_bytes();
        }
        Row::approx_bytes_of((0..self.columns.len()).map(|j| self.value(g, j)))
    }

    /// The keys of every group as columns of `dtypes`, in group order:
    /// typed where every value conforms to its column's type, boxed (and
    /// so exact) where one does not.
    pub fn key_columns(&self, dtypes: &[DataType]) -> Vec<Arc<ColumnVector>> {
        (dtypes.iter().enumerate())
            .map(|(j, dtype)| {
                let values = (0..self.len).map(|g| match self.columns.is_empty() {
                    true => self.wide[g].values()[j].clone(),
                    false => self.value(g, j).clone(),
                });
                Arc::new(ColumnVector::from_values(dtype, values.collect()))
            })
            .collect()
    }

    /// One hash per group, in group order, that agrees with key
    /// equality: keys equal as [`Value`]s (`Int(1)` and `Long(1)`) hash
    /// alike in every interner and every process — what routes a group
    /// to its reducer.
    pub fn group_hashes(&self) -> Vec<u64> {
        if self.columns.is_empty() {
            return self.wide.iter().map(route_hash).collect();
        }
        let mut per_value: Vec<Vec<u64>> = (self.columns.iter())
            .map(|c| c.values.iter().map(route_hash).collect())
            .collect();
        if per_value.len() == 1 {
            return per_value.pop().expect("one column");
        }
        let w = per_value.len();
        (0..self.len)
            .map(|g| combine((0..w).map(|j| per_value[j][self.ids[g * w + j] as usize])))
            .collect()
    }

    /// One hash per lane of the key columns `keys`, `rows` lanes each:
    /// the hash [`group_hashes`](Self::group_hashes) gives the same key,
    /// so lanes are routed by key equality without being interned.
    pub fn key_hashes(keys: &[Arc<ColumnVector>], rows: usize) -> Vec<u64> {
        let lane = |c: &ColumnVector, i: usize| route_hash(&c.get(i));
        match keys {
            [key] => (0..rows).map(|i| lane(key, i)).collect(),
            _ if keys.len() > MAX_SIG_COLS => (0..rows)
                .map(|i| route_hash(&Row::new(keys.iter().map(|c| c.get(i)).collect())))
                .collect(),
            _ => (0..rows)
                .map(|i| combine(keys.iter().map(|c| lane(c, i))))
                .collect(),
        }
    }

    /// Assign a group id to every selected lane of `key_batch` (the
    /// evaluated key columns), appending `(lane, group)` pairs to `out`
    /// in arrival order.
    pub fn assign(&mut self, key_batch: &RowBatch, out: &mut Vec<(u32, u32)>) {
        let n = key_batch.selected_count();
        out.clear();
        out.reserve(n);
        let cols = key_batch.columns();
        if !(1..=MAX_SIG_COLS).contains(&cols.len()) {
            key_batch.for_each_selected(|i| {
                let next = self.len as u32;
                let key = Row::new(cols.iter().map(|c| c.get(i)).collect());
                let g = match self.truth.entry(key) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        self.wide.push(e.key().clone());
                        self.len += 1;
                        *e.insert(next)
                    }
                };
                out.push((i as u32, g));
            });
            return;
        }
        if self.columns.len() != cols.len() {
            self.columns = cols.iter().map(|_| ColumnInterner::default()).collect();
        }
        for (ci, c) in self.columns.iter_mut().zip(cols) {
            ci.values.reserve(n);
            match c.data() {
                VectorData::Long(_) => ci.by_long.reserve(n),
                VectorData::Str(_) => ci.by_str.reserve(n),
                _ => {}
            }
        }
        if let [col] = cols {
            // A single column's value ids are its group ids.
            let interner = &mut self.columns[0];
            key_batch.for_each_selected(|i| out.push((i as u32, interner.id(col, i))));
            self.len = interner.values.len();
            return;
        }
        key_batch.for_each_selected(|i| {
            let next = self.len as u32;
            let mut ids = [0u32; MAX_SIG_COLS];
            let mut sig = 0u128;
            for (j, c) in cols.iter().enumerate() {
                ids[j] = self.columns[j].id(c, i);
                sig |= (ids[j] as u128) << (32 * j);
            }
            let g = *self.sig_cache.entry(sig).or_insert(next);
            if g == next {
                self.ids.extend_from_slice(&ids[..cols.len()]);
                self.len += 1;
            }
            out.push((i as u32, g));
        });
    }

    /// Lookup-only [`assign`](Self::assign): append `(lane, group)` for
    /// every selected lane of `key_batch` whose key has been assigned,
    /// in arrival order, and skip the rest.
    pub fn find(&self, key_batch: &RowBatch, out: &mut Vec<(u32, u32)>) {
        out.clear();
        let cols = key_batch.columns();
        if !(1..=MAX_SIG_COLS).contains(&cols.len()) {
            key_batch.for_each_selected(|i| {
                let key = Row::new(cols.iter().map(|c| c.get(i)).collect());
                if let Some(&g) = self.truth.get(&key) {
                    out.push((i as u32, g));
                }
            });
            return;
        }
        if self.columns.len() != cols.len() {
            return; // no key of this width was ever assigned
        }
        key_batch.for_each_selected(|i| {
            let mut sig = Some(0u128);
            for (j, c) in cols.iter().enumerate() {
                let id = self.columns[j].find(c, i);
                sig = sig.zip(id).map(|(s, id)| s | (id as u128) << (32 * j));
            }
            let g = match cols.len() {
                1 => sig.map(|id| id as u32),
                _ => sig.and_then(|s| self.sig_cache.get(&s).copied()),
            };
            if let Some(g) = g {
                out.push((i as u32, g));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn batch_of(dtype: DataType, values: Vec<Value>) -> RowBatch {
        let n = values.len();
        RowBatch::new(vec![Arc::new(ColumnVector::from_values(&dtype, values))], n)
    }

    #[test]
    fn long_keys_intern_in_first_seen_order() {
        let b = batch_of(
            DataType::Long,
            vec![
                Value::Long(7),
                Value::Long(3),
                Value::Null,
                Value::Long(7),
                Value::Null,
            ],
        );
        let mut groups = BatchGroups::new();
        let mut out = Vec::new();
        groups.assign(&b, &mut out);
        assert_eq!(out, vec![(0, 0), (1, 1), (2, 2), (3, 0), (4, 2)]);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups.key(2), Row::new(vec![Value::Null]));
    }

    #[test]
    fn boxed_and_typed_batches_share_groups() {
        // First batch arrives typed, second as boxed values (the eval
        // fallback shape); both must agree on group ids.
        let typed = batch_of(DataType::Long, vec![Value::Long(1), Value::Long(2)]);
        let boxed = RowBatch::new(
            vec![Arc::new(ColumnVector::from_boxed(
                DataType::Long,
                vec![Value::Long(2), Value::Long(9)],
            ))],
            2,
        );
        let mut groups = BatchGroups::new();
        let mut out = Vec::new();
        groups.assign(&typed, &mut out);
        groups.assign(&boxed, &mut out);
        assert_eq!(out, vec![(0, 1), (1, 2)]);
        assert_eq!(groups.len(), 3);
    }

    #[test]
    fn multi_column_keys_use_row_equality() {
        let n = 3;
        let c1 = Arc::new(ColumnVector::from_values(
            &DataType::Long,
            vec![Value::Long(1), Value::Long(1), Value::Long(1)],
        ));
        let c2 = Arc::new(ColumnVector::from_values(
            &DataType::String,
            vec![Value::str("a"), Value::str("b"), Value::str("a")],
        ));
        let mut groups = BatchGroups::new();
        let mut out = Vec::new();
        groups.assign(&RowBatch::new(vec![c1, c2], n), &mut out);
        assert_eq!(out, vec![(0, 0), (1, 1), (2, 0)]);
    }

    #[test]
    fn multi_column_signature_cache_is_stable_across_batches() {
        // Typed lanes first, then boxed lanes (the eval fallback shape)
        // with NULLs and a numeric-width change; the packed-signature
        // fast path must agree with row-path key equality throughout.
        let typed = RowBatch::new(
            vec![
                Arc::new(ColumnVector::from_values(
                    &DataType::Long,
                    vec![Value::Long(1), Value::Long(2), Value::Null],
                )),
                Arc::new(ColumnVector::from_values(
                    &DataType::String,
                    vec![Value::str("a"), Value::str("a"), Value::str("b")],
                )),
            ],
            3,
        );
        let boxed = RowBatch::new(
            vec![
                Arc::new(ColumnVector::from_boxed(
                    DataType::Long,
                    vec![Value::Int(1), Value::Null, Value::Long(3)],
                )),
                Arc::new(ColumnVector::from_boxed(
                    DataType::String,
                    vec![Value::str("a"), Value::str("b"), Value::Null],
                )),
            ],
            3,
        );
        let mut groups = BatchGroups::new();
        let mut out = Vec::new();
        groups.assign(&typed, &mut out);
        assert_eq!(out, vec![(0, 0), (1, 1), (2, 2)]);
        groups.assign(&boxed, &mut out);
        // Int(1) canonicalizes to Long(1): lane 0 rejoins group 0.
        assert_eq!(out, vec![(0, 0), (1, 2), (2, 3)]);
        assert_eq!(groups.len(), 4);
        assert_eq!(groups.key(3), Row::new(vec![Value::Long(3), Value::Null]));
    }

    /// `find` over `probe` must report exactly the lanes whose key row
    /// equals an assigned key (row equality is what `assign` interns
    /// by), with that key's group.
    fn assert_find_agrees(groups: &BatchGroups, probe: &RowBatch) -> Vec<(u32, u32)> {
        let mut found = Vec::new();
        groups.find(probe, &mut found);
        let mut expect = Vec::new();
        probe.for_each_selected(|i| {
            let key = probe.row(i);
            if let Some(g) = (0..groups.len()).position(|g| groups.key(g) == key) {
                expect.push((i as u32, g as u32));
            }
        });
        assert_eq!(found, expect);
        found
    }

    #[test]
    fn find_agrees_with_assign_on_seen_unseen_and_null_keys() {
        let build = batch_of(
            DataType::Long,
            vec![Value::Long(7), Value::Long(3), Value::Long(7)],
        );
        let mut groups = BatchGroups::new();
        let mut out = Vec::new();
        groups.assign(&build, &mut out);
        let probe = batch_of(
            DataType::Long,
            vec![Value::Long(3), Value::Null, Value::Long(5), Value::Long(7)],
        );
        // NULL was never assigned: it finds nothing, like an unseen key.
        assert_eq!(assert_find_agrees(&groups, &probe), vec![(0, 1), (3, 0)]);
        // Once NULL is a group, it is found.
        groups.assign(&batch_of(DataType::Long, vec![Value::Null]), &mut out);
        assert_eq!(
            assert_find_agrees(&groups, &probe),
            vec![(0, 1), (1, 2), (3, 0)]
        );
        // Int lanes find Long keys (one class); Date lanes never do.
        let ints = batch_of(DataType::Int, vec![Value::Int(7), Value::Int(8)]);
        assert_eq!(assert_find_agrees(&groups, &ints), vec![(0, 0)]);
        let dates = batch_of(DataType::Date, vec![Value::Date(7), Value::Date(3)]);
        assert_eq!(assert_find_agrees(&groups, &dates), vec![]);
        // Selection limits the lookup; nothing is interned by `find`.
        let sel = probe.clone().with_selection(vec![2, 3]);
        assert_eq!(assert_find_agrees(&groups, &sel), vec![(3, 0)]);
        assert_eq!(groups.len(), 3);
    }

    #[test]
    fn find_agrees_with_assign_across_typed_and_boxed_batches() {
        // Single string column: typed lanes assigned, boxed lanes probed,
        // and the other way round.
        let typed = batch_of(DataType::String, vec![Value::str("a"), Value::str("b")]);
        let boxed = RowBatch::new(
            vec![Arc::new(ColumnVector::from_boxed(
                DataType::String,
                vec![Value::str("b"), Value::Null, Value::str("z")],
            ))],
            3,
        );
        let mut groups = BatchGroups::new();
        let mut out = Vec::new();
        groups.assign(&typed, &mut out);
        assert_eq!(assert_find_agrees(&groups, &boxed), vec![(0, 1)]);
        // `assign` gives a found lane the group `find` did.
        groups.assign(&boxed, &mut out);
        assert_eq!(out[0], (0, 1));
        assert_eq!(assert_find_agrees(&groups, &typed), vec![(0, 0), (1, 1)]);
        let z = batch_of(DataType::String, vec![Value::str("z"), Value::str("q")]);
        assert_eq!(assert_find_agrees(&groups, &z), vec![(0, 3)]);

        // Two columns: a typed batch then a boxed one, as in
        // `multi_column_signature_cache_is_stable_across_batches`.
        let two = |a: Vec<Value>, b: Vec<Value>, typed: bool| {
            let n = a.len();
            let col = |dt: DataType, v: Vec<Value>| {
                Arc::new(if typed {
                    ColumnVector::from_values(&dt, v)
                } else {
                    ColumnVector::from_boxed(dt, v)
                })
            };
            RowBatch::new(vec![col(DataType::Long, a), col(DataType::String, b)], n)
        };
        let mut groups = BatchGroups::new();
        groups.assign(
            &two(
                vec![Value::Long(1), Value::Long(2)],
                vec![Value::str("a"), Value::str("a")],
                true,
            ),
            &mut out,
        );
        let probe = two(
            vec![Value::Int(1), Value::Long(2), Value::Long(1), Value::Null],
            vec![
                Value::str("a"),
                Value::str("b"),
                Value::Null,
                Value::str("a"),
            ],
            false,
        );
        assert_eq!(assert_find_agrees(&groups, &probe), vec![(0, 0)]);
        groups.assign(&probe, &mut out);
        let typed_probe = two(
            vec![Value::Long(2), Value::Long(1), Value::Long(9)],
            vec![Value::str("b"), Value::str("a"), Value::str("a")],
            true,
        );
        assert_eq!(
            assert_find_agrees(&groups, &typed_probe),
            vec![(0, 2), (1, 0)]
        );
    }

    #[test]
    fn keys_come_back_as_columns_and_hash_by_value_equality() {
        // One Long column against one Int column: Int(1) and Long(1) are
        // one key, so they must route alike across interners.
        let mut longs = BatchGroups::new();
        let mut ints = BatchGroups::new();
        let mut out = Vec::new();
        longs.assign(
            &batch_of(
                DataType::Long,
                vec![Value::Long(1), Value::Null, Value::Long(9)],
            ),
            &mut out,
        );
        ints.assign(
            &batch_of(DataType::Int, vec![Value::Int(9), Value::Int(1)]),
            &mut out,
        );
        let (lh, ih) = (longs.group_hashes(), ints.group_hashes());
        assert_eq!((lh[0], lh[2]), (ih[1], ih[0]));
        let cols = longs.key_columns(&[DataType::Long]);
        assert!(matches!(cols[0].data(), VectorData::Long(_)));
        let got: Vec<Value> = (0..cols[0].len()).map(|i| cols[0].get(i)).collect();
        assert_eq!(got, vec![Value::Long(1), Value::Null, Value::Long(9)]);
        // A value not of the column's type keeps its tag in a boxed column.
        assert!(matches!(
            ints.key_columns(&[DataType::Long])[0].data(),
            VectorData::Values(_)
        ));

        // Two, four and five columns (the last past the signature path):
        // key_columns rebuilds every key row, key_bytes sizes it, and
        // equal keys from differently typed batches hash alike.
        for width in [2usize, 4, 5] {
            let batch = |int: bool| {
                let columns = (0..width)
                    .map(|j| {
                        let v = |x: i64| match (j, int) {
                            (0, true) => Value::Int(x as i32),
                            (0, false) => Value::Long(x),
                            (1, _) => Value::str(["a", "b"][x as usize % 2]),
                            _ => Value::Date(x as i32),
                        };
                        let dtype = v(0).dtype();
                        Arc::new(ColumnVector::from_values(
                            &dtype,
                            vec![v(1), v(2), v(1), v(3)],
                        ))
                    })
                    .collect();
                RowBatch::new(columns, 4)
            };
            let (mut a, mut b) = (BatchGroups::new(), BatchGroups::new());
            a.assign(&batch(false), &mut out);
            assert_eq!(out, vec![(0, 0), (1, 1), (2, 0), (3, 2)], "width {width}");
            b.assign(&batch(true).with_selection(vec![3, 1]), &mut out);
            let rows = batch(false);
            let dtypes: Vec<DataType> = rows.columns().iter().map(|c| c.dtype().clone()).collect();
            let cols = a.key_columns(&dtypes);
            for (g, lane) in [0usize, 1, 3].into_iter().enumerate() {
                let row = Row::new(cols.iter().map(|c| c.get(g)).collect());
                assert_eq!(row, rows.row(lane), "width {width}");
                assert_eq!(a.key(g), rows.row(lane), "width {width}");
                assert_eq!(a.key_bytes(g), a.key(g).approx_bytes(), "width {width}");
            }
            let (ah, bh) = (a.group_hashes(), b.group_hashes());
            assert_eq!((ah[2], ah[1]), (bh[0], bh[1]), "width {width}");
        }
    }

    #[test]
    fn key_hashes_are_group_hashes_lane_by_lane() {
        // Widths 1, 2 and 5 (the last past the signature path), Int lanes
        // against the Long keys they equal, NULLs included.
        for width in [1usize, 2, 5] {
            let column = |int: bool, j: usize| {
                let v = |x: i64| match (j, x, int) {
                    (_, 0, _) => Value::Null,
                    (0, _, true) => Value::Int(x as i32),
                    (0, _, false) => Value::Long(x),
                    _ => Value::str(format!("s{}", x % 3)),
                };
                let dtype = if j == 0 {
                    DataType::Long
                } else {
                    DataType::String
                };
                Arc::new(ColumnVector::from_values(&dtype, (0..6).map(v).collect()))
            };
            let (mut groups, mut out) = (BatchGroups::new(), Vec::new());
            let longs: Vec<_> = (0..width).map(|j| column(false, j)).collect();
            groups.assign(&RowBatch::new(longs.clone(), 6), &mut out);
            let ints: Vec<_> = (0..width).map(|j| column(true, j)).collect();
            assert_eq!(
                BatchGroups::key_hashes(&ints, 6),
                groups.group_hashes(),
                "width {width}"
            );
            assert_eq!(BatchGroups::key_hashes(&longs, 6), groups.group_hashes());
        }
    }

    #[test]
    fn fast_hashes_keep_every_input_bit() {
        // Keys that differ only in their eighth byte, as `url{i}` keys
        // do: a hash table indexes by the low bits and tags by the top
        // seven, so both must tell nearly every key apart.
        let keys: Vec<String> = (10_000..100_000).map(|i| format!("url{i}")).collect();
        let pairs: std::collections::HashSet<(u64, u64)> = keys
            .iter()
            .map(|k| {
                let mut h = FastHasher::default();
                k.as_str().hash(&mut h);
                let x = h.finish();
                (x & ((1 << 17) - 1), x >> 57)
            })
            .collect();
        assert!(
            pairs.len() * 100 >= keys.len() * 99,
            "{} distinct (index, tag) pairs over {} keys",
            pairs.len(),
            keys.len()
        );
    }

    #[test]
    fn selection_vector_limits_assignment() {
        let b = batch_of(
            DataType::String,
            vec![Value::str("x"), Value::str("y"), Value::str("x")],
        )
        .with_selection(vec![0, 2]);
        let mut groups = BatchGroups::new();
        let mut out = Vec::new();
        groups.assign(&b, &mut out);
        assert_eq!(out, vec![(0, 0), (2, 0)]);
        assert_eq!(groups.len(), 1);
    }
}
