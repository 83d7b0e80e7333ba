//! Columnar key hashing for batch-native hash aggregation and joins.
//!
//! [`BatchGroups`] interns each distinct key and hands back dense group
//! ids, one `(lane, group)` pair per selected lane, in arrival order. Key
//! equality is the row path's: [`Value`] equality, which canonicalizes
//! numerics, so `Int(1)`/`Long(1)` are one key. Each key column (up to
//! four) interns its values to dense ids, a single-column key's group is
//! its value's id, and a multi-column key's group is found by its packed
//! id *signature*. Keys stay in those columns: a new group costs its ids,
//! not a [`Row`], and [`BatchGroups::key_columns`] hands every key back
//! as column vectors.
//!
//! Each key is hashed once, and its hash is stored with it. A column
//! keeps its distinct strings as string lanes, each beside its routing
//! hash, and finds them through an open-addressing table of ids that
//! matches on the hash, then on the string. A string lane is hashed
//! straight from its bytes, with no [`Value`] built, and the hash is bit
//! for bit the [`Value`] hash of that string. Integer lanes intern
//! through a raw `i64` cache and store their hash when new. So
//! [`BatchGroups::group_hashes`], which routes groups to reducers by a
//! hash that agrees with key equality, hands back stored hashes;
//! [`BatchGroups::key_columns`] builds string keys from the stored lanes;
//! and [`BatchGroups::assign_hashed`] interns keys whose hashes arrived
//! with them, as a reducer's blocks do. [`BatchGroups::find`] looks keys
//! up without interning them, so a hash join probes the groups its build
//! side assigned with GROUP BY's key equality.

use super::batch::{ColumnVector, RowBatch, StrLane, VectorData};
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

/// The routing hash of a value or key row: equal [`Value`]s (`Int(1)`,
/// `Long(1)`) hash alike, and every process hashes them the same way.
fn route_hash(v: &impl Hash) -> u64 {
    let mut h = FastHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// [`route_hash`] of `Value::Str(s)`, bit for bit, from the string's
/// bytes, with no [`Value`] built.
fn str_hash(s: &[u8]) -> u64 {
    let mut h = FastHasher::default();
    2u8.hash(&mut h); // the string tag of `impl Hash for Value`
    h.write(s); // then what `str` hashes: its bytes and a terminator
    h.write_u8(0xff);
    h.finish()
}

/// The hash of a multi-column key from its columns' value hashes.
fn combine(column_hashes: impl Iterator<Item = u64>) -> u64 {
    let mut h = FastHasher::default();
    column_hashes.for_each(|x| h.write_u64(x));
    h.finish()
}

/// Lane `i` of a key column, as an interner looks it up.
enum Lane<'a> {
    Null,
    /// The bytes of a string, typed or boxed.
    Str(&'a [u8]),
    /// A raw integer lane, as its [`long_key`].
    Long((u8, i64)),
    /// Any other value: boxed non-strings, floats, booleans.
    Other,
}

fn lane(col: &ColumnVector, i: usize) -> Lane<'_> {
    if col.is_null(i) {
        return Lane::Null;
    }
    match col.data() {
        VectorData::Str(lanes) => Lane::Str(lanes[i].as_bytes()),
        VectorData::Values(values) => match &values[i] {
            Value::Str(s) => Lane::Str(s.as_bytes()),
            _ => Lane::Other,
        },
        VectorData::Long(lanes) => Lane::Long(long_key(col.dtype(), lanes[i])),
        _ => Lane::Other,
    }
}

/// Lane `i` of `col`, a string, as the lane an interner stores: a typed
/// lane's clone, or a boxed string's `Arc` shared.
fn str_lane(col: &ColumnVector, i: usize) -> StrLane {
    match col.data() {
        VectorData::Str(lanes) => lanes[i].clone(),
        _ => match col.get(i) {
            Value::Str(s) => StrLane::shared(s),
            other => unreachable!("{other:?} is not a string"),
        },
    }
}

/// The routing hash of lane `i` of `col`: [`route_hash`] of its value.
fn lane_hash(col: &ColumnVector, i: usize) -> u64 {
    match lane(col, i) {
        Lane::Str(s) => str_hash(s),
        _ => route_hash(&col.get(i)),
    }
}

/// A column's distinct values in id order: string lanes while every
/// non-NULL value is a string (the NULL id's lane holds `""`), boxed
/// values from the first one that is not.
#[derive(Debug)]
enum Keys {
    Str(Vec<StrLane>),
    Values(Vec<Value>),
}

impl Default for Keys {
    fn default() -> Keys {
        Keys::Str(Vec::new())
    }
}

impl Keys {
    /// The bytes of the string of id `id`, which holds one.
    fn str_at(&self, id: u32) -> &[u8] {
        match self {
            Keys::Str(lanes) => lanes[id as usize].as_bytes(),
            Keys::Values(values) => values[id as usize].as_str().unwrap_or_default().as_bytes(),
        }
    }
}

/// The open-addressing table of a column's string ids: a power-of-two
/// slot array at most three quarters full, probed linearly from the top
/// bits of a string's hash. A slot holds the top half of the hash in its
/// upper 32 bits and the id plus one in its lower 32 (zero is empty). It
/// matches a lane on that half of the hash, then on string equality, and
/// the half alone places the slot again when the table grows. The top bits serve because a reducer receives only
/// the hashes of one residue modulo the reducer count, which fixes their
/// low bits when that count is a power of two.
#[derive(Debug, Default)]
struct StrTable {
    slots: Vec<u64>,
    len: usize,
}

/// The hash bits a [`StrTable`] slot keeps.
const TAG: u64 = !0 << 32;

impl StrTable {
    /// The slot a probe for `hash` starts at.
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The id of the string `s`, which hashes to `hash`, or the empty slot
    /// it would take.
    fn find(&self, hash: u64, s: &[u8], keys: &Keys) -> Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(hash);
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                return Err(at);
            }
            let id = slot as u32 - 1;
            if slot & TAG == hash & TAG && keys.str_at(id) == s {
                return Ok(id);
            }
            at = (at + 1) & mask;
        }
    }

    /// Put `id`, a string hashing to `hash`, in the empty slot `at` that
    /// [`find`](Self::find) returned, growing first if the table would be
    /// more than three quarters full.
    fn insert(&mut self, mut at: usize, hash: u64, id: u32) {
        if self.full(1) {
            self.grow(self.len + 1);
            at = self.vacant(hash);
        }
        self.slots[at] = hash & TAG | (id as u64 + 1);
        self.len += 1;
    }

    /// Room for `additional` more strings without growing.
    fn reserve(&mut self, additional: usize) {
        if self.full(additional) {
            self.grow(self.len + additional);
        }
    }

    fn full(&self, additional: usize) -> bool {
        (self.len + additional) * 4 > self.slots.len() * 3
    }

    /// Re-slot every id into a table with room for `len` strings.
    fn grow(&mut self, len: usize) {
        let size = (len * 4 / 3 + 1).next_power_of_two().max(16);
        let old = std::mem::replace(&mut self.slots, vec![0; size]);
        for slot in old.into_iter().filter(|&slot| slot != 0) {
            let at = self.vacant(slot);
            self.slots[at] = slot;
        }
    }

    /// The first empty slot of the probe sequence of `hash`, or of a
    /// slot's hash bits.
    fn vacant(&self, hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = self.home(hash);
        while self.slots[at] != 0 {
            at = (at + 1) & mask;
        }
        at
    }
}

/// Per-column value interner: a dense id per distinct value, in
/// first-seen order, each stored with its routing hash. Strings are
/// found through the string table, integer lanes through a raw cache.
/// Until some lane needs it (a boxed non-string, float or other lane), no
/// canonical `Value → id` map is kept: every non-string value came through
/// the raw cache, which then decides alone whether a value is new. Equal
/// values get equal ids, so two key rows are equal iff their id
/// signatures are.
#[derive(Debug, Default)]
struct ColumnInterner {
    /// Distinct values by id.
    keys: Keys,
    /// The routing hash of each id's value.
    hashes: Vec<u64>,
    strs: StrTable,
    by_long: FastMap<(u8, i64), u32>,
    null_id: Option<u32>,
    /// Canonical value → id over every id that is neither a string nor
    /// NULL, once built.
    by_value: Option<FastMap<Value, u32>>,
}

impl ColumnInterner {
    /// Number of distinct values.
    fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Room for `n` more values from lanes of `col`.
    fn reserve(&mut self, col: &ColumnVector, n: usize) {
        self.hashes.reserve(n);
        match &mut self.keys {
            Keys::Str(lanes) => lanes.reserve(n),
            Keys::Values(values) => values.reserve(n),
        }
        match col.data() {
            VectorData::Long(_) => self.by_long.reserve(n),
            VectorData::Str(_) => self.strs.reserve(n),
            _ => {}
        }
    }

    /// The value of id `id`.
    fn value(&self, id: u32) -> Value {
        match &self.keys {
            _ if self.null_id == Some(id) => Value::Null,
            Keys::Str(lanes) => Value::Str(lanes[id as usize].to_arc()),
            Keys::Values(values) => values[id as usize].clone(),
        }
    }

    /// `self.value(id).approx_bytes()`, without building the value.
    fn bytes(&self, id: u32) -> u64 {
        match &self.keys {
            _ if self.null_id == Some(id) => Value::Null.approx_bytes(),
            Keys::Str(lanes) => Value::str_bytes(lanes[id as usize].as_str()),
            Keys::Values(values) => values[id as usize].approx_bytes(),
        }
    }

    /// The values of `ids`, in order, as a column of `dtype`: the stored
    /// lanes of a string column, typed where every value conforms to
    /// `dtype` and boxed (and so exact) where one does not. Every id is
    /// some group's, so a NULL id is among them.
    fn column(&self, dtype: &DataType, ids: impl Iterator<Item = u32> + Clone) -> ColumnVector {
        match (&self.keys, dtype) {
            (Keys::Str(lanes), DataType::String) => {
                let data = ids.clone().map(|id| lanes[id as usize].clone());
                let nulls = (self.null_id).map(|null| ids.map(|id| id == null).collect());
                ColumnVector::new(DataType::String, VectorData::Str(data.collect()), nulls)
            }
            _ => ColumnVector::from_values(dtype, ids.map(|id| self.value(id)).collect()),
        }
    }

    /// [`column`](Self::column) of every id in id order: a string
    /// column's stored lanes move into it.
    fn into_column(self, dtype: &DataType) -> ColumnVector {
        match self.keys {
            Keys::Str(lanes) if *dtype == DataType::String => {
                let ids = 0..lanes.len() as u32;
                let nulls = (self.null_id).map(|null| ids.map(|id| id == null).collect());
                ColumnVector::new(DataType::String, VectorData::Str(lanes), nulls)
            }
            _ => self.column(dtype, 0..self.len() as u32),
        }
    }

    /// The id of lane `i` of `col`, if its value has one.
    fn find(&self, col: &ColumnVector, i: usize) -> Option<u32> {
        match lane(col, i) {
            Lane::Null => self.null_id,
            Lane::Str(s) => self.strs.find(str_hash(s), s, &self.keys).ok(),
            Lane::Long(key) => match (self.by_long.get(&key), &self.by_value) {
                (Some(&id), _) => Some(id),
                (None, Some(by_value)) => by_value.get(&col.get(i)).copied(),
                (None, None) => None,
            },
            Lane::Other => self.find_value(&col.get(i)),
        }
    }

    /// The id of `v`, a non-NULL value that is not a string, if it has
    /// one.
    fn find_value(&self, v: &Value) -> Option<u32> {
        if let Some(by_value) = &self.by_value {
            return by_value.get(v).copied();
        }
        // Every non-string value came through the raw cache: `v` can only
        // equal an integer of its own class.
        let raw = match v {
            Value::Int(x) | Value::Date(x) => *x as i64,
            Value::Long(x) | Value::Timestamp(x) => *x,
            // A float equal to an integer: rare enough to scan for.
            _ => return (0..self.len() as u32).find(|&id| self.value(id) == *v),
        };
        self.by_long.get(&long_key(&v.dtype(), raw)).copied()
    }

    /// The id of the string of bytes `s`, which hashes to `hash`,
    /// interning it as the lane `lane` makes if new.
    fn str_id(&mut self, s: &[u8], hash: u64, lane: impl FnOnce() -> StrLane) -> u32 {
        match self.strs.find(hash, s, &self.keys) {
            Ok(id) => id,
            Err(at) => {
                let id = self.len() as u32;
                self.hashes.push(hash);
                match &mut self.keys {
                    Keys::Str(lanes) => lanes.push(lane()),
                    Keys::Values(values) => values.push(Value::Str(lane().to_arc())),
                }
                self.strs.insert(at, hash, id);
                id
            }
        }
    }

    /// The id of lane `i` of `col`, interning its value if new. `hash` is
    /// the lane's routing hash, if the caller has it.
    fn id(&mut self, col: &ColumnVector, i: usize, hash: Option<u64>) -> u32 {
        if let Lane::Str(s) = lane(col, i) {
            let hash = hash.unwrap_or_else(|| str_hash(s));
            return self.str_id(s, hash, || str_lane(col, i));
        }
        if let Some(found) = self.find(col, i) {
            return found;
        }
        let id = self.len() as u32;
        let v = col.get(i);
        self.hashes.push(hash.unwrap_or_else(|| route_hash(&v)));
        match lane(col, i) {
            Lane::Null => self.null_id = Some(id),
            Lane::Long(key) => _ = self.by_long.insert(key, id),
            // The first lane no cache covers builds the canonical map.
            _ if self.by_value.is_none() => {
                let ids =
                    (0..id).filter(|&id| !matches!(self.value(id), Value::Str(_) | Value::Null));
                self.by_value = Some(ids.map(|id| (self.value(id), id)).collect());
            }
            _ => {}
        }
        if let (Some(by_value), false) = (&mut self.by_value, v.is_null()) {
            by_value.insert(v.clone(), id);
        }
        self.push_key(v);
        id
    }

    /// Store the next id's value, which is not a string. The first value
    /// that is not NULL turns the string lanes into boxed values.
    fn push_key(&mut self, v: Value) {
        if let (Keys::Str(lanes), false) = (&mut self.keys, v.is_null()) {
            let null = self.null_id.map(|id| id as usize);
            let values = (lanes.drain(..).enumerate())
                .map(|(id, s)| match Some(id) == null {
                    true => Value::Null,
                    false => Value::Str(s.to_arc()),
                })
                .collect();
            self.keys = Keys::Values(values);
        }
        match &mut self.keys {
            Keys::Str(lanes) => lanes.push(StrLane::default()), // the NULL id
            Keys::Values(values) => values.push(v),
        }
    }
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

    /// Group `g`'s value id in column `j` (signature path only).
    fn id_of(&self, g: usize, j: usize) -> u32 {
        match self.columns.len() {
            1 => g as u32,
            w => self.ids[g * w + j],
        }
    }

    /// The key row of group `g`, built on demand.
    pub fn key(&self, g: usize) -> Row {
        if self.columns.is_empty() {
            return self.wide[g].clone();
        }
        let values = self.columns.iter().enumerate();
        Row::new(values.map(|(j, c)| c.value(self.id_of(g, j))).collect())
    }

    /// `self.key(g).approx_bytes()`, without building the row.
    pub fn key_bytes(&self, g: usize) -> u64 {
        if self.columns.is_empty() {
            return self.wide[g].approx_bytes();
        }
        let values = self.columns.iter().enumerate();
        Row::approx_bytes_of([]) + values.map(|(j, c)| c.bytes(self.id_of(g, j))).sum::<u64>()
    }

    /// The keys of every group as columns of `dtypes`, in group order:
    /// typed where every value conforms to its column's type, boxed (and
    /// so exact) where one does not. The interner's last use: a
    /// single-column key's stored string lanes move into its column.
    pub fn key_columns(self, dtypes: &[DataType]) -> Vec<Arc<ColumnVector>> {
        match self.columns.len() {
            0 => {
                let column = |(j, dtype): (usize, &DataType)| {
                    let values = self.wide.iter().map(|key| key.values()[j].clone());
                    Arc::new(ColumnVector::from_values(dtype, values.collect()))
                };
                dtypes.iter().enumerate().map(column).collect()
            }
            1 => (dtypes.iter().zip(self.columns))
                .map(|(dtype, c)| Arc::new(c.into_column(dtype)))
                .collect(),
            _ => (dtypes.iter().zip(&self.columns).enumerate())
                .map(|(j, (dtype, c))| {
                    let ids = (0..self.len).map(|g| self.id_of(g, j));
                    Arc::new(c.column(dtype, ids))
                })
                .collect(),
        }
    }

    /// One hash per group, in group order, that agrees with key
    /// equality: keys equal as [`Value`]s (`Int(1)` and `Long(1)`) hash
    /// alike in every interner and every process — what routes a group
    /// to its reducer. Each value's hash was stored when it was
    /// interned.
    pub fn group_hashes(&self) -> Vec<u64> {
        match self.columns.as_slice() {
            [] => self.wide.iter().map(route_hash).collect(),
            [column] => column.hashes.clone(),
            columns => (0..self.len)
                .map(|g| {
                    let values = columns.iter().enumerate();
                    combine(values.map(|(j, c)| c.hashes[self.id_of(g, j) as usize]))
                })
                .collect(),
        }
    }

    /// One hash per lane of the key columns `keys`, `rows` lanes each:
    /// the hash [`group_hashes`](Self::group_hashes) gives the same key,
    /// so lanes are routed by key equality without being interned.
    pub fn key_hashes(keys: &[Arc<ColumnVector>], rows: usize) -> Vec<u64> {
        match keys {
            [key] => (0..rows).map(|i| lane_hash(key, i)).collect(),
            _ if keys.len() > MAX_SIG_COLS => (0..rows)
                .map(|i| route_hash(&Row::new(keys.iter().map(|c| c.get(i)).collect())))
                .collect(),
            _ => (0..rows)
                .map(|i| combine(keys.iter().map(|c| lane_hash(c, i))))
                .collect(),
        }
    }

    /// Assign a group id to every selected lane of `key_batch` (the
    /// evaluated key columns), appending `(lane, group)` pairs to `out`
    /// in arrival order.
    pub fn assign(&mut self, key_batch: &RowBatch, out: &mut Vec<(u32, u32)>) {
        self.assign_lanes(key_batch, None, out)
    }

    /// [`assign`](Self::assign) for keys that arrive with `hashes`, one
    /// per lane of `key_batch`: the [`key_hashes`](Self::key_hashes) of
    /// its lanes, as [`group_hashes`](Self::group_hashes) shipped them. A
    /// single-column key is then not hashed again; a wider key hashes
    /// each of its columns.
    pub fn assign_hashed(
        &mut self,
        key_batch: &RowBatch,
        hashes: &[u64],
        out: &mut Vec<(u32, u32)>,
    ) {
        debug_assert_eq!(hashes.len(), key_batch.num_rows());
        self.assign_lanes(key_batch, Some(hashes), out)
    }

    fn assign_lanes(
        &mut self,
        key_batch: &RowBatch,
        hashes: Option<&[u64]>,
        out: &mut Vec<(u32, u32)>,
    ) {
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
            ci.reserve(c, n);
        }
        if let [col] = cols {
            // A single column's value ids are its group ids, and a key's
            // hash is its value's.
            let interner = &mut self.columns[0];
            match (col.data(), col.nulls()) {
                // The string key's loop: typed lanes, no NULL.
                (VectorData::Str(lanes), None) => key_batch.for_each_selected(|i| {
                    let s = lanes[i].as_bytes();
                    let hash = hashes.map_or_else(|| str_hash(s), |h| h[i]);
                    out.push((i as u32, interner.str_id(s, hash, || lanes[i].clone())))
                }),
                _ => key_batch.for_each_selected(|i| {
                    let hash = hashes.map(|h| h[i]);
                    out.push((i as u32, interner.id(col, i, hash)))
                }),
            }
            self.len = interner.len();
            return;
        }
        key_batch.for_each_selected(|i| {
            let next = self.len as u32;
            let mut ids = [0u32; MAX_SIG_COLS];
            let mut sig = 0u128;
            for (j, c) in cols.iter().enumerate() {
                ids[j] = self.columns[j].id(c, i, None);
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
            let (ah, bh) = (a.group_hashes(), b.group_hashes());
            assert_eq!((ah[2], ah[1]), (bh[0], bh[1]), "width {width}");
            for (g, lane) in [0usize, 1, 3].into_iter().enumerate() {
                assert_eq!(a.key(g), rows.row(lane), "width {width}");
                assert_eq!(a.key_bytes(g), a.key(g).approx_bytes(), "width {width}");
            }
            let cols = a.key_columns(&dtypes);
            for (g, lane) in [0usize, 1, 3].into_iter().enumerate() {
                let row = Row::new(cols.iter().map(|c| c.get(g)).collect());
                assert_eq!(row, rows.row(lane), "width {width}");
            }
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

    /// Distinct string keys of 1 to 40 bytes, multi-byte ones, NULL and
    /// `""`.
    fn awkward_strings() -> Vec<Value> {
        let mut keys: Vec<Value> = (1..=40).map(|n| Value::str("k".repeat(n))).collect();
        keys.extend(["é", "日本語", "ü".repeat(9).as_str(), "a\u{0}b", "🦀x"].map(Value::str));
        keys.extend([Value::Null, Value::str("")]);
        keys
    }

    #[test]
    fn a_slot_matches_on_the_string_not_the_hash_alone() {
        // Every lane shipped with one hash: the table must still split
        // the keys by string equality, into `assign`'s ids.
        let mut keys = awkward_strings();
        keys.extend(awkward_strings().into_iter().rev());
        let batch = batch_of(DataType::String, keys);
        let (mut plain, mut hashed) = (BatchGroups::new(), BatchGroups::new());
        let (mut want, mut got) = (Vec::new(), Vec::new());
        plain.assign(&batch, &mut want);
        hashed.assign_hashed(&batch, &vec![7; batch.num_rows()], &mut got);
        assert_eq!(got, want);
        assert_eq!(hashed.len(), awkward_strings().len());
        let dtypes = [DataType::String];
        let (a, b) = (plain.key_columns(&dtypes), hashed.key_columns(&dtypes));
        let values = |c: &ColumnVector| (0..c.len()).map(|i| c.get(i)).collect::<Vec<_>>();
        assert_eq!(values(&a[0]), values(&b[0]));
    }

    #[test]
    fn typed_and_boxed_string_batches_share_groups_either_way_round() {
        let keys = awkward_strings();
        let typed = batch_of(DataType::String, keys.clone());
        assert!(matches!(typed.column(0).data(), VectorData::Str(_)));
        let boxed = RowBatch::new(
            vec![Arc::new(ColumnVector::from_boxed(
                DataType::String,
                keys.clone(),
            ))],
            keys.len(),
        );
        for (first, second) in [(&typed, &boxed), (&boxed, &typed)] {
            let (mut groups, mut a, mut b) = (BatchGroups::new(), Vec::new(), Vec::new());
            groups.assign(first, &mut a);
            assert_eq!(assert_find_agrees(&groups, second), a);
            groups.assign(second, &mut b);
            assert_eq!(a, b);
            assert_eq!(groups.len(), keys.len());
            assert_eq!(assert_find_agrees(&groups, first), a);
            let reversed: Vec<u32> = (0..keys.len() as u32).rev().collect();
            assert_find_agrees(&groups, &second.clone().with_selection(reversed));
        }
    }

    #[test]
    fn string_key_hashes_are_stored_group_hashes() {
        let keys = awkward_strings();
        let column = Arc::new(ColumnVector::from_values(&DataType::String, keys.clone()));
        let (mut groups, mut out) = (BatchGroups::new(), Vec::new());
        groups.assign(&RowBatch::new(vec![column.clone()], keys.len()), &mut out);
        let lanes = BatchGroups::key_hashes(&[column], keys.len());
        assert_eq!(lanes, groups.group_hashes());
        let values: Vec<u64> = keys.iter().map(route_hash).collect();
        assert_eq!(lanes, values);
        // Two columns: each column's stored hashes combine as the lanes'.
        let two = vec![
            Arc::new(ColumnVector::from_values(&DataType::String, keys.clone())),
            Arc::new(ColumnVector::from_values(
                &DataType::String,
                keys.iter().rev().cloned().collect(),
            )),
        ];
        let (mut groups, n) = (BatchGroups::new(), keys.len());
        groups.assign(&RowBatch::new(two.clone(), n), &mut out);
        assert_eq!(BatchGroups::key_hashes(&two, n), groups.group_hashes());
    }

    /// A string's inline and shared lanes are one key: one id, one hash,
    /// the [`Value`] hash of the string.
    #[test]
    fn both_forms_of_a_string_get_one_id() {
        let strs = [
            "",
            "six666",
            "seven77",
            "eight888",
            "nine99999",
            "abcdeé",
            "abcdefé",
        ];
        let column = |lanes: Vec<StrLane>| {
            let n = lanes.len();
            let data = VectorData::Str(lanes);
            let column = Arc::new(ColumnVector::new(DataType::String, data, None));
            RowBatch::new(vec![column], n)
        };
        let made = column(strs.map(StrLane::new).to_vec());
        let shared = column(strs.map(StrLane::forced_shared).to_vec());
        for (first, second) in [(&made, &shared), (&shared, &made)] {
            let (mut groups, mut a, mut b) = (BatchGroups::new(), Vec::new(), Vec::new());
            groups.assign(first, &mut a);
            groups.assign(second, &mut b);
            assert_eq!(a, b);
            assert_eq!(groups.len(), strs.len());
            assert_eq!(assert_find_agrees(&groups, second), a);
            let values = strs.map(|s| route_hash(&Value::str(s)));
            assert_eq!(groups.group_hashes(), values);
            for batch in [first, second] {
                assert_eq!(BatchGroups::key_hashes(batch.columns(), strs.len()), values);
            }
        }
    }

    #[test]
    fn first_seen_ids_survive_the_table_growing() {
        // 200 000 distinct keys over 100 batches, each batch also
        // repeating keys of earlier ones.
        let (mut groups, mut out) = (BatchGroups::new(), Vec::new());
        let key = |k: usize| Value::str(format!("10.{}.{}", k % 251, k));
        for b in 0..100usize {
            let fresh = (b * 2000..(b + 1) * 2000).map(|k| (k, key(k)));
            let seen = (0..200)
                .map(|j| (b * 1999 * j) % (b * 2000).max(1))
                .filter(|_| b > 0);
            let keys: Vec<(usize, Value)> = fresh.chain(seen.map(|k| (k, key(k)))).collect();
            let batch = batch_of(
                DataType::String,
                keys.iter().map(|(_, v)| v.clone()).collect(),
            );
            groups.assign(&batch, &mut out);
            for ((k, _), (lane, g)) in keys.iter().zip(&out) {
                assert_eq!(*g as usize, *k, "batch {b} lane {lane}");
            }
        }
        assert_eq!(groups.len(), 200_000);
        let probe = batch_of(DataType::String, vec![key(0), key(199_999), key(123_457)]);
        assert_eq!(
            assert_find_agrees(&groups, &probe),
            vec![(0, 0), (1, 199_999), (2, 123_457)]
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
