//! Row storage and secondary indexes, copy-on-write per page.
//!
//! Rows live in slots with tombstones so a `RowId` stays stable for the
//! lifetime of the row — the transaction undo log addresses rows by id.
//! The slots sit in a [`PagedVec`]: `Arc`-shared pages of
//! [`PAGE_SLOTS`](super::paged::PAGE_SLOTS) rows. Every index has one
//! physical shape: a hash map from key tuple to the sorted row ids carrying
//! that key, split into `Arc`-shared shards chosen by the key's hash (the
//! shard count doubles to keep at most [`SHARD_KEYS`] keys per shard on
//! average). Indexes are only ever probed
//! with equality keys — uniqueness checks, point lookups, FK probes — so
//! nothing needs key order. They are maintained by every
//! `insert`/`update`/`delete`/`restore`, which is what makes them
//! transactionally consistent: the undo log replays through those same
//! operations on rollback.
//!
//! Cost model of a write to a shared (snapshotted) table: copying the
//! table's page- and shard-pointer vectors (O(rows / `PAGE_SLOTS`) refcount
//! bumps) plus one `PAGE_SLOTS`-row page per written slot and one shard
//! per changed index key — not the whole table.

use super::paged::PagedVec;
use crate::value::{Key, Row, Value};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Average keys per index shard above which an index doubles its shards.
pub const SHARD_KEYS: usize = 64;

/// Stable identifier of a row within one table.
pub type RowId = usize;

/// Copy-on-write map of table storage, keyed by table name.
///
/// Each table sits behind an `Arc`, so cloning a whole `DbState` — an MVCC
/// snapshot or a transaction's private workspace — costs one pointer bump
/// per table instead of a deep copy. The first mutation of a table inside a
/// clone unshares just that table's header (`Arc::make_mut`): its page and
/// shard pointer vectors, while the row pages and index shards themselves
/// stay shared until written (see the module docs for the cost model).
/// Untouched tables stay shared whole with every snapshot holding them.
/// The API mirrors the `BTreeMap<String, TableData>` it replaced, so the
/// executor and the undo log are oblivious to the sharing.
#[derive(Debug, Clone, Default)]
pub struct DataMap {
    tables: BTreeMap<String, Arc<TableData>>,
}

impl DataMap {
    /// Shared view of one table's storage.
    pub fn get(&self, name: &str) -> Option<&TableData> {
        self.tables.get(name).map(Arc::as_ref)
    }

    /// Mutable view of one table's storage, unsharing it first if any
    /// snapshot still holds the same version (copy-on-write).
    pub fn get_mut(&mut self, name: &str) -> Option<&mut TableData> {
        self.tables.get_mut(name).map(Arc::make_mut)
    }

    /// Register (or replace) a table's storage.
    pub fn insert(&mut self, name: String, data: TableData) {
        self.tables.insert(name, Arc::new(data));
    }

    /// Remove a table's storage, returning it (unshared).
    pub fn remove(&mut self, name: &str) -> Option<TableData> {
        self.tables
            .remove(name)
            .map(|data| Arc::try_unwrap(data).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Iterate over `(name, storage)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &TableData)> {
        self.tables.iter().map(|(name, data)| (name, data.as_ref()))
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether no tables are stored.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

impl std::ops::Index<&str> for DataMap {
    type Output = TableData;

    fn index(&self, name: &str) -> &TableData {
        self.get(name)
            .unwrap_or_else(|| panic!("no storage for table \"{name}\""))
    }
}

/// Key wrapper whose equality and hash follow `Key`'s *total order* rather
/// than the derived `PartialEq`. This matters for cross-type numerics: an
/// index probe with `Int(1)` must find `Float(1.0)` entries (`total_cmp`
/// treats them as equal, as do sorting and grouping), so they must collide
/// and compare equal — numeric values hash through their `f64` image with
/// `-0.0` and NaN canonicalised.
#[derive(Debug, Clone)]
pub struct HashedKey(pub Key);

impl PartialEq for HashedKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.cmp(&other.0) == std::cmp::Ordering::Equal
    }
}

impl Eq for HashedKey {}

impl Hash for HashedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in &self.0 .0 {
            hash_value(v, state);
        }
    }
}

fn hash_value<H: Hasher>(v: &Value, state: &mut H) {
    match v {
        Value::Null => state.write_u8(0),
        Value::Bool(b) => {
            state.write_u8(1);
            state.write_u8(u8::from(*b));
        }
        // One numeric tag for Int and Float: total_cmp compares them through
        // f64, so equal-by-order values must produce equal hashes.
        Value::Int(i) => {
            state.write_u8(2);
            state.write_u64(canonical_f64_bits(*i as f64));
        }
        Value::Float(f) => {
            state.write_u8(2);
            state.write_u64(canonical_f64_bits(*f));
        }
        Value::Text(s) => {
            state.write_u8(3);
            state.write(s.as_bytes());
            state.write_u8(0xff);
        }
    }
}

fn canonical_f64_bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else if f == 0.0 {
        0u64 // collapse -0.0 and +0.0
    } else {
        f.to_bits()
    }
}

/// Canonicalize a key for index storage and probes. SQL equality
/// (`sql_cmp`, via `partial_cmp`) says `-0.0 = 0`, but the total order
/// backing index keys says `-0.0 < 0.0` — left as-is, a stored `-0.0` row
/// would be invisible to an index probe for `0`, and index prefilters must
/// never *under*-include. Collapsing `-0.0` to `0.0` at every IndexData
/// entry point closes the gap. The hash-join operator
/// canonicalizes its build/probe keys the same way.
pub fn canonical_key(mut key: Key) -> Key {
    for v in &mut key.0 {
        if let Value::Float(f) = v {
            if *f == 0.0 {
                *f = 0.0;
            }
        }
    }
    key
}

/// One shard of an index: key → sorted row ids.
type Shard = HashMap<HashedKey, Vec<RowId>>;

/// Index payload: a map from key tuple to the sorted ids of the rows with
/// that key, split into `Arc`-shared shards by key hash so a write unshares
/// only the shard its key lands in.
#[derive(Debug, Clone)]
pub struct IndexData {
    /// Positions (into the table schema) of the indexed columns.
    pub columns: Vec<usize>,
    /// Whether duplicate keys are rejected.
    pub unique: bool,
    /// Power-of-two many shards; a key lives in `shard_index(key)`.
    shards: Vec<Arc<Shard>>,
    /// Number of distinct keys across all shards.
    keys: usize,
}

impl Default for IndexData {
    fn default() -> Self {
        IndexData::new(Vec::new(), false)
    }
}

/// Shard of `key` among `count` (a power of two) shards. `DefaultHasher`
/// with its fixed keys, so placement is deterministic; the shards' own
/// maps hash with independent random keys.
fn shard_index(key: &HashedKey, count: usize) -> usize {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish() as usize & (count - 1)
}

impl IndexData {
    /// New empty index over the given column positions.
    pub fn new(columns: Vec<usize>, unique: bool) -> Self {
        IndexData {
            columns,
            unique,
            shards: vec![Arc::default()],
            keys: 0,
        }
    }

    /// Extract this index's key from a row, canonicalized.
    pub fn key_of(&self, row: &Row) -> Key {
        canonical_key(Key(self.columns.iter().map(|&i| row[i].clone()).collect()))
    }

    fn rids(&self, key: &Key) -> Option<&Vec<RowId>> {
        let key = HashedKey(canonical_key(key.clone()));
        self.shards[shard_index(&key, self.shards.len())].get(&key)
    }

    /// Whether inserting `key` would violate uniqueness. NULL-containing
    /// keys never conflict (SQL UNIQUE semantics).
    pub fn would_conflict(&self, key: &Key, ignore: Option<RowId>) -> bool {
        if !self.unique || key.0.iter().any(Value::is_null) {
            return false;
        }
        self.rids(key)
            .is_some_and(|rids| rids.iter().any(|&rid| Some(rid) != ignore))
    }

    /// Add a row under its key.
    pub fn insert(&mut self, key: Key, rid: RowId) {
        let key = HashedKey(canonical_key(key));
        let i = shard_index(&key, self.shards.len());
        match Arc::make_mut(&mut self.shards[i]).entry(key) {
            Entry::Occupied(mut e) => {
                let rids = e.get_mut();
                if let Err(pos) = rids.binary_search(&rid) {
                    rids.insert(pos, rid);
                }
            }
            Entry::Vacant(e) => {
                e.insert(vec![rid]);
                self.keys += 1;
                if self.keys > self.shards.len() * SHARD_KEYS {
                    self.reshard(self.shards.len() * 2);
                }
            }
        }
    }

    /// Redistribute every key over `count` fresh shards.
    fn reshard(&mut self, count: usize) {
        let fresh = (0..count).map(|_| Arc::default()).collect();
        let old = std::mem::replace(&mut self.shards, fresh);
        for shard in old {
            let entries = Arc::try_unwrap(shard).unwrap_or_else(|shared| (*shared).clone());
            for (key, rids) in entries {
                let i = shard_index(&key, count);
                Arc::make_mut(&mut self.shards[i]).insert(key, rids);
            }
        }
    }

    /// Remove a row from its key.
    pub fn remove(&mut self, key: &Key, rid: RowId) {
        let key = HashedKey(canonical_key(key.clone()));
        let i = shard_index(&key, self.shards.len());
        // Probe the shared shard first: a miss must not unshare it.
        let Some(pos) = self.shards[i]
            .get(&key)
            .and_then(|rids| rids.binary_search(&rid).ok())
        else {
            return;
        };
        let shard = Arc::make_mut(&mut self.shards[i]);
        let rids = shard.get_mut(&key).expect("probed above");
        rids.remove(pos);
        if rids.is_empty() {
            shard.remove(&key);
            self.keys -= 1;
        }
    }

    /// Row ids exactly matching a key, ascending.
    pub fn lookup(&self, key: &Key) -> Vec<RowId> {
        self.rids(key).cloned().unwrap_or_default()
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.keys
    }

    /// All `(key, row ids)` pairs in arbitrary order, for consistency
    /// checking.
    fn entry_pairs(&self) -> impl Iterator<Item = (&Key, &Vec<RowId>)> {
        self.shards
            .iter()
            .flat_map(|shard| shard.iter().map(|(k, rids)| (&k.0, rids)))
    }
}

/// Storage of one table: paged row slots plus named indexes.
#[derive(Debug, Clone, Default)]
pub struct TableData {
    slots: PagedVec<Option<Row>>,
    free: Vec<RowId>,
    live: usize,
    /// Secondary indexes by name.
    pub indexes: BTreeMap<String, IndexData>,
}

impl TableData {
    /// Empty storage.
    pub fn new() -> Self {
        TableData::default()
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Insert a row, maintaining all indexes. The row must already be
    /// validated (types, constraints) by the executor.
    pub fn insert(&mut self, row: Row) -> RowId {
        let rid = self.free.pop().unwrap_or(self.slots.len());
        for idx in self.indexes.values_mut() {
            let key = idx.key_of(&row);
            idx.insert(key, rid);
        }
        match self.slots.get_mut(rid) {
            Some(slot) => *slot = Some(row),
            None => self.slots.push(Some(row)),
        }
        self.live += 1;
        rid
    }

    /// Re-insert a row at a specific id (transaction rollback of a delete).
    /// Panics if the slot is occupied — that would mean the undo log and the
    /// storage diverged.
    pub fn restore(&mut self, rid: RowId, row: Row) {
        self.slots.grow_to(rid + 1, None);
        assert!(self.get(rid).is_none(), "restore into occupied slot {rid}");
        // The slot may sit in the free list; drop it from there lazily by
        // filtering on next allocation.
        self.free.retain(|&f| f != rid);
        for idx in self.indexes.values_mut() {
            let key = idx.key_of(&row);
            idx.insert(key, rid);
        }
        *self.slots.get_mut(rid).expect("grown above") = Some(row);
        self.live += 1;
    }

    /// Delete a row by id, returning it.
    pub fn delete(&mut self, rid: RowId) -> Option<Row> {
        self.get(rid)?;
        let row = self.slots.get_mut(rid)?.take()?;
        self.free.push(rid);
        self.live -= 1;
        for idx in self.indexes.values_mut() {
            let key = idx.key_of(&row);
            idx.remove(&key, rid);
        }
        Some(row)
    }

    /// Replace a row in place, maintaining indexes. Returns the old row.
    /// Indexes whose key did not change are left untouched (and shared).
    pub fn update(&mut self, rid: RowId, new_row: Row) -> Option<Row> {
        self.get(rid)?;
        let slot = self.slots.get_mut(rid)?;
        let old = slot.replace(new_row).expect("live row checked above");
        let new_row = slot.as_ref().expect("just written");
        for idx in self.indexes.values_mut() {
            let (old_key, new_key) = (idx.key_of(&old), idx.key_of(new_row));
            if old_key.cmp(&new_key).is_ne() {
                idx.remove(&old_key, rid);
                idx.insert(new_key, rid);
            }
        }
        Some(old)
    }

    /// Fetch a row by id.
    pub fn get(&self, rid: RowId) -> Option<&Row> {
        self.slots.get(rid).and_then(Option::as_ref)
    }

    /// Total slot count (live + tombstoned). Persisted by snapshots so a
    /// rebuilt table allocates future row ids exactly like the original.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The free list, in allocation (stack) order. Persisted by snapshots:
    /// `insert` pops from the *end*, so reproducing the order reproduces
    /// the original's row-id allocation sequence after recovery.
    pub fn free_list(&self) -> Vec<RowId> {
        self.free.clone()
    }

    /// Overwrite the slot count and free list after a bulk rebuild from
    /// persisted rows (recovery / ALTER replay). Extends the slot vector so
    /// every free id addresses a real (tombstoned) slot.
    pub fn set_free_list(&mut self, slot_count: usize, free: Vec<RowId>) {
        self.slots.grow_to(slot_count, None);
        self.free = free;
    }

    /// Clone out all live rows as `(RowId, Row)` pairs, in id order.
    pub fn rows_snapshot(&self) -> Vec<(RowId, Row)> {
        self.iter().map(|(rid, row)| (rid, row.clone())).collect()
    }

    /// Iterate over `(RowId, &Row)` for live rows, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(rid, slot)| slot.as_ref().map(|row| (rid, row)))
    }

    /// Add an index over column positions and build it from existing rows.
    /// Returns `Err` with a conflicting key description if a unique index
    /// finds duplicates.
    pub fn build_index(
        &mut self,
        name: &str,
        columns: Vec<usize>,
        unique: bool,
    ) -> Result<(), String> {
        let mut idx = IndexData::new(columns, unique);
        for (rid, row) in self.iter() {
            let key = idx.key_of(row);
            if idx.would_conflict(&key, None) {
                return Err(format!(
                    "duplicate key {:?} violates unique index \"{name}\"",
                    key.0.iter().map(Value::render).collect::<Vec<_>>()
                ));
            }
            idx.insert(key, rid);
        }
        self.indexes.insert(name.to_owned(), idx);
        Ok(())
    }

    /// Verify that every index agrees exactly with the live rows: each live
    /// row appears under precisely its key and nothing else is indexed.
    /// Returns a description of the first divergence found. Used by the
    /// rollback machinery (debug builds) and the differential tests.
    pub fn verify_index_consistency(&self) -> Result<(), String> {
        for (name, idx) in &self.indexes {
            let mut expected: BTreeMap<Key, BTreeSet<RowId>> = BTreeMap::new();
            for (rid, row) in self.iter() {
                expected.entry(idx.key_of(row)).or_default().insert(rid);
            }
            let mut actual: BTreeMap<Key, BTreeSet<RowId>> = BTreeMap::new();
            for (key, rids) in idx.entry_pairs() {
                // Fold through the ordered key comparison, so keys the hash
                // equates must also be equal by `Key`'s total order.
                actual.entry(key.clone()).or_default().extend(rids);
            }
            // Keys compare by the total order, not the derived `==`: the two
            // maps may hold different spellings of one key (`Int(1)` vs
            // `Float(1.0)`), whichever row each saw first.
            let same = expected.len() == actual.len()
                && expected
                    .iter()
                    .zip(&actual)
                    .all(|((ka, ra), (kb, rb))| ka.cmp(kb).is_eq() && ra == rb);
            if !same || idx.keys != actual.len() {
                return Err(format!(
                    "index \"{name}\" diverged from live rows: \
                     {} expected keys vs {} indexed keys",
                    expected.len(),
                    actual.len()
                ));
            }
        }
        Ok(())
    }

    /// `(pages shared, pages)` and `(shards shared, shards)` summed over
    /// all indexes, against `other` by allocation identity at the same
    /// position — the structural-sharing probe for copy-on-write tests.
    #[cfg(test)]
    pub(crate) fn sharing_with(&self, other: &TableData) -> ((usize, usize), (usize, usize)) {
        let pairs = self.indexes.iter().filter_map(|(name, idx)| {
            let theirs = other.indexes.get(name)?;
            Some(idx.shards.iter().zip(&theirs.shards))
        });
        let shared = pairs.flatten().filter(|(a, b)| Arc::ptr_eq(a, b)).count();
        let total = self.indexes.values().map(|idx| idx.shards.len()).sum();
        (self.slots.shared_pages(&other.slots), (shared, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: i64, name: &str) -> Row {
        vec![Value::Int(id), Value::Text(name.into())]
    }

    #[test]
    fn insert_get_delete() {
        let mut t = TableData::new();
        let a = t.insert(row(1, "a"));
        let b = t.insert(row(2, "b"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a).unwrap()[0], Value::Int(1));
        let old = t.delete(a).unwrap();
        assert_eq!(old[1], Value::Text("a".into()));
        assert_eq!(t.len(), 1);
        assert!(t.get(a).is_none());
        assert!(t.get(b).is_some());
    }

    #[test]
    fn slot_reuse_keeps_ids_stable() {
        let mut t = TableData::new();
        let a = t.insert(row(1, "a"));
        t.insert(row(2, "b"));
        t.delete(a);
        let c = t.insert(row(3, "c"));
        assert_eq!(c, a, "freed slot should be reused");
        assert_eq!(t.iter().count(), 2);
    }

    #[test]
    fn restore_after_delete() {
        let mut t = TableData::new();
        let a = t.insert(row(1, "a"));
        let old = t.delete(a).unwrap();
        t.restore(a, old);
        assert_eq!(t.get(a).unwrap()[0], Value::Int(1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "occupied")]
    fn restore_into_live_slot_panics() {
        let mut t = TableData::new();
        let a = t.insert(row(1, "a"));
        t.restore(a, row(9, "x"));
    }

    #[test]
    fn index_maintenance() {
        let mut t = TableData::new();
        t.build_index("by_id", vec![0], true).unwrap();
        let a = t.insert(row(1, "a"));
        t.insert(row(2, "b"));
        let idx = &t.indexes["by_id"];
        assert_eq!(idx.lookup(&Key(vec![Value::Int(1)])), vec![a]);
        // Update moves the index entry.
        t.update(a, row(5, "a"));
        let idx = &t.indexes["by_id"];
        assert!(idx.lookup(&Key(vec![Value::Int(1)])).is_empty());
        assert_eq!(idx.lookup(&Key(vec![Value::Int(5)])), vec![a]);
        // Delete removes it.
        t.delete(a);
        let idx = &t.indexes["by_id"];
        assert!(idx.lookup(&Key(vec![Value::Int(5)])).is_empty());
    }

    #[test]
    fn unique_conflicts() {
        let mut t = TableData::new();
        t.build_index("u", vec![0], true).unwrap();
        let a = t.insert(row(1, "a"));
        let idx = &t.indexes["u"];
        assert!(idx.would_conflict(&Key(vec![Value::Int(1)]), None));
        assert!(!idx.would_conflict(&Key(vec![Value::Int(1)]), Some(a)));
        assert!(!idx.would_conflict(&Key(vec![Value::Int(2)]), None));
        // NULL keys never conflict.
        assert!(!idx.would_conflict(&Key(vec![Value::Null]), None));
    }

    #[test]
    fn build_unique_index_detects_existing_duplicates() {
        let mut t = TableData::new();
        t.insert(row(1, "a"));
        t.insert(row(1, "b"));
        assert!(t.build_index("u", vec![0], true).is_err());
        assert!(t.build_index("nu", vec![0], false).is_ok());
    }

    #[test]
    fn non_unique_index_keeps_sorted_rids_per_key() {
        let mut t = TableData::new();
        t.build_index("h", vec![0], false).unwrap();
        let a = t.insert(row(1, "a"));
        let b = t.insert(row(1, "b"));
        t.insert(row(2, "c"));
        let probe = Key(vec![Value::Int(1)]);
        assert_eq!(t.indexes["h"].lookup(&probe), vec![a, b]);
        t.update(a, row(2, "a"));
        t.delete(b);
        assert_eq!(t.indexes["h"].lookup(&probe), Vec::<RowId>::new());
        assert_eq!(t.indexes["h"].lookup(&Key(vec![Value::Int(2)])).len(), 2);
        assert_eq!(t.indexes["h"].distinct_keys(), 1);
        t.verify_index_consistency().unwrap();
    }

    #[test]
    fn index_probes_across_numeric_types() {
        // total_cmp treats Int(1) and Float(1.0) as equal, and -0.0 is
        // canonicalized to 0.0, so a probe must find either spelling.
        let mut t = TableData::new();
        t.build_index("h", vec![0], false).unwrap();
        let a = t.insert(vec![Value::Float(1.0), Value::Text("x".into())]);
        assert_eq!(t.indexes["h"].lookup(&Key(vec![Value::Int(1)])), vec![a]);
        let b = t.insert(vec![Value::Float(-0.0), Value::Text("z".into())]);
        assert_eq!(t.indexes["h"].lookup(&Key(vec![Value::Int(0)])), vec![b]);
    }

    #[test]
    fn index_reshards_as_keys_grow_and_stays_consistent() {
        let mut t = TableData::new();
        t.build_index("u", vec![0], true).unwrap();
        let n = 10 * SHARD_KEYS as i64;
        for i in 0..n {
            t.insert(row(i, "r"));
        }
        let idx = &t.indexes["u"];
        assert!(idx.shards.len() >= 8, "{} shards", idx.shards.len());
        assert_eq!(idx.distinct_keys(), n as usize);
        for i in 0..n {
            assert_eq!(idx.lookup(&Key(vec![Value::Int(i)])), vec![i as RowId]);
        }
        t.verify_index_consistency().unwrap();
    }

    #[test]
    fn consistency_check_catches_divergence() {
        let mut t = TableData::new();
        t.build_index("h", vec![0], false).unwrap();
        t.insert(row(1, "a"));
        t.verify_index_consistency().unwrap();
        // Sabotage the index directly: the checker must notice.
        t.indexes
            .get_mut("h")
            .unwrap()
            .insert(Key(vec![Value::Int(99)]), 7);
        assert!(t.verify_index_consistency().is_err());
    }
}
