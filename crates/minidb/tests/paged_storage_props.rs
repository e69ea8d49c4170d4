//! Property test for paged, copy-on-write table storage.
//!
//! Random sequences of insert / update / delete / restore / build-index run
//! against `TableData` and against a naive model: a `Vec<Option<Row>>` of
//! slots, a free-list stack, and per-index `key → row ids` maps whose key
//! equality is written out independently here (numbers compare by value,
//! `-0.0 = 0.0`, `Int(1) = Float(1.0)`). Two lanes hold a table each; a
//! `Fork` step clones one lane into the other, and later steps mutate
//! either lane, so a write leaking through a shared page or index shard —
//! in either direction — shows up as a lane diverging from its model. Every
//! step ends with a full comparison plus `verify_index_consistency`.

use minidb::storage::TableData;
use minidb::value::Key;
use minidb::{Row, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Index column sets a `BuildIndex` step can pick from.
const INDEX_COLUMNS: [&[usize]; 5] = [&[0], &[1], &[0, 1], &[2], &[1, 2]];
const MAX_INDEXES: usize = 4;

/// Model key component: one variant per equality class of the index.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Mk {
    Null,
    Num(u64),
    Text(String),
}

fn mk(v: &Value) -> Mk {
    match v {
        Value::Null => Mk::Null,
        Value::Int(i) => Mk::Num((*i as f64 + 0.0).to_bits()),
        // `+ 0.0` turns -0.0 into 0.0.
        Value::Float(f) => Mk::Num((f + 0.0).to_bits()),
        Value::Text(s) => Mk::Text(s.clone()),
        Value::Bool(_) => unreachable!("not generated"),
    }
}

#[derive(Debug, Clone)]
struct ModelIndex {
    columns: Vec<usize>,
    unique: bool,
    /// Key class → (one spelling of the key, row ids).
    entries: BTreeMap<Vec<Mk>, (Vec<Value>, BTreeSet<usize>)>,
}

impl ModelIndex {
    fn key(&self, row: &Row) -> (Vec<Mk>, Vec<Value>) {
        let vals: Vec<Value> = self.columns.iter().map(|&c| row[c].clone()).collect();
        (vals.iter().map(mk).collect(), vals)
    }

    fn add(&mut self, row: &Row, rid: usize) {
        let (k, vals) = self.key(row);
        self.entries
            .entry(k)
            .or_insert_with(|| (vals, BTreeSet::new()))
            .1
            .insert(rid);
    }

    fn remove(&mut self, row: &Row, rid: usize) {
        let (k, _) = self.key(row);
        let (_, rids) = self.entries.get_mut(&k).expect("indexed row");
        rids.remove(&rid);
        if rids.is_empty() {
            self.entries.remove(&k);
        }
    }

    fn conflicts(&self, row: &Row, ignore: Option<usize>) -> bool {
        let (k, _) = self.key(row);
        self.unique
            && !k.contains(&Mk::Null)
            && self
                .entries
                .get(&k)
                .is_some_and(|(_, rids)| rids.iter().any(|&r| Some(r) != ignore))
    }
}

#[derive(Debug, Clone, Default)]
struct Model {
    slots: Vec<Option<Row>>,
    free: Vec<usize>,
    indexes: BTreeMap<String, ModelIndex>,
    /// Deleted rows, restorable while their slot stays empty.
    graveyard: Vec<(usize, Row)>,
}

impl Model {
    fn live(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&r| self.slots[r].is_some())
            .collect()
    }

    fn conflicts(&self, row: &Row, ignore: Option<usize>) -> bool {
        self.indexes.values().any(|i| i.conflicts(row, ignore))
    }

    fn put(&mut self, rid: usize, row: Row) {
        for idx in self.indexes.values_mut() {
            idx.add(&row, rid);
        }
        self.slots[rid] = Some(row);
    }

    fn take(&mut self, rid: usize) -> Row {
        let row = self.slots[rid].take().expect("live row");
        for idx in self.indexes.values_mut() {
            idx.remove(&row, rid);
        }
        row
    }
}

/// The table side of a uniqueness check, as the executor asks it.
fn table_conflicts(t: &TableData, row: &Row, ignore: Option<usize>) -> bool {
    t.indexes
        .values()
        .any(|idx| idx.unique && idx.would_conflict(&idx.key_of(row), ignore))
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Row),
    Update(usize, Row),
    Delete(usize),
    Restore(usize),
    /// Restore a fresh row past the end of the slots (recovery's bulk path).
    RestoreAt(usize, Row),
    BuildIndex(usize, bool),
    /// Clone this lane into the other one.
    Fork,
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0i64..4).prop_map(Value::Int),
        (0i64..4).prop_map(|i| Value::Float(i as f64)),
        Just(Value::Float(-0.0)),
        (0i64..300).prop_map(Value::Int),
    ]
}

fn text() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(|s| Value::Text(s.into())),
    ]
}

fn row() -> impl Strategy<Value = Row> {
    (value(), text(), (0i64..300).prop_map(Value::Int)).prop_map(|(a, b, c)| vec![a, b, c])
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        row().prop_map(Op::Insert),
        row().prop_map(Op::Insert),
        (any::<usize>(), row()).prop_map(|(p, r)| Op::Update(p, r)),
        any::<usize>().prop_map(Op::Delete),
        any::<usize>().prop_map(Op::Restore),
        ((0usize..70), row()).prop_map(|(gap, r)| Op::RestoreAt(gap, r)),
        ((0..INDEX_COLUMNS.len()), any::<bool>()).prop_map(|(c, u)| Op::BuildIndex(c, u)),
        Just(Op::Fork),
    ]
}

fn apply(lanes: &mut [(TableData, Model); 2], lane: usize, op: &Op) {
    if let Op::Fork = op {
        lanes[1 - lane] = lanes[lane].clone();
        return;
    }
    let (t, m) = &mut lanes[lane];
    let live = m.live();
    match op {
        Op::Insert(row) => {
            assert_eq!(table_conflicts(t, row, None), m.conflicts(row, None));
            if m.conflicts(row, None) {
                return;
            }
            let expected = m.free.pop().unwrap_or(m.slots.len());
            if expected == m.slots.len() {
                m.slots.push(None);
            }
            m.graveyard.retain(|(r, _)| *r != expected);
            m.put(expected, row.clone());
            assert_eq!(t.insert(row.clone()), expected, "row id allocation");
        }
        Op::Update(pick, row) if !live.is_empty() => {
            let rid = live[pick % live.len()];
            let ignore = Some(rid);
            assert_eq!(table_conflicts(t, row, ignore), m.conflicts(row, ignore));
            if m.conflicts(row, ignore) {
                return;
            }
            let old = m.take(rid);
            m.put(rid, row.clone());
            assert_eq!(t.update(rid, row.clone()), Some(old));
        }
        Op::Delete(pick) if !live.is_empty() => {
            let rid = live[pick % live.len()];
            let old = m.take(rid);
            m.free.push(rid);
            m.graveyard.push((rid, old.clone()));
            assert_eq!(t.delete(rid), Some(old));
            assert_eq!(t.delete(rid), None, "double delete");
        }
        Op::Restore(pick) if !m.graveyard.is_empty() => {
            let (rid, row) = m.graveyard.remove(pick % m.graveyard.len());
            if m.slots[rid].is_some() || m.conflicts(&row, None) {
                return;
            }
            m.free.retain(|&f| f != rid);
            m.put(rid, row.clone());
            t.restore(rid, row);
        }
        Op::RestoreAt(gap, row) => {
            if m.conflicts(row, None) {
                return;
            }
            let rid = m.slots.len() + gap;
            m.slots.resize(rid + 1, None);
            m.put(rid, row.clone());
            t.restore(rid, row.clone());
        }
        Op::BuildIndex(choice, unique) if m.indexes.len() < MAX_INDEXES => {
            let name = format!("ix{}", m.indexes.len());
            let mut idx = ModelIndex {
                columns: INDEX_COLUMNS[*choice].to_vec(),
                unique: *unique,
                entries: BTreeMap::new(),
            };
            let mut duplicate = false;
            for rid in &live {
                let row = m.slots[*rid].as_ref().expect("live");
                duplicate |= idx.conflicts(row, None);
                idx.add(row, *rid);
            }
            let built = t.build_index(&name, idx.columns.clone(), *unique);
            assert_eq!(built.is_err(), duplicate, "unique build verdict");
            if !duplicate {
                m.indexes.insert(name, idx);
            }
        }
        _ => {}
    }
}

/// Other spellings of the same index key: Int ↔ Float, 0.0 ↔ -0.0.
fn respell(vals: &[Value]) -> Vec<Value> {
    vals.iter()
        .map(|v| match v {
            Value::Int(i) => Value::Float(*i as f64),
            Value::Float(f) if *f == 0.0 => Value::Float(-f),
            Value::Float(f) if f.fract() == 0.0 => Value::Int(*f as i64),
            other => other.clone(),
        })
        .collect()
}

fn check(t: &TableData, m: &Model) {
    assert_eq!(t.slot_count(), m.slots.len(), "slot count");
    assert_eq!(t.free_list(), m.free, "free list");
    assert_eq!(t.len(), m.live().len(), "live rows");
    for (rid, slot) in m.slots.iter().enumerate() {
        assert_eq!(t.get(rid), slot.as_ref(), "slot {rid}");
    }
    let scanned: Vec<usize> = t.iter().map(|(rid, _)| rid).collect();
    assert_eq!(scanned, m.live(), "scan order");
    assert_eq!(
        t.indexes.keys().collect::<Vec<_>>(),
        m.indexes.keys().collect::<Vec<_>>()
    );
    for (name, mi) in &m.indexes {
        let idx = &t.indexes[name];
        assert_eq!(idx.distinct_keys(), mi.entries.len(), "{name} keys");
        for (k, (vals, rids)) in &mi.entries {
            let expected: Vec<usize> = rids.iter().copied().collect();
            for probe in [vals.clone(), respell(vals)] {
                assert_eq!(
                    idx.lookup(&Key(probe.clone())),
                    expected,
                    "{name} {probe:?}"
                );
            }
            if mi.unique && !k.contains(&Mk::Null) {
                assert!(idx.would_conflict(&Key(vals.clone()), None));
                assert!(!idx.would_conflict(&Key(vals.clone()), Some(expected[0])));
            }
        }
        assert!(!idx.would_conflict(&Key(vec![Value::Null; mi.columns.len()]), None));
    }
    t.verify_index_consistency().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Paged storage agrees with the naive model after every step, in both
    /// lanes, across forks.
    #[test]
    fn paged_table_matches_naive_model(
        initial in prop::collection::vec(row(), 0..200),
        steps in prop::collection::vec((any::<bool>(), op()), 1..150),
    ) {
        let mut lanes: [(TableData, Model); 2] = Default::default();
        apply(&mut lanes, 0, &Op::BuildIndex(2, true));
        for r in initial {
            apply(&mut lanes, 0, &Op::Insert(r));
        }
        apply(&mut lanes, 0, &Op::Fork);
        for (lane, op) in &steps {
            apply(&mut lanes, usize::from(*lane), op);
            for (t, m) in &lanes {
                check(t, m);
            }
        }
    }
}
