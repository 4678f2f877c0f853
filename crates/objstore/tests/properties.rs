//! Model-based property tests: the store must behave like a reference
//! model (BTreeMaps) under arbitrary operation sequences, and snapshots
//! must be isolated.

use proptest::prelude::*;
use semcc_objstore::{MemoryStore, PagePolicy};
use semcc_semantics::{
    ObjectId, SemccError, Storage, StoreDelta, StoreDump, Value, TYPE_ATOMIC, TYPE_SET, TYPE_TUPLE,
};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Clone, Debug)]
enum Op {
    CreateAtomic(i64),
    Get(usize),
    Put(usize, i64),
    Delete(usize),
    SetInsert(u64, usize),
    SetRemove(u64),
    SetSelect(u64),
    Scan,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<i64>().prop_map(Op::CreateAtomic),
        (0usize..12).prop_map(Op::Get),
        ((0usize..12), any::<i64>()).prop_map(|(i, v)| Op::Put(i, v)),
        (0usize..12).prop_map(Op::Delete),
        ((0u64..8), (0usize..12)).prop_map(|(k, i)| Op::SetInsert(k, i)),
        (0u64..8).prop_map(Op::SetRemove),
        (0u64..8).prop_map(Op::SetSelect),
        Just(Op::Scan),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The store agrees with a simple model over arbitrary op sequences.
    #[test]
    fn store_matches_model(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let store = MemoryStore::new();
        let set = store.create_set(TYPE_SET).unwrap();
        let mut created: Vec<ObjectId> = Vec::new();
        let mut model_atoms: BTreeMap<ObjectId, i64> = BTreeMap::new();
        let mut model_set: BTreeMap<u64, ObjectId> = BTreeMap::new();

        for op in ops {
            match op {
                Op::CreateAtomic(v) => {
                    let id = store.create_atomic(TYPE_ATOMIC, Value::Int(v)).unwrap();
                    prop_assert!(!model_atoms.contains_key(&id), "ids never reused");
                    created.push(id);
                    model_atoms.insert(id, v);
                }
                Op::Get(i) => {
                    if let Some(&id) = created.get(i) {
                        match model_atoms.get(&id) {
                            Some(v) => prop_assert_eq!(store.get(id).unwrap(), Value::Int(*v)),
                            None => prop_assert_eq!(store.get(id).unwrap_err(), SemccError::NoSuchObject(id)),
                        }
                    }
                }
                Op::Put(i, v) => {
                    if let Some(&id) = created.get(i) {
                        if let Some(old) = model_atoms.get(&id).copied() {
                            prop_assert_eq!(store.put(id, Value::Int(v)).unwrap(), Value::Int(old));
                            model_atoms.insert(id, v);
                        } else {
                            prop_assert!(store.put(id, Value::Int(v)).is_err());
                        }
                    }
                }
                Op::Delete(i) => {
                    if let Some(&id) = created.get(i) {
                        if model_atoms.remove(&id).is_some() {
                            store.delete(id).unwrap();
                            // Also drop dangling set members referencing it.
                            model_set.retain(|_, m| *m != id);
                            let keys: Vec<u64> = store
                                .set_scan(set)
                                .unwrap()
                                .into_iter()
                                .filter(|(_, m)| *m == id)
                                .map(|(k, _)| k)
                                .collect();
                            for k in keys {
                                store.set_remove(set, k).unwrap();
                            }
                        } else {
                            prop_assert!(store.delete(id).is_err());
                        }
                    }
                }
                Op::SetInsert(k, i) => {
                    if let Some(&id) = created.get(i) {
                        if !model_atoms.contains_key(&id) {
                            continue;
                        }
                        let r = store.set_insert(set, k, id);
                        if let std::collections::btree_map::Entry::Vacant(e) = model_set.entry(k) {
                            r.unwrap();
                            e.insert(id);
                        } else {
                            prop_assert_eq!(r.unwrap_err(), SemccError::DuplicateKey(set, k));
                        }
                    }
                }
                Op::SetRemove(k) => {
                    prop_assert_eq!(store.set_remove(set, k).unwrap(), model_set.remove(&k));
                }
                Op::SetSelect(k) => {
                    prop_assert_eq!(store.set_select(set, k).unwrap(), model_set.get(&k).copied());
                }
                Op::Scan => {
                    let scanned: Vec<(u64, ObjectId)> = store.set_scan(set).unwrap();
                    let expected: Vec<(u64, ObjectId)> = model_set.iter().map(|(k, m)| (*k, *m)).collect();
                    prop_assert_eq!(scanned, expected, "scan is key-ordered");
                }
            }
        }
    }

    /// Snapshots are fully isolated from subsequent mutations, in both
    /// directions.
    #[test]
    fn snapshots_are_isolated(
        initial in proptest::collection::vec(any::<i64>(), 1..10),
        updates in proptest::collection::vec((0usize..10, any::<i64>()), 0..20),
    ) {
        let store = MemoryStore::new();
        let ids: Vec<ObjectId> = initial
            .iter()
            .map(|v| store.create_atomic(TYPE_ATOMIC, Value::Int(*v)).unwrap())
            .collect();
        let snap = store.snapshot();
        for (i, v) in &updates {
            if let Some(&id) = ids.get(*i) {
                store.put(id, Value::Int(*v)).unwrap();
                snap.put(id, Value::Int(v.wrapping_add(1))).unwrap();
            }
        }
        // The snapshot still agrees with `initial` after reverting its own
        // writes; more simply: re-snapshot from scratch and compare shapes.
        for (idx, &id) in ids.iter().enumerate() {
            let in_snap = snap.get(id).unwrap();
            let originally = Value::Int(initial[idx]);
            let overwritten = updates.iter().any(|(i, _)| ids.get(*i) == Some(&id));
            if !overwritten {
                prop_assert_eq!(in_snap, originally);
            }
        }
        prop_assert_eq!(store.object_count(), snap.object_count());
    }

    /// Page assignment: with capacity c, any c+1 consecutively created
    /// objects span at most 2 pages, and page ids are monotone.
    #[test]
    fn page_assignment_is_dense_and_monotone(cap in 1u32..16, n in 1usize..60) {
        let store = MemoryStore::with_policy(PagePolicy::Sequential { capacity: cap });
        let ids: Vec<ObjectId> = (0..n)
            .map(|i| store.create_atomic(TYPE_ATOMIC, Value::Int(i as i64)).unwrap())
            .collect();
        let pages: Vec<u64> = ids.iter().map(|id| store.page_of(*id).unwrap().0).collect();
        for w in pages.windows(2) {
            prop_assert!(w[1] == w[0] || w[1] == w[0] + 1, "monotone, dense: {:?}", pages);
        }
        for chunk in pages.chunks(cap as usize) {
            let distinct: std::collections::BTreeSet<u64> = chunk.iter().copied().collect();
            prop_assert!(distinct.len() <= 2);
        }
    }

    /// The id-indexed object table agrees with a model keyed by id through
    /// creations, deletions, restores (under a deleted id, or one past
    /// `next_id`), wholesale reloads and checkpoint captures.
    #[test]
    fn the_object_table_matches_an_id_keyed_model(
        ops in proptest::collection::vec(arb_table_op(), 1..80),
    ) {
        let mut store = MemoryStore::new();
        let mut model = TableModel::default();
        for op in ops {
            model.step(&mut store, op);
            model.check(&store);
        }
    }
}

#[derive(Clone, Debug)]
enum TableOp {
    /// Kind (atomic, set, tuple of two fresh atoms) by the value mod 3.
    Create(i64),
    Put(usize, i64),
    Delete(usize),
    /// Restore under an id handed out before: refused while it is live.
    Restore(usize, i64),
    /// Restore under `next_id + gap`.
    RestoreAhead(u64, i64),
    /// Load the store's dump into a new store, which carries on.
    LoadDump,
    /// Capture a delta against the last capture and merge it.
    Checkpoint,
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        any::<i64>().prop_map(TableOp::Create),
        (any::<usize>(), any::<i64>()).prop_map(|(i, v)| TableOp::Put(i, v)),
        any::<usize>().prop_map(TableOp::Delete),
        (any::<usize>(), any::<i64>()).prop_map(|(i, v)| TableOp::Restore(i, v)),
        // Past a full round of the shards' runs (4 096 ids), so that a run
        // reaches every shard and a shard's second run.
        ((0u64..5000), any::<i64>()).prop_map(|(g, v)| TableOp::RestoreAhead(g, v)),
        Just(TableOp::LoadDump),
        Just(TableOp::Checkpoint),
    ]
}

/// An object of the model: its atomic value (`None` for sets and tuples)
/// and its version stamp.
#[derive(Clone, Copy, Debug)]
struct Modelled {
    value: Option<i64>,
    version: u64,
}

#[derive(Default)]
struct TableModel {
    live: BTreeMap<ObjectId, Modelled>,
    /// Every id handed out or restored, live or not.
    known: Vec<ObjectId>,
    /// The id the store hands out next (0 before the first creation).
    next_id: u64,
    /// The last capture's token, and the merge of every capture since the
    /// last full one.
    token: Option<u64>,
    base: StoreDump,
    /// Ids live at the last capture or installed since: the ones a delta
    /// may report deleted.
    touched: BTreeSet<ObjectId>,
    /// Whether the store issued `token` (a reloaded store did not).
    token_honoured: bool,
}

impl TableModel {
    fn pick(&self, i: usize) -> Option<ObjectId> {
        (!self.known.is_empty()).then(|| self.known[i % self.known.len()])
    }

    fn install(&mut self, id: ObjectId, value: Option<i64>) {
        self.live.insert(id, Modelled { value, version: 0 });
        self.known.push(id);
        self.touched.insert(id);
        self.next_id = self.next_id.max(id.0 + 1);
    }

    /// The id the next creation must draw.
    fn fresh(&self) -> ObjectId {
        ObjectId(self.next_id.max(1))
    }

    fn restore(store: &MemoryStore, id: ObjectId, v: i64) -> Result<Option<i64>, SemccError> {
        match v.rem_euclid(3) {
            0 => store.restore_atomic(id, TYPE_ATOMIC, Value::Int(v)).map(|()| Some(v)),
            1 => store.restore_set(id, TYPE_SET).map(|()| None),
            _ => store.restore_tuple(id, TYPE_TUPLE, vec![("A".into(), id)]).map(|()| None),
        }
    }

    fn step(&mut self, store: &mut MemoryStore, op: TableOp) {
        match op {
            TableOp::Create(v) => {
                let made = match v.rem_euclid(3) {
                    0 => vec![(store.create_atomic(TYPE_ATOMIC, Value::Int(v)).unwrap(), Some(v))],
                    1 => vec![(store.create_set(TYPE_SET).unwrap(), None)],
                    _ => {
                        let fields = [("x", Value::Int(v)), ("y", Value::Int(v))];
                        let (t, atoms) =
                            store.create_tuple_with_atoms(TYPE_TUPLE, &fields).unwrap();
                        atoms.into_iter().map(|a| (a, Some(v))).chain([(t, None)]).collect()
                    }
                };
                for (id, value) in made {
                    prop_assert_eq!(id, self.fresh(), "ids are drawn in order");
                    self.install(id, value);
                }
            }
            TableOp::Put(i, v) => {
                let Some(id) = self.pick(i) else { return };
                let got = store.put(id, Value::Int(v));
                match self.live.get_mut(&id) {
                    Some(Modelled { value: Some(old), version }) => {
                        prop_assert_eq!(got.unwrap(), Value::Int(*old));
                        *old = v;
                        *version += 1;
                    }
                    Some(_) => prop_assert!(matches!(got, Err(SemccError::WrongKind { .. }))),
                    None => prop_assert_eq!(got.unwrap_err(), SemccError::NoSuchObject(id)),
                }
            }
            TableOp::Delete(i) => {
                let Some(id) = self.pick(i) else { return };
                match self.live.remove(&id) {
                    Some(_) => store.delete(id).unwrap(),
                    None => {
                        prop_assert_eq!(store.delete(id).unwrap_err(), SemccError::NoSuchObject(id))
                    }
                }
            }
            TableOp::Restore(i, v) => {
                let Some(id) = self.pick(i) else { return };
                let got = Self::restore(store, id, v);
                if self.live.contains_key(&id) {
                    prop_assert!(got.is_err(), "restore over live {:?}", id);
                } else {
                    self.install(id, got.unwrap());
                }
            }
            TableOp::RestoreAhead(gap, v) => {
                let id = ObjectId(self.fresh().0 + gap);
                let value = Self::restore(store, id, v).unwrap();
                self.install(id, value);
            }
            TableOp::LoadDump => {
                let fresh = MemoryStore::new();
                fresh.create_atomic(TYPE_ATOMIC, Value::Int(7)).unwrap();
                fresh.load_dump(&store.dump()).unwrap();
                *store = fresh;
                self.token_honoured = false;
            }
            TableOp::Checkpoint => {
                let delta = store.checkpoint_delta(self.token).unwrap();
                prop_assert_eq!(delta.full, !self.token_honoured);
                if delta.full {
                    prop_assert!(delta.deleted.is_empty());
                } else {
                    let gone: Vec<ObjectId> = self
                        .touched
                        .iter()
                        .filter(|id| !self.live.contains_key(id))
                        .copied()
                        .collect();
                    prop_assert_eq!(&delta.deleted, &gone);
                }
                self.token = Some(delta.token);
                self.token_honoured = true;
                merge(&mut self.base, delta);
                prop_assert_eq!(&self.base, &store.dump());
                self.touched = self.live.keys().copied().collect();
            }
        }
    }

    fn check(&self, store: &MemoryStore) {
        prop_assert_eq!(store.object_count(), self.live.len());
        let atoms: BTreeMap<ObjectId, Value> =
            self.live.iter().filter_map(|(id, m)| Some((*id, Value::Int(m.value?)))).collect();
        prop_assert_eq!(store.atomic_state(), atoms);
        let versions: BTreeMap<ObjectId, u64> =
            self.live.iter().map(|(id, m)| (*id, m.version)).collect();
        prop_assert_eq!(store.version_state(), versions);
        let dumped: Vec<ObjectId> = store.dump().objects.iter().map(|o| o.id).collect();
        prop_assert_eq!(dumped, self.live.keys().copied().collect::<Vec<_>>(), "id-ascending");
        for id in &self.known {
            if !self.live.contains_key(id) {
                prop_assert_eq!(store.type_of(*id).unwrap_err(), SemccError::NoSuchObject(*id));
            }
        }
        let next = self.next_id.max(1);
        for id in [next, next + 64 * 1000 + 3, u64::MAX].map(ObjectId) {
            prop_assert_eq!(store.get(id).unwrap_err(), SemccError::NoSuchObject(id));
            prop_assert_eq!(store.type_of(id).unwrap_err(), SemccError::NoSuchObject(id));
        }
    }
}

/// Fold a delta into the dump a checkpointer holds.
fn merge(base: &mut StoreDump, delta: StoreDelta) {
    if delta.full {
        base.objects.clear();
    }
    let replaced: BTreeSet<ObjectId> =
        delta.deleted.iter().copied().chain(delta.objects.iter().map(|o| o.id)).collect();
    base.objects.retain(|o| !replaced.contains(&o.id));
    base.objects.extend(delta.objects);
    base.objects.sort_by_key(|o| o.id);
    base.next_id = delta.next_id;
}
