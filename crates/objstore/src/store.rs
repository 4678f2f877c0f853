//! The in-memory object store.

use crate::object::{ObjKind, Shape, StoredObject, Tuple};
use crate::pages::{PageAllocator, PagePolicy};
use crate::CacheLine;
use parking_lot::{Mutex, RwLock};
use semcc_semantics::{
    ObjectDump, ObjectId, ObjectImage, PageId, Result, SemccError, Storage, StoreDelta, StoreDump,
    TypeId, Value, TYPE_ATOMIC,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SHARD_COUNT: usize = 64;

/// Capture tokens are drawn process-wide, so a token issued by one store
/// never equals one issued by another (0 is never issued).
static NEXT_CAPTURE_TOKEN: AtomicU64 = AtomicU64::new(1);

/// A shard's dirty list may grow to the shard's own size, or to this many
/// ids if the shard is smaller, before tracking gives up on the interval.
const DIRTY_LIST_FLOOR: usize = 1024;

/// One latch's worth of the store: the objects plus the dirty tracking
/// that [`Storage::checkpoint_delta`] drains, all under the same latch.
///
/// A shard holds whole runs of [`BLOCK`] consecutive ids in a dense slot
/// table (see [`place`]), so finding an object is one bounds-checked index,
/// and objects created together (an item, its orders, their atoms) share
/// one table, in adjacent slots, under one latch. Ids are never reused, so
/// a deleted object leaves an empty slot, its tombstone. The table holds no
/// id at or past the store's `next_id`: creations draw from it, a restore
/// advances it first, and [`MemoryStore::load_dump`] installs the dump's
/// ids below the dump's own. A read past the end of the table finds no
/// object.
#[derive(Default)]
struct Shard {
    slots: Vec<Option<StoredObject>>,
    /// The number of full slots.
    live: usize,
    /// Ids created, mutated or deleted since the last capture. A live
    /// object is listed exactly while its `dirty` bit is set, so at most
    /// once per interval; an id whose slot is empty is a tombstone.
    dirty: Vec<ObjectId>,
    /// Off until the first capture: a store nobody checkpoints records
    /// nothing, and the first capture is a full one anyway. Off again
    /// once the list outgrew its bound (captures stopped coming while
    /// objects were created and deleted): the next capture is a full one.
    tracking: bool,
}

/// Consecutive ids that one shard owns as a run (see [`place`]).
const BLOCK: usize = 64;

/// Where `id` lives: its shard, and its slot in that shard's table. Run `r`
/// of [`BLOCK`] ids goes to shard `r % SHARD_COUNT`, after the shard's
/// earlier runs; [`id_at`] is the inverse, and is monotone in the slot.
fn place(id: ObjectId) -> (usize, usize) {
    let id = id.0 as usize;
    ((id / BLOCK) % SHARD_COUNT, id / (BLOCK * SHARD_COUNT) * BLOCK + id % BLOCK)
}

/// The id in `slot` of shard `k`.
fn id_at(k: usize, slot: usize) -> ObjectId {
    ObjectId((slot / BLOCK * BLOCK * SHARD_COUNT + k * BLOCK + slot % BLOCK) as u64)
}

/// List `id` as dirty — or, with the list at its bound for a shard of
/// `live` objects, stop tracking: a capture of everything is no dearer
/// than a delta that long, and the list must not grow without limit.
fn list_dirty(dirty: &mut Vec<ObjectId>, tracking: &mut bool, live: usize, id: ObjectId) {
    if dirty.len() < live.max(DIRTY_LIST_FLOOR) {
        dirty.push(id);
    } else {
        *dirty = Vec::new();
        *tracking = false;
    }
}

impl Shard {
    fn get(&self, id: ObjectId) -> Option<&StoredObject> {
        self.slots.get(place(id).1)?.as_ref()
    }

    /// Install `obj` under `id`, whose slot is empty, dirty from birth.
    fn insert(&mut self, id: ObjectId, mut obj: StoredObject) {
        if self.tracking {
            list_dirty(&mut self.dirty, &mut self.tracking, self.live, id);
        }
        obj.dirty = self.tracking;
        let slot = place(id).1;
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, || None);
        }
        self.slots[slot] = Some(obj);
        self.live += 1;
    }

    /// The objects alone: a copied store starts untracked, like a new one.
    fn copy(&self) -> Shard {
        Shard { slots: self.slots.clone(), live: self.live, ..Shard::default() }
    }

    /// Remove `id`; its list entry (the one it had if dirty, a fresh one
    /// otherwise) now reads as a tombstone.
    fn remove(&mut self, id: ObjectId) -> Option<StoredObject> {
        let removed = self.slots.get_mut(place(id).1)?.take()?;
        self.live -= 1;
        if self.tracking && !removed.dirty {
            list_dirty(&mut self.dirty, &mut self.tracking, self.live, id);
        }
        Some(removed)
    }

    /// The live objects of this shard, shard `k`, id-ascending.
    fn objects(&self, k: usize) -> impl Iterator<Item = (ObjectId, &StoredObject)> {
        let full = self.slots.iter().enumerate();
        full.filter_map(move |(slot, obj)| Some((id_at(k, slot), obj.as_ref()?)))
    }
}

fn dump_object(id: ObjectId, obj: &StoredObject) -> ObjectDump {
    let image = match &obj.kind {
        ObjKind::Atomic(v) => ObjectImage::Atomic(v.clone()),
        ObjKind::Tuple(t) => ObjectImage::Tuple(t.iter().map(|(n, f)| (n.to_owned(), f)).collect()),
        ObjKind::Set(s) => ObjectImage::Set(s.iter().map(|(k, m)| (*k, *m)).collect()),
    };
    ObjectDump { id, type_id: obj.type_id, version: obj.version, image }
}

/// A sharded, latch-protected in-memory object store.
///
/// Each operation is individually atomic (a short latch on one shard);
/// transactional isolation is provided by the lock manager above the store,
/// never by the store itself.
///
/// Every object additionally carries a version stamp (bumped on each
/// physical mutation) and a write-intent count, maintained under the same
/// shard latch as the payload. Together they drive the kernel-bypassing
/// snapshot read path: a reader records stamps as it goes and revalidates
/// them at commit (`version unchanged && writers == 0`), never touching
/// the lock table. A store-wide mutation epoch orders all mutations for
/// the seqlock-style [`MemoryStore::snapshot`].
pub struct MemoryStore {
    shards: Vec<CacheLine<RwLock<Shard>>>,
    /// The token [`Storage::checkpoint_delta`] issued last (0: none, or
    /// invalidated). Read and written only with every shard latch held.
    capture_token: AtomicU64,
    next_id: AtomicU64,
    allocator: Mutex<PageAllocator>,
    /// Store-wide mutation epoch: incremented (inside the shard latch) by
    /// every operation that changes observable state. `snapshot()` reads
    /// it before and after an optimistic clone, exactly like a seqlock,
    /// and [`MemoryStore::quiesce_token`] uses it to prove read windows
    /// mutation-free. On a line of its own: every `put` writes it.
    mutations: CacheLine<AtomicU64>,
    /// Store-wide count of outstanding write intents (the sum of every
    /// object's `writers`). Non-zero means some transaction may have
    /// uncommitted mutations in place, so the quiescence fast path must
    /// not be taken. On a line of its own: every write intent writes it.
    intents: CacheLine<AtomicU64>,
    /// Every tuple shape made so far (see [`MemoryStore::tuple`]).
    shapes: Mutex<Vec<Shape>>,
}

impl MemoryStore {
    /// Store with the default page policy.
    pub fn new() -> Self {
        Self::with_policy(PagePolicy::default())
    }

    /// Store with an explicit page policy.
    pub fn with_policy(policy: PagePolicy) -> Self {
        MemoryStore {
            shards: (0..SHARD_COUNT).map(|_| CacheLine::default()).collect(),
            capture_token: AtomicU64::new(0),
            // ObjectId(0) is the database pseudo object.
            next_id: AtomicU64::new(1),
            allocator: Mutex::new(PageAllocator::new(policy)),
            mutations: CacheLine::default(),
            intents: CacheLine::default(),
            shapes: Mutex::default(),
        }
    }

    fn shard(&self, o: ObjectId) -> &RwLock<Shard> {
        &self.shards[place(o).0]
    }

    fn alloc_id(&self) -> ObjectId {
        ObjectId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    fn insert_object(&self, obj: StoredObject) -> ObjectId {
        let id = self.alloc_id();
        self.install(id, obj).expect("a fresh id is not live");
        id
    }

    /// Install `obj` under `id` unless `id` is live already. Every caller
    /// keeps the slot table's invariant (see [`Shard`]): `id` is below
    /// `next_id`.
    fn install(&self, id: ObjectId, obj: StoredObject) -> Result<()> {
        let mut shard = self.shard(id).write();
        debug_assert!(id.0 < self.next_id.load(Ordering::Relaxed), "{id:?} is past next_id");
        if shard.get(id).is_some() {
            return Err(SemccError::Internal(format!("install over live object {id:?}")));
        }
        shard.insert(id, obj);
        // Epoch bump inside the latch: a clone that observed this insert
        // is guaranteed to read the bumped epoch afterwards. All epoch
        // bumps are `SeqCst` so `quiesce_token` can reason about them in
        // one total order with the intent counter.
        self.mutations.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    fn with_object<R>(&self, o: ObjectId, f: impl FnOnce(&StoredObject) -> Result<R>) -> Result<R> {
        let shard = self.shard(o).read();
        f(shard.get(o).ok_or(SemccError::NoSuchObject(o))?)
    }

    fn with_object_mut<R>(
        &self,
        o: ObjectId,
        f: impl FnOnce(&mut StoredObject) -> Result<R>,
    ) -> Result<R> {
        let mut shard = self.shard(o).write();
        let Shard { slots, live, dirty, tracking } = &mut *shard;
        let obj = slots.get_mut(place(o).1).and_then(Option::as_mut);
        let obj = obj.ok_or(SemccError::NoSuchObject(o))?;
        let before = obj.version;
        let out = f(obj);
        // Every physical mutation moves the stamp, so a moved stamp is the
        // one place dirtiness is recorded.
        if *tracking && !obj.dirty && obj.version != before {
            obj.dirty = true;
            list_dirty(dirty, tracking, *live, o);
        }
        out
    }

    /// Force the next created object onto a fresh page (clustering control;
    /// see [`PageAllocator::break_cluster`]).
    pub fn break_cluster(&self) {
        self.allocator.lock().break_cluster();
    }

    /// Create a tuple whose components are freshly created atomic objects.
    /// Returns the tuple id and the component ids in input order.
    pub fn create_tuple_with_atoms(
        &self,
        type_id: TypeId,
        fields: &[(&str, Value)],
    ) -> Result<(ObjectId, Vec<ObjectId>)> {
        let mut ids = Vec::with_capacity(fields.len());
        for (_, v) in fields {
            ids.push(self.create_atomic(TYPE_ATOMIC, v.clone())?);
        }
        // The components were just made: none of them can dangle.
        let named: Vec<(&str, ObjectId)> =
            fields.iter().zip(&ids).map(|((name, _), id)| (*name, *id)).collect();
        Ok((self.insert_tuple(type_id, named), ids))
    }

    /// Install a tuple of `fields` under a fresh id.
    fn insert_tuple<S: AsRef<str>>(&self, type_id: TypeId, fields: Vec<(S, ObjectId)>) -> ObjectId {
        let page = self.allocator.lock().assign();
        let kind = self.tuple(fields);
        self.insert_object(StoredObject::new(type_id, page, kind))
    }

    /// The one constructor of a tuple payload: the pairs sorted by name, a
    /// repeated name keeping its last id (as collecting them into a map
    /// did), and the name list interned, so that every tuple with the same
    /// names shares one [`Shape`].
    fn tuple<S: AsRef<str>>(&self, mut fields: Vec<(S, ObjectId)>) -> ObjKind {
        fields.sort_by(|a, b| a.0.as_ref().cmp(b.0.as_ref()));
        fields.dedup_by(|later, kept| {
            let repeated = later.0.as_ref() == kept.0.as_ref();
            if repeated {
                kept.1 = later.1;
            }
            repeated
        });
        let ids = fields.iter().map(|(_, id)| *id).collect();
        ObjKind::Tuple(Tuple::new(self.shape(&fields), ids))
    }

    /// The interned shape of the (sorted, distinct) names of `fields`. A
    /// schema has a handful of tuple shapes, so a scan finds one in a few
    /// comparisons.
    fn shape<S: AsRef<str>>(&self, fields: &[(S, ObjectId)]) -> Shape {
        let names = || fields.iter().map(|(name, _)| name.as_ref());
        let mut shapes = self.shapes.lock();
        if let Some(shape) = shapes.iter().find(|s| s.iter().map(|n| &**n).eq(names())) {
            return Arc::clone(shape);
        }
        let shape: Shape = names().map(Box::<str>::from).collect();
        shapes.push(Arc::clone(&shape));
        shape
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().live).sum()
    }

    /// Number of pages allocated so far.
    pub fn pages_used(&self) -> u64 {
        self.allocator.lock().pages_used()
    }

    /// The values of all atomic objects, in id order. This is the canonical
    /// observable state used by the serializability validators.
    pub fn atomic_state(&self) -> BTreeMap<ObjectId, Value> {
        let mut out = BTreeMap::new();
        for (k, shard) in self.shards.iter().enumerate() {
            for (id, obj) in shard.read().objects(k) {
                if let ObjKind::Atomic(v) = &obj.kind {
                    out.insert(id, v.clone());
                }
            }
        }
        out
    }

    /// The member maps of all set objects, in id order (also part of the
    /// observable state: inserts/removes must be serializable too).
    pub fn set_state(&self) -> BTreeMap<ObjectId, BTreeMap<u64, ObjectId>> {
        let mut out = BTreeMap::new();
        for (k, shard) in self.shards.iter().enumerate() {
            for (id, obj) in shard.read().objects(k) {
                if let ObjKind::Set(s) = &obj.kind {
                    out.insert(id, s.clone());
                }
            }
        }
        out
    }

    /// Restore an object under a *specific* id (redo replay of a logged
    /// creation). Fails if the id is already live; advances the id counter
    /// past `id` so later creations never collide with restored objects.
    fn restore(&self, id: ObjectId, obj: StoredObject) -> Result<()> {
        self.advance_ids_past(id);
        self.install(id, obj)
    }

    /// Never hand out `id`, or any id below it, again (crash recovery:
    /// an id the log shows was handed out stays used).
    pub fn advance_ids_past(&self, id: ObjectId) {
        self.next_id.fetch_max(id.0 + 1, Ordering::Relaxed);
    }

    /// Restore an atomic object under its logged id (crash recovery).
    pub fn restore_atomic(&self, id: ObjectId, type_id: TypeId, v: Value) -> Result<()> {
        let page = self.allocator.lock().assign();
        self.restore(id, StoredObject::new(type_id, page, ObjKind::Atomic(v)))
    }

    /// Restore a tuple object under its logged id (crash recovery). The
    /// component ids are taken as logged; dangling components are accepted
    /// because the components' own redo records may follow later in the log.
    pub fn restore_tuple(
        &self,
        id: ObjectId,
        type_id: TypeId,
        fields: Vec<(String, ObjectId)>,
    ) -> Result<()> {
        let page = self.allocator.lock().assign();
        let kind = self.tuple(fields);
        self.restore(id, StoredObject::new(type_id, page, kind))
    }

    /// Restore an (empty) set object under its logged id (crash recovery);
    /// logged `Insert` redo records refill it.
    pub fn restore_set(&self, id: ObjectId, type_id: TypeId) -> Result<()> {
        let page = self.allocator.lock().assign();
        self.restore(id, StoredObject::new(type_id, page, ObjKind::Set(BTreeMap::new())))
    }

    /// Consistent deep copy of the whole store (same object ids, same
    /// pages, same id counter). Used by validators to re-execute
    /// transactions serially from the initial state.
    ///
    /// The copy is taken optimistically, seqlock-style, against the
    /// store-wide mutation epoch: clone all shards without excluding
    /// writers, then recheck the epoch — if any mutation landed during the
    /// clone, throw the clone away and retry. (The old implementation
    /// cloned shard by shard with nothing ordering the per-shard reads, so
    /// a concurrent multi-object operation could be half-visible: new
    /// state in one shard, old state in another.) After a few failed
    /// attempts it falls back to holding every shard read latch at once,
    /// which blocks writers but is always consistent.
    pub fn snapshot(&self) -> MemoryStore {
        const OPTIMISTIC_ATTEMPTS: usize = 4;
        for _ in 0..OPTIMISTIC_ATTEMPTS {
            let before = self.mutations.load(Ordering::Acquire);
            let shards: Vec<CacheLine<RwLock<Shard>>> =
                self.shards.iter().map(|s| CacheLine(RwLock::new(s.read().copy()))).collect();
            let next_id = self.next_id.load(Ordering::Relaxed);
            let allocator = self.allocator.lock().clone();
            if self.mutations.load(Ordering::Acquire) == before {
                return MemoryStore {
                    shards,
                    capture_token: AtomicU64::new(0),
                    next_id: AtomicU64::new(next_id),
                    allocator: Mutex::new(allocator),
                    mutations: CacheLine(AtomicU64::new(before)),
                    // Per-object intents reset on clone, so the sum does too.
                    intents: CacheLine::default(),
                    shapes: Mutex::new(self.shapes.lock().clone()),
                };
            }
        }
        // Contended fallback: take every shard read latch simultaneously,
        // so no writer can interleave between the per-shard clones.
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let shards = guards.iter().map(|g| CacheLine(RwLock::new(g.copy()))).collect();
        MemoryStore {
            shards,
            capture_token: AtomicU64::new(0),
            next_id: AtomicU64::new(self.next_id.load(Ordering::Relaxed)),
            allocator: Mutex::new(self.allocator.lock().clone()),
            mutations: CacheLine(AtomicU64::new(self.mutations.load(Ordering::Acquire))),
            intents: CacheLine::default(),
            shapes: Mutex::new(self.shapes.lock().clone()),
        }
    }

    /// The version stamp of every live object (observability / recovery
    /// parity audits).
    pub fn version_state(&self) -> BTreeMap<ObjectId, u64> {
        let mut out = BTreeMap::new();
        for (k, shard) in self.shards.iter().enumerate() {
            for (id, obj) in shard.read().objects(k) {
                out.insert(id, obj.version);
            }
        }
        out
    }

    /// Force an object's version stamp: wraparound tests, and recovery
    /// taking back a checkpointed leaf as if it had never run.
    pub fn force_version(&self, o: ObjectId, version: u64) -> Result<()> {
        self.with_object_mut(o, |obj| {
            obj.version = version;
            Ok(())
        })
    }

    /// Stamp-consistent dump of every live object, id-ascending — the
    /// payload of a fuzzy checkpoint. Built on [`MemoryStore::snapshot`]
    /// so the capture is atomic against concurrent writers.
    pub fn dump(&self) -> StoreDump {
        let snap = self.snapshot();
        let mut objects: Vec<ObjectDump> = Vec::with_capacity(snap.object_count());
        for (k, shard) in snap.shards.iter().enumerate() {
            objects.extend(shard.read().objects(k).map(|(id, obj)| dump_object(id, obj)));
        }
        objects.sort_by_key(|o| o.id);
        StoreDump { objects, next_id: snap.next_id.load(Ordering::Relaxed) }
    }

    /// Replace the entire store contents with a checkpoint dump: every
    /// shard is cleared, the dump's objects are installed under their
    /// original ids and version stamps (fresh pages — page identity is not
    /// part of the durable state), and the id allocator resumes from the
    /// dump's position. Recovery calls this before replaying the log tail.
    pub fn load_dump(&self, dump: &StoreDump) -> Result<()> {
        // Wholesale replacement: whatever a checkpointer captured before is
        // no base for what is here now.
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        self.capture_token.store(0, Ordering::Relaxed);
        for shard in &mut guards {
            **shard = Shard::default();
        }
        self.next_id.store(dump.next_id, Ordering::Relaxed);
        self.mutations.fetch_add(1, Ordering::SeqCst);
        drop(guards);
        for od in &dump.objects {
            let kind = match &od.image {
                ObjectImage::Atomic(v) => ObjKind::Atomic(v.clone()),
                ObjectImage::Tuple(fields) => {
                    self.tuple(fields.iter().map(|(n, f)| (n.as_str(), *f)).collect::<Vec<_>>())
                }
                ObjectImage::Set(pairs) => ObjKind::Set(pairs.iter().copied().collect()),
            };
            let page = self.allocator.lock().assign();
            let mut obj = StoredObject::new(od.type_id, page, kind);
            obj.version = od.version;
            self.install(od.id, obj)?;
        }
        Ok(())
    }
}

impl Default for MemoryStore {
    fn default() -> Self {
        Self::new()
    }
}

impl Storage for MemoryStore {
    fn get(&self, o: ObjectId) -> Result<Value> {
        self.with_object(o, |obj| obj.atomic(o).cloned())
    }

    fn put(&self, o: ObjectId, v: Value) -> Result<Value> {
        self.with_object_mut(o, |obj| {
            let slot = obj.atomic_mut(o)?;
            let old = std::mem::replace(slot, v);
            obj.bump_version();
            self.mutations.fetch_add(1, Ordering::SeqCst);
            Ok(old)
        })
    }

    fn set_select(&self, s: ObjectId, key: u64) -> Result<Option<ObjectId>> {
        self.with_object(s, |obj| Ok(obj.set(s)?.get(&key).copied()))
    }

    fn set_insert(&self, s: ObjectId, key: u64, member: ObjectId) -> Result<()> {
        self.with_object_mut(s, |obj| {
            let set = obj.set_mut(s)?;
            if set.contains_key(&key) {
                return Err(SemccError::DuplicateKey(s, key));
            }
            set.insert(key, member);
            obj.bump_version();
            self.mutations.fetch_add(1, Ordering::SeqCst);
            Ok(())
        })
    }

    fn set_remove(&self, s: ObjectId, key: u64) -> Result<Option<ObjectId>> {
        self.with_object_mut(s, |obj| {
            let removed = obj.set_mut(s)?.remove(&key);
            if removed.is_some() {
                obj.bump_version();
                self.mutations.fetch_add(1, Ordering::SeqCst);
            }
            Ok(removed)
        })
    }

    fn set_scan(&self, s: ObjectId) -> Result<Vec<(u64, ObjectId)>> {
        self.with_object(s, |obj| Ok(obj.set(s)?.iter().map(|(k, m)| (*k, *m)).collect()))
    }

    fn field(&self, o: ObjectId, name: &str) -> Result<ObjectId> {
        self.with_object(o, |obj| {
            obj.tuple(o)?.get(name).ok_or_else(|| SemccError::NoSuchField(o, name.to_owned()))
        })
    }

    fn type_of(&self, o: ObjectId) -> Result<TypeId> {
        self.with_object(o, |obj| Ok(obj.type_id))
    }

    fn page_of(&self, o: ObjectId) -> Result<PageId> {
        self.with_object(o, |obj| Ok(obj.page))
    }

    fn create_atomic(&self, type_id: TypeId, v: Value) -> Result<ObjectId> {
        let page = self.allocator.lock().assign();
        Ok(self.insert_object(StoredObject::new(type_id, page, ObjKind::Atomic(v))))
    }

    fn create_tuple(&self, type_id: TypeId, fields: Vec<(String, ObjectId)>) -> Result<ObjectId> {
        for (_, f) in &fields {
            // Fail fast on dangling components.
            self.with_object(*f, |_| Ok(()))?;
        }
        Ok(self.insert_tuple(type_id, fields))
    }

    fn create_set(&self, type_id: TypeId) -> Result<ObjectId> {
        let page = self.allocator.lock().assign();
        Ok(self.insert_object(StoredObject::new(type_id, page, ObjKind::Set(BTreeMap::new()))))
    }

    fn delete(&self, o: ObjectId) -> Result<()> {
        let mut shard = self.shard(o).write();
        let removed = shard.remove(o);
        if removed.is_some() {
            self.mutations.fetch_add(1, Ordering::SeqCst);
        }
        removed.map(|_| ()).ok_or(SemccError::NoSuchObject(o))
    }

    // ---- versioned snapshot-read support ----------------------------

    fn supports_versioning(&self) -> bool {
        true
    }

    fn get_versioned(&self, o: ObjectId) -> Result<(Value, u64)> {
        self.with_object(o, |obj| Ok((obj.atomic(o)?.clone(), obj.version)))
    }

    fn set_select_versioned(&self, s: ObjectId, key: u64) -> Result<(Option<ObjectId>, u64)> {
        self.with_object(s, |obj| Ok((obj.set(s)?.get(&key).copied(), obj.version)))
    }

    fn set_scan_versioned(&self, s: ObjectId) -> Result<(Vec<(u64, ObjectId)>, u64)> {
        self.with_object(s, |obj| {
            Ok((obj.set(s)?.iter().map(|(k, m)| (*k, *m)).collect(), obj.version))
        })
    }

    fn object_version(&self, o: ObjectId) -> Result<(u64, u32)> {
        self.with_object(o, |obj| Ok((obj.version, obj.writer_count())))
    }

    // Intent bookkeeping rides the shard *read* latch (the counter is
    // atomic): taking the write latch here would double the exclusive
    // time on hot shards and measurably slow writers down.

    fn begin_object_write(&self, o: ObjectId) -> Result<()> {
        self.with_object(o, |obj| {
            obj.begin_write();
            self.intents.fetch_add(1, Ordering::SeqCst);
            Ok(())
        })
    }

    fn end_object_write(&self, o: ObjectId) {
        // Best-effort: the object may already be gone (created by an
        // aborted transaction and garbage-collected before this sweep).
        let _ = self.with_object(o, |obj| {
            obj.end_write();
            Ok(())
        });
        // The global count mirrors successful begins one-to-one even when
        // the object itself has been deleted in between; saturate rather
        // than underflow if an over-release ever slips through.
        let _ = self.intents.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
    }

    /// Quiescence fast path for snapshot validation. `None` while any
    /// write intent is outstanding; otherwise the current mutation epoch.
    ///
    /// Soundness (all loads and bumps are `SeqCst`, epoch bumps happen
    /// inside the mutating shard latch, intents are declared before the
    /// first mutation and released only when the owning transaction
    /// finishes): take a token before the first read and compare at
    /// validation. If the validation token is `Some` and equal, then
    /// (a) no mutation's epoch bump landed between the two epoch loads, so
    /// every write a read observed bumped before the begin token — and by
    /// latch ordering a read that *missed* such a write would force the
    /// writer's bump after the begin load, contradicting equality, so the
    /// reads saw exactly the pre-window writes; and (b) the validation
    /// load found zero intents *before* re-reading the epoch, so every
    /// observed writer had finished — and not by abort, because
    /// compensation mutates (bumping the epoch ahead of the intent
    /// release) and would break equality. The reads are therefore a
    /// consistent cut of committed state, with every observed writer
    /// having drawn its commit-order number before the intent count hit
    /// zero.
    fn quiesce_token(&self) -> Option<u64> {
        // Intents first, then the epoch: condition (b) above needs the
        // epoch load to follow the zero-intent observation.
        if self.intents.load(Ordering::SeqCst) != 0 {
            return None;
        }
        Some(self.mutations.load(Ordering::SeqCst))
    }

    fn checkpoint_dump(&self) -> Option<StoreDump> {
        Some(self.dump())
    }

    /// O(dirty) when `since` is the token issued last and no shard gave up
    /// tracking since, O(store) otherwise. Every shard latch is held at
    /// once, so the capture, the reset of the dirty tracking and the new
    /// token are one atomic step against every mutator.
    fn checkpoint_delta(&self, since: Option<u64>) -> Option<StoreDelta> {
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        let token = NEXT_CAPTURE_TOKEN.fetch_add(1, Ordering::Relaxed);
        let last = self.capture_token.swap(token, Ordering::Relaxed);
        let full = since != Some(last) || guards.iter().any(|shard| !shard.tracking);
        let mut objects = Vec::new();
        let mut deleted = Vec::new();
        for (k, shard) in guards.iter_mut().enumerate() {
            let Shard { slots, dirty, tracking, .. } = &mut **shard;
            if full {
                dirty.clear();
                *tracking = true;
                for (slot, obj) in slots.iter_mut().enumerate() {
                    if let Some(obj) = obj {
                        obj.dirty = false;
                        objects.push(dump_object(id_at(k, slot), obj));
                    }
                }
                continue;
            }
            for id in dirty.drain(..) {
                match slots.get_mut(place(id).1).and_then(Option::as_mut) {
                    // Listed twice (deleted, then restored under its id):
                    // the first visit already captured it.
                    Some(obj) if !obj.dirty => {}
                    Some(obj) => {
                        obj.dirty = false;
                        objects.push(dump_object(id, obj));
                    }
                    None => deleted.push(id),
                }
            }
        }
        let next_id = self.next_id.load(Ordering::Relaxed);
        drop(guards);
        deleted.sort_unstable();
        deleted.dedup();
        Some(StoreDelta { token, full, objects, deleted, next_id })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcc_semantics::{TYPE_SET, TYPE_TUPLE};

    #[test]
    fn atomic_crud() {
        let s = MemoryStore::new();
        let o = s.create_atomic(TYPE_ATOMIC, Value::Int(1)).unwrap();
        assert_eq!(s.get(o).unwrap(), Value::Int(1));
        assert_eq!(s.put(o, Value::Int(2)).unwrap(), Value::Int(1), "put returns old value");
        assert_eq!(s.get(o).unwrap(), Value::Int(2));
        s.delete(o).unwrap();
        assert_eq!(s.get(o).unwrap_err(), SemccError::NoSuchObject(o));
        assert_eq!(s.delete(o).unwrap_err(), SemccError::NoSuchObject(o));
    }

    #[test]
    fn placement_is_one_to_one_and_a_shard_walks_its_ids_ascending() {
        let ids = 0..(3 * BLOCK * SHARD_COUNT + BLOCK) as u64;
        let mut seen = std::collections::BTreeSet::new();
        for id in ids.clone().map(ObjectId) {
            let (k, slot) = place(id);
            assert!(k < SHARD_COUNT);
            assert_eq!(id_at(k, slot), id, "id_at inverts place");
            assert!(seen.insert((k, slot)), "{id:?} shares ({k}, {slot})");
        }
        let s = MemoryStore::new();
        for id in ids.map(ObjectId) {
            s.restore_atomic(id, TYPE_ATOMIC, Value::Unit).unwrap();
        }
        for (k, shard) in s.shards.iter().enumerate() {
            let walked: Vec<ObjectId> = shard.read().objects(k).map(|(id, _)| id).collect();
            assert!(walked.windows(2).all(|w| w[0] < w[1]), "shard {k} walks ascending");
            assert!(walked.iter().all(|&id| place(id).0 == k));
        }
    }

    #[test]
    fn a_tuple_and_its_atoms_share_one_shard_in_adjacent_slots() {
        let s = MemoryStore::new();
        let fields = [("a", Value::Int(1)), ("b", Value::Int(2)), ("c", Value::Int(3))];
        let mut clustered = 0;
        for _ in 0..2 * BLOCK {
            let (t, atoms) = s.create_tuple_with_atoms(TYPE_TUPLE, &fields).unwrap();
            let first = atoms[0].0 as usize;
            if first / BLOCK != t.0 as usize / BLOCK {
                continue; // straddles a block boundary
            }
            clustered += 1;
            let places: Vec<(usize, usize)> = atoms.iter().chain([&t]).map(|&o| place(o)).collect();
            assert!(places.iter().all(|p| p.0 == places[0].0), "one shard: {places:?}");
            let slots: Vec<usize> = places.iter().map(|p| p.1).collect();
            assert!(slots.windows(2).all(|w| w[1] == w[0] + 1), "adjacent slots: {slots:?}");
        }
        assert!(clustered > BLOCK, "most tuples sit inside one block");
    }

    #[test]
    fn object_zero_is_reserved() {
        let s = MemoryStore::new();
        let o = s.create_atomic(TYPE_ATOMIC, Value::Unit).unwrap();
        assert!(o.0 >= 1, "ObjectId(0) is the database pseudo object");
    }

    #[test]
    fn kind_confusion_is_rejected() {
        let s = MemoryStore::new();
        let a = s.create_atomic(TYPE_ATOMIC, Value::Int(1)).unwrap();
        let set = s.create_set(TYPE_SET).unwrap();
        assert!(matches!(s.set_scan(a), Err(SemccError::WrongKind { .. })));
        assert!(matches!(s.get(set), Err(SemccError::WrongKind { .. })));
        assert!(matches!(s.field(a, "x"), Err(SemccError::WrongKind { .. })));
    }

    #[test]
    fn set_crud_and_duplicates() {
        let s = MemoryStore::new();
        let set = s.create_set(TYPE_SET).unwrap();
        let m1 = s.create_atomic(TYPE_ATOMIC, Value::Int(1)).unwrap();
        let m2 = s.create_atomic(TYPE_ATOMIC, Value::Int(2)).unwrap();
        assert_eq!(s.set_select(set, 10).unwrap(), None);
        s.set_insert(set, 10, m1).unwrap();
        s.set_insert(set, 20, m2).unwrap();
        assert_eq!(s.set_insert(set, 10, m2).unwrap_err(), SemccError::DuplicateKey(set, 10));
        assert_eq!(s.set_select(set, 10).unwrap(), Some(m1));
        assert_eq!(s.set_scan(set).unwrap(), vec![(10, m1), (20, m2)]);
        assert_eq!(s.set_remove(set, 10).unwrap(), Some(m1));
        assert_eq!(s.set_remove(set, 10).unwrap(), None);
    }

    #[test]
    fn tuple_navigation() {
        let s = MemoryStore::new();
        let (t, ids) = s
            .create_tuple_with_atoms(TYPE_TUPLE, &[("A", Value::Int(1)), ("B", Value::Int(2))])
            .unwrap();
        assert_eq!(s.field(t, "A").unwrap(), ids[0]);
        assert_eq!(s.field(t, "B").unwrap(), ids[1]);
        assert_eq!(s.field(t, "C").unwrap_err(), SemccError::NoSuchField(t, "C".into()));
        assert!(matches!(s.field(ids[0], "A"), Err(SemccError::WrongKind { .. })));
        assert_eq!(s.type_of(t).unwrap(), TYPE_TUPLE);
        assert_eq!(s.get(ids[1]).unwrap(), Value::Int(2));
    }

    #[test]
    fn tuple_rejects_dangling_components() {
        let s = MemoryStore::new();
        let err = s.create_tuple(TYPE_TUPLE, vec![("X".into(), ObjectId(999))]).unwrap_err();
        assert_eq!(err, SemccError::NoSuchObject(ObjectId(999)));
    }

    fn shape_of(s: &MemoryStore, t: ObjectId) -> Shape {
        s.with_object(t, |obj| Ok(Arc::clone(obj.tuple(t)?.shape()))).unwrap()
    }

    #[test]
    fn a_repeated_name_keeps_its_last_component_and_dumps_name_ascending() {
        let s = MemoryStore::new();
        let [a, b, c] = [1, 2, 3].map(|i| s.create_atomic(TYPE_ATOMIC, Value::Int(i)).unwrap());
        let pairs = vec![("y".to_string(), a), ("x".to_string(), b), ("y".to_string(), c)];
        let t = s.create_tuple(TYPE_TUPLE, pairs.clone()).unwrap();
        assert_eq!((s.field(t, "x").unwrap(), s.field(t, "y").unwrap()), (b, c));
        // What collecting the pairs into a component map gives.
        let map: BTreeMap<String, ObjectId> = pairs.into_iter().collect();
        let dumped = s.dump().objects.into_iter().find(|o| o.id == t).unwrap();
        assert_eq!(dumped.image, ObjectImage::Tuple(map.into_iter().collect()));
    }

    #[test]
    fn tuples_with_equal_names_share_one_shape_and_copies_keep_it() {
        let s = MemoryStore::new();
        let tuple = |s: &MemoryStore, names: &[&str]| {
            let fields: Vec<(&str, Value)> = names.iter().map(|n| (*n, Value::Unit)).collect();
            s.create_tuple_with_atoms(TYPE_TUPLE, &fields).unwrap().0
        };
        let (ab, ba, a) = (tuple(&s, &["A", "B"]), tuple(&s, &["B", "A"]), tuple(&s, &["A"]));
        let restored = ObjectId(1000);
        s.restore_tuple(restored, TYPE_TUPLE, vec![("B".into(), a), ("A".into(), ab)]).unwrap();
        assert!(Arc::ptr_eq(&shape_of(&s, ab), &shape_of(&s, ba)), "same names, other order");
        assert!(Arc::ptr_eq(&shape_of(&s, ab), &shape_of(&s, restored)), "a restored tuple");
        assert!(!Arc::ptr_eq(&shape_of(&s, ab), &shape_of(&s, a)), "other names");
        // A copy navigates its tuples the same way, through the same
        // shapes, and interns its own new tuples among them.
        let copy = s.snapshot();
        for t in [ab, ba, a] {
            assert_eq!(copy.field(t, "A").unwrap(), s.field(t, "A").unwrap());
            assert!(Arc::ptr_eq(&shape_of(&copy, t), &shape_of(&s, t)));
        }
        assert!(Arc::ptr_eq(&shape_of(&copy, tuple(&copy, &["B", "A"])), &shape_of(&s, ab)));
    }

    #[test]
    fn pages_cluster_sequentially() {
        let s = MemoryStore::with_policy(PagePolicy::Sequential { capacity: 2 });
        let a = s.create_atomic(TYPE_ATOMIC, Value::Unit).unwrap();
        let b = s.create_atomic(TYPE_ATOMIC, Value::Unit).unwrap();
        let c = s.create_atomic(TYPE_ATOMIC, Value::Unit).unwrap();
        assert_eq!(s.page_of(a).unwrap(), s.page_of(b).unwrap());
        assert_ne!(s.page_of(b).unwrap(), s.page_of(c).unwrap());
        s.break_cluster();
        let d = s.create_atomic(TYPE_ATOMIC, Value::Unit).unwrap();
        assert_ne!(s.page_of(c).unwrap(), s.page_of(d).unwrap());
    }

    #[test]
    fn snapshot_is_independent() {
        let s = MemoryStore::new();
        let o = s.create_atomic(TYPE_ATOMIC, Value::Int(1)).unwrap();
        let snap = s.snapshot();
        s.put(o, Value::Int(99)).unwrap();
        assert_eq!(snap.get(o).unwrap(), Value::Int(1));
        // Fresh ids continue from the same counter and do not collide.
        let n1 = s.create_atomic(TYPE_ATOMIC, Value::Unit).unwrap();
        let n2 = snap.create_atomic(TYPE_ATOMIC, Value::Unit).unwrap();
        assert_eq!(n1, n2, "snapshot preserves the id counter for deterministic replay");
    }

    #[test]
    fn atomic_and_set_state_capture() {
        let s = MemoryStore::new();
        let a = s.create_atomic(TYPE_ATOMIC, Value::Int(5)).unwrap();
        let set = s.create_set(TYPE_SET).unwrap();
        s.set_insert(set, 1, a).unwrap();
        let st = s.atomic_state();
        assert_eq!(st.get(&a), Some(&Value::Int(5)));
        assert_eq!(st.len(), 1);
        let ss = s.set_state();
        assert_eq!(ss.get(&set).unwrap().get(&1), Some(&a));
    }

    #[test]
    fn object_count_tracks_creation_and_deletion() {
        let s = MemoryStore::new();
        assert_eq!(s.object_count(), 0);
        let o = s.create_atomic(TYPE_ATOMIC, Value::Unit).unwrap();
        let _ = s.create_set(TYPE_SET).unwrap();
        assert_eq!(s.object_count(), 2);
        s.delete(o).unwrap();
        assert_eq!(s.object_count(), 1);
    }

    #[test]
    fn restore_recreates_ids_and_advances_the_counter() {
        let s = MemoryStore::new();
        s.restore_atomic(ObjectId(10), TYPE_ATOMIC, Value::Int(7)).unwrap();
        s.restore_set(ObjectId(11), TYPE_SET).unwrap();
        s.restore_tuple(ObjectId(12), TYPE_TUPLE, vec![("A".into(), ObjectId(10))]).unwrap();
        assert_eq!(s.get(ObjectId(10)).unwrap(), Value::Int(7));
        s.set_insert(ObjectId(11), 1, ObjectId(12)).unwrap();
        assert_eq!(s.field(ObjectId(12), "A").unwrap(), ObjectId(10));
        // Fresh creations never collide with restored ids.
        let fresh = s.create_atomic(TYPE_ATOMIC, Value::Unit).unwrap();
        assert!(fresh.0 > 12);
        // Restoring over a live object is a recovery bug, not a merge.
        assert!(s.restore_atomic(ObjectId(10), TYPE_ATOMIC, Value::Unit).is_err());
    }

    #[test]
    fn concurrent_creation_yields_unique_ids() {
        use std::sync::Arc;
        let s = Arc::new(MemoryStore::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                (0..100)
                    .map(|i| s.create_atomic(TYPE_ATOMIC, Value::Int(i)).unwrap())
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<ObjectId> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 800);
        assert_eq!(s.object_count(), 800);
    }

    #[test]
    fn every_mutation_bumps_the_version_stamp() {
        let s = MemoryStore::new();
        let a = s.create_atomic(TYPE_ATOMIC, Value::Int(1)).unwrap();
        let set = s.create_set(TYPE_SET).unwrap();
        assert_eq!(s.object_version(a).unwrap(), (0, 0));
        s.put(a, Value::Int(2)).unwrap();
        assert_eq!(s.object_version(a).unwrap(), (1, 0));
        s.put(a, Value::Int(2)).unwrap();
        assert_eq!(s.object_version(a).unwrap().0, 2, "same-value put still stamps");
        s.set_insert(set, 1, a).unwrap();
        assert_eq!(s.object_version(set).unwrap().0, 1);
        s.set_remove(set, 1).unwrap();
        assert_eq!(s.object_version(set).unwrap().0, 2);
        s.set_remove(set, 1).unwrap();
        assert_eq!(s.object_version(set).unwrap().0, 2, "no-op remove does not stamp");
        let _ = s.set_insert(set, 1, a);
        let failed = s.set_insert(set, 1, a);
        assert!(failed.is_err());
        assert_eq!(s.object_version(set).unwrap().0, 3, "failed insert does not stamp");
    }

    #[test]
    fn write_intents_are_counted_and_end_is_best_effort() {
        let s = MemoryStore::new();
        let a = s.create_atomic(TYPE_ATOMIC, Value::Int(1)).unwrap();
        s.begin_object_write(a).unwrap();
        s.begin_object_write(a).unwrap();
        assert_eq!(s.object_version(a).unwrap(), (0, 2));
        s.end_object_write(a);
        assert_eq!(s.object_version(a).unwrap(), (0, 1));
        s.end_object_write(a);
        s.end_object_write(a); // over-release saturates at zero
        assert_eq!(s.object_version(a).unwrap(), (0, 0));
        s.delete(a).unwrap();
        s.end_object_write(a); // object gone: silently ignored
        assert!(s.begin_object_write(a).is_err(), "begin on a dead object is an error");
    }

    #[test]
    fn a_write_intent_invalidates_a_recorded_stamp_until_it_ends() {
        let s = MemoryStore::new();
        let a = s.create_atomic(TYPE_ATOMIC, Value::Int(1)).unwrap();
        let (_, seen) = s.get_versioned(a).unwrap();
        s.begin_object_write(a).unwrap();
        assert_eq!(s.object_version(a).unwrap(), (seen, 1), "in-progress writer: invalid");
        s.end_object_write(a);
        assert_eq!(s.object_version(a).unwrap(), (seen, 0), "writer gone without mutating");
    }

    #[test]
    fn a_version_stamp_wraps_around_as_an_ordinary_value() {
        let s = MemoryStore::new();
        let a = s.create_atomic(TYPE_ATOMIC, Value::Int(1)).unwrap();
        s.force_version(a, u64::MAX).unwrap();
        let (_, seen) = s.get_versioned(a).unwrap();
        assert_eq!(s.object_version(a).unwrap(), (u64::MAX, 0));
        s.put(a, Value::Int(2)).unwrap();
        let (now, _) = s.object_version(a).unwrap();
        assert_eq!(now, 0, "stamp wrapped");
        assert_ne!(now, seen, "the wrapped stamp still differs from the recorded one");
    }

    #[test]
    fn snapshot_is_consistent_under_concurrent_mutation() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        // Invariant: a and b are always updated together so a + b == 100.
        // A torn per-shard clone could capture a fresh `a` with a stale
        // `b`; the seqlock retry (or the all-latches fallback) must not.
        let s = Arc::new(MemoryStore::new());
        let a = s.create_atomic(TYPE_ATOMIC, Value::Int(100)).unwrap();
        let b = s.create_atomic(TYPE_ATOMIC, Value::Int(0)).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (s, stop) = (Arc::clone(&s), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut x = 100i64;
                while !stop.load(Ordering::Relaxed) {
                    x = (x + 37) % 101;
                    s.put(a, Value::Int(x)).unwrap();
                    s.put(b, Value::Int(100 - x)).unwrap();
                }
            })
        };
        for _ in 0..200 {
            let snap = s.snapshot();
            let (va, vb) = (snap.get(a).unwrap(), snap.get(b).unwrap());
            let (va, vb) = (va.as_int().unwrap(), vb.as_int().unwrap());
            // The writer updates a then b: a consistent image is either
            // both from the same round (sum 100) or a mid-round point
            // where only `a` moved yet (a is one step of +37 ahead of b,
            // i.e. b still matches a's predecessor (a+64)%101). What a
            // torn clone could produce — a *stale* `a` with a *fresh*
            // `b` — matches neither.
            let reachable = va + vb == 100 || (va + 64) % 101 + vb == 100;
            assert!(reachable, "torn snapshot: a={va}, b={vb}");
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn quiesce_token_tracks_mutations_and_intents() {
        let s = MemoryStore::new();
        let a = s.create_atomic(TYPE_ATOMIC, Value::Int(1)).unwrap();
        let t0 = s.quiesce_token().expect("idle store is quiescent");
        assert_eq!(s.quiesce_token(), Some(t0), "stable while nothing happens");
        s.put(a, Value::Int(2)).unwrap();
        let t1 = s.quiesce_token().expect("still no intents");
        assert_ne!(t1, t0, "a mutation moves the epoch");
        s.begin_object_write(a).unwrap();
        assert_eq!(s.quiesce_token(), None, "outstanding intent blocks the fast path");
        s.end_object_write(a);
        assert_eq!(s.quiesce_token(), Some(t1), "released intent restores it");
        // Deleting the intent's object must not strand the global count.
        s.begin_object_write(a).unwrap();
        s.delete(a).unwrap();
        s.end_object_write(a);
        assert!(s.quiesce_token().is_some(), "count released even when the object is gone");
    }

    #[test]
    fn version_state_reports_every_live_object() {
        let s = MemoryStore::new();
        let a = s.create_atomic(TYPE_ATOMIC, Value::Int(1)).unwrap();
        let set = s.create_set(TYPE_SET).unwrap();
        s.put(a, Value::Int(2)).unwrap();
        let vs = s.version_state();
        assert_eq!(vs.get(&a), Some(&1));
        assert_eq!(vs.get(&set), Some(&0));
        assert_eq!(vs.len(), 2);
    }

    #[test]
    fn dump_and_load_roundtrip_state_versions_and_id_counter() {
        let s = MemoryStore::new();
        let a = s.create_atomic(TYPE_ATOMIC, Value::Int(1)).unwrap();
        let set = s.create_set(TYPE_SET).unwrap();
        let (t, _atoms) = s
            .create_tuple_with_atoms(
                TYPE_TUPLE,
                &[("x", Value::Int(7)), ("y", Value::Str("s".into()))],
            )
            .unwrap();
        s.set_insert(set, 3, t).unwrap();
        s.put(a, Value::Int(2)).unwrap();

        let dump = s.dump();
        assert!(dump.objects.windows(2).all(|w| w[0].id < w[1].id), "id-sorted");

        let fresh = MemoryStore::new();
        // Pre-populate with unrelated junk: load_dump must clear it.
        fresh.create_atomic(TYPE_ATOMIC, Value::Int(99)).unwrap();
        fresh.load_dump(&dump).unwrap();
        assert_eq!(fresh.atomic_state(), s.atomic_state());
        assert_eq!(fresh.set_state(), s.set_state());
        assert_eq!(fresh.version_state(), s.version_state());
        assert_eq!(fresh.object_count(), s.object_count());
        assert_eq!(fresh.dump(), dump, "dump, load, dump again: the same image");
        assert_eq!(fresh.field(t, "y").unwrap(), s.field(t, "y").unwrap());
        // New creations never collide with restored ids.
        let n = fresh.create_atomic(TYPE_ATOMIC, Value::Unit).unwrap();
        assert!(n.0 >= dump.next_id);
        // The trait hook reports the same capture.
        assert_eq!(s.checkpoint_dump().unwrap(), dump);
    }

    /// Fold a delta into a dump the way a checkpointer merges it into its
    /// base: the differential oracle for every delta test.
    fn apply(base: &mut StoreDump, delta: StoreDelta) {
        if delta.full {
            base.objects.clear();
        }
        base.objects.retain(|o| {
            !delta.deleted.contains(&o.id) && !delta.objects.iter().any(|d| d.id == o.id)
        });
        base.objects.extend(delta.objects);
        base.objects.sort_by_key(|o| o.id);
        base.next_id = delta.next_id;
    }

    #[test]
    fn delta_is_o_dirty_lists_each_object_once_and_merges_to_the_full_dump() {
        let s = MemoryStore::new();
        let atoms: Vec<ObjectId> =
            (0..200).map(|i| s.create_atomic(TYPE_ATOMIC, Value::Int(i)).unwrap()).collect();
        let set = s.create_set(TYPE_SET).unwrap();
        let first = s.checkpoint_delta(None).unwrap();
        assert!(first.full && first.deleted.is_empty());
        assert_eq!(first.objects.len(), 201);
        let mut base = StoreDump::default();
        apply(&mut base, first.clone());
        assert_eq!(base, s.dump());

        // One hot object mutated many times, one set, one creation, one
        // deletion of a clean object, one creation deleted again.
        for i in 0..50 {
            s.put(atoms[3], Value::Int(1000 + i)).unwrap();
        }
        s.set_insert(set, 1, atoms[4]).unwrap();
        let born = s.create_atomic(TYPE_ATOMIC, Value::Int(-1)).unwrap();
        s.delete(atoms[9]).unwrap();
        let ghost = s.create_atomic(TYPE_ATOMIC, Value::Unit).unwrap();
        s.delete(ghost).unwrap();
        // Reads, failed writes and no-op removes dirty nothing.
        s.get(atoms[5]).unwrap();
        assert!(s.set_insert(set, 1, atoms[5]).is_err());
        assert_eq!(s.set_remove(set, 77).unwrap(), None);

        let second = s.checkpoint_delta(Some(first.token)).unwrap();
        assert!(!second.full);
        let mut ids: Vec<ObjectId> = second.objects.iter().map(|o| o.id).collect();
        ids.sort();
        assert_eq!(ids, vec![atoms[3], set, born], "each dirty object exactly once");
        assert_eq!(second.deleted, vec![atoms[9], ghost], "tombstones, id-ascending");
        apply(&mut base, second.clone());
        assert_eq!(base, s.dump());

        // Nothing happened since: the next delta is empty.
        let third = s.checkpoint_delta(Some(second.token)).unwrap();
        assert!(!third.full && third.objects.is_empty() && third.deleted.is_empty());
    }

    #[test]
    fn stale_foreign_or_missing_token_forces_a_full_capture() {
        let s = MemoryStore::new();
        let a = s.create_atomic(TYPE_ATOMIC, Value::Int(1)).unwrap();
        let other = MemoryStore::new();
        other.create_atomic(TYPE_ATOMIC, Value::Int(1)).unwrap();
        let foreign = other.checkpoint_delta(None).unwrap().token;

        let t1 = s.checkpoint_delta(None).unwrap().token;
        s.put(a, Value::Int(2)).unwrap();
        let t2 = s.checkpoint_delta(Some(t1)).unwrap();
        assert!(!t2.full);
        // t1 is stale now: a caller still holding it lost the interval
        // t1..t2 (say its checkpoint died before install) and gets it all.
        for since in [Some(t1), Some(foreign), Some(0), None] {
            let d = s.checkpoint_delta(since).unwrap();
            assert!(d.full, "since = {since:?}");
            assert_eq!(d.objects.len(), 1);
        }
        // A full capture re-arms tracking: its own token is honoured.
        let t3 = s.checkpoint_delta(None).unwrap().token;
        s.put(a, Value::Int(3)).unwrap();
        let d = s.checkpoint_delta(Some(t3)).unwrap();
        assert!(!d.full);
        assert_eq!(d.objects.len(), 1);
        // Copies and reloaded stores honour nothing issued before.
        assert!(s.snapshot().checkpoint_delta(Some(d.token)).unwrap().full);
        let dump = s.dump();
        s.load_dump(&dump).unwrap();
        assert!(s.checkpoint_delta(Some(d.token)).unwrap().full);
    }

    #[test]
    fn restore_under_a_deleted_id_is_captured_once() {
        let s = MemoryStore::new();
        let a = s.create_atomic(TYPE_ATOMIC, Value::Int(1)).unwrap();
        let t = s.checkpoint_delta(None).unwrap().token;
        s.put(a, Value::Int(2)).unwrap();
        s.delete(a).unwrap();
        s.restore_atomic(a, TYPE_ATOMIC, Value::Int(3)).unwrap();
        let d = s.checkpoint_delta(Some(t)).unwrap();
        assert_eq!(d.objects.len(), 1, "listed twice, captured once");
        assert_eq!(d.objects[0].image, ObjectImage::Atomic(Value::Int(3)));
        assert!(d.deleted.is_empty());
        // Deleted, restored and deleted again: one tombstone.
        s.delete(a).unwrap();
        s.restore_atomic(a, TYPE_ATOMIC, Value::Int(4)).unwrap();
        s.delete(a).unwrap();
        let d = s.checkpoint_delta(Some(d.token)).unwrap();
        assert!(d.objects.is_empty());
        assert_eq!(d.deleted, vec![a]);
    }

    #[test]
    fn an_uncheckpointed_store_records_nothing() {
        let s = MemoryStore::new();
        let a = s.create_atomic(TYPE_ATOMIC, Value::Int(1)).unwrap();
        for i in 0..100 {
            s.put(a, Value::Int(i)).unwrap();
            let g = s.create_atomic(TYPE_ATOMIC, Value::Unit).unwrap();
            s.delete(g).unwrap();
        }
        assert!(s.shards.iter().all(|sh| sh.read().dirty.is_empty()));
    }

    #[test]
    fn the_dirty_list_is_bounded_when_captures_stop_coming() {
        let s = MemoryStore::new();
        let a = s.create_atomic(TYPE_ATOMIC, Value::Int(1)).unwrap();
        let t = s.checkpoint_delta(None).unwrap().token;
        // Nobody captures any more (the log died, say) while objects keep
        // being created and deleted: every one leaves a tombstone.
        let churn = 3 * SHARD_COUNT * DIRTY_LIST_FLOOR;
        for _ in 0..churn {
            let g = s.create_atomic(TYPE_ATOMIC, Value::Unit).unwrap();
            s.delete(g).unwrap();
        }
        let listed: usize = s.shards.iter().map(|sh| sh.read().dirty.len()).sum();
        assert!(listed <= SHARD_COUNT * DIRTY_LIST_FLOOR, "{listed} ids listed");
        // The token is the one issued last, but the interval was given up
        // on: the capture is full, and re-arms tracking.
        s.put(a, Value::Int(2)).unwrap();
        let d = s.checkpoint_delta(Some(t)).unwrap();
        assert!(d.full && d.deleted.is_empty());
        assert_eq!(d.objects.len(), 1);
        s.put(a, Value::Int(3)).unwrap();
        let d = s.checkpoint_delta(Some(d.token)).unwrap();
        assert!(!d.full);
        assert_eq!(d.objects.len(), 1);
    }
}
