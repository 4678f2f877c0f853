//! The storage abstraction implemented by the object store.
//!
//! The transaction engine performs all *leaf* actions (generic methods on
//! atomic and set objects) through this trait; it is deliberately free of
//! any concurrency control — isolation is entirely the lock manager's job,
//! physical operations only need to be individually atomic (which the store
//! guarantees internally with short latches).

use crate::error::{Result, SemccError};
use crate::ids::{ObjectId, PageId, TypeId};
use crate::value::Value;

fn unversioned<T>() -> Result<T> {
    Err(SemccError::SnapshotIneligible("storage does not support versioned reads".into()))
}

/// Point-in-time image of one object's state, as captured by a checkpoint
/// dump and re-installed by a recovery load.
#[derive(Clone, Debug, PartialEq)]
pub enum ObjectImage {
    /// An atomic object's value.
    Atomic(Value),
    /// A tuple's named components, in stored order.
    Tuple(Vec<(String, ObjectId)>),
    /// A set's `(key, member)` pairs, in key order.
    Set(Vec<(u64, ObjectId)>),
}

/// One object of a [`StoreDump`].
#[derive(Clone, Debug, PartialEq)]
pub struct ObjectDump {
    /// The object's id.
    pub id: ObjectId,
    /// Its declared type.
    pub type_id: TypeId,
    /// Its version stamp at capture time (restored verbatim so snapshot
    /// validation and recovery version-parity behave identically).
    pub version: u64,
    /// Its state.
    pub image: ObjectImage,
}

/// A stamp-consistent point-in-time capture of a whole store — the payload
/// of a fuzzy checkpoint. Objects are listed in id order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StoreDump {
    /// Every live object, id-ascending.
    pub objects: Vec<ObjectDump>,
    /// The store's id allocator position (so post-recovery creations do
    /// not collide with checkpointed ids).
    pub next_id: u64,
}

/// What changed in a store since an earlier capture — the payload of an
/// *incremental* fuzzy checkpoint (see [`Storage::checkpoint_delta`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StoreDelta {
    /// Names this capture: pass it as `since` to the next
    /// [`Storage::checkpoint_delta`] to get only what changed after it.
    pub token: u64,
    /// `objects` is the whole store (the receiver must forget whatever it
    /// held before). `false` only when the store honoured `since`.
    pub full: bool,
    /// Captured objects, each id at most once, in no particular order:
    /// every live object when `full`, otherwise those created or mutated
    /// since `since`.
    pub objects: Vec<ObjectDump>,
    /// Tombstones: ids deleted since `since` (empty when `full`), each at
    /// most once, never also in `objects`. May name ids the receiver never
    /// saw (created and deleted inside the interval).
    pub deleted: Vec<ObjectId>,
    /// The store's id allocator position (as [`StoreDump::next_id`]).
    pub next_id: u64,
}

impl StoreDelta {
    /// A whole-store capture as the "everything is dirty" delta. `token`
    /// 0 is never honoured as `since` by any store.
    pub fn full(dump: StoreDump) -> Self {
        StoreDelta {
            token: 0,
            full: true,
            objects: dump.objects,
            deleted: Vec::new(),
            next_id: dump.next_id,
        }
    }
}

/// Physical object store interface.
pub trait Storage: Send + Sync {
    /// Read the value of an atomic object.
    fn get(&self, o: ObjectId) -> Result<Value>;

    /// Update the value of an atomic object, returning the previous value
    /// (used for physical undo information).
    fn put(&self, o: ObjectId, v: Value) -> Result<Value>;

    /// Member of a set with the given primary key.
    fn set_select(&self, s: ObjectId, key: u64) -> Result<Option<ObjectId>>;

    /// Insert a member under a key; fails on duplicates.
    fn set_insert(&self, s: ObjectId, key: u64, member: ObjectId) -> Result<()>;

    /// Remove a member by key, returning it if present.
    fn set_remove(&self, s: ObjectId, key: u64) -> Result<Option<ObjectId>>;

    /// All `(key, member)` pairs of a set, in key order.
    fn set_scan(&self, s: ObjectId) -> Result<Vec<(u64, ObjectId)>>;

    /// Component `name` of a tuple object (structural, immutable).
    fn field(&self, o: ObjectId, name: &str) -> Result<ObjectId>;

    /// Type of an object.
    fn type_of(&self, o: ObjectId) -> Result<TypeId>;

    /// Page on which the object is stored (the lockable unit of the
    /// page-level two-phase locking baseline).
    fn page_of(&self, o: ObjectId) -> Result<PageId>;

    /// Create an atomic object with the given initial value.
    fn create_atomic(&self, type_id: TypeId, v: Value) -> Result<ObjectId>;

    /// Create a tuple object with named components. `type_id` may be the
    /// generic tuple type or a user-defined encapsulated type.
    fn create_tuple(&self, type_id: TypeId, fields: Vec<(String, ObjectId)>) -> Result<ObjectId>;

    /// Create an empty set object.
    fn create_set(&self, type_id: TypeId) -> Result<ObjectId>;

    /// Delete an object (used to garbage-collect objects created by an
    /// aborted transaction).
    fn delete(&self, o: ObjectId) -> Result<()>;

    // ---- versioned snapshot-read support (optional) -----------------
    //
    // Stores that maintain per-object version stamps implement the block
    // below; the defaults declare the capability absent, which makes the
    // engine run every transaction through the ordinary locking kernel.
    // Wrappers that cannot guarantee stamp consistency (e.g. the chaos
    // harness's fault-injecting storage) simply inherit the defaults.

    /// Whether the versioned read methods below are supported. `false`
    /// (the default) disables the engine's snapshot read path entirely.
    fn supports_versioning(&self) -> bool {
        false
    }

    /// [`Storage::get`] plus the object's version stamp, read atomically.
    fn get_versioned(&self, o: ObjectId) -> Result<(Value, u64)> {
        let _ = o;
        unversioned()
    }

    /// [`Storage::set_select`] plus the set's version stamp.
    fn set_select_versioned(&self, s: ObjectId, key: u64) -> Result<(Option<ObjectId>, u64)> {
        let _ = (s, key);
        unversioned()
    }

    /// [`Storage::set_scan`] plus the set's version stamp.
    fn set_scan_versioned(&self, s: ObjectId) -> Result<(Vec<(u64, ObjectId)>, u64)> {
        let _ = s;
        unversioned()
    }

    /// Current `(version, writers)` of an object — the snapshot validation
    /// primitive: a recorded read is valid iff the version still matches
    /// and `writers == 0`.
    fn object_version(&self, o: ObjectId) -> Result<(u64, u32)> {
        let _ = o;
        unversioned()
    }

    /// Declare write intent on an object (called by the engine before a
    /// transaction's first mutating leaf on it). Default: no-op.
    fn begin_object_write(&self, o: ObjectId) -> Result<()> {
        let _ = o;
        Ok(())
    }

    /// Release one write intent (called when the top-level transaction
    /// finishes). Must be best-effort: the object may already be deleted.
    fn end_object_write(&self, o: ObjectId) {
        let _ = o;
    }

    /// Optional whole-store quiescence token for O(1) snapshot
    /// validation. A store that can prove "no write intent outstanding"
    /// returns its current mutation epoch; the engine takes a token
    /// before a snapshot transaction's first read and again at
    /// validation, and equal `Some` tokens mean no mutation landed
    /// anywhere during the read window — the whole read set is valid
    /// without per-object re-checks. `None` (the default) always forces
    /// the per-object path, which is correct for any store.
    fn quiesce_token(&self) -> Option<u64> {
        None
    }

    /// Stamp-consistent capture of the whole store for a fuzzy checkpoint.
    /// `None` (the default) declares the capability absent — the engine
    /// then skips checkpointing entirely, which is always correct (the
    /// full log is retained).
    fn checkpoint_dump(&self) -> Option<StoreDump> {
        None
    }

    /// Stamp-consistent capture of what changed since the capture that
    /// issued the token `since`. A store honours `since` only if it is the
    /// token it issued **last**; for any other value (`None`, a stale or a
    /// foreign token) it answers with a full capture, so a caller that
    /// lost its base — a resumed log writer, a checkpoint that failed
    /// between capture and install — is correct without saying so. The
    /// default treats everything as dirty, which is right for any store
    /// and for every decorator that forwards [`Storage::checkpoint_dump`].
    fn checkpoint_delta(&self, since: Option<u64>) -> Option<StoreDelta> {
        let _ = since;
        self.checkpoint_dump().map(StoreDelta::full)
    }
}
