//! Stored object representation.

use semcc_semantics::{ObjectId, PageId, Result, SemccError, TypeId, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// The component names of a tuple, ascending. Every tuple with the same
/// names shares one shape: the store interns it when the tuple is made.
pub type Shape = Arc<[Box<str>]>;

/// A tuple's components: their ids, in the order of its shape's names.
/// Immutable after creation (schema navigation needs no locks).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tuple {
    shape: Shape,
    fields: Box<[ObjectId]>,
}

impl Tuple {
    /// Components `fields` under the names of `shape`, index for index.
    pub(crate) fn new(shape: Shape, fields: Box<[ObjectId]>) -> Self {
        assert_eq!(shape.len(), fields.len(), "one id per name of the shape");
        Tuple { shape, fields }
    }

    /// The component named `name`. The names are few and shared by every
    /// tuple of the shape, so a scan of them stays in cache.
    pub fn get(&self, name: &str) -> Option<ObjectId> {
        self.shape.iter().position(|n| **n == *name).map(|i| self.fields[i])
    }

    /// `(name, component)` pairs, name-ascending.
    pub fn iter(&self) -> impl Iterator<Item = (&str, ObjectId)> {
        self.shape.iter().map(|n| &**n).zip(self.fields.iter().copied())
    }

    /// The shared name list.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }
}

/// The structural payload of a stored object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObjKind {
    /// Atomic value.
    Atomic(Value),
    /// Tuple with named components.
    Tuple(Tuple),
    /// Set keyed by primary key.
    Set(BTreeMap<u64, ObjectId>),
}

impl ObjKind {
    /// Short kind name for error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ObjKind::Atomic(_) => "atomic",
            ObjKind::Tuple(_) => "tuple",
            ObjKind::Set(_) => "set",
        }
    }
}

/// A stored object: type, page assignment, payload and version stamp.
#[derive(Debug)]
pub struct StoredObject {
    /// The object's type (built-in or user-defined encapsulated type).
    pub type_id: TypeId,
    /// The page the object lives on.
    pub page: PageId,
    /// Structural payload.
    pub kind: ObjKind,
    /// Version stamp, bumped (wrapping) on every physical mutation of the
    /// payload. Snapshot readers record the stamp at read time and
    /// re-check it at commit; equality plus zero `writers` means the
    /// object was stable over the read window.
    pub version: u64,
    /// Number of transactions currently holding write intent on the
    /// object (incremented before their first mutation, decremented when
    /// the top-level transaction finishes). Non-zero marks the payload as
    /// possibly uncommitted, so snapshot validation must fail. Atomic so
    /// intent declaration/release ride the shard *read* latch — taking
    /// the write latch for pure bookkeeping measurably slows hot-object
    /// writers down.
    pub writers: AtomicU32,
    /// Changed since the store's last checkpoint capture (and listed in
    /// its shard's dirty list). Maintained by the store under the shard
    /// latch; only meaningful while the store tracks dirtiness.
    pub dirty: bool,
}

/// `writers` and `dirty` are transient runtime state (which transactions
/// currently hold intent on *this* store, what *its* checkpointer has yet
/// to capture), so a clone starts with neither and equality ignores both.
impl Clone for StoredObject {
    fn clone(&self) -> Self {
        StoredObject {
            type_id: self.type_id,
            page: self.page,
            kind: self.kind.clone(),
            version: self.version,
            writers: AtomicU32::new(0),
            dirty: false,
        }
    }
}

impl PartialEq for StoredObject {
    fn eq(&self, other: &Self) -> bool {
        self.type_id == other.type_id
            && self.page == other.page
            && self.kind == other.kind
            && self.version == other.version
    }
}

impl Eq for StoredObject {}

impl StoredObject {
    /// A fresh object at version 0 with no writers.
    pub fn new(type_id: TypeId, page: PageId, kind: ObjKind) -> Self {
        StoredObject { type_id, page, kind, version: 0, writers: AtomicU32::new(0), dirty: false }
    }

    /// Declare write intent (sequentially consistent, see
    /// [`StoredObject::writers`]).
    pub fn begin_write(&self) {
        self.writers.fetch_add(1, Ordering::SeqCst);
    }

    /// Release one write intent; saturates at zero (a release may race a
    /// garbage-collected re-creation of the object).
    pub fn end_write(&self) {
        let _ = self.writers.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |w| w.checked_sub(1));
    }

    /// Current write-intent count.
    pub fn writer_count(&self) -> u32 {
        self.writers.load(Ordering::SeqCst)
    }

    /// Advance the version stamp. Wraps on overflow: validation compares
    /// stamps for equality only, so ordering across the wrap is irrelevant.
    pub fn bump_version(&mut self) {
        self.version = self.version.wrapping_add(1);
    }

    /// Borrow the atomic value or fail with [`SemccError::WrongKind`].
    pub fn atomic(&self, id: ObjectId) -> Result<&Value> {
        match &self.kind {
            ObjKind::Atomic(v) => Ok(v),
            _ => Err(SemccError::WrongKind { object: id, expected: "atomic" }),
        }
    }

    /// Mutably borrow the atomic value.
    pub fn atomic_mut(&mut self, id: ObjectId) -> Result<&mut Value> {
        match &mut self.kind {
            ObjKind::Atomic(v) => Ok(v),
            _ => Err(SemccError::WrongKind { object: id, expected: "atomic" }),
        }
    }

    /// Borrow the tuple components.
    pub fn tuple(&self, id: ObjectId) -> Result<&Tuple> {
        match &self.kind {
            ObjKind::Tuple(t) => Ok(t),
            _ => Err(SemccError::WrongKind { object: id, expected: "tuple" }),
        }
    }

    /// Borrow the set members.
    pub fn set(&self, id: ObjectId) -> Result<&BTreeMap<u64, ObjectId>> {
        match &self.kind {
            ObjKind::Set(s) => Ok(s),
            _ => Err(SemccError::WrongKind { object: id, expected: "set" }),
        }
    }

    /// Mutably borrow the set members.
    pub fn set_mut(&mut self, id: ObjectId) -> Result<&mut BTreeMap<u64, ObjectId>> {
        match &mut self.kind {
            ObjKind::Set(s) => Ok(s),
            _ => Err(SemccError::WrongKind { object: id, expected: "set" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atomic(v: i64) -> StoredObject {
        StoredObject::new(semcc_semantics::TYPE_ATOMIC, PageId(0), ObjKind::Atomic(Value::Int(v)))
    }

    #[test]
    fn accessors_enforce_kind() {
        let mut a = atomic(1);
        let id = ObjectId(7);
        assert_eq!(a.atomic(id).unwrap(), &Value::Int(1));
        *a.atomic_mut(id).unwrap() = Value::Int(2);
        assert_eq!(a.atomic(id).unwrap(), &Value::Int(2));
        assert!(a.tuple(id).is_err());
        assert!(a.set(id).is_err());
        assert!(a.set_mut(id).is_err());
    }

    #[test]
    fn fresh_objects_start_unversioned_and_bumps_wrap() {
        let mut a = atomic(1);
        assert_eq!((a.version, a.writer_count()), (0, 0));
        a.bump_version();
        assert_eq!(a.version, 1);
        a.version = u64::MAX;
        a.bump_version();
        assert_eq!(a.version, 0, "stamps wrap; validation compares for equality only");
        a.bump_version();
        assert_eq!(a.version, 1);
    }

    #[test]
    fn write_intents_count_and_saturate() {
        let a = atomic(1);
        a.begin_write();
        a.begin_write();
        assert_eq!(a.writer_count(), 2);
        a.end_write();
        a.end_write();
        a.end_write(); // over-release saturates at zero
        assert_eq!(a.writer_count(), 0);
    }

    #[test]
    fn clones_and_equality_ignore_write_intents() {
        let a = atomic(1);
        a.begin_write();
        let b = a.clone();
        assert_eq!(b.writer_count(), 0, "intents are runtime state, not data");
        assert_eq!(a, b, "equality ignores intents");
    }

    #[test]
    fn kind_names() {
        assert_eq!(ObjKind::Atomic(Value::Unit).kind_name(), "atomic");
        let tuple = Tuple::new(Shape::from(Vec::new()), Box::default());
        assert_eq!(ObjKind::Tuple(tuple).kind_name(), "tuple");
        assert_eq!(ObjKind::Set(BTreeMap::new()).kind_name(), "set");
    }
}
