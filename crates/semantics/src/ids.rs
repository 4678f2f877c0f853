//! Identifier newtypes used throughout the workspace.
//!
//! All identifiers are small `Copy` integers so that lock table keys,
//! transaction tree nodes and history events stay cheap to move around.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a database object (atomic, tuple, set or encapsulated).
///
/// Object identifiers are never reused; the store hands them out from a
/// monotonically increasing counter.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectId(pub u64);

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// The pseudo object representing the whole database.
///
/// The paper (footnote 2) views top-level transactions as actions that
/// operate on the object "Database"; transaction roots therefore carry an
/// invocation on this object and never commute with each other.
pub const DB_OBJECT: ObjectId = ObjectId(0);

/// Identifier of an object type in the [`Catalog`](crate::catalog::Catalog).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TypeId(pub u32);

impl fmt::Debug for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ty{}", self.0)
    }
}

/// Built-in type of the database pseudo object.
pub const TYPE_DB: TypeId = TypeId(0);
/// Built-in type of atomic objects (values manipulated with `Get`/`Put`).
pub const TYPE_ATOMIC: TypeId = TypeId(1);
/// Built-in type of tuple objects (named components).
pub const TYPE_TUPLE: TypeId = TypeId(2);
/// Built-in type of set objects (key → member, `Select`/`Insert`/…).
pub const TYPE_SET: TypeId = TypeId(3);

/// First identifier available for user-defined encapsulated types.
pub const FIRST_USER_TYPE: u32 = 16;

impl TypeId {
    /// Whether this is one of the built-in generic types.
    pub fn is_builtin(self) -> bool {
        self.0 < FIRST_USER_TYPE
    }
}

/// Identifier of a (user-defined) method, scoped to its owning type.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MethodId(pub u32);

impl fmt::Debug for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Identifier of a storage page.
///
/// The object store maps every object to a page; page identifiers are the
/// lockable units of the conventional page-level two-phase locking baseline.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PageId(pub u64);

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A hasher for the small integer ids that key the lock table, the
/// registry and every other per-request map: rustc's `FxHasher` scheme
/// (rotate, xor, multiply by an odd constant). Not DoS-resistant — every
/// key it sees is an id the system allocated itself.
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// A product's low bits depend only on the key's low bits, and the
    /// keys of one shard of the kernel's held-key index, or of the
    /// registry, share their low six bits (both pick a shard by
    /// `top % 64`). The map indexes buckets by the low bits, so the
    /// well-mixed high bits are rotated down.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed by ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// A `HashSet` of ids, hashed with [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_id_formats_compactly() {
        assert_eq!(format!("{:?}", ObjectId(42)), "o42");
        assert_eq!(format!("{}", ObjectId(42)), "o42");
    }

    #[test]
    fn builtin_types_are_builtin() {
        assert!(TYPE_DB.is_builtin());
        assert!(TYPE_ATOMIC.is_builtin());
        assert!(TYPE_TUPLE.is_builtin());
        assert!(TYPE_SET.is_builtin());
        assert!(!TypeId(FIRST_USER_TYPE).is_builtin());
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(ObjectId(1));
        s.insert(ObjectId(1));
        s.insert(ObjectId(2));
        assert_eq!(s.len(), 2);
        assert!(ObjectId(1) < ObjectId(2));
        assert!(PageId(3) < PageId(4));
    }

    #[test]
    fn id_hasher_spreads_one_held_key_shards_ids_over_the_buckets() {
        use std::hash::BuildHasher;
        // One shard of the kernel's held-key index (or of the registry)
        // holds only top ids ≡ c (mod 64): here c = 5. Object ids of the
        // same pattern stand in for them.
        let ids: Vec<ObjectId> = (0..4096u64).map(|i| ObjectId(i * 64 + 5)).collect();
        let mut map: IdMap<ObjectId, u64> = IdMap::default();
        map.extend(ids.iter().map(|&id| (id, id.0)));
        assert_eq!(map.len(), 4096);
        let mut slots = vec![false; 4096];
        for id in &ids {
            slots[(map.hasher().hash_one(id) & 4095) as usize] = true;
        }
        let covered = slots.iter().filter(|&&s| s).count();
        assert!(covered >= 2048, "only {covered} of 4096 bucket slots used");
    }
}
