//! # semcc-objstore
//!
//! In-memory object store for the OODB substrate: the physical layer the
//! open nested transaction engine executes its leaf actions against.
//!
//! The store implements the object-structure graph model the paper uses as
//! its "lowest common denominator" (Section 2.1):
//!
//! * **atomic objects** holding a single [`Value`](semcc_semantics::Value),
//!   manipulated with `Get`/`Put`;
//! * **tuple objects** with named, structurally immutable components, held
//!   as ids in name order beside a name list that every tuple with the same
//!   names shares;
//! * **set objects** with a primary key among the atomic components of the
//!   member type, supporting `Select`/`Insert`/`Remove`/`Scan`.
//!
//! Every object is mapped to a **page** — the lockable unit of the
//! conventional page-level two-phase locking baseline the paper compares
//! against conceptually. A configurable page capacity yields natural
//! clustering (objects created together share pages, e.g. an item and its
//! orders), which is exactly what makes page locking prone to false
//! conflicts.
//!
//! Objects are found by id, not by hash: the store is 64 latched shards,
//! each holding whole runs of 64 consecutive ids in a dense slot table, so
//! id `i` lives in shard `(i / 64) % 64`. Ids come from one counter and are
//! never reused, so the table is dense, a deleted object leaves an empty
//! slot (the tombstone a checkpoint delta reports), and every live id is
//! below the counter: creations draw from it, restores advance it first and
//! a loaded dump brings its own. A lookup is one bounds-checked index, and
//! objects created together (an item, its orders, their atoms) share one
//! shard's table, in adjacent slots, under one latch.
//!
//! The store performs **no concurrency control** beyond short internal
//! latches making each operation individually atomic; isolation is the lock
//! manager's job (crate `semcc-core`) — with one read-side exception: every
//! object carries a **version stamp** (bumped on each physical mutation)
//! and a **write-intent count** (`get_versioned` / `object_version` /
//! `begin_object_write`), which let the engine's snapshot read path run pure
//! readers entirely outside the lock manager and validate their read set at
//! commit instead of locking it.

pub mod object;
pub mod pages;
pub mod store;

pub use object::{ObjKind, Shape, StoredObject, Tuple};
pub use pages::PagePolicy;
pub use store::MemoryStore;

/// `T` alone on its cache lines, so that threads writing neighbouring values
/// (the shards of a table, two hot counters) do not invalidate each other's.
/// 128 bytes because x86-64 prefetches lines in adjacent pairs.
#[derive(Default)]
#[repr(align(128))]
pub struct CacheLine<T>(pub T);

impl<T> std::ops::Deref for CacheLine<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}
