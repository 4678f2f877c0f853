//! # semcc-semantics
//!
//! Foundational vocabulary for semantic concurrency control in
//! object-oriented database systems, as defined by Muth, Rakow, Weikum,
//! Brössler and Hasse, *"Semantic Concurrency Control in Object-Oriented
//! Database Systems"*, ICDE 1993.
//!
//! This crate is deliberately free of any locking or storage implementation.
//! It defines:
//!
//! * the [`Value`](value::Value) model and object identifiers,
//! * the [`Invocation`](invocation::Invocation) model — every action of an
//!   open nested transaction is a method invocation on exactly one object,
//! * [`CommutativitySpec`](commutativity::CommutativitySpec) — the semantic
//!   conflict test of the paper (Section 2.2), including argument-dependent
//!   compatibility matrices such as the paper's Figure 3,
//! * the [`Catalog`](catalog::Catalog) of encapsulated object types and their
//!   methods, compensations and bodies,
//! * the abstract [`MethodContext`](context::MethodContext) through which
//!   method bodies invoke further methods (building the dynamic method
//!   invocation hierarchy), and
//! * the [`Storage`](storage::Storage) trait implemented by the object store.
//!
//! Everything else in the workspace (`semcc-objstore`, `semcc-core`,
//! `semcc-baselines`, …) is expressed against these interfaces.

pub mod catalog;
pub mod commutativity;
pub mod context;
pub mod error;
pub mod ids;
pub mod invocation;
pub mod storage;
pub mod value;

pub use catalog::{
    Catalog, CompensationFn, MethodBody, MethodDef, TypeDef, TypeDefBuilder, TypeKind,
};
pub use commutativity::{
    CommutativitySpec, Compat, CompatibilityMatrix, CompiledSpec, GenericSpec, NeverCommute,
    SemanticsRouter,
};
pub use context::MethodContext;
pub use error::{Result, SemccError};
pub use ids::{
    IdHasher, IdMap, IdSet, MethodId, ObjectId, PageId, TypeId, DB_OBJECT, TYPE_ATOMIC, TYPE_DB,
    TYPE_SET, TYPE_TUPLE,
};
pub use invocation::{GenericMethod, Invocation, MethodSel};
pub use storage::{ObjectDump, ObjectImage, Storage, StoreDelta, StoreDump};
pub use value::Value;
