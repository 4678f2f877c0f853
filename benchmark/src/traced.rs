//! Benchmark-side wrappers that record a span around every call through
//! three public seams: [`Storage`], [`Discipline`] and
//! [`TransactionProgram`]. The engine is built over them exactly as over
//! the bare store and lock manager.

use crate::spans::{self, Name};
use semcc_core::kernel::LockTableDump;
use semcc_core::stats::StatsSnapshot;
use semcc_core::tree::TxnTree;
use semcc_core::{AcquireRequest, Discipline, GrantInfo, TopId, TransactionProgram};
use semcc_orderentry::TxnSpec;
use semcc_semantics::{MethodContext, ObjectId, PageId, Result, Storage, StoreDump, TypeId, Value};
use std::borrow::Borrow;
use std::sync::Arc;

/// A [`Storage`] that records one `objstore.op` span per call.
///
/// Every method is forwarded explicitly, the optional ones too: a trait
/// default would silently answer "unsupported" and switch the engine's
/// snapshot read path and checkpoints off in the traced run.
pub struct TracedStorage<S>(pub Arc<S>);

macro_rules! traced_op {
    ($self:ident . $method:ident ( $($arg:expr),* )) => {{
        let _span = spans::open(Name::StoreOp);
        $self.0.$method($($arg),*)
    }};
}

impl<S: Storage> Storage for TracedStorage<S> {
    fn get(&self, o: ObjectId) -> Result<Value> {
        traced_op!(self.get(o))
    }
    fn put(&self, o: ObjectId, v: Value) -> Result<Value> {
        traced_op!(self.put(o, v))
    }
    fn set_select(&self, s: ObjectId, key: u64) -> Result<Option<ObjectId>> {
        traced_op!(self.set_select(s, key))
    }
    fn set_insert(&self, s: ObjectId, key: u64, member: ObjectId) -> Result<()> {
        traced_op!(self.set_insert(s, key, member))
    }
    fn set_remove(&self, s: ObjectId, key: u64) -> Result<Option<ObjectId>> {
        traced_op!(self.set_remove(s, key))
    }
    fn set_scan(&self, s: ObjectId) -> Result<Vec<(u64, ObjectId)>> {
        traced_op!(self.set_scan(s))
    }
    fn field(&self, o: ObjectId, name: &str) -> Result<ObjectId> {
        traced_op!(self.field(o, name))
    }
    fn type_of(&self, o: ObjectId) -> Result<TypeId> {
        traced_op!(self.type_of(o))
    }
    fn page_of(&self, o: ObjectId) -> Result<PageId> {
        traced_op!(self.page_of(o))
    }
    fn create_atomic(&self, type_id: TypeId, v: Value) -> Result<ObjectId> {
        traced_op!(self.create_atomic(type_id, v))
    }
    fn create_tuple(&self, type_id: TypeId, fields: Vec<(String, ObjectId)>) -> Result<ObjectId> {
        traced_op!(self.create_tuple(type_id, fields))
    }
    fn create_set(&self, type_id: TypeId) -> Result<ObjectId> {
        traced_op!(self.create_set(type_id))
    }
    fn delete(&self, o: ObjectId) -> Result<()> {
        traced_op!(self.delete(o))
    }
    fn supports_versioning(&self) -> bool {
        // A capability flag read once at engine build: not an operation.
        self.0.supports_versioning()
    }
    fn get_versioned(&self, o: ObjectId) -> Result<(Value, u64)> {
        traced_op!(self.get_versioned(o))
    }
    fn set_select_versioned(&self, s: ObjectId, key: u64) -> Result<(Option<ObjectId>, u64)> {
        traced_op!(self.set_select_versioned(s, key))
    }
    fn set_scan_versioned(&self, s: ObjectId) -> Result<(Vec<(u64, ObjectId)>, u64)> {
        traced_op!(self.set_scan_versioned(s))
    }
    fn object_version(&self, o: ObjectId) -> Result<(u64, u32)> {
        traced_op!(self.object_version(o))
    }
    fn begin_object_write(&self, o: ObjectId) -> Result<()> {
        traced_op!(self.begin_object_write(o))
    }
    fn end_object_write(&self, o: ObjectId) {
        traced_op!(self.end_object_write(o))
    }
    fn quiesce_token(&self) -> Option<u64> {
        traced_op!(self.quiesce_token())
    }
    fn checkpoint_dump(&self) -> Option<StoreDump> {
        traced_op!(self.checkpoint_dump())
    }
}

/// A [`Discipline`] that records `core.lock.acquire` (or `.wait`, when the
/// grant reports it waited), `.complete` and `.release` spans.
pub struct TracedDiscipline(pub Arc<dyn Discipline>);

impl Discipline for TracedDiscipline {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn acquire(&self, req: AcquireRequest<'_>) -> Result<GrantInfo> {
        let span = spans::open(Name::LockAcquire);
        let grant = self.0.acquire(req);
        if matches!(grant, Ok(GrantInfo { waited: true })) {
            span.close_as(Name::LockWait);
        }
        grant
    }
    fn node_completed(&self, tree: &TxnTree, idx: u32) {
        let _span = spans::open(Name::LockComplete);
        self.0.node_completed(tree, idx);
    }
    fn top_finished(&self, top: TopId) {
        let _span = spans::open(Name::LockRelease);
        self.0.top_finished(top);
    }
    fn stats(&self) -> StatsSnapshot {
        self.0.stats()
    }
    fn live_entries(&self) -> usize {
        self.0.live_entries()
    }
    fn lock_table(&self) -> LockTableDump {
        self.0.lock_table()
    }
}

/// A program wrapper that tells the executing thread which transaction
/// the engine-side spans that follow belong to, and which span they hang
/// off when the thread has none open (a service core thread). `P` is a
/// borrowed spec in the client loops and an owned one behind a ticket.
pub struct Traced<P> {
    pub program: P,
    /// Index in the rep's batch.
    pub txn: u32,
    /// Parent of engine-side spans opened on an empty stack.
    pub root_parent: u64,
}

impl<P: Borrow<TxnSpec> + Send + Sync> TransactionProgram for Traced<P> {
    fn label(&self) -> String {
        self.program.borrow().label()
    }
    fn run(&self, ctx: &mut dyn MethodContext) -> Result<Value> {
        spans::set_root(self.txn, self.root_parent);
        self.program.borrow().run(ctx)
    }
    fn read_only_hint(&self) -> bool {
        self.program.borrow().read_only_hint()
    }
}
