//! The lock-free snapshot read path: a read-only program runs against
//! versioned storage reads with no lock-table entries, no waits-for edges
//! and no WAL records, and validates its read set at commit.

use super::ctx::{member_value, scan_value};
use super::lifecycle::Ending;
use super::{Engine, TransactionProgram, TxnOutcome};
use crate::history::Event;
use crate::ids::{NodeRef, TopId};
use crate::journal::JournalKind;
use crate::stats::Stats;
use semcc_semantics::{
    Catalog, GenericMethod, IdMap, Invocation, MethodContext, MethodSel, ObjectId, Result,
    SemccError, Storage, TypeId, Value, DB_OBJECT,
};
use std::cell::Cell;
use std::collections::hash_map::Entry;

thread_local! {
    /// The emptied read set of this thread's last snapshot attempt: the
    /// next attempt fills its table instead of growing a new one.
    static SPARE_READS: Cell<IdMap<ObjectId, u64>> = Cell::new(IdMap::default());
}

impl Engine {
    /// Attempt a read-only program on the snapshot read path. Every leaf
    /// read records the object's version stamp; at commit the read set is
    /// validated (stamps unchanged, no write intent), which proves the
    /// observed state equals the current committed state — i.e. the
    /// effects of exactly the writers with a smaller commit-order number.
    ///
    /// Returns `None` to *promote*: the program attempted a write or an
    /// object creation, an invoked method is not a declared pure reader,
    /// an object moved between reads, the program failed or panicked, or
    /// commit-time validation failed. A promoted attempt emits no sink
    /// events and no WAL records — the locking re-run is the transaction.
    pub(super) fn execute_snapshot(
        &self,
        prog: &dyn TransactionProgram,
    ) -> Option<(TopId, Result<TxnOutcome>)> {
        // No tree, no registry entry: a snapshot transaction holds no
        // locks, so nothing ever queries its status or waits on its nodes
        // (see `Registry::allocate_top`).
        let top = self.deps.registry.allocate_top();
        let root = NodeRef::root(top);
        self.journal_record(JournalKind::SnapshotBegin, root, 0, 0);
        // Quiescence token *before* the first read: if it is unchanged at
        // validation, the store proves the whole window mutation-free and
        // the per-object re-checks (one latch round trip each) are skipped.
        let quiesce = self.storage.quiesce_token();
        let mut ctx = SnapshotCtx {
            engine: self,
            selves: Vec::new(),
            reads: SPARE_READS.take(),
            reads_done: 0,
            ineligible: false,
        };
        let run = self.contain(|| prog.run(&mut ctx));
        // One batched add per attempt: a per-read bump on the shared
        // counter line measurably serializes concurrent readers.
        Stats::add(&self.deps.stats.snapshot_reads, ctx.reads_done);
        let value = match run {
            // The sticky flag catches programs that swallowed an
            // ineligibility error: committing would drop the attempted
            // write silently.
            Ok(v) if !ctx.ineligible => v,
            // Program error, write attempt, torn read or panic: promote.
            // (A panicking program panics again on the locking path, where
            // it aborts like any other failure.)
            _ => {
                self.journal_record(JournalKind::SnapshotPromote, root, 0, 0);
                return None;
            }
        };
        Stats::bump(&self.deps.stats.read_validations);
        let quiescent = quiesce.is_some() && self.storage.quiesce_token() == quiesce;
        let valid = quiescent
            || ctx.reads.iter().all(|(o, ver)| {
                matches!(
                    self.storage.object_version(*o),
                    Ok((cur, writers)) if cur == *ver && writers == 0
                )
            });
        self.journal_record(
            JournalKind::SnapshotValidate,
            root,
            ctx.reads.len() as u64,
            valid.into(),
        );
        if !valid {
            Stats::bump(&self.deps.stats.read_validation_failures);
            self.journal_record(JournalKind::SnapshotPromote, root, 0, 1);
            return None;
        }
        // Serialization point: validation just proved the read set equals
        // the committed state, so the reader orders after exactly the
        // writers numbered below `seq` (writers draw their number before
        // releasing write intents).
        let commit_seq = self.next_commit_seq();
        // The event trace is emitted only now, and without per-read leaf
        // actions: the reader serializes at its validation point, which
        // the interleaved event order cannot express. The sim crate's
        // `check_snapshot_reads` validates snapshot transactions against
        // the commit order instead of the event graph.
        self.deps.emit(|| Event::TopBegin { top, label: prog.label() });
        self.top_ended(top, Ending::Committed);
        Some((top, Ok(TxnOutcome { top, value, snapshot: true, commit_seq })))
    }
}

/// The execution context of the snapshot read path. Implements
/// [`MethodContext`] over versioned, lock-free storage reads: every leaf
/// read records the object's version stamp (first observation wins; a
/// re-read that sees a different stamp poisons the attempt), every write
/// or object creation poisons the attempt, and user methods are admitted
/// only when the router classifies them as pure readers. The engine
/// promotes a poisoned attempt to the ordinary locking path.
struct SnapshotCtx<'e> {
    engine: &'e Engine,
    /// Stack of `self` objects (innermost last; the DB object at depth 0).
    selves: Vec<ObjectId>,
    /// Read set: object → first-observed version stamp.
    reads: IdMap<ObjectId, u64>,
    /// Leaf reads served, flushed to `Stats::snapshot_reads` in one add.
    reads_done: u64,
    /// Sticky: the program attempted something the snapshot path cannot
    /// do. Checked by the engine even when the program swallowed the
    /// error, because committing then would drop the attempted effect.
    ineligible: bool,
}

impl Drop for SnapshotCtx<'_> {
    fn drop(&mut self) {
        let mut reads = std::mem::take(&mut self.reads);
        reads.clear();
        // Once the thread's locals are gone the table is simply dropped.
        let _ = SPARE_READS.try_with(|spare| spare.set(reads));
    }
}

impl SnapshotCtx<'_> {
    fn poison(&mut self, msg: String) -> SemccError {
        self.ineligible = true;
        SemccError::SnapshotIneligible(msg)
    }

    /// Record `o`'s observed stamp, failing fast when a re-read proves the
    /// object moved mid-transaction (commit-time validation would fail
    /// against whichever stamp was kept, so don't run on).
    fn record(&mut self, o: ObjectId, ver: u64) -> Result<()> {
        match self.reads.entry(o) {
            Entry::Vacant(e) => {
                e.insert(ver);
                Ok(())
            }
            Entry::Occupied(e) if *e.get() == ver => Ok(()),
            Entry::Occupied(_) => {
                Err(self.poison(format!("object {o:?} moved between snapshot reads")))
            }
        }
    }

    /// One leaf read of `o`: the simulated page access, the count, and the
    /// stamp `read` returns beside its result.
    fn read<T>(
        &mut self,
        o: ObjectId,
        read: impl FnOnce(&dyn Storage) -> Result<(T, u64)>,
    ) -> Result<T> {
        self.engine.page_delay();
        self.reads_done += 1;
        let (out, ver) = read(&*self.engine.storage)?;
        self.record(o, ver)?;
        Ok(out)
    }

    fn read_leaf(&mut self, inv: &Invocation, g: GenericMethod) -> Result<Value> {
        let o = inv.object;
        match g {
            GenericMethod::Get => self.read(o, |s| s.get_versioned(o)),
            GenericMethod::Select => {
                let key = inv.arg_key(0)?;
                self.read(o, |s| s.set_select_versioned(o, key)).map(member_value)
            }
            GenericMethod::Scan => self.read(o, |s| s.set_scan_versioned(o)).map(scan_value),
            GenericMethod::Put
            | GenericMethod::Insert
            | GenericMethod::Remove
            | GenericMethod::EscrowAdd => {
                unreachable!("write leaves are rejected before dispatch")
            }
        }
    }
}

impl MethodContext for SnapshotCtx<'_> {
    fn invoke(&mut self, inv: Invocation) -> Result<Value> {
        match inv.method {
            MethodSel::Generic(g) if g.is_update() => {
                Err(self.poison(format!("{} is an update", g.name())))
            }
            MethodSel::Generic(g) => self.read_leaf(&inv, g),
            MethodSel::User(m) => {
                if !self.engine.deps.router.is_pure_reader(&inv) {
                    let name = self
                        .engine
                        .catalog
                        .method_def(inv.type_id, m)
                        .map(|d| d.name.clone())
                        .unwrap_or_else(|_| format!("{m:?}"));
                    return Err(self.poison(format!("method {name} may update")));
                }
                let (_, body) = self.engine.method(&inv, m)?;
                self.selves.push(inv.object);
                let out = body.run(self, &inv);
                self.selves.pop();
                out
            }
        }
    }

    fn self_object(&self) -> ObjectId {
        self.selves.last().copied().unwrap_or(DB_OBJECT)
    }

    /// Stashes feed compensation builders, which pure readers never have
    /// invoked on them.
    fn stash(&mut self, _v: Value) {}

    fn field(&self, obj: ObjectId, name: &str) -> Result<ObjectId> {
        self.engine.storage.field(obj, name)
    }

    fn type_of(&self, obj: ObjectId) -> Result<TypeId> {
        self.engine.storage.type_of(obj)
    }

    fn create_atomic(&mut self, _v: Value) -> Result<ObjectId> {
        Err(self.poison("creates an object".into()))
    }

    fn create_tuple(&mut self, _t: TypeId, _f: Vec<(String, ObjectId)>) -> Result<ObjectId> {
        Err(self.poison("creates an object".into()))
    }

    fn create_set(&mut self) -> Result<ObjectId> {
        Err(self.poison("creates an object".into()))
    }

    fn catalog(&self) -> &Catalog {
        &self.engine.catalog
    }

    // The leaf reads, straight from the store. The provided methods would
    // look up the object's type and build an `Invocation` for `invoke` to
    // take apart again, and `scan` would encode its pairs as a
    // `Value::List` only to decode them.

    fn get(&mut self, obj: ObjectId) -> Result<Value> {
        self.read(obj, |s| s.get_versioned(obj))
    }

    fn select(&mut self, set: ObjectId, key: u64) -> Result<Option<ObjectId>> {
        self.read(set, |s| s.set_select_versioned(set, key))
    }

    fn scan(&mut self, set: ObjectId) -> Result<Vec<(u64, ObjectId)>> {
        self.read(set, |s| s.set_scan_versioned(set))
    }
}
