//! One action of a transaction tree — the body of the paper's
//! `exec-transaction` (Figure 8): create the node, acquire its lock, run
//! it (a leaf against the store, a user method through its body), and
//! finish the node either way.

use super::ctx::{member_value, scan_value};
use super::lifecycle::Txn;
use super::Engine;
use crate::discipline::AcquireRequest;
use crate::fault::{injected_panic, FaultSite};
use crate::history::Event;
use crate::ids::NodeRef;
use crate::journal::JournalKind;
use crate::stats::Stats;
use crate::wal::{RedoOp, WalRecord};
use semcc_semantics::{
    Catalog, GenericMethod, Invocation, MethodContext, MethodId, MethodSel, ObjectId, Result,
    SemccError, Storage, TypeId, Value, TYPE_ATOMIC, TYPE_SET,
};
use std::sync::Arc;

impl Engine {
    /// Execute one action (create node → acquire lock → run → finish).
    /// Returns the result value and the compensation entries the parent
    /// must record for this (now committed) child. `caller_subtree` is the
    /// depth-1 ancestor's node index (0 at the root), threaded down so WAL
    /// records can tag every leaf with the subtree whose `SubCommit`
    /// governs its redo.
    pub(super) fn run_action(
        &self,
        txn: &Txn<'_>,
        parent: u32,
        caller_subtree: u32,
        inv: Invocation,
        compensating: bool,
    ) -> Result<(Value, Vec<Invocation>)> {
        let tree = &txn.tree;
        let inv = Arc::new(inv);
        let child = tree.add_child(parent, Arc::clone(&inv));
        // A direct child of the root *is* a depth-1 subtree root.
        let subtree = if parent == 0 { child } else { caller_subtree };
        let node = NodeRef { top: tree.top(), idx: child };
        self.deps.emit(|| Event::ActionStart {
            node,
            parent: NodeRef { top: node.top, idx: parent },
            inv: Arc::clone(&inv),
        });
        let leaves = txn.open_leaves.get();
        let done = self.perform(txn, node, parent, subtree, &inv, compensating);
        if parent == 0 && done.is_ok() {
            // Its `SubCommit` took the subtree's leaves off the log's list.
            txn.open_leaves.set(leaves);
        } else if !inv.method.is_generic() && txn.open_leaves.get() > leaves {
            // Any other user method that ended exposed its leaves — before
            // `finish_node` lets its locks go.
            self.log.expose_leaves(node.top.0, leaves);
        }
        self.finish_node(tree, child, done.is_ok());
        if done.is_ok() {
            self.deps.emit(|| Event::ActionComplete { node });
            self.journal_record(JournalKind::SubCommit, node, 0, 0);
        }
        done
    }

    /// Acquire → run → make the undo intent durable. Any `Err` fails the
    /// node.
    fn perform(
        &self,
        txn: &Txn<'_>,
        node: NodeRef,
        parent: u32,
        subtree: u32,
        inv: &Arc<Invocation>,
        compensating: bool,
    ) -> Result<(Value, Vec<Invocation>)> {
        let chain = txn.tree.chain(node.idx);
        let is_leaf = inv.method.is_generic();
        let writes = inv.method.as_generic().map(|g| g.is_update()).unwrap_or(true);
        self.discipline.acquire(AcquireRequest {
            node,
            inv,
            chain: &chain,
            is_leaf,
            writes,
            compensating,
        })?;

        // First mutating leaf on this object: declare write intent so
        // concurrent snapshot readers fail validation until the top-level
        // transaction finishes. Skipped when the storage keeps no stamps.
        if is_leaf && writes && self.snapshot_enabled {
            let mut written = txn.written.borrow_mut();
            if !written.contains(&inv.object) && self.storage.begin_object_write(inv.object).is_ok()
            {
                written.push(inv.object);
            }
        }

        let (value, comp) = match inv.method {
            MethodSel::Generic(g) => self.logged_mutation(
                txn,
                subtree,
                compensating,
                || self.apply_generic(txn, node, inv, g, compensating),
                |_| RedoOp::of(inv),
            )?,
            MethodSel::User(m) => {
                self.run_user_method(txn, node.idx, subtree, inv, m, compensating)?
            }
        };

        if self.log.is_on() && !compensating {
            let intent = if parent == 0 {
                // The depth-1 subtransaction committed: persist its
                // compensation intent (the paper's inverse invocations) as
                // the logical undo record.
                Some(WalRecord::SubCommit { top: node.top.0, subtree, comp: comp.clone() })
            } else if !comp.is_empty() && matches!(inv.method, MethodSel::User(_)) {
                // A deeper user-method subtransaction committed: finishing
                // the node retains its locks, which is the moment commuting
                // requestors may observe its effects (and embed them in
                // absolute leaf values they log). The undo intent must
                // therefore be durable *now* — the enclosing subtree's
                // `SubCommit`, which aggregates it, may never reach the log
                // if we crash mid-subtree. Generic leaves get no early
                // record: one record per exposed method, not per leaf. That
                // is sound as long as leaf writes whose method ancestors
                // commute (the only grants that expose a leaf early) happen
                // inside user submethods — true of the order-entry
                // matrices, where every absorbable write path runs through
                // `ChangeStatus`.
                Some(WalRecord::SubIntent { top: node.top.0, subtree, comp: comp.clone() })
            } else {
                None
            };
            if let Some(Err(e)) = intent.map(|rec| self.log.append(rec)) {
                // The subtransaction's effects are in the store but its
                // undo intent will never be durable: reverse them inline
                // (best-effort) before failing the node.
                let _ = self.compensate_list(txn, comp, false);
                return Err(e);
            }
        }
        Ok((value, comp))
    }

    /// A store mutation and its redo record, as one atomic unit with
    /// respect to the checkpointer: the barrier's read side is held across
    /// both, so a fuzzy checkpoint sees either (effect in dump, record below
    /// `cp_lsn`) or neither — never a dumped effect whose record survives to
    /// be replayed twice, nor a logged record whose effect the dump missed.
    /// The record is appended before the caller releases the mutation's
    /// lock, so the log's order respects the store's conflict order.
    ///
    /// `mutate` returns its result and the built-in inverse of what it did;
    /// `redo` names the record for that result (`None`: nothing to log). A
    /// forward record goes to the log with that inverse, which the writer
    /// holds for checkpoints until the subtree commits (see
    /// [`WalWriter::append_leaf`](crate::WalWriter::append_leaf)). A
    /// compensating mutation is logged as `CompRedo` (the logical CLR) —
    /// recovery repeats history, forward effects and compensations alike,
    /// because absolute leaf values embed the effects of concurrently
    /// exposed work that a later compensation undid — and quietly: a lost
    /// CLR means recovery re-derives the inverse from the intent list. If a
    /// forward record cannot be appended, the mutation is undone inline
    /// (best-effort — the transaction is aborting with a durability error
    /// regardless) once the barrier is released, since the undo re-enters
    /// it.
    fn logged_mutation<T>(
        &self,
        txn: &Txn<'_>,
        subtree: u32,
        compensating: bool,
        mutate: impl FnOnce() -> Result<(T, Vec<Invocation>)>,
        redo: impl FnOnce(&T) -> Option<RedoOp>,
    ) -> Result<(T, Vec<Invocation>)> {
        if !self.log.is_on() {
            return mutate();
        }
        let (out, inverse, logged) = {
            let _barrier = self.log.barrier();
            let (out, inverse) = mutate()?;
            let logged = match redo(&out) {
                Some(op) if compensating => {
                    self.log.append_quiet(WalRecord::CompRedo { top: txn.wal_top(), op });
                    Ok(())
                }
                Some(op) => {
                    let rec = WalRecord::LeafRedo { top: txn.top().0, subtree, op };
                    let logged = self.log.append_leaf(rec, &inverse);
                    logged.map(|()| txn.open_leaves.set(txn.open_leaves.get() + inverse.len()))
                }
                None => Ok(()),
            };
            (out, inverse, logged)
        };
        match logged {
            Ok(()) => Ok((out, inverse)),
            Err(e) => {
                let _ = self.compensate_list(txn, inverse, false);
                Err(e)
            }
        }
    }

    fn run_user_method(
        &self,
        txn: &Txn<'_>,
        child: u32,
        subtree: u32,
        inv: &Arc<Invocation>,
        m: MethodId,
        compensating: bool,
    ) -> Result<(Value, Vec<Invocation>)> {
        let (def, body) = self.method(inv, m)?;
        let mut ctx = ExecCtx::new(txn, child, subtree, compensating);
        // A panicking body becomes an ordinary `MethodPanicked` abort whose
        // committed children are compensated below, exactly like any other
        // failing method.
        let run = self.contain(|| {
            // Injected body panics model buggy *application* logic, so they
            // fire only on forward execution. Compensating bodies run the
            // system's own inverses — their fault knob is the dedicated
            // (and retried) compensation fault of `compensate_list`; a
            // non-retryable panic there would wedge the abort in a state no
            // audit can reconcile.
            let faults = self.faults.as_ref();
            if !compensating && faults.is_some_and(|plan| plan.should_fire(FaultSite::MethodBody)) {
                injected_panic("method-body");
            }
            body.run(&mut ctx, inv)
        });
        match run {
            Ok(ret) if compensating => Ok((ret, Vec::new())),
            Ok(ret) => {
                let comp = match &def.compensation {
                    // The method declares its own (semantic) inverse — it
                    // supersedes the children's compensations.
                    Some(f) => f(inv, &ret, &ctx.stash).into_iter().collect(),
                    // No declared inverse: inherit the children's
                    // compensations (structural compensation).
                    None => ctx.comp,
                };
                Ok((ret, comp))
            }
            Err(e) if compensating => Err(e),
            Err(e) => {
                // Eagerly roll back the partial subtransaction: compensate
                // its committed children before propagating the error.
                if e.is_abort() {
                    self.deps.wfg.begin_abort(txn.top());
                }
                let Err(ce) = self.compensate_list(txn, ctx.comp, false) else { return Err(e) };
                // Surface *both* failures: the compensation error is
                // chained onto the original abort cause instead of
                // shadowing it.
                self.deps.emit(|| Event::CompensationFailure {
                    top: txn.top(),
                    error: ce.to_string(),
                    original: e.to_string(),
                });
                let detail = match ce {
                    SemccError::CompensationFailed(m) => m,
                    other => other.to_string(),
                };
                Err(SemccError::CompensationFailed(format!("{detail}; original abort cause: {e}")))
            }
        }
    }

    /// Apply a generic (leaf) operation to the store, producing its
    /// built-in compensation.
    fn apply_generic(
        &self,
        txn: &Txn<'_>,
        node: NodeRef,
        inv: &Invocation,
        g: GenericMethod,
        compensating: bool,
    ) -> Result<(Value, Vec<Invocation>)> {
        // While the leaf's lock is held.
        self.page_delay();
        let obj = inv.object;
        match g {
            GenericMethod::Get => Ok((self.storage.get(obj)?, Vec::new())),
            GenericMethod::Put => {
                let new = inv.arg(0)?.clone();
                let old = self.storage.put(obj, new)?;
                Ok((Value::Unit, vec![Invocation::put(obj, inv.type_id, old)]))
            }
            GenericMethod::Select => {
                let key = inv.arg_key(0)?;
                Ok((member_value(self.storage.set_select(obj, key)?), Vec::new()))
            }
            GenericMethod::Insert => {
                let key = inv.arg_key(0)?;
                let member = inv.arg_id(1)?;
                self.storage.set_insert(obj, key, member)?;
                Ok((Value::Unit, vec![Invocation::remove(obj, inv.type_id, key)]))
            }
            GenericMethod::Remove => {
                let key = inv.arg_key(0)?;
                let removed = self.storage.set_remove(obj, key)?;
                let comp = removed
                    .map(|m| Invocation::insert(obj, inv.type_id, key, m))
                    .into_iter()
                    .collect();
                Ok((member_value(removed), comp))
            }
            GenericMethod::Scan => Ok((scan_value(self.storage.set_scan(obj)?), Vec::new())),
            GenericMethod::EscrowAdd => {
                let reservations = (!compensating).then_some(&txn.escrow);
                let delta = self.escrow.apply(&*self.storage, inv, reservations)?;
                Stats::bump(&self.deps.stats.escrow_grants);
                self.journal_record(JournalKind::EscrowGrant, node, obj.0, delta as u64);
                let comp = if compensating {
                    Vec::new()
                } else {
                    vec![Invocation::escrow_add(obj, inv.type_id, -delta)]
                };
                Ok((Value::Unit, comp))
            }
        }
    }
}

/// The execution context of one action on the locking path. Implements
/// [`MethodContext`]; method bodies see only the trait.
pub(super) struct ExecCtx<'a> {
    txn: &'a Txn<'a>,
    node_idx: u32,
    /// Depth-1 ancestor of this node (0 for the root context): the
    /// subtree tag of WAL records emitted below here.
    subtree: u32,
    stash: Vec<Value>,
    /// Compensations of committed children, chronological order.
    pub(super) comp: Vec<Invocation>,
    compensating: bool,
}

impl<'a> ExecCtx<'a> {
    pub(super) fn new(txn: &'a Txn<'a>, node_idx: u32, subtree: u32, compensating: bool) -> Self {
        ExecCtx { txn, node_idx, subtree, stash: Vec::new(), comp: Vec::new(), compensating }
    }

    /// Create an object as a logged mutation. A forward creation is
    /// recorded in the transaction's `created` list *before* its record is
    /// appended, so an append failure still leaves the object for the
    /// resulting abort to delete. A compensating creation is neither
    /// recorded nor logged.
    fn create(
        &mut self,
        make: impl FnOnce(&dyn Storage) -> Result<ObjectId>,
        redo: impl FnOnce(ObjectId) -> Option<RedoOp>,
    ) -> Result<ObjectId> {
        let (txn, forward) = (self.txn, !self.compensating);
        let mutate = || {
            let id = make(&*txn.engine.storage)?;
            if forward {
                txn.created.borrow_mut().push(id);
            }
            Ok((id, Vec::new()))
        };
        let created =
            txn.engine
                .logged_mutation(txn, self.subtree, self.compensating, mutate, |id| redo(*id));
        Ok(created?.0)
    }

    /// Whether a creation here writes a redo record (and so needs a copy of
    /// its payload).
    fn logs(&self) -> bool {
        self.txn.engine.log.is_on() && !self.compensating
    }
}

impl MethodContext for ExecCtx<'_> {
    fn invoke(&mut self, inv: Invocation) -> Result<Value> {
        let (value, comp) = self.txn.engine.run_action(
            self.txn,
            self.node_idx,
            self.subtree,
            inv,
            self.compensating,
        )?;
        self.comp.extend(comp);
        Ok(value)
    }

    fn self_object(&self) -> ObjectId {
        self.txn.tree.invocation(self.node_idx).object
    }

    fn stash(&mut self, v: Value) {
        self.stash.push(v);
    }

    fn field(&self, obj: ObjectId, name: &str) -> Result<ObjectId> {
        self.txn.engine.storage.field(obj, name)
    }

    fn type_of(&self, obj: ObjectId) -> Result<TypeId> {
        self.txn.engine.storage.type_of(obj)
    }

    fn create_atomic(&mut self, v: Value) -> Result<ObjectId> {
        let logged = self.logs().then(|| v.clone());
        self.create(
            |s| s.create_atomic(TYPE_ATOMIC, v),
            |id| logged.map(|value| RedoOp::CreateAtomic { id, type_id: TYPE_ATOMIC, value }),
        )
    }

    fn create_tuple(
        &mut self,
        type_id: TypeId,
        fields: Vec<(String, ObjectId)>,
    ) -> Result<ObjectId> {
        let logged = self.logs().then(|| fields.clone());
        self.create(
            |s| s.create_tuple(type_id, fields),
            |id| logged.map(|fields| RedoOp::CreateTuple { id, type_id, fields }),
        )
    }

    fn create_set(&mut self) -> Result<ObjectId> {
        let logs = self.logs();
        self.create(
            |s| s.create_set(TYPE_SET),
            |id| logs.then_some(RedoOp::CreateSet { id, type_id: TYPE_SET }),
        )
    }

    fn catalog(&self) -> &Catalog {
        &self.txn.engine.catalog
    }
}
