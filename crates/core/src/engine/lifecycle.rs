//! The life of a top-level transaction: one begin, one end.
//!
//! [`Engine::begin`] is the only place a transaction comes into being and
//! [`Engine::finish_top`] the only place one ends, whatever the outcome —
//! [`commit`](Engine::commit) and [`abort`](Engine::abort) do the work that
//! is particular to their outcome and then call it, and a [`Txn`] dropped
//! while still open (something unwound past both) calls it too.

use super::escrow::Reservations;
use super::Engine;
use crate::fault::FaultSite;
use crate::history::Event;
use crate::ids::{NodeRef, TopId};
use crate::journal::JournalKind;
use crate::stats::Stats;
use crate::tree::TxnTree;
use crate::wal::WalRecord;
use semcc_semantics::{Invocation, ObjectId, Result, SemccError};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// A live top-level transaction: its registry entry, its per-transaction
/// state and the unwinding backstop, as one value.
///
/// Dropping it while still open performs *hard containment*: no
/// compensation (if the abort path itself unwound, that is what just
/// failed), but [`Engine::finish_top`] releases the locks, aborts the
/// active nodes, wakes the waiters and leaves the registry and waits-for
/// graph, so no other transaction ever hangs on the wreck.
pub(super) struct Txn<'e> {
    pub(super) engine: &'e Engine,
    pub(super) tree: Arc<TxnTree>,
    /// Objects created by this transaction (deleted again on abort).
    pub(super) created: RefCell<Vec<ObjectId>>,
    /// Objects this transaction declared write intent on (first mutating
    /// leaf per object).
    pub(super) written: RefCell<Vec<ObjectId>>,
    /// Log this transaction's records under a different transaction id.
    /// Set only by recovery's loser compensations: the wrapper executes
    /// under its own fresh `TopId`, but its `CompRedo`/`CompApplied`
    /// records must carry the *loser's* id so a crash mid-recovery leaves
    /// a log a second pass analyzes correctly. An aliased transaction
    /// also logs no `TopCommit`/`TopAbort` of its own — recovery resolves
    /// the loser explicitly.
    wal_alias: Option<u64>,
    /// Leaves the log holds for this transaction's open depth-1 subtrees
    /// (see [`crate::WalWriter::append_leaf`]).
    pub(super) open_leaves: Cell<usize>,
    /// Set while a logged abort runs an inverse that is a single leaf: the
    /// leaf's `CompRedo` takes it and carries the inverse's progress mark.
    pub(super) mark_leaf: Cell<bool>,
    pub(super) escrow: Reservations,
    /// Cleared by `finish_top`.
    open: Cell<bool>,
}

impl Txn<'_> {
    pub(super) fn top(&self) -> TopId {
        self.tree.top()
    }

    /// The transaction id this transaction's WAL records carry.
    pub(super) fn wal_top(&self) -> u64 {
        self.wal_alias.unwrap_or(self.top().0)
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if self.open.get() {
            self.engine.finish_top(self, Ending::Contained);
        }
    }
}

/// How a top-level transaction ended.
pub(super) enum Ending<'a> {
    Committed,
    Aborted(&'a SemccError),
    /// Unwound past both `commit` and `abort`.
    Contained,
}

impl Engine {
    pub(super) fn begin(&self, label: impl FnOnce() -> String, wal_alias: Option<u64>) -> Txn<'_> {
        let tree = self.deps.registry.begin();
        self.deps.emit(|| Event::TopBegin { top: tree.top(), label: label() });
        Txn {
            engine: self,
            tree,
            created: RefCell::default(),
            written: RefCell::default(),
            wal_alias,
            open_leaves: Cell::new(0),
            mark_leaf: Cell::new(false),
            escrow: RefCell::default(),
            open: Cell::new(true),
        }
    }

    /// The end of every top-level transaction. Three orderings make up its
    /// contract; each is enforced here or by what the callers do *before*
    /// calling:
    ///
    /// 1. **Commit record before lock release** — `commit` appends
    ///    `TopCommit` before it calls here. A crash after release but
    ///    before the record would let dependents of an officially
    ///    uncommitted transaction commit.
    /// 2. **Write intents outlive the compensations** — `abort` compensates
    ///    before it calls here, so a snapshot reader that observed any of
    ///    this transaction's effects (forward or compensating) fails
    ///    validation while the abort is in flight. On commit the
    ///    commit-order number was drawn before the intents go, so a reader
    ///    that validates against our effects gets a larger one.
    /// 3. **Escrow reservations come off only once the store is settled** —
    ///    after the commit record, or after the compensations restored the
    ///    store; releasing earlier would let a concurrent guard count value
    ///    an abort is still about to take back. A contained transaction
    ///    may leave its deltas in the store; its reservations go anyway,
    ///    since a leaked one would depress the object's worst case forever.
    ///
    /// Nodes are marked and announced only *after* `top_finished`, so
    /// waiters wake into a world without our lock entries.
    /// The terminal event is the transaction's last.
    pub(super) fn finish_top(&self, txn: &Txn<'_>, ending: Ending<'_>) {
        let top = txn.top();
        // Best-effort: an abort may have garbage-collected the object.
        for o in txn.written.take() {
            self.storage.end_object_write(o);
        }
        self.escrow.release(&txn.escrow);
        self.discipline.top_finished(top);
        match ending {
            Ending::Committed => self.finish_node(&txn.tree, 0, true),
            Ending::Aborted(_) | Ending::Contained => {
                for idx in txn.tree.active_nodes() {
                    self.finish_node(&txn.tree, idx, false);
                }
            }
        }
        self.deps.registry.remove(top);
        self.deps.wfg.finished(top);
        self.top_ended(top, ending);
        txn.open.set(false);
    }

    /// Count and publish a top-level transaction's terminal event (also the
    /// whole ending of a snapshot commit, which holds nothing to release).
    pub(super) fn top_ended(&self, top: TopId, ending: Ending<'_>) {
        let stats = &self.deps.stats;
        let (counter, kind, aux) = match ending {
            Ending::Committed => (&stats.commits, JournalKind::TopCommit, 0),
            Ending::Aborted(_) => (&stats.aborts, JournalKind::TopAbort, 0),
            Ending::Contained => (&stats.aborts, JournalKind::TopAbort, 1),
        };
        Stats::bump(counter);
        self.deps.emit(|| match ending {
            Ending::Committed => Event::TopCommit { top },
            Ending::Aborted(reason) => Event::TopAbort { top, reason: reason.to_string() },
            Ending::Contained => {
                Event::TopAbort { top, reason: "unwound past abort: hard containment".into() }
            }
        });
        self.journal_record(kind, NodeRef::root(top), 0, aux);
    }

    /// A node reached its final state: mark it — which is also what turns
    /// the locks of a committed subtransaction's children into retained
    /// ones — let the discipline count (or, without retention, release)
    /// those (the root's went in `top_finished`), and only then wake its
    /// waiters.
    pub(super) fn finish_node(&self, tree: &TxnTree, idx: u32, committed: bool) {
        let waiters = if committed { tree.complete(idx) } else { tree.abort(idx) };
        if committed && idx != 0 {
            self.discipline.node_completed(tree, idx);
        }
        drop(waiters);
    }

    /// Make the transaction durable, then end it. `Err` leaves it open —
    /// the caller aborts it through the ordinary compensation path, so no
    /// transaction is ever acknowledged without a durable record.
    pub(super) fn commit(&self, txn: &Txn<'_>) -> Result<u64> {
        let top = txn.top();
        // Durability point; with `FsyncPolicy::OnCommit` this append is also
        // the group fsync. An aliased wrapper appends nothing: the loser's
        // resolution is recovery's to log.
        let draw = || self.next_commit_seq();
        let seq = match txn.wal_alias {
            None => self.log.append_commit(WalRecord::TopCommit { top: top.0 }, draw)?,
            Some(_) => draw(),
        };
        self.finish_top(txn, Ending::Committed);
        Ok(seq)
    }

    /// Undo the transaction by compensation, then end it.
    pub(super) fn abort(&self, txn: &Txn<'_>, comp: Vec<Invocation>, reason: &SemccError) {
        let top = txn.top();
        self.deps.wfg.begin_abort(top);
        // Compensate committed top-level children (and, transitively,
        // whatever they inherited), newest first. Failures here indicate a
        // schema without proper inverses (or an injected chaos fault); they
        // are surfaced in the event stream but cannot stop the abort.
        if let Err(e) = self.compensate_list(txn, comp, true) {
            self.deps.emit(|| Event::CompensationFailure {
                top,
                error: e.to_string(),
                original: reason.to_string(),
            });
        }
        // The store is restored, so the reservations can go before the
        // log append below rather than after it.
        self.escrow.release(&txn.escrow);
        for obj in txn.created.take().into_iter().rev() {
            // The compensations above unlinked it: a delete that fails (an
            // injected storage fault) leaves an unreachable object behind.
            let _ = self.storage.delete(obj);
        }
        // The abort is fully compensated. Recovery still replays this
        // transaction's forward *and* compensating effects (repeating
        // history keeps concurrently logged absolute values consistent)
        // but, seeing this record, runs no further compensation. A crash
        // before this record instead treats the transaction as a loser and
        // finishes the abort from the logged intents, minus the ones the
        // `CompApplied` markers show were already applied. The append is
        // quiet — losing it degrades a resolved abort into a loser, which
        // recovery handles.
        if txn.wal_alias.is_none() {
            self.log.append_quiet(WalRecord::TopAbort { top: top.0 });
        }
        self.finish_top(txn, Ending::Aborted(reason));
    }

    /// Execute compensations in reverse chronological order, retrying on
    /// contention aborts (deadlock victim or lock-wait timeout).
    /// `log_progress` marks each applied inverse in the log — set only by
    /// *top-level* aborts, whose intent list is what recovery reconstructs
    /// from `SubCommit` records; intra-subtransaction rollbacks must not
    /// inflate the marker count. An inverse that is a single leaf is
    /// marked by its own `CompRedo` (`applied`), any other by a
    /// `CompApplied` after it.
    pub(super) fn compensate_list(
        &self,
        txn: &Txn<'_>,
        comp: Vec<Invocation>,
        log_progress: bool,
    ) -> Result<()> {
        let top = txn.top();
        for inv in comp.into_iter().rev() {
            let mut attempts = 0;
            let one_leaf = log_progress && inv.method.is_generic();
            loop {
                txn.mark_leaf.set(one_leaf);
                self.deps.emit(|| Event::Compensate { top, inv: Arc::new(inv.clone()) });
                Stats::bump(&self.deps.stats.compensations);
                let node = NodeRef::root(top);
                self.journal_record(JournalKind::Compensation, node, inv.object.0, attempts.into());
                // An injected compensation fault is transient (a crashed
                // page write, say), so it takes the same arm as a
                // contention abort below: the recovery path exercises
                // `CompensationFailure` without being structurally
                // excluded from faults, and only a fault on every retry
                // becomes terminal.
                let injected = self
                    .faults
                    .as_ref()
                    .is_some_and(|plan| plan.should_fire(FaultSite::Compensation));
                let run = if injected {
                    Err(SemccError::FaultInjected("compensation".into()))
                } else {
                    self.run_action(txn, 0, 0, inv.clone(), true)
                };
                // Whether the inverse's own `CompRedo` carried the mark.
                let marked = one_leaf && !txn.mark_leaf.replace(false);
                match run {
                    Ok(_) => {
                        // Abort-progress marker: tells recovery how many of
                        // the loser's logged intents were already applied
                        // (the *last* k, since compensation runs newest
                        // first), so it only compensates the remainder.
                        // Quiet: abort progress lost to a poisoned log just
                        // means recovery re-runs an inverse it cannot know
                        // was applied.
                        if log_progress && !marked {
                            self.log.append_quiet(WalRecord::CompApplied { top: txn.wal_top() });
                        }
                        break;
                    }
                    Err(e)
                        if (injected || e.is_retryable()) && attempts < self.comp_retry_limit =>
                    {
                        // Seeded and jittered, like the top-level retry:
                        // colliding compensations (two aborts inverting the
                        // same object) must not retry in lockstep.
                        attempts += 1;
                        Stats::bump(&self.deps.stats.compensation_retries);
                        self.retry_backoff(top.0 ^ inv.object.0, attempts);
                    }
                    Err(e) => {
                        return Err(SemccError::CompensationFailed(format!("{inv}: {e}")));
                    }
                }
            }
        }
        Ok(())
    }
}
