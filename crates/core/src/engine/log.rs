//! The engine's view of the write-ahead log: every append, the checkpoint
//! trigger and their accounting. With no log attached every call is a no-op
//! that succeeds.

use crate::discipline::DisciplineDeps;
use crate::journal::{EventJournal, JournalKind};
use crate::stats::Stats;
use crate::wal::{AppendInfo, WalError, WalRecord, WalWriter};
use parking_lot::RwLockReadGuard;
use semcc_semantics::{Invocation, Result, SemccError, Storage};
use std::sync::Arc;

pub(super) struct EngineLog {
    wal: Option<Arc<WalWriter>>,
    stats: Arc<Stats>,
    journal: Option<Arc<EventJournal>>,
}

impl EngineLog {
    pub(super) fn new(wal: Option<Arc<WalWriter>>, deps: &DisciplineDeps) -> Self {
        EngineLog { wal, stats: Arc::clone(&deps.stats), journal: deps.journal.clone() }
    }

    pub(super) fn is_on(&self) -> bool {
        self.wal.is_some()
    }

    /// The error that poisoned the log (an I/O fault made durability
    /// unprovable), if any.
    pub(super) fn poisoned(&self) -> Option<WalError> {
        self.wal.as_ref().and_then(|w| w.poisoned())
    }

    /// The apply+append side of the checkpoint barrier (see
    /// [`WalWriter::checkpoint_guard`]).
    pub(super) fn barrier(&self) -> Option<RwLockReadGuard<'_, ()>> {
        self.wal.as_ref().map(|w| w.checkpoint_guard())
    }

    /// Append one record.
    ///
    /// `Err` means the record did **not** reach the log and never will
    /// (the writer is poisoned, or an I/O fault just poisoned it): the
    /// caller must not acknowledge the work the record describes.
    /// `Ok` covers the simulated-crash case too — a dead (crashed)
    /// writer silently drops appends, modeling work the machine lost in
    /// flight, which is precisely what recovery is tested against.
    pub(super) fn append(&self, rec: WalRecord) -> Result<()> {
        self.append_leaf(rec, &[])
    }

    /// [`EngineLog::append`] of a forward `LeafRedo`, handing the writer
    /// the leaf's inverse (see [`WalWriter::append_leaf`]).
    pub(super) fn append_leaf(&self, rec: WalRecord, undo: &[Invocation]) -> Result<()> {
        let Some(w) = &self.wal else { return Ok(()) };
        let info = self.durable(w.append_leaf(&rec, undo))?;
        self.account(info);
        Ok(())
    }

    /// See [`WalWriter::expose_leaves`].
    pub(super) fn expose_leaves(&self, top: u64, from: usize) {
        if let Some(w) = &self.wal {
            w.expose_leaves(top, from);
        }
    }

    /// Commit-record append that draws the commit-order number under the
    /// log's state lock (see [`WalWriter::append_commit`]): ascending LSN
    /// then implies ascending `commit_seq`, so snapshot-read validation
    /// order equals durable commit order even when a group-commit batch
    /// wakes its members out of append order.
    pub(super) fn append_commit(&self, rec: WalRecord, draw: impl FnOnce() -> u64) -> Result<u64> {
        let Some(w) = &self.wal else { return Ok(draw()) };
        let (info, seq) = self.durable(w.append_commit(&rec, draw))?;
        self.account(info);
        Ok(seq)
    }

    /// Abort-path append: a failure is counted but swallowed. The abort
    /// must run to completion regardless — a poisoned log already refuses
    /// every subsequent commit, so losing an abort-side record costs
    /// nothing recovery cannot reconstruct (an unresolved transaction is
    /// compensated from its logged intents).
    pub(super) fn append_quiet(&self, rec: WalRecord) {
        let _ = self.append(rec);
    }

    pub(super) fn wants_checkpoint(&self) -> bool {
        self.wal.as_ref().is_some_and(|w| w.wants_checkpoint())
    }

    /// Take a fuzzy checkpoint of `storage`; `wait` queues behind a
    /// checkpoint in flight instead of skipping.
    pub(super) fn checkpoint(&self, storage: &dyn Storage, wait: bool) -> Result<bool> {
        let Some(w) = &self.wal else { return Ok(false) };
        // Journalled from inside the cut, so only a checkpoint that won
        // the single flight on a healthy log leaves a `CheckpointBegin`.
        let capture = |since| {
            self.journal(JournalKind::CheckpointBegin, 0, 0);
            storage.checkpoint_delta(since)
        };
        let taken = if wait { w.checkpoint(capture) } else { w.try_checkpoint(capture) };
        let Some(outcome) = self.durable(taken)? else { return Ok(false) };
        Stats::bump(&self.stats.checkpoints);
        self.journal(JournalKind::CheckpointEnd, outcome.cp_lsn, outcome.bytes_dropped as u64);
        Ok(true)
    }

    /// The one place a log failure becomes the engine's typed error.
    fn durable<T>(&self, done: std::result::Result<T, WalError>) -> Result<T> {
        done.map_err(|e| {
            Stats::bump(&self.stats.wal_io_errors);
            SemccError::Durability(e.to_string())
        })
    }

    fn account(&self, info: AppendInfo) {
        if info.appended {
            Stats::bump(&self.stats.wal_appends);
            Stats::add(&self.stats.wal_bytes, info.bytes as u64);
        }
        if info.synced {
            Stats::bump(&self.stats.wal_fsyncs);
        }
        if info.durable && !info.synced {
            // A group-commit follower: durable on the back of a sync
            // another committer paid for.
            Stats::bump(&self.stats.wal_group_commits);
            self.journal(JournalKind::GroupCommit, info.lsn, 0);
        }
        if info.rotated {
            Stats::bump(&self.stats.wal_segments_rotated);
            self.journal(JournalKind::WalRotate, info.lsn, info.bytes as u64);
        }
    }

    fn journal(&self, kind: JournalKind, key: u64, aux: u64) {
        if let Some(j) = &self.journal {
            j.record(kind, 0, 0, 0, 0, key, aux);
        }
    }
}
