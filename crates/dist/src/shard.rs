//! One shard of the fleet: a full engine stack (store replica, semantic
//! engine, main WAL, recovery) plus the **participant** role of the
//! cross-shard commit protocols.
//!
//! ## Piece commit ordering (semantic open-nested path)
//!
//! A shard-local piece of global transaction `gtid` runs as an ordinary
//! open-nested transaction on the shard's engine, with one addition: the
//! engine's prepare hook durably appends a participant record
//! `SubCommit { top: gtid, subtree: local_top, comp }` to the shard's
//! **participant log** *before* the local commit record is written. The
//! invariant *prepare-record → local commit* resolves every crash window:
//!
//! * crash before the participant record — the local transaction is a
//!   loser; generic recovery rolls it back; the coordinator saw no ack
//!   and aborts globally. Nothing is in doubt.
//! * crash between participant record and local commit — the local
//!   transaction is still a loser (rolled back by generic recovery); the
//!   in-doubt entry resolves to abort with **nothing to compensate**,
//!   because the local piece never survived as a winner.
//! * crash after local commit, before the decision arrives — the piece
//!   survives as a winner; the in-doubt entry resolves from the
//!   coordinator's decision log: *commit* keeps it, *presumed abort*
//!   compensates it through the logged inverse invocations.
//!
//! An acked piece implies a durable local commit (the main WAL runs
//! [`FsyncPolicy::OnCommit`] and the ack checks the writer is alive), so
//! a *commit* decision can never meet a lost piece; the recovery path
//! treats that as a hard invariant violation.
//!
//! ## 2PC baseline
//!
//! The same prepare hook implements classic presumed-abort 2PC by
//! *blocking inside the hook*: the participant votes and then holds every
//! low-level lock until the coordinator's decision gate opens. Commit
//! lets the local transaction finish; abort fails the hook, and the
//! engine's ordinary abort path rolls the piece back. This is exactly the
//! "low-level locks held across shards" cost model the semantic protocol
//! is measured against.

use crate::rpc::{FleetFaults, RpcError};
use parking_lot::{Condvar, Mutex};
use semcc_baselines::FlatObject2pl;
use semcc_core::{
    read_image, recover_image, Engine, EventJournal, FsyncPolicy, JournalKind, ProtocolConfig,
    Stats, StatsSnapshot, TopId, WalConfig, WalRecord, WalWriter,
};
use semcc_orderentry::{Database, DbParams, TxnSpec};
use semcc_semantics::{IdMap, Invocation, SemccError, Storage, Value};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-shard construction parameters.
#[derive(Clone)]
pub struct ShardConfig {
    /// This shard's index in the fleet.
    pub idx: usize,
    /// Database parameters (every shard builds the same replica).
    pub db_params: DbParams,
    /// Locking protocol of the shard engine.
    pub protocol: ProtocolConfig,
    /// Lock-wait timeout backstop (breaks cross-shard 2PC deadlocks).
    pub lock_wait_timeout: Option<Duration>,
    /// Simulated per-leaf-operation latency.
    pub op_delay: Duration,
    /// Capacity of the shard's dist-event journal (0 = disabled).
    pub journal_capacity: usize,
    /// Replace the semantic lock manager with flat object read/write
    /// locks — the "classic" shard of the 2PC baseline, which has no
    /// commutativity knowledge to exploit.
    pub low_level_2pl: bool,
}

/// A successfully executed piece, as acknowledged to the coordinator.
#[derive(Clone, Debug)]
pub struct PieceAck {
    /// The piece's local transaction id on this shard.
    pub local_top: u64,
    /// The piece's return value.
    pub value: Value,
}

/// What one shard recovery did.
#[derive(Clone, Debug, Default)]
pub struct ShardRecoveryReport {
    /// Committed local transactions found in the surviving main log.
    pub winners: usize,
    /// Uncommitted local transactions rolled back by generic recovery.
    pub losers: usize,
    /// In-doubt global transactions resolved from the decision log.
    pub in_doubt: usize,
    /// In-doubt pieces kept (decision was commit).
    pub kept: usize,
    /// In-doubt pieces compensated (presumed abort, piece had survived).
    pub compensated: usize,
}

struct CompletedPiece {
    ack: PieceAck,
    comp: Vec<Invocation>,
}

struct ShardInner {
    db: Database,
    engine: Arc<Engine>,
    wal: Arc<WalWriter>,
    part_log: Arc<WalWriter>,
}

/// The decision gate of one 2PC global transaction: participants vote
/// ready and block until the coordinator decides.
#[derive(Default)]
pub struct DecisionGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    votes: usize,
    failed: bool,
    decision: Option<bool>,
}

impl DecisionGate {
    /// Participant: register a ready vote, then block until the decision.
    pub fn vote_and_wait(&self) -> bool {
        let mut st = self.state.lock();
        st.votes += 1;
        self.cv.notify_all();
        while st.decision.is_none() {
            self.cv.wait(&mut st);
        }
        st.decision.expect("loop exits on Some")
    }

    /// Participant: report a pre-vote failure (contention abort).
    pub fn fail(&self) {
        let mut st = self.state.lock();
        st.failed = true;
        self.cv.notify_all();
    }

    /// Coordinator: wait until all `expected` participants voted ready,
    /// or any of them failed. Returns whether the cohort is all-ready.
    pub fn wait_votes(&self, expected: usize) -> bool {
        let mut st = self.state.lock();
        while st.votes < expected && !st.failed {
            self.cv.wait(&mut st);
        }
        !st.failed && st.votes >= expected
    }

    /// Coordinator: publish the decision, releasing every participant.
    pub fn decide(&self, commit: bool) {
        let mut st = self.state.lock();
        st.decision = Some(commit);
        self.cv.notify_all();
    }
}

/// One shard node.
pub struct ShardNode {
    cfg: ShardConfig,
    inner: Mutex<Option<Arc<ShardInner>>>,
    /// Pieces executed and acked but not yet resolved, by gtid. Volatile —
    /// a crash clears it; recovery rebuilds the in-doubt set from the
    /// participant log.
    completed: Mutex<IdMap<u64, CompletedPiece>>,
    dead: AtomicBool,
    stats: Arc<Stats>,
    journal: Option<Arc<EventJournal>>,
    faults: Arc<FleetFaults>,
    /// Surviving log images captured at crash time (main, participant).
    crashed_state: Mutex<Option<(semcc_core::LogImage, semcc_core::LogImage)>>,
}

impl ShardNode {
    /// Boot a fresh shard.
    pub fn new(cfg: ShardConfig, faults: Arc<FleetFaults>) -> Arc<ShardNode> {
        let inner = Self::boot(&cfg, None);
        Arc::new(ShardNode {
            journal: (cfg.journal_capacity > 0)
                .then(|| Arc::new(EventJournal::new(cfg.journal_capacity))),
            cfg,
            inner: Mutex::new(Some(Arc::new(inner))),
            completed: Mutex::default(),
            dead: AtomicBool::new(false),
            stats: Arc::new(Stats::default()),
            faults,
            crashed_state: Mutex::new(None),
        })
    }

    fn boot(cfg: &ShardConfig, wal: Option<Arc<WalWriter>>) -> ShardInner {
        let db = Database::build(&cfg.db_params).expect("shard database build");
        let wal = wal.unwrap_or_else(|| WalWriter::new(FsyncPolicy::OnCommit));
        let mut builder =
            Engine::builder(Arc::clone(&db.store) as Arc<dyn Storage>, Arc::clone(&db.catalog))
                .protocol(cfg.protocol)
                .op_delay(cfg.op_delay)
                .wal(Arc::clone(&wal));
        if cfg.low_level_2pl {
            builder = builder
                .discipline(|deps| FlatObject2pl::new(deps) as Arc<dyn semcc_core::Discipline>);
        }
        if let Some(t) = cfg.lock_wait_timeout {
            builder = builder.lock_wait_timeout(t);
        }
        let engine = builder.build();
        let part_log = WalWriter::new(FsyncPolicy::EveryAppend);
        ShardInner { db, engine, wal, part_log }
    }

    /// This shard's index.
    pub fn idx(&self) -> usize {
        self.cfg.idx
    }

    /// Whether the shard is currently down.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// The dist-event journal, if enabled.
    pub fn journal(&self) -> Option<&Arc<EventJournal>> {
        self.journal.as_ref()
    }

    /// Shard counters: the engine's own plus the dist-side ones
    /// (prepares, in-doubt resolutions, crashes), merged field-wise.
    pub fn stats(&self) -> StatsSnapshot {
        let dist = self.stats.snapshot();
        let engine = self.inner.lock().as_ref().map(|i| i.engine.stats()).unwrap_or_default();
        merge_snapshots(&dist, &engine)
    }

    /// Run `f` against the live engine/store (`None` while crashed).
    pub fn with_live<T>(&self, f: impl FnOnce(&Arc<Engine>, &Database) -> T) -> Option<T> {
        let inner = self.inner.lock();
        inner.as_ref().map(|i| f(&i.engine, &i.db))
    }

    /// The live engine stack: one refcount bump under the lock, so a
    /// piece's critical section on `inner` is as short as it can be.
    fn live(&self) -> Result<Arc<ShardInner>, RpcError> {
        self.inner.lock().clone().ok_or(RpcError::ShardDown)
    }

    /// The participant record of `gtid`'s piece, durable before its local
    /// commit (the prepare hook of both protocols).
    fn log_prepare(
        &self,
        live: &ShardInner,
        gtid: u64,
        top: TopId,
        comp: &[Invocation],
    ) -> Result<(), SemccError> {
        live.part_log
            .append(&participant_record(gtid, top, comp)?)
            .map_err(|e| SemccError::Durability(format!("participant log: {e}")))?;
        Stats::bump(&self.stats.prepares);
        self.journal_record(JournalKind::ShardPrepare, gtid, self.cfg.idx as u64);
        Ok(())
    }

    fn journal_record(&self, kind: JournalKind, gtid: u64, aux: u64) {
        if let Some(j) = &self.journal {
            j.record(kind, gtid, 0, 0, 0, gtid, aux);
        }
    }

    /// Execute one piece of global transaction `gtid` under the semantic
    /// open-nested protocol: the piece commits early; its compensation
    /// intent is held (durably, in the participant log) for a possible
    /// global abort. Duplicate deliveries return the cached ack.
    pub fn run_piece(&self, gtid: u64, spec: &TxnSpec) -> Result<PieceAck, RpcError> {
        if self.is_dead() {
            return Err(RpcError::ShardDown);
        }
        if let Some(done) = self.completed.lock().get(&gtid) {
            return Ok(done.ack.clone());
        }
        if self.faults.crash_before_prepare() {
            self.crash();
            return Err(RpcError::ShardDown);
        }
        let live = self.live()?;
        let (_top, result) = live
            .engine
            .execute_open_prepared(spec, &mut |top, comp| self.log_prepare(&live, gtid, top, comp));
        match result {
            Ok((outcome, comp)) => {
                // Acked ⇒ durable: the commit record was fsynced under
                // OnCommit unless the device died under us.
                if live.wal.crashed() {
                    self.crash();
                    return Err(RpcError::ShardDown);
                }
                let ack = PieceAck { local_top: outcome.top.0, value: outcome.value };
                self.completed.lock().insert(gtid, CompletedPiece { ack: ack.clone(), comp });
                Ok(ack)
            }
            Err(e) => Err(RpcError::App(e)),
        }
    }

    /// Execute one piece under presumed-abort 2PC: vote at `gate` after
    /// the body succeeds, then hold every lock until the decision.
    pub fn run_piece_2pc(
        &self,
        gtid: u64,
        spec: &TxnSpec,
        gate: &DecisionGate,
    ) -> Result<PieceAck, RpcError> {
        if self.is_dead() {
            return Err(RpcError::ShardDown);
        }
        let live = self.live()?;
        let part_log = &live.part_log;
        let voted = std::cell::Cell::new(false);
        let (_top, result) = live.engine.execute_open_prepared(spec, &mut |top, comp| {
            self.log_prepare(&live, gtid, top, comp)?;
            voted.set(true);
            if gate.vote_and_wait() {
                Ok(())
            } else {
                Err(SemccError::Aborted("2pc global abort".into()))
            }
        });
        match result {
            Ok((outcome, _comp)) => {
                // A read-only piece served by the lock-free snapshot path
                // never enters the prepare hook (it holds no locks and
                // logs nothing); it must still vote ready so the cohort
                // can reach a decision. The decision itself is irrelevant
                // to it — there is nothing to undo.
                if !voted.get() {
                    let _ = gate.vote_and_wait();
                }
                // The global decision was commit and the piece is locally
                // resolved; nothing stays in doubt.
                let ack = PieceAck { local_top: outcome.top.0, value: outcome.value };
                let _ = part_log.append(&WalRecord::TopCommit { top: gtid });
                Ok(ack)
            }
            Err(e) => {
                let _ = part_log.append(&WalRecord::TopAbort { top: gtid });
                Err(RpcError::App(e))
            }
        }
    }

    /// Apply the coordinator's decision for `gtid`. Idempotent: an
    /// unknown (never-run, already-resolved, or lost-to-a-crash) gtid is
    /// a no-op — recovery resolves those from the logs instead.
    pub fn resolve(&self, gtid: u64, commit: bool) -> Result<(), RpcError> {
        if self.is_dead() {
            return Err(RpcError::ShardDown);
        }
        // The decided-but-unresolved window: the coordinator has durably
        // logged its decision, this shard dies before applying it.
        if self.faults.crash_after_decision() {
            self.crash();
            return Err(RpcError::ShardDown);
        }
        let Some(piece) = self.completed.lock().remove(&gtid) else { return Ok(()) };
        let live = self.live()?;
        let marker = if commit {
            WalRecord::TopCommit { top: gtid }
        } else {
            live.engine.compensate_transaction(piece.comp).map_err(RpcError::App)?;
            WalRecord::TopAbort { top: gtid }
        };
        live.part_log.append(&marker).map(|_| ()).map_err(|_| RpcError::ShardDown)
    }

    /// Kill the shard: both logs lose their unsynced tails, volatile
    /// state (engine, lock tables, the completed-piece map) is gone.
    /// Idempotent.
    pub fn crash(&self) {
        if self.dead.swap(true, Ordering::AcqRel) {
            return;
        }
        Stats::bump(&self.stats.shard_crashes);
        let mut inner = self.inner.lock();
        if let Some(i) = inner.take() {
            i.wal.power_fail();
            i.part_log.power_fail();
            *self.crashed_state.lock() =
                Some((i.wal.surviving_image(), i.part_log.surviving_image()));
        }
        self.completed.lock().clear();
    }

    /// Recover the shard from its surviving logs: generic WAL recovery
    /// first (winners replayed, losers compensated), then in-doubt
    /// resolution against the coordinator's `decisions` (gtid → commit;
    /// absence = presumed abort).
    pub fn recover(&self, decisions: &BTreeMap<u64, bool>) -> Result<ShardRecoveryReport, String> {
        self.recover_opts(decisions, false)
    }

    /// [`ShardNode::recover`] with an injectable mid-recovery crash: when
    /// `crash_mid` and at least one transaction is in doubt, the shard
    /// dies again right after resolving the first one — the double-crash
    /// case of the robustness matrix. The next `recover` call must
    /// converge without re-compensating.
    pub fn recover_opts(
        &self,
        decisions: &BTreeMap<u64, bool>,
        crash_mid: bool,
    ) -> Result<ShardRecoveryReport, String> {
        if !self.is_dead() {
            return Err(format!("shard {} is not crashed", self.cfg.idx));
        }
        let (main_image, part_image) = self
            .crashed_state
            .lock()
            .take()
            .ok_or_else(|| format!("shard {} has no crash image", self.cfg.idx))?;

        let base = Database::build(&self.cfg.db_params).map_err(|e| e.to_string())?;
        let resumed =
            WalWriter::resume(&main_image, FsyncPolicy::OnCommit, None, WalConfig::default())
                .map_err(|e| format!("main log resume: {e}"))?;
        let (engine, rr) = recover_image(
            &main_image,
            Arc::clone(&base.store),
            Arc::clone(&base.catalog),
            self.cfg.protocol,
            None,
            Some(Arc::clone(&resumed)),
        )
        .map_err(|e| format!("shard recovery: {e}"))?;
        let mut report =
            ShardRecoveryReport { winners: rr.winners, losers: rr.losers, ..Default::default() };

        // Which local transactions survived as winners?
        let winners: HashSet<u64> = read_image(&main_image)
            .map_err(|e| format!("main log parse: {e}"))?
            .records
            .iter()
            .filter_map(|r| match r {
                WalRecord::TopCommit { top } => Some(*top),
                _ => None,
            })
            .collect();

        // Fold the participant log: prepared pieces and their resolutions.
        let parsed = read_image(&part_image).map_err(|e| format!("participant log parse: {e}"))?;
        let mut prepared: BTreeMap<u64, (u64, Vec<Invocation>)> = BTreeMap::new();
        let mut resolved: HashSet<u64> = HashSet::new();
        for rec in &parsed.records {
            match rec {
                WalRecord::SubCommit { top, subtree, comp } => {
                    prepared.insert(*top, (u64::from(*subtree), comp.clone()));
                }
                WalRecord::TopCommit { top } | WalRecord::TopAbort { top } => {
                    resolved.insert(*top);
                }
                _ => {}
            }
        }
        let part_log =
            WalWriter::resume(&part_image, FsyncPolicy::EveryAppend, None, WalConfig::default())
                .map_err(|e| format!("participant log resume: {e}"))?;

        let mut crashed_mid = false;
        for (gtid, (local_top, comp)) in prepared {
            if resolved.contains(&gtid) {
                continue;
            }
            report.in_doubt += 1;
            let commit = decisions.get(&gtid).copied().unwrap_or(false);
            let survived = winners.contains(&local_top);
            if commit {
                // A commit decision implies the coordinator saw our ack,
                // and an ack implies the local commit was durable.
                if !survived {
                    return Err(format!(
                        "shard {}: acked piece of gtid {gtid} (local top {local_top}) \
                         lost across the crash — acked ⇒ durable violated",
                        self.cfg.idx
                    ));
                }
                part_log
                    .append(&WalRecord::TopCommit { top: gtid })
                    .map_err(|e| format!("resolution marker: {e}"))?;
                report.kept += 1;
                self.journal_record(JournalKind::InDoubtResolve, gtid, 1);
            } else {
                if survived {
                    engine
                        .compensate_transaction(comp)
                        .map_err(|e| format!("in-doubt compensation of gtid {gtid}: {e}"))?;
                    report.compensated += 1;
                }
                part_log
                    .append(&WalRecord::TopAbort { top: gtid })
                    .map_err(|e| format!("resolution marker: {e}"))?;
                self.journal_record(JournalKind::InDoubtResolve, gtid, 0);
            }
            Stats::bump(&self.stats.in_doubt_resolved);
            if crash_mid {
                crashed_mid = true;
                break;
            }
        }

        if crashed_mid {
            // Die again mid-recovery: the resumed logs (holding the
            // resolutions applied so far) are all that survives.
            Stats::bump(&self.stats.shard_crashes);
            resumed.power_fail();
            part_log.power_fail();
            *self.crashed_state.lock() =
                Some((resumed.surviving_image(), part_log.surviving_image()));
            return Err(format!("shard {} crashed mid-recovery (injected)", self.cfg.idx));
        }

        *self.inner.lock() =
            Some(Arc::new(ShardInner { db: base, engine, wal: resumed, part_log }));
        self.dead.store(false, Ordering::Release);
        Ok(report)
    }

    /// Post-run residue audit: live transactions, leaked lock entries and
    /// waits-for residue must all be zero on a quiescent shard. `None`
    /// while crashed.
    pub fn residue(&self) -> Option<ShardResidue> {
        self.with_live(|engine, _| {
            (engine.live_transactions(), engine.lock_entries(), engine.wfg_residue(), 0)
        })
    }
}

/// [`ShardNode::residue`] probe: (live transactions, lock entries,
/// waits-for residue, 0). BENCH-PINNED: `benchmark/src/checks.rs:103`
/// matches a fourth component, the constant `0`.
pub type ShardResidue = (usize, usize, (usize, usize, usize, usize), usize);

/// Field-wise sum of two snapshots (fleet and shard aggregation).
pub fn merge_snapshots(a: &StatsSnapshot, b: &StatsSnapshot) -> StatsSnapshot {
    let pairs: Vec<(&'static str, u64)> = a
        .field_pairs()
        .into_iter()
        .zip(b.field_pairs())
        .map(|((name, va), (_, vb))| (name, va.saturating_add(vb)))
        .collect();
    let borrowed: Vec<(&str, u64)> = pairs.iter().map(|&(n, v)| (n, v)).collect();
    StatsSnapshot::from_field_pairs(&borrowed)
}

/// The participant record of `gtid`'s piece. The frame stores the piece's
/// local transaction id in 32 bits and recovery widens it back to compare
/// against the main log's winners, so an id past `u32::MAX` cannot be
/// recorded faithfully: the prepare fails, rather than log an id recovery
/// would match against the wrong local transaction.
fn participant_record(gtid: u64, top: TopId, comp: &[Invocation]) -> Result<WalRecord, SemccError> {
    let subtree = u32::try_from(top.0).map_err(|_| {
        SemccError::Durability(format!(
            "participant log: local transaction id {} does not fit the record's 32-bit field",
            top.0
        ))
    })?;
    Ok(WalRecord::SubCommit { top: gtid, subtree, comp: comp.to_vec() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn participant_record_refuses_a_local_id_past_32_bits() {
        let rec = participant_record(7, TopId(u64::from(u32::MAX)), &[]).unwrap();
        assert_eq!(rec, WalRecord::SubCommit { top: 7, subtree: u32::MAX, comp: vec![] });
        let err = participant_record(7, TopId(u64::from(u32::MAX) + 1), &[]).unwrap_err();
        assert!(matches!(err, SemccError::Durability(_)), "typed, not truncated: {err:?}");
    }
}
