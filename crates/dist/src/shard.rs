//! One shard of the fleet: a full engine stack (store replica, semantic
//! engine, one write-ahead log, recovery) plus the **participant** role of
//! the cross-shard commit protocols.
//!
//! ## Piece commit ordering (both protocols)
//!
//! A shard-local piece of global transaction `gtid` runs as an ordinary
//! open-nested transaction on the shard's engine, with one addition: the
//! engine's prepare hook appends the piece's participant record
//! `Prepared { gtid, local, comp }` to the shard's log after the piece's
//! leaves and before its local `TopCommit`, and applying the coordinator's
//! decision appends `Resolved { gtid, commit }` after both. Neither record
//! belongs to a local transaction, so generic recovery skips them. A crash
//! leaves a prefix of the shard's log and of the coordinator's decision
//! log, and where the shard's prefix ends decides every class of cut:
//!
//! * before `Prepared` — the piece's leaves at most: the local
//!   transaction is a loser; generic recovery rolls it back; the
//!   coordinator saw no ack and aborts globally. Nothing is in doubt.
//! * between `Prepared` and the local commit — the local transaction is
//!   still a loser (rolled back by generic recovery); the in-doubt entry
//!   resolves to abort with **nothing to compensate**, because the local
//!   piece never survived as a winner.
//! * after the local commit, before `Resolved` — the piece survives as a
//!   winner; the in-doubt entry resolves from the coordinator's decision
//!   log: *commit* keeps it, *presumed abort* compensates it through the
//!   logged inverse invocations.
//!
//! A piece that fails after its prepare record gets no marker: it stays
//! in doubt until the shard next recovers, which resolves it to abort
//! with nothing to undo. Markers are appended only by
//! [`ShardNode::resolve`] and [`recover_logs`].
//!
//! A global abort's compensation is logged under the piece's own local id
//! and closed by that id's `TopAbort`, synced before the marker is
//! appended behind it. So the log says how many of the piece's inverses
//! already ran, and a cut anywhere inside the compensation makes recovery
//! run only the rest. The marker itself gets no sync: if a crash loses
//! it, recovery resolves the piece again, idempotently — a commit is kept,
//! and an abort finds the piece's synced `TopAbort` and undoes nothing
//! twice.
//!
//! An acked piece implies a durable local commit (the log runs
//! [`FsyncPolicy::OnCommit`], whose sync of the `TopCommit` covers the
//! `Prepared` before it, and the ack checks the writer is alive), so a
//! *commit* decision can never meet a lost piece; the recovery path
//! treats that as a hard invariant violation.
//!
//! ## 2PC baseline
//!
//! A 2PC piece differs in one place: its prepare hook forces the log,
//! `Prepared` included, then votes at the transaction's `DecisionGate`
//! and blocks there *holding every low-level lock* until every sibling
//! has voted. An open gate lets the local commit proceed; a failed sibling
//! fails the hook, and the engine's ordinary abort path rolls the piece
//! back. This is the "low-level locks held across shards" cost the
//! semantic protocol is measured against. From the local commit on, both
//! protocols are the same: the coordinator decides once every piece has
//! returned.

use crate::rpc::{FleetFaults, RpcError};
use parking_lot::{Condvar, Mutex};
use semcc_baselines::FlatObject2pl;
use semcc_core::wal::checkpoint::fold;
use semcc_core::{
    read_image, recover_image, Engine, EventJournal, FsyncPolicy, JournalKind, LogImage,
    ProtocolConfig, Stats, StatsSnapshot, TopId, WalConfig, WalRecord, WalWriter,
};
use semcc_orderentry::{Database, DbParams, TxnSpec};
use semcc_semantics::{IdMap, Invocation, SemccError, Storage, Value};
use std::collections::BTreeMap;
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
    /// In-doubt global transactions resolved from the decision log, as
    /// `(gtid, commit)` in gtid order.
    pub resolved: Vec<(u64, bool)>,
    /// In-doubt pieces compensated (presumed abort, piece had survived).
    pub compensated: usize,
}

struct CompletedPiece {
    ack: PieceAck,
    comp: Vec<Invocation>,
}

/// A shard's engine stack, as boot or [`recover_logs`] builds it.
pub struct ShardStack {
    /// The shard's replica.
    pub db: Database,
    /// The engine over it.
    pub engine: Arc<Engine>,
    /// The write-ahead log: local transactions, and each piece's
    /// `Prepared` and `Resolved` records.
    pub wal: Arc<WalWriter>,
    /// Pieces executed and acked but not yet resolved, by gtid. Volatile:
    /// it belongs to this incarnation, so a crash drops it, and recovery
    /// rebuilds the in-doubt set from the log.
    completed: Mutex<IdMap<u64, CompletedPiece>>,
}

/// The gate of one 2PC global transaction: participants vote ready and
/// block, holding their locks, until the coordinator opens it.
#[derive(Default)]
pub(crate) struct DecisionGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    votes: usize,
    failed: bool,
    open: Option<bool>,
}

impl DecisionGate {
    /// Participant: register a ready vote, then block until the gate
    /// opens. Returns whether the local commit may proceed.
    pub fn vote_and_wait(&self) -> bool {
        let mut st = self.state.lock();
        st.votes += 1;
        self.cv.notify_all();
        while st.open.is_none() {
            self.cv.wait(&mut st);
        }
        st.open.expect("loop exits on Some")
    }

    /// Participant: report a failure (contention abort, crash).
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

    /// Coordinator: open the gate, releasing every participant to commit
    /// locally (`proceed`) or to roll back.
    pub fn open(&self, proceed: bool) {
        let mut st = self.state.lock();
        st.open = Some(proceed);
        self.cv.notify_all();
    }
}

/// A shard is up with its engine stack, or down with the log image its
/// crash left.
enum Incarnation {
    Live(Arc<ShardStack>),
    Down(LogImage),
}

/// One shard node.
pub struct ShardNode {
    cfg: ShardConfig,
    state: Mutex<Incarnation>,
    stats: Arc<Stats>,
    journal: Option<Arc<EventJournal>>,
}

impl ShardNode {
    /// Boot a fresh shard. Nothing reads `_faults`: transport faults fire
    /// in the coordinator's [`ShardLink`](crate::ShardLink), before a
    /// request reaches the shard. BENCH-PINNED: `benchmark/src/probes.rs:329`
    /// passes it.
    pub fn new(cfg: ShardConfig, _faults: Arc<FleetFaults>) -> Arc<ShardNode> {
        let stack = Self::boot(&cfg);
        Arc::new(ShardNode {
            journal: (cfg.journal_capacity > 0)
                .then(|| Arc::new(EventJournal::new(cfg.journal_capacity))),
            cfg,
            state: Mutex::new(Incarnation::Live(Arc::new(stack))),
            stats: Arc::new(Stats::default()),
        })
    }

    fn boot(cfg: &ShardConfig) -> ShardStack {
        let db = Database::build(&cfg.db_params).expect("shard database build");
        let wal = WalWriter::new(FsyncPolicy::OnCommit);
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
        ShardStack { db, engine: builder.build(), wal, completed: Mutex::default() }
    }

    /// This shard's index.
    pub fn idx(&self) -> usize {
        self.cfg.idx
    }

    /// Whether the shard is currently down.
    pub fn is_dead(&self) -> bool {
        self.live().is_err()
    }

    /// The dist-event journal, if enabled.
    pub fn journal(&self) -> Option<&Arc<EventJournal>> {
        self.journal.as_ref()
    }

    /// Shard counters: the engine's own plus the dist-side ones
    /// (prepares, in-doubt resolutions, crashes), merged field-wise.
    pub fn stats(&self) -> StatsSnapshot {
        let engine = self.live().map(|live| live.engine.stats()).unwrap_or_default();
        merge_snapshots(&self.stats.snapshot(), &engine)
    }

    /// Run `f` against the live engine/store (`None` while crashed).
    pub fn with_live<T>(&self, f: impl FnOnce(&Arc<Engine>, &Database) -> T) -> Option<T> {
        self.live().ok().map(|live| f(&live.engine, &live.db))
    }

    /// The log image a crash would leave if every buffered byte made it
    /// (`None` while crashed).
    pub fn log_images(&self) -> Option<LogImage> {
        Some(self.live().ok()?.wal.surviving_image())
    }

    /// The live incarnation: one refcount bump under the lock, which no
    /// piece holds while it runs.
    fn live(&self) -> Result<Arc<ShardStack>, RpcError> {
        match &*self.state.lock() {
            Incarnation::Live(live) => Ok(Arc::clone(live)),
            Incarnation::Down(..) => Err(RpcError::ShardDown),
        }
    }

    /// The participant record of `gtid`'s piece, logged before its local
    /// commit (the prepare hook of both protocols); under 2PC (`force`),
    /// durable before the vote.
    fn log_prepare(
        &self,
        live: &ShardStack,
        gtid: u64,
        top: TopId,
        comp: &[Invocation],
        force: bool,
    ) -> Result<(), SemccError> {
        let rec = WalRecord::Prepared { gtid, local: top.0, comp: comp.to_vec() };
        let fail = |e: String| SemccError::Durability(format!("prepare of gtid {gtid}: {e}"));
        live.wal.append(&rec).map_err(|e| fail(e.to_string()))?;
        if force && !live.wal.flush() {
            return Err(fail("the log did not sync".into()));
        }
        Stats::bump(&self.stats.prepares);
        self.journal_record(JournalKind::ShardPrepare, gtid, self.cfg.idx as u64);
        Ok(())
    }

    fn journal_record(&self, kind: JournalKind, gtid: u64, aux: u64) {
        if let Some(j) = &self.journal {
            j.record(kind, gtid, 0, 0, 0, gtid, aux);
        }
    }

    /// Execute one piece of global transaction `gtid`: the piece commits
    /// early; its compensation intent is held (durably, in its `Prepared`
    /// record) for a possible global abort. Duplicate deliveries return the
    /// cached ack.
    pub fn run_piece(&self, gtid: u64, spec: &TxnSpec) -> Result<PieceAck, RpcError> {
        self.piece(gtid, spec, None)
    }

    /// [`ShardNode::run_piece`], and under 2PC the participant's vote: with
    /// a `gate`, the prepare hook votes once the `Prepared` record is
    /// durable and holds every lock until the gate opens.
    pub(crate) fn piece(
        &self,
        gtid: u64,
        spec: &TxnSpec,
        gate: Option<&DecisionGate>,
    ) -> Result<PieceAck, RpcError> {
        let live = self.live()?;
        if let Some(done) = live.completed.lock().get(&gtid) {
            return Ok(done.ack.clone());
        }
        let mut voted = false;
        let (_top, result) = live.engine.execute_open_prepared(spec, &mut |top, comp| {
            self.log_prepare(&live, gtid, top, comp, gate.is_some())?;
            voted = true;
            match gate {
                Some(gate) if !gate.vote_and_wait() => {
                    Err(SemccError::Aborted("2pc global abort".into()))
                }
                _ => Ok(()),
            }
        });
        let (outcome, comp) = result.map_err(RpcError::App)?;
        if let (Some(gate), false) = (gate, voted) {
            // A read-only piece served by the lock-free snapshot path never
            // enters the prepare hook: it holds no locks and has nothing to
            // undo, but must still vote so the cohort's gate can open.
            gate.vote_and_wait();
        }
        // Acked ⇒ durable: the commit record was fsynced under OnCommit
        // unless a crash killed the device under us.
        if live.wal.crashed() {
            return Err(RpcError::ShardDown);
        }
        let ack = PieceAck { local_top: outcome.top.0, value: outcome.value };
        live.completed.lock().insert(gtid, CompletedPiece { ack: ack.clone(), comp });
        Ok(ack)
    }

    /// Apply the coordinator's decision for `gtid`. Idempotent: an
    /// unknown (never-run, already-resolved, or lost-to-a-crash) gtid is
    /// a no-op — recovery resolves those from the logs instead.
    pub fn resolve(&self, gtid: u64, commit: bool) -> Result<(), RpcError> {
        let live = self.live()?;
        let Some(piece) = live.completed.lock().remove(&gtid) else { return Ok(()) };
        if !commit {
            compensate_piece(&live, piece.ack.local_top, piece.comp, 0).map_err(RpcError::App)?;
        }
        let marker = WalRecord::Resolved { gtid, commit };
        live.wal.append(&marker).map(|_| ()).map_err(|_| RpcError::ShardDown)
    }

    /// Kill the shard: the log loses its unsynced tail, and the live
    /// incarnation (engine, lock tables, the completed-piece table) is
    /// gone. Idempotent.
    pub fn crash(&self) {
        let mut state = self.state.lock();
        let Incarnation::Live(live) = &*state else { return };
        live.wal.power_fail();
        *state = Incarnation::Down(live.wal.surviving_image());
        Stats::bump(&self.stats.shard_crashes);
    }

    /// Recover the crashed shard from its surviving logs through
    /// [`recover_logs`], against the coordinator's `decisions`, and bring
    /// it back up.
    pub fn recover(&self, decisions: &BTreeMap<u64, bool>) -> Result<ShardRecoveryReport, String> {
        let mut state = self.state.lock();
        let Incarnation::Down(image) = &*state else {
            return Err(format!("shard {} is not crashed", self.cfg.idx));
        };
        let (stack, report) =
            recover_logs(&self.cfg.db_params, self.cfg.protocol, image, decisions)
                .map_err(|e| format!("shard {}: {e}", self.cfg.idx))?;
        for &(gtid, commit) in &report.resolved {
            Stats::bump(&self.stats.in_doubt_resolved);
            self.journal_record(JournalKind::InDoubtResolve, gtid, u64::from(commit));
        }
        *state = Incarnation::Live(Arc::new(stack));
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

/// Recover one shard from the surviving image of its log: generic WAL
/// recovery first (winners replayed, losers compensated), then every
/// `Prepared` piece without a `Resolved` marker resolved against
/// `decisions` (gtid → commit; absence = presumed abort). Recovery logs
/// its own work into the resumed log of the stack it returns.
/// [`ShardNode::recover`] runs this on its crash image, and the fleet cut
/// audit of `sim::chaos` on every consistent cut of a finished run.
/// Shards never checkpoint, so `main` holds every record.
pub fn recover_logs(
    db_params: &DbParams,
    protocol: ProtocolConfig,
    main: &LogImage,
    decisions: &BTreeMap<u64, bool>,
) -> Result<(ShardStack, ShardRecoveryReport), String> {
    // What the log says of each local transaction — whether it committed,
    // how far a global abort's compensation of it got — and which
    // prepared pieces no marker resolved yet.
    let parsed = read_image(main).map_err(|e| format!("shard log parse: {e}"))?;
    let (mut tops, mut in_doubt) = (BTreeMap::new(), BTreeMap::new());
    for (i, rec) in parsed.records.into_iter().enumerate() {
        fold(&mut tops, parsed.base_lsn + i as u64, &rec);
        match rec {
            WalRecord::Prepared { gtid, local, comp } => {
                in_doubt.insert(gtid, (local, comp));
            }
            WalRecord::Resolved { gtid, .. } => {
                in_doubt.remove(&gtid);
            }
            _ => {}
        }
    }

    let db = Database::build(db_params).map_err(|e| e.to_string())?;
    let wal = WalWriter::resume(main, FsyncPolicy::OnCommit, None, WalConfig::default())
        .map_err(|e| format!("shard log resume: {e}"))?;
    let (engine, _) = recover_image(
        main,
        Arc::clone(&db.store),
        Arc::clone(&db.catalog),
        protocol,
        None,
        Some(Arc::clone(&wal)),
    )
    .map_err(|e| format!("shard recovery: {e}"))?;
    let stack = ShardStack { db, engine, wal, completed: Mutex::default() };
    let mut report = ShardRecoveryReport::default();

    for (gtid, (local_top, comp)) in in_doubt {
        let commit = decisions.get(&gtid).copied().unwrap_or(false);
        let piece = tops.get(&local_top).filter(|t| t.committed);
        if commit {
            // A commit decision implies the coordinator saw our ack, and
            // an ack implies the local commit was durable.
            if piece.is_none() {
                return Err(format!(
                    "acked piece of gtid {gtid} (local top {local_top}) lost across the \
                     crash — acked ⇒ durable violated"
                ));
            }
        } else if let Some(t) = piece.filter(|t| !t.aborted) {
            // Presumed abort. A piece that never survived as a winner was
            // rolled back above; one that did is compensated, or what is
            // left of its compensation if a crash cut that short.
            compensate_piece(&stack, local_top, comp, t.comp_applied as usize)
                .map_err(|e| format!("in-doubt compensation of gtid {gtid}: {e}"))?;
            report.compensated += 1;
        }
        let marker = WalRecord::Resolved { gtid, commit };
        stack.wal.append(&marker).map_err(|e| format!("resolution marker: {e}"))?;
        report.resolved.push((gtid, commit));
    }
    Ok((stack, report))
}

/// Undo committed piece `local_top` after a global abort: run the inverses
/// of `comp` that are not yet applied — the last `applied` of them ran
/// before a crash, since compensation runs newest first — logged under the
/// piece's own id, then close the piece with a `TopAbort` of that id. Under
/// [`FsyncPolicy::OnCommit`] that record is synced before this returns, and
/// the resolution marker the caller appends next follows it in the log.
fn compensate_piece(
    live: &ShardStack,
    local_top: u64,
    mut comp: Vec<Invocation>,
    applied: usize,
) -> Result<(), SemccError> {
    comp.truncate(comp.len().saturating_sub(applied));
    live.engine.compensate_transaction_as(comp, Some(local_top))?;
    live.wal
        .append(&WalRecord::TopAbort { top: local_top })
        .map(|_| ())
        .map_err(|e| SemccError::Durability(format!("abort record of piece {local_top}: {e}")))
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
