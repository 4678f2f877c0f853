//! The fleet coordinator: routes transaction pieces to their owning
//! shards and drives one of two cross-shard commit protocols.
//!
//! **Semantic open-nested** (the paper's protocol lifted one level up):
//! each shard-local piece commits *early* as an ordinary open-nested
//! transaction, exposing its effects under commutativity-checked semantic
//! locks; the cross-shard window is covered not by held locks but by the
//! durably-logged compensation intent of every piece. A global abort
//! compensates committed pieces exactly like the paper's Section-3 abort
//! compensates committed subtransactions.
//!
//! **Presumed-abort 2PC** (the baseline): pieces prepare and then *hold
//! every low-level lock* until the coordinator's decision, serializing
//! every conflicting transaction across the fleet for the whole commit
//! round trip.
//!
//! Both protocols hand their pieces to one dispatch path (`dispatch.rs`)
//! that never creates a thread per transaction: open-nested pieces on a
//! fleet that simulates no latency run on the submitting thread, in shard
//! order; with latency to overlap — and always under 2PC, whose
//! participants must be live together — they go to parked, reused helpers.
//!
//! The coordinator's only durable state is its **decision log**. A commit
//! decision is logged before any shard learns it; absence of a decision
//! means abort (presumed abort). In-doubt participants — pieces prepared
//! on a shard that crashed before the decision reached it — resolve
//! deterministically against this log during shard recovery.

use crate::dispatch::{Dispatched, Dispatcher};
use crate::partition::PartitionMap;
use crate::rpc::{FleetFaults, RetryPolicy, RpcError, ShardLink};
use crate::shard::{DecisionGate, PieceAck, ShardConfig, ShardNode, ShardRecoveryReport};
use parking_lot::Mutex;
use semcc_core::{
    backoff_duration, read_image, EventJournal, FsyncPolicy, JournalKind, ProtocolConfig,
    ShardFaultPoint, Stats, StatsSnapshot, WalRecord, WalWriter,
};
use semcc_orderentry::{Database, DbParams, TxnSpec};
use semcc_semantics::{SemccError, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which cross-shard commit protocol a submission uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitProtocol {
    /// Pieces commit early under retained semantic locks; global abort
    /// compensates.
    OpenNested,
    /// Classic presumed-abort two-phase commit; pieces hold low-level
    /// locks across the cross-shard window.
    TwoPhase,
}

/// Fleet construction parameters.
#[derive(Clone)]
pub struct FleetConfig {
    /// Number of shards.
    pub n_shards: usize,
    /// Database parameters (each shard builds the same replica).
    pub db_params: DbParams,
    /// Locking protocol of every shard engine.
    pub protocol: ProtocolConfig,
    /// Lock-wait timeout backstop on every shard.
    pub lock_wait_timeout: Option<Duration>,
    /// Simulated per-leaf-operation latency on every shard.
    pub op_delay: Duration,
    /// Dist-event journal capacity per node (0 = disabled).
    pub journal_capacity: usize,
    /// Coordinator→shard retry budget.
    pub retry: RetryPolicy,
    /// Backoff / fault-schedule seed.
    pub seed: u64,
    /// Injected fleet fault, if any.
    pub fault: Option<ShardFaultPoint>,
    /// Piece re-runs after retryable engine aborts (deadlock, timeout).
    pub max_piece_retries: u32,
    /// Run every shard on flat object read/write locks instead of the
    /// semantic lock manager (the classic-2PC baseline's shards).
    pub low_level_2pl: bool,
    /// Simulated one-way coordinator→shard message latency. Charged per
    /// piece dispatch under both protocols and per decision delivery
    /// under 2PC — where it lands *inside* the participants' lock-hold
    /// window, which is exactly the classic 2PC cost the semantic
    /// open-nested protocol avoids by committing pieces early.
    pub net_delay: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            n_shards: 2,
            db_params: DbParams::default(),
            protocol: ProtocolConfig::semantic(),
            lock_wait_timeout: Some(Duration::from_millis(200)),
            op_delay: Duration::ZERO,
            journal_capacity: 0,
            retry: RetryPolicy::default(),
            seed: 1,
            fault: None,
            max_piece_retries: 8,
            low_level_2pl: false,
            net_delay: Duration::ZERO,
        }
    }
}

/// The shards and what a piece needs to reach one — shared with the
/// dispatch helpers, so a shipped job owns its data.
struct Fleet {
    cfg: FleetConfig,
    shards: Vec<Arc<ShardNode>>,
    faults: Arc<FleetFaults>,
    stats: Stats,
}

/// The coordinator plus its shards — one logical distributed database.
pub struct Coordinator {
    fleet: Arc<Fleet>,
    pmap: PartitionMap,
    dispatch: Dispatcher,
    decision_log: Arc<WalWriter>,
    /// In-memory mirror of the decision log (gtid → commit). Volatile:
    /// a coordinator crash clears it; recovery reparses the log.
    decisions: Mutex<BTreeMap<u64, bool>>,
    next_gtid: AtomicU64,
    journal: Option<Arc<EventJournal>>,
    down: AtomicBool,
    /// Gtids whose commit was acknowledged to the client, in ack order.
    acked: Mutex<Vec<u64>>,
}

impl Coordinator {
    /// Boot a fleet: N shards plus the coordinator.
    pub fn new(cfg: FleetConfig) -> Coordinator {
        let reference = Database::build(&cfg.db_params).expect("reference database build");
        let pmap = PartitionMap::new(&reference, cfg.n_shards);
        let faults = FleetFaults::new(cfg.fault);
        let shards = (0..cfg.n_shards)
            .map(|idx| {
                ShardNode::new(
                    ShardConfig {
                        idx,
                        db_params: cfg.db_params.clone(),
                        protocol: cfg.protocol,
                        lock_wait_timeout: cfg.lock_wait_timeout,
                        op_delay: cfg.op_delay,
                        journal_capacity: cfg.journal_capacity,
                        low_level_2pl: cfg.low_level_2pl,
                    },
                    Arc::clone(&faults),
                )
            })
            .collect();
        Coordinator {
            pmap,
            dispatch: Dispatcher::default(),
            decision_log: WalWriter::new(FsyncPolicy::EveryAppend),
            decisions: Mutex::new(BTreeMap::new()),
            next_gtid: AtomicU64::new(1),
            journal: (cfg.journal_capacity > 0)
                .then(|| Arc::new(EventJournal::new(cfg.journal_capacity))),
            down: AtomicBool::new(false),
            acked: Mutex::new(Vec::new()),
            fleet: Arc::new(Fleet { cfg, shards, faults, stats: Stats::default() }),
        }
    }

    /// The fleet's shards.
    pub fn shards(&self) -> &[Arc<ShardNode>] {
        &self.fleet.shards
    }

    /// The partition map.
    pub fn partition(&self) -> &PartitionMap {
        &self.pmap
    }

    /// Whether the coordinator is down (crashed mid-commit).
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::Acquire)
    }

    /// Gtids acked to the client, in ack order.
    pub fn acked(&self) -> Vec<u64> {
        self.acked.lock().clone()
    }

    /// Gtids with a durably logged **commit** decision, ascending.
    pub fn committed_gtids(&self) -> Vec<u64> {
        self.decisions.lock().iter().filter(|(_, c)| **c).map(|(g, _)| *g).collect()
    }

    /// Snapshot of the decision map (shard recovery resolves against it).
    pub fn decisions(&self) -> BTreeMap<u64, bool> {
        self.decisions.lock().clone()
    }

    /// The coordinator's dist-event journal, if enabled.
    pub fn journal(&self) -> Option<&Arc<EventJournal>> {
        self.journal.as_ref()
    }

    /// Fleet-wide counters: the coordinator's own plus every shard's.
    pub fn fleet_stats(&self) -> StatsSnapshot {
        let mut acc = self.fleet.stats.snapshot();
        for s in &self.fleet.shards {
            acc = crate::shard::merge_snapshots(&acc, &s.stats());
        }
        acc
    }

    /// Dispatch helper threads created so far: none under open-nested
    /// commit without simulated latency, else at most clients × shards.
    pub fn dispatch_threads_created(&self) -> usize {
        self.dispatch.threads_created()
    }

    fn journal_record(&self, kind: JournalKind, gtid: u64, aux: u64) {
        if let Some(j) = &self.journal {
            j.record(kind, gtid, 0, 0, 0, gtid, aux);
        }
    }

    fn log_decision(&self, gtid: u64, commit: bool) -> Result<(), RpcError> {
        let rec = if commit {
            WalRecord::TopCommit { top: gtid }
        } else {
            // Logged for prompt re-drive only: absence already means
            // abort (presumed abort), so losing this record is harmless.
            WalRecord::TopAbort { top: gtid }
        };
        self.decision_log.append(&rec).map_err(|_| RpcError::CoordinatorDown)?;
        self.decisions.lock().insert(gtid, commit);
        self.journal_record(JournalKind::ShardDecide, gtid, u64::from(commit));
        Ok(())
    }

    /// Acknowledge `gtid` to the client. A cross-shard transaction is
    /// counted here, once — not per attempt of a retried submission.
    fn ack(&self, gtid: u64, cross_shard: bool) {
        if cross_shard {
            Stats::bump(&self.fleet.stats.cross_shard_txns);
        }
        self.acked.lock().push(gtid);
    }

    /// Submit one transaction under `protocol`. Returns the gtid (for
    /// audits) alongside the outcome; the `Ok` value is the single
    /// piece's value, or a `Value::List` of piece values in shard order
    /// for a cross-shard transaction.
    pub fn submit(
        &self,
        spec: &TxnSpec,
        protocol: CommitProtocol,
    ) -> (u64, Result<Value, RpcError>) {
        let gtid = self.next_gtid.fetch_add(1, Ordering::Relaxed);
        if self.is_down() {
            return (gtid, Err(RpcError::CoordinatorDown));
        }
        let pieces = self.pmap.split(spec);
        // One-phase optimization: a single-shard transaction needs no
        // prepare round — every real 2PC system short-circuits it, and
        // charging the baseline for a round trip it would not make would
        // rig the comparison.
        let result = if protocol == CommitProtocol::TwoPhase && pieces.len() > 1 {
            self.commit_two_phase(gtid, pieces)
        } else {
            self.commit_open_nested(gtid, pieces)
        };
        (gtid, result)
    }

    fn commit_open_nested(
        &self,
        gtid: u64,
        pieces: Vec<(usize, TxnSpec)>,
    ) -> Result<Value, RpcError> {
        let cross_shard = pieces.len() > 1;
        let jobs = pieces.into_iter().map(|(shard, piece)| {
            let fleet = Arc::clone(&self.fleet);
            (shard, move || {
                fleet.net_pause();
                fleet.drive_piece(gtid, shard, &piece)
            })
        });
        // With simulated latency the pieces overlap, exactly like the 2PC
        // dispatch, so both protocols pay the same message latency and
        // the comparison isolates the lock-hold window; with none the
        // caller runs them itself.
        let mut out = self.dispatch.run(jobs, self.fleet.sleeps());
        if let Some(e) = out.failure.take() {
            // Global abort. Compensate the pieces already committed.
            let _ = self.log_decision(gtid, false);
            self.fleet.resolve(gtid, &out.acks, false);
            return Err(e);
        }
        // Every piece is locally durable: log the global commit decision.
        self.log_decision(gtid, true)?;
        if self.fleet.faults.coordinator_crash() {
            // Crash mid-commit: decided but neither the shards nor the
            // client ever hear it. Recovery re-drives the decision.
            self.crash();
            return Err(RpcError::CoordinatorDown);
        }
        self.fleet.resolve(gtid, &out.acks, true);
        self.ack(gtid, cross_shard);
        Ok(out.into_value())
    }

    fn commit_two_phase(
        &self,
        gtid: u64,
        pieces: Vec<(usize, TxnSpec)>,
    ) -> Result<Value, RpcError> {
        let gate = Arc::new(DecisionGate::default());
        let cohort = pieces.len();
        // Participants block on the gate holding their locks, so each
        // needs a thread of its own: all of them go to helpers.
        let jobs = pieces.into_iter().map(|(shard, piece)| {
            let (fleet, gate) = (Arc::clone(&self.fleet), Arc::clone(&gate));
            (shard, move || {
                fleet.net_pause();
                fleet.shards[shard].run_piece_2pc(gtid, &piece, &gate)
            })
        });
        let pending = self.dispatch.post(jobs, Some(&gate));
        let all_ready = gate.wait_votes(cohort);
        // Decision delivery: the participants sit on their locks for
        // this entire round trip.
        self.fleet.net_pause();
        // Presumed abort: the commit decision is durable before any
        // participant may release locks and finish.
        let commit = self.log_decision(gtid, all_ready).is_ok() && all_ready;
        gate.decide(commit);
        let mut out = pending.collect(Dispatched::default());
        if let Some(e) = out.failure.take() {
            return Err(e);
        }
        if !commit {
            return Err(RpcError::App(SemccError::Aborted("2pc vote failed".into())));
        }
        self.ack(gtid, true);
        Ok(out.into_value())
    }

    /// Base of [`Coordinator::submit_with_retry`]'s backoff, and its
    /// ceiling: the base after the six doublings the shared formula allows.
    const RETRY_BASE: Duration = Duration::from_micros(20);
    const RETRY_CAP: Duration = Duration::from_micros(20 << 6);

    /// Submit with transparent whole-transaction retries on contention
    /// aborts (the 2PC baseline needs this: cross-shard deadlocks are
    /// broken by lock-wait timeouts and retried). Returns the *last*
    /// gtid used and the number of aborted attempts.
    pub fn submit_with_retry(
        &self,
        spec: &TxnSpec,
        protocol: CommitProtocol,
        max_retries: u32,
    ) -> (u64, Result<Value, RpcError>, u32) {
        let mut retries = 0;
        loop {
            let (gtid, out) = self.submit(spec, protocol);
            match out {
                Err(ref e) if e.is_retryable_app() && retries < max_retries => {
                    retries += 1;
                    // Backoff seeded by the aborted attempt's gtid:
                    // immediate resubmission turns a hot-lock abort into
                    // a retry convoy that livelocks the whole fleet.
                    std::thread::sleep(backoff_duration(
                        Self::RETRY_BASE,
                        gtid,
                        retries,
                        Self::RETRY_CAP,
                    ));
                }
                other => return (gtid, other, retries),
            }
        }
    }

    /// Kill the coordinator: the decision map and any in-flight commit
    /// state are lost; only the decision log survives.
    pub fn crash(&self) {
        if self.down.swap(true, Ordering::AcqRel) {
            return;
        }
        self.decisions.lock().clear();
    }

    /// Recover the coordinator from its decision log and re-drive every
    /// logged decision to every live shard (resolution is idempotent;
    /// shards that are down resolve at their own recovery).
    pub fn recover(&self) -> Result<usize, String> {
        let image = self.decision_log.surviving_image();
        let parsed = read_image(&image).map_err(|e| format!("decision log parse: {e}"))?;
        let mut rebuilt: BTreeMap<u64, bool> = BTreeMap::new();
        for rec in &parsed.records {
            match rec {
                WalRecord::TopCommit { top } => {
                    rebuilt.insert(*top, true);
                }
                WalRecord::TopAbort { top } => {
                    rebuilt.insert(*top, false);
                }
                _ => {}
            }
        }
        *self.decisions.lock() = rebuilt.clone();
        self.down.store(false, Ordering::Release);
        let mut redriven = 0;
        for (gtid, commit) in &rebuilt {
            for shard in &self.fleet.shards {
                if !shard.is_dead() && shard.resolve(*gtid, *commit).is_ok() {
                    redriven += 1;
                }
            }
        }
        Ok(redriven)
    }

    /// Recover one crashed shard against the current decision map.
    pub fn recover_shard(&self, idx: usize) -> Result<ShardRecoveryReport, String> {
        let decisions = self.decisions();
        self.fleet.shards[idx].recover(&decisions)
    }
}

impl Fleet {
    /// Whether anything sleeps, i.e. concurrent pieces overlap something.
    fn sleeps(&self) -> bool {
        !(self.cfg.net_delay.is_zero() && self.cfg.op_delay.is_zero())
    }

    fn net_pause(&self) {
        if !self.cfg.net_delay.is_zero() {
            std::thread::sleep(self.cfg.net_delay);
        }
    }

    fn link(&self, gtid: u64, shard: usize) -> ShardLink<'_> {
        ShardLink {
            faults: &self.faults,
            policy: self.cfg.retry,
            stats: &self.stats,
            seed: self.cfg.seed ^ gtid.wrapping_mul(0x9e37_79b9) ^ shard as u64,
        }
    }

    /// Dispatch one piece to its shard, re-running it locally after
    /// retryable engine aborts (deadlock, lock timeout).
    fn drive_piece(&self, gtid: u64, shard: usize, piece: &TxnSpec) -> Result<PieceAck, RpcError> {
        let link = self.link(gtid, shard);
        let mut attempt = 0u32;
        loop {
            match link.call(|| self.shards[shard].run_piece(gtid, piece)) {
                Err(e) if e.is_retryable_app() && attempt < self.cfg.max_piece_retries => {
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Deliver the decision to every shard that acked a piece. A shard
    /// that is unreachable resolves at its own recovery (presumed abort).
    fn resolve(&self, gtid: u64, acks: &[(usize, PieceAck)], commit: bool) {
        for (s, _) in acks {
            let _ = self.link(gtid, *s).call(|| self.shards[*s].resolve(gtid, commit));
        }
    }
}
