//! The fleet coordinator: routes transaction pieces to their owning
//! shards and commits them through one cross-shard commit function under
//! one of two protocols.
//!
//! **Semantic open-nested** (the paper's protocol lifted one level up):
//! each shard-local piece commits *early* as an ordinary open-nested
//! transaction, exposing its effects under commutativity-checked semantic
//! locks; the cross-shard window is covered not by held locks but by the
//! durably-logged compensation intent of every piece. A global abort
//! compensates committed pieces exactly like the paper's Section-3 abort
//! compensates committed subtransactions.
//!
//! **Presumed-abort 2PC** (the baseline): each piece, once prepared,
//! votes and *holds every low-level lock* until every sibling has voted,
//! serializing every conflicting transaction across the fleet for the
//! vote round trip. A 2PC piece is delivered once, never retried.
//!
//! Everything else is shared. Both protocols hand their pieces to one
//! dispatch path (`dispatch.rs`) that never creates a thread per
//! transaction: open-nested pieces on a fleet that simulates no latency
//! run on the submitting thread, in shard order; with latency to overlap
//! — and always under 2PC, whose participants must be live together —
//! they go to parked, reused helpers. Once every piece has returned, the
//! coordinator logs its decision: commit only if every piece committed
//! locally. It then resolves each committed piece, which writes the
//! shard's marker, and on an abort compensates the piece first.
//!
//! The coordinator's only durable state is its **decision log**. A
//! decision is logged before any shard or client learns it; absence of a
//! decision means abort (presumed abort). In-doubt participants — pieces
//! prepared on a shard that crashed before the decision reached it —
//! resolve deterministically against this log during shard recovery.

use crate::dispatch::{Dispatched, Dispatcher};
use crate::partition::PartitionMap;
use crate::rpc::{FleetFaults, RetryPolicy, RpcError, ShardFaultPoint, ShardLink};
use crate::shard::{DecisionGate, PieceAck, ShardConfig, ShardNode};
use parking_lot::Mutex;
use semcc_core::{
    backoff_duration, read_image, EventJournal, FsyncPolicy, JournalKind, LogImage, ProtocolConfig,
    Stats, StatsSnapshot, WalRecord, WalWriter,
};
use semcc_orderentry::{Database, DbParams, TxnSpec};
use semcc_semantics::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// Injected transport fault, if any.
    pub fault: Option<ShardFaultPoint>,
    /// Piece re-runs after retryable engine aborts (deadlock, timeout).
    pub max_piece_retries: u32,
    /// Run every shard on flat object read/write locks instead of the
    /// semantic lock manager (the classic-2PC baseline's shards).
    pub low_level_2pl: bool,
    /// Simulated one-way coordinator→shard message latency. Charged per
    /// piece dispatch under both protocols and per gate opening under
    /// 2PC — where it lands *inside* the participants' lock-hold window,
    /// which is exactly the classic 2PC cost the semantic open-nested
    /// protocol avoids by committing pieces early.
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
    next_gtid: AtomicU64,
    journal: Option<Arc<EventJournal>>,
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
            next_gtid: AtomicU64::new(1),
            journal: (cfg.journal_capacity > 0)
                .then(|| Arc::new(EventJournal::new(cfg.journal_capacity))),
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

    /// Gtids acked to the client, in ack order.
    pub fn acked(&self) -> Vec<u64> {
        self.acked.lock().clone()
    }

    /// Gtids with a durably logged **commit** decision, ascending.
    pub fn committed_gtids(&self) -> Vec<u64> {
        self.decisions().into_iter().filter(|(_, c)| *c).map(|(g, _)| g).collect()
    }

    /// The logged decisions, gtid → commit (shard recovery resolves
    /// against them).
    pub fn decisions(&self) -> BTreeMap<u64, bool> {
        parse_decisions(&self.decision_image())
            .expect("the decision log is written here, in memory")
    }

    /// The decision log a crash of the coordinator would leave.
    pub fn decision_image(&self) -> LogImage {
        self.decision_log.surviving_image()
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

    /// Log the decision on `gtid`, durably: an in-memory log with no fault
    /// plan, so the append cannot fail.
    fn log_decision(&self, gtid: u64, commit: bool) {
        let rec = if commit {
            WalRecord::TopCommit { top: gtid }
        } else {
            // Logged for prompt re-drive only: absence already means
            // abort (presumed abort), so losing this record is harmless.
            WalRecord::TopAbort { top: gtid }
        };
        self.decision_log.append(&rec).expect("the decision log has no fault plan");
        self.journal_record(JournalKind::ShardDecide, gtid, u64::from(commit));
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
        let pieces = self.pmap.split(spec);
        (gtid, self.commit(gtid, pieces, protocol))
    }

    /// The one cross-shard commit: run every piece, then log the decision
    /// — commit only if every piece committed locally — and resolve the
    /// pieces that did through [`Fleet::resolve`], which compensates them
    /// on an abort. Under 2PC the pieces also hold their locks at a
    /// [`DecisionGate`] from their vote until every sibling has voted.
    fn commit(
        &self,
        gtid: u64,
        pieces: Vec<(usize, TxnSpec)>,
        protocol: CommitProtocol,
    ) -> Result<Value, RpcError> {
        let cohort = pieces.len();
        // One-phase optimization: a single-shard transaction needs no
        // prepare round — every real 2PC system short-circuits it, and
        // charging the baseline for a round trip it would not make would
        // rig the comparison.
        let gate = (protocol == CommitProtocol::TwoPhase && cohort > 1)
            .then(|| Arc::new(DecisionGate::default()));
        let jobs = pieces.into_iter().map(|(shard, piece)| {
            let (fleet, gate) = (Arc::clone(&self.fleet), gate.clone());
            (shard, move || {
                fleet.net_pause();
                match gate.as_deref() {
                    // Delivered once, never retried or re-run: a duplicate
                    // would vote twice.
                    Some(gate) => fleet.shards[shard].piece(gtid, &piece, Some(gate)),
                    None => fleet.drive_piece(gtid, shard, &piece),
                }
            })
        });
        let mut out = match &gate {
            // Participants block on the gate holding their locks, so each
            // needs a thread of its own: all of them go to helpers.
            Some(gate) => {
                let pending = self.dispatch.post(jobs, Some(gate));
                let all_ready = gate.wait_votes(cohort);
                // Gate delivery: the participants sit on their locks for
                // this entire round trip.
                self.fleet.net_pause();
                gate.open(all_ready);
                pending.collect(Dispatched::default())
            }
            // With simulated latency the pieces overlap, exactly like the
            // 2PC dispatch, so both protocols pay the same message latency
            // and the comparison isolates the lock-hold window; with none
            // the caller runs them itself.
            None => self.dispatch.run(jobs, self.fleet.sleeps()),
        };
        let failure = out.failure.take();
        self.log_decision(gtid, failure.is_none());
        self.fleet.resolve(gtid, &out.acks, failure.is_none());
        match failure {
            Some(e) => Err(e),
            None => {
                self.ack(gtid, cohort > 1);
                Ok(out.into_value())
            }
        }
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

    /// Re-drive every decision of the decision log to every shard
    /// (resolution is idempotent; shards that are down refuse it and
    /// resolve at their own recovery). Returns how many resolutions were
    /// delivered.
    pub fn recover(&self) -> Result<usize, String> {
        let mut redriven = 0;
        for (gtid, commit) in parse_decisions(&self.decision_image())? {
            for shard in &self.fleet.shards {
                redriven += usize::from(shard.resolve(gtid, commit).is_ok());
            }
        }
        Ok(redriven)
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
            // Down or unreachable: the shard's recovery resolves the piece
            // from the decision log. `App` from a live shard (a
            // compensation that failed for good) is final too: `resolve`
            // already dropped the piece from its table, so no re-drive
            // reaches it, and its `Prepared` record stays unresolved in the
            // shard's log until the shard next recovers, which runs the
            // inverses that did not apply.
            let _ = self.link(gtid, *s).call(|| self.shards[*s].resolve(gtid, commit));
        }
    }
}

/// The decisions a decision-log image holds: gtid → commit.
pub fn parse_decisions(image: &LogImage) -> Result<BTreeMap<u64, bool>, String> {
    let parsed = read_image(image).map_err(|e| format!("decision log parse: {e}"))?;
    let mut decisions = BTreeMap::new();
    for rec in &parsed.records {
        match rec {
            WalRecord::TopCommit { top } => {
                decisions.insert(*top, true);
            }
            WalRecord::TopAbort { top } => {
                decisions.insert(*top, false);
            }
            _ => {}
        }
    }
    Ok(decisions)
}
