//! Deterministic fault sweeps: run the order-entry workload on the audit
//! [`Rig`] under an injected-fault schedule, then hold the wreck against
//! the [`crate::validate`] oracles — [`run_chaos`] (storage errors, body
//! panics, compensation faults: every failure *contained*),
//! [`audit_every_cut`] and [`audit_checkpoint_parity`] (every image a
//! crash could leave of a finished run's log: recovery, re-recovery and
//! checkpoints reach the committed prefix), [`run_fsync_failure`] (a
//! failed fsync poisons the log: acked = durable), [`enumerate_log_faults`]
//! (every single append or fsync fault of a scripted run, each audited
//! like that),
//! [`run_fleet_crash_recover`] (the sharded deployment with k of N shards
//! killed mid-batch, under transport faults) and [`audit_fleet_cuts`]
//! (every consistent image a crash could leave of a finished two-shard
//! run's logs, under each commit protocol: shard recovery, and recovery of
//! its own appends, reach the committed prefix).
//!
//! Faults are drawn from a seeded [`FaultPlan`], so a failing run can be
//! replayed exactly by its `(seed, spec)` pair; the fleet cut audit and
//! the log fault enumeration are scripted and draw nothing.
//!
//! [`FaultPlan`]: semcc_core::FaultPlan

use crate::executor::CommittedTxn;
use crate::rig::{winners, AuditParams, Rig};
use crate::validate::{
    canonical_shard_state, canonical_state, check_committed_prefix, check_no_failed_undo,
    check_semantic_graph, Residue,
};
use semcc_core::wal::checkpoint::fold;
use semcc_core::{
    read_image, Event, FaultSpec, FsyncPolicy, IoFaultPoint, LogImage, MemorySink, ProtocolConfig,
    RecoveryReport, Stamped, StatsSnapshot, TopInfo, WalConfig, WalError, WalRecord, WalWriter,
};
use semcc_dist::{
    parse_decisions, recover_logs, CommitProtocol, Coordinator, FleetConfig, PartitionMap,
    ShardFaultPoint, ShardStack,
};
use semcc_orderentry::{
    Database, DbParams, ItemInfo, MixWeights, Target, TxnSpec, Workload, WorkloadConfig,
};
use semcc_semantics::Storage;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Outcome of one chaos run.
#[derive(Debug)]
pub struct ChaosReport {
    /// Committed transactions.
    pub committed: u64,
    /// Transactions that gave up (non-retryable abort or retry budget).
    pub failed: u64,
    /// Faults the plan actually injected.
    pub injected: u64,
    /// The engine's counters over the run (caught panics, lock timeouts,
    /// deadlock victims, compensation retries and failures, …).
    pub stats: StatsSnapshot,
    /// `CompensationFailure` events the run's history recorded: one per
    /// `stats.compensation_failures`. Storage faults hit compensating
    /// leaves too, and not retryably, so failures are expected here.
    pub failure_events: u64,
    /// What the engine still held after the run (must be nothing).
    pub residue: Residue,
    /// Whether the committed history passed the semantic graph check.
    pub serializable: bool,
}

impl ChaosReport {
    /// The containment invariant: everything cleaned up and the surviving
    /// history still tree-reducible.
    pub fn contained(&self) -> bool {
        self.residue.check().is_ok() && self.serializable
    }
}

/// The canonical fault mixes used by the regression suite and CI: the
/// three injection sites (the compensation site armed together with
/// storage faults, since compensation only runs on aborts).
pub fn fault_mixes() -> Vec<(&'static str, FaultSpec)> {
    vec![
        ("storage-fault", FaultSpec::storage(0.05)),
        ("body-panic", FaultSpec::body_panic(0.05)),
        (
            "compensation-fault",
            FaultSpec { storage_error: 0.05, compensation_error: 0.5, ..FaultSpec::default() },
        ),
    ]
}

/// Run one chaos sweep: workload + injected faults, then audit the wreck.
pub fn run_chaos(params: &AuditParams) -> ChaosReport {
    let (rig, builder) = Rig::stage(params, None, true);
    let sink = MemorySink::new();
    let engine = builder.sink(sink.clone()).build();
    let out = rig.run(&engine, rig.batch.clone(), params.workers);
    let events = sink.events();
    let failed_undo = |e: &&Stamped| matches!(e.ev, Event::CompensationFailure { .. });

    ChaosReport {
        committed: out.metrics.committed,
        failed: out.metrics.failed,
        injected: rig.plan.triggered(),
        stats: out.metrics.stats,
        failure_events: events.iter().filter(failed_undo).count() as u64,
        residue: Residue::of(&engine),
        serializable: check_semantic_graph(&events, engine.router()).serializable,
    }
}

// ---------------------------------------------------------------------
// Crash cuts: every image a crash could leave of a finished run
// ---------------------------------------------------------------------

/// What [`audit_every_cut`] or [`audit_checkpoint_parity`] enumerated, and
/// which kinds of cut it reached.
#[derive(Debug, Default)]
pub struct CutReport {
    /// Transactions the run committed.
    pub committed: u64,
    /// Checkpoints the run installed.
    pub checkpoints_taken: u64,
    /// Frame-boundary cuts recovered and audited.
    pub boundary_cuts: usize,
    /// Torn cuts parsed: one byte into, and one byte short of, each frame.
    pub torn_cuts: usize,
    /// Single-byte flips of a frame's length, CRC or payload, each refused
    /// by the reader (truncated, in the last frame).
    pub bit_flips: usize,
    /// Cuts of recovery progress logs recovered again; every one of them
    /// saw the earlier pass's mark.
    pub progress_cuts: usize,
    /// Some cut erased a transaction the run committed.
    pub erased_commit: bool,
    /// Some cut kept a `LeafRedo` but not its subtree's later `SubCommit`.
    pub split_subtree: bool,
    /// Some cut ended inside an abort's run of progress marks.
    pub mid_compensation: bool,
}

/// The workload mixes of the cut audit. The uniform mix is extended with
/// order-entry (T0) so creation redo/undo is exercised too.
pub fn crash_mixes() -> Vec<(&'static str, MixWeights)> {
    vec![
        ("uniform+create", MixWeights { t0_new: 2, ..MixWeights::paper_uniform() }),
        ("update-heavy", MixWeights::update_heavy()),
        ("read-heavy", MixWeights::read_heavy()),
    ]
}

/// The log every audit of the sweeps writes: segments small enough that
/// a batch rotates several times, and history retained so the audits can
/// cut the full log.
const AUDIT_WAL: WalConfig =
    WalConfig { segment_bytes: 4 << 10, checkpoint_bytes: None, retain_for_audit: true };

/// [`AUDIT_WAL`] with smaller segments and a cadence that checkpoints
/// several times per run.
const CHECKPOINT_WAL: WalConfig =
    WalConfig { segment_bytes: 2 << 10, checkpoint_bytes: Some(8 << 10), ..AUDIT_WAL };

/// Run the rig's batch to the end on a logged engine, then audit every
/// image a crash of the run could have left. A crash leaves a byte prefix
/// of the log, so the finished log's cuts are every crash at once:
///
/// * at every frame boundary, recovery reaches the serial replay of the
///   cut's committed prefix, with zero [`Residue`] and no compensation
///   failure;
/// * at every torn offset the reader yields the preceding boundary's
///   records (parse only: recovery then sees that boundary's log);
/// * one flipped byte in any frame's length, CRC or payload is refused,
///   or truncated when it is the last frame;
/// * where a boundary cut has losers, recovery logs its progress, and
///   every cut of that progress log recovers to the same prefix again.
///
/// A failure names the seed, the cut and the last three records before it.
pub fn audit_every_cut(params: &AuditParams) -> Result<CutReport, String> {
    FinishedRun::new(params, AUDIT_WAL)?.audit_cuts()
}

/// [`audit_every_cut`] for checkpoints: the run checkpoints several
/// times, and at every cut behind the last installed checkpoint,
/// recovering from it and recovering from the full log must give equal
/// store dumps, version stamps included — and the committed prefix.
pub fn audit_checkpoint_parity(params: &AuditParams) -> Result<CutReport, String> {
    FinishedRun::new(params, CHECKPOINT_WAL)?.audit_checkpoint_cuts()
}

/// A finished run and its full log.
struct FinishedRun {
    seed: u64,
    rig: Rig,
    outcomes: Vec<CommittedTxn>,
    committed: u64,
    /// The full retained log, its segments in sequence order as the
    /// writer lists them.
    full: LogImage,
    records: Vec<WalRecord>,
    /// `full.frame_ends()`: the cut after `records[i]` is at `ends[i]`.
    ends: Vec<usize>,
}

impl FinishedRun {
    fn new(params: &AuditParams, config: WalConfig) -> Result<Self, String> {
        let (rig, builder) = Rig::stage(params, Some(config), true);
        let out = rig.run(&builder.build(), rig.batch.clone(), params.workers);
        let full = rig.wal().surviving_full_image();
        let records = read_image(&full).map_err(|e| format!("finished log unreadable: {e}"))?;
        let (records, ends) = (records.records, full.frame_ends());
        let (seed, outcomes, committed) = (params.seed, out.committed, out.metrics.committed);
        Ok(FinishedRun { seed, rig, outcomes, committed, full, records, ends })
    }

    /// Records wholly inside the cut at log byte `n`.
    fn whole(&self, n: usize) -> usize {
        self.ends.partition_point(|&e| e <= n)
    }

    /// Names the cut at log byte `n` in a failure.
    fn at(&self, n: usize, e: impl std::fmt::Display) -> String {
        let whole = self.whole(n);
        let last = &self.records[whole.saturating_sub(3)..whole];
        format!("seed {}, cut at byte {n}, after {last:?}: {e}", self.seed)
    }

    /// Recover `image`: no compensation may fail, and the recovery engine
    /// must end with zero [`Residue`] and no failed undo.
    fn recover(
        &self,
        image: &LogImage,
        progress: Option<Arc<WalWriter>>,
    ) -> Result<(Database, RecoveryReport), String> {
        let (base, engine, report) = Rig::recover(image, progress)?;
        if let Some((top, e)) = report.failures.first() {
            return Err(format!("compensating loser {top} failed: {e}"));
        }
        Residue::of(&engine).check()?;
        check_no_failed_undo(&engine)?;
        Ok((base, report))
    }

    /// [`FinishedRun::recover`] `image`, a cut at log byte `n` of the full
    /// log or of the log behind a checkpoint, and hold the recovered store
    /// against the serial replay of the cut's committed prefix.
    fn recover_prefix(
        &self,
        image: &LogImage,
        n: usize,
        progress: Option<Arc<WalWriter>>,
    ) -> Result<(Database, RecoveryReport), String> {
        let (base, report) = self.recover(image, progress)?;
        let winners = winners(&self.records[..self.whole(n)]);
        Rig::check_prefix(&winners, &self.outcomes, base.store.as_ref())?;
        Ok((base, report))
    }

    fn audit_cuts(&self) -> Result<CutReport, String> {
        let mut report = self.report();
        // Every boundary is cut: the one before a `SubCommit` whose subtree
        // logged a leaf, and the one after an inverse's progress mark,
        // which precedes its `TopAbort`, among them.
        report.split_subtree = self.records.iter().enumerate().any(|(i, rec)| {
            let WalRecord::SubCommit { top, subtree, .. } = rec else { return false };
            self.records[..i].iter().any(|r| {
                matches!(r, WalRecord::LeafRedo { top: t, subtree: s, .. } if (t, s) == (top, subtree))
            })
        });
        report.mid_compensation = self.records.iter().any(|r| {
            matches!(r, WalRecord::CompApplied { .. } | WalRecord::CompRedo { applied: true, .. })
        });
        let full_winners = winners(&self.records).len();
        for n in std::iter::once(0).chain(self.ends.iter().copied()) {
            let (recovery, recuts) =
                self.recover_and_recut(&self.full.cut(n), n).map_err(|e| self.at(n, e))?;
            report.boundary_cuts += 1;
            report.progress_cuts += recuts;
            report.erased_commit |= recovery.winners < full_winners;
        }
        for (i, &end) in self.ends.iter().enumerate() {
            let start = i.checked_sub(1).map_or(0, |j| self.ends[j]);
            let last = i + 1 == self.ends.len();
            for n in [start + 1, end - 1] {
                let parsed = read_image(&self.full.cut(n)).map_err(|e| self.at(n, e))?;
                if parsed.records[..] != self.records[..i] || parsed.truncated_bytes == 0 {
                    return Err(self.at(n, "a torn frame did not read as the boundary before it"));
                }
                report.torn_cuts += 1;
            }
            for pos in [start, start + 4, end - 1] {
                match (read_image(&self.flipped(pos)), last) {
                    (Err(WalError::Corrupt { .. }), false) => {}
                    (Ok(p), true)
                        if p.records[..] == self.records[..i] && p.truncated_bytes > 0 => {}
                    (other, _) => {
                        return Err(self.at(end, format!("byte {pos} flipped read as {other:?}")))
                    }
                }
                report.bit_flips += 1;
            }
        }
        Ok(report)
    }

    /// [`FinishedRun::recover_prefix`] `image`, a cut ending on a frame
    /// boundary, with recovery logging its progress; if it had losers, cut
    /// that progress log at each of its own frame boundaries and recover
    /// each cut again, to the first pass's state on canonical state.
    /// Returns the first recovery and the number of re-cuts.
    fn recover_and_recut(
        &self,
        image: &LogImage,
        n: usize,
    ) -> Result<(RecoveryReport, usize), String> {
        let config = self.rig.wal().config();
        let progress = WalWriter::resume(image, FsyncPolicy::EveryAppend, None, config)
            .map_err(|e| format!("resume refused: {e}"))?;
        let (first, report) = self.recover_prefix(image, n, Some(Arc::clone(&progress)))?;
        if report.losers == 0 {
            return Ok((report, 0));
        }
        let log = progress.surviving_image();
        // Every logged inverse is marked applied once at most, across the
        // abort and the pass: the pass ran none of the applied ones again.
        let parsed = read_image(&log).map_err(|e| format!("progress log unreadable: {e}"))?;
        let mut tops = parsed.checkpoint.map(|cp| cp.table).unwrap_or_default();
        for (i, rec) in parsed.records.iter().enumerate() {
            fold(&mut tops, parsed.base_lsn + i as u64, rec);
        }
        let twice =
            |t: &TopInfo| t.comp_applied as usize > t.intents.len() + t.orphan_intents.len();
        if let Some((top, _)) = tops.iter().find(|(_, t)| twice(t)) {
            return Err(format!("the pass re-ran an applied inverse of transaction {top}"));
        }
        let ends = log.frame_ends();
        let own = ends.partition_point(|&m| m <= log_bytes(image));
        let want = canonical_state(first.store.as_ref(), first.items_set);
        for &m in &ends[own..] {
            let at = |e: &str| format!("progress log cut at byte {m}: {e}");
            let (again, report) = self.recover(&log.cut(m), None).map_err(|e| at(&e))?;
            if !report.rerecovery {
                return Err(at("the pass missed the earlier pass's mark"));
            }
            if want.is_err() || canonical_state(again.store.as_ref(), again.items_set) != want {
                return Err(at("state != the first pass's"));
            }
        }
        Ok((report, ends.len() - own))
    }

    /// The image with the last installed checkpoint, the log offset its
    /// live segments start at in the full log, and every full-log cut
    /// behind it: the cuts recovery from it must get right.
    fn behind_checkpoint(&self) -> Result<(LogImage, usize, Vec<usize>), String> {
        let image = self.rig.wal().surviving_image();
        if image.checkpoint.is_none() {
            return Err(format!("seed {}: no checkpoint installed — nothing to audit", self.seed));
        }
        let retired = log_bytes(&self.full) - log_bytes(&image);
        let cuts = self.ends.iter().copied().filter(|&n| n >= retired).collect();
        Ok((image, retired, cuts))
    }

    fn audit_checkpoint_cuts(&self) -> Result<CutReport, String> {
        let mut report = self.report();
        let (image, retired, cuts) = self.behind_checkpoint()?;
        for n in cuts {
            let (from_cp, _) =
                self.recover_prefix(&image.cut(n - retired), n, None).map_err(|e| self.at(n, e))?;
            let (from_log, _) = self.recover(&self.full.cut(n), None).map_err(|e| self.at(n, e))?;
            let (cp, log) = (from_cp.store.dump(), from_log.store.dump());
            if cp != log {
                let apart = cp.objects.iter().zip(&log.objects).find(|(a, b)| a != b);
                let ids = (cp.next_id, log.next_id);
                return Err(self.at(n, format!("checkpoint != full log: {apart:?}, ids {ids:?}")));
            }
            report.boundary_cuts += 1;
        }
        Ok(report)
    }

    /// The full log with the byte at log offset `pos` flipped.
    fn flipped(&self, mut pos: usize) -> LogImage {
        let mut image = self.full.clone();
        for seg in &mut image.segments {
            if pos < seg.bytes.len() {
                seg.bytes[pos] ^= 0xFF;
                break;
            }
            pos -= seg.bytes.len();
        }
        image
    }

    fn report(&self) -> CutReport {
        CutReport {
            committed: self.committed,
            checkpoints_taken: self.rig.wal().checkpoints_taken(),
            ..Default::default()
        }
    }
}

/// Log bytes of `image`, checkpoint excluded.
fn log_bytes(image: &LogImage) -> usize {
    image.segments.iter().map(|s| s.bytes.len()).sum()
}

/// Fsync-failure audit: run a group-commit workload whose log device
/// fails the `nth` fsync mid-run (poisoning the log), then check the
/// fsyncgate invariant — no transaction was acknowledged whose commit
/// record is not durable, and the *live* store equals the serial replay
/// of exactly the acknowledged transactions (failed commits were
/// compensated). At ≥ 16 workers the failing fsync covers a group-commit
/// *batch*, so the audit also proves that no other committer whose frame
/// it covered was acknowledged.
pub fn run_fsync_failure(seed: u64, txns: usize, nth: u64, workers: usize) -> Result<(), String> {
    let params = AuditParams {
        seed,
        txns,
        workers,
        faults: FaultSpec::default().with_io(IoFaultPoint::FsyncError { nth }),
        fsync: FsyncPolicy::OnCommit,
        ..Default::default()
    };
    let (rig, builder) = Rig::stage(&params, Some(AUDIT_WAL), false);
    let engine = builder.build();
    let out = rig.run(&engine, rig.batch.clone(), workers);
    rig.check_fsyncgate(&engine, &out.committed)
}

/// What [`enumerate_log_faults`] ran: per run, the log's fsync policy,
/// the one fault of its device, and the kind of the record that fault
/// failed.
#[derive(Debug, Default)]
pub struct LogFaultReport {
    /// `(policy, fault, record kind)`, in the order run.
    pub runs: Vec<(FsyncPolicy, IoFaultPoint, &'static str)>,
}

/// Every single fault of the log device on one scripted run. Per fsync
/// policy, a fault-free dry run of [`log_fault_script`] on one worker
/// counts the appends A and the fsyncs F; then the script runs again once
/// per `AppendError { nth: k }`, k ≤ A, and once per
/// `FsyncError { nth: k }`, k ≤ F. Each run must pass the fsyncgate audit
/// (which includes: no undo failed) with zero [`Residue`], and its durable
/// log must be a prefix of the dry run's. One worker makes the runs
/// deterministic, so the record the k-th fault failed is read off the dry
/// run's log. A failure names the policy and the fault.
pub fn enumerate_log_faults() -> Result<LogFaultReport, String> {
    let mut report = LogFaultReport::default();
    for fsync in [FsyncPolicy::EveryAppend, FsyncPolicy::OnCommit] {
        let dry = log_fault_run(fsync, None).map_err(|e| format!("{fsync:?}, dry run: {e}"))?;
        if dry.durable.len() != dry.accepted {
            return Err(format!("{fsync:?}: the dry run left appended records undurable"));
        }
        let faults = (1..=dry.accepted as u64)
            .map(|nth| IoFaultPoint::AppendError { nth })
            .chain((1..=dry.fsyncs).map(|nth| IoFaultPoint::FsyncError { nth }));
        for fault in faults {
            let at = |e: String| format!("{fsync:?}, {fault:?}: {e}");
            let run = log_fault_run(fsync, Some(fault)).map_err(at)?;
            if !dry.durable.starts_with(&run.durable) {
                return Err(at("its durable log is no prefix of the dry run's".into()));
            }
            // An append that fails gets no LSN; a sync that fails fails the
            // append it was part of, the last one the log accepted.
            let hit = match fault {
                IoFaultPoint::AppendError { .. } => run.accepted,
                _ => run.accepted - 1,
            };
            report.runs.push((fsync, fault, record_kind(&dry.durable[hit])));
        }
    }
    Ok(report)
}

/// One run of [`enumerate_log_faults`]: the records its log kept durable,
/// the appends the log accepted and the fsyncs it issued.
struct LogFaultRun {
    durable: Vec<WalRecord>,
    accepted: usize,
    fsyncs: u64,
}

/// Run [`log_fault_script`] on one worker under `fsync`, its log device
/// failing at `fault`, and audit it.
fn log_fault_run(fsync: FsyncPolicy, fault: Option<IoFaultPoint>) -> Result<LogFaultRun, String> {
    let faults = fault.map_or(FaultSpec::default(), |f| FaultSpec::default().with_io(f));
    let params = AuditParams { workers: 1, faults, fsync, ..Default::default() };
    let (rig, builder) = Rig::stage(&params, Some(AUDIT_WAL), false);
    let engine = builder.build();
    let out = rig.run(&engine, log_fault_script(&rig.db), 1);
    rig.check_fsyncgate(&engine, &out.committed)?;
    Residue::of(&engine).check()?;
    let wal = rig.wal();
    let durable = read_image(&wal.surviving_image()).map_err(|e| format!("log unreadable: {e}"))?;
    Ok(LogFaultRun {
        durable: durable.records,
        accepted: wal.appended() as usize,
        fsyncs: wal.fsyncs(),
    })
}

/// The script of [`enumerate_log_faults`]: a creation (T0), shipments and
/// payments — each `ChangeStatus` sets a new bit, so logs a `SubIntent` —
/// and two readers.
fn log_fault_script(db: &Database) -> Vec<TxnSpec> {
    let order =
        |i: usize, k: usize| Target { item: db.items[i].item, order: db.items[i].orders[k].order };
    vec![
        TxnSpec::NewOrders {
            entries: vec![(db.items[0].item, db.next_order_no)],
            customer: 7,
            quantity: 2,
        },
        TxnSpec::Ship(vec![order(0, 0), order(1, 0)]),
        TxnSpec::Pay(vec![order(0, 0), order(2, 1)]),
        TxnSpec::CheckShipped { targets: vec![order(0, 0), order(1, 0)], bypass: true },
        TxnSpec::Ship(vec![order(2, 1), order(3, 2)]),
        TxnSpec::Pay(vec![order(1, 0), order(3, 2)]),
        TxnSpec::Total(db.items[0].item),
    ]
}

/// The name of a log record's kind.
fn record_kind(rec: &WalRecord) -> &'static str {
    match rec {
        WalRecord::LeafRedo { .. } => "LeafRedo",
        WalRecord::SubCommit { .. } => "SubCommit",
        WalRecord::SubIntent { .. } => "SubIntent",
        WalRecord::CompRedo { .. } => "CompRedo",
        WalRecord::CompApplied { .. } => "CompApplied",
        WalRecord::TopCommit { .. } => "TopCommit",
        WalRecord::TopAbort { .. } => "TopAbort",
        WalRecord::RecoveryMark { .. } => "RecoveryMark",
    }
}

// ---------------------------------------------------------------------
// Partial-fleet crash / recover / audit (the sharded deployment)
// ---------------------------------------------------------------------

/// Database scale of every fleet audit.
const FLEET_N_ITEMS: usize = 6;
const FLEET_ORDERS_PER_ITEM: usize = 3;

/// One partial-fleet chaos run: drive the workload through the sharded
/// coordinator, kill `kill`-of-`n_shards` shards at seeded points in the
/// batch, recover everything, and audit.
#[derive(Clone, Debug)]
pub struct FleetParams {
    /// Seed for the workload, the kill schedule, and the rpc backoff.
    pub seed: u64,
    /// Transactions submitted.
    pub txns: usize,
    /// Fleet size.
    pub n_shards: usize,
    /// Shards killed at seeded points during the batch.
    pub kill: usize,
    /// Injected transport fault, if any.
    pub fault: Option<ShardFaultPoint>,
}

impl Default for FleetParams {
    fn default() -> Self {
        FleetParams { seed: 42, txns: 40, n_shards: 3, kill: 1, fault: None }
    }
}

/// Outcome of one partial-fleet run.
#[derive(Debug)]
pub struct FleetReport {
    /// Commits acknowledged to the client.
    pub acked: usize,
    /// Commit decisions durably logged by the coordinator.
    pub committed: usize,
    /// Submissions that returned an error (global abort / down node).
    pub failed: usize,
    /// Cross-shard transactions observed.
    pub cross_shard: u64,
    /// Shard crashes (the scheduled kills).
    pub shard_crashes: u64,
    /// Acked commits whose decision is missing after recovery (MUST be 0:
    /// an acked commit may never be lost, whatever crashed).
    pub lost_acked: usize,
    /// What is wrong after the settle phase: a failed recovery or
    /// re-drive, a shard still dead, a shard with [`Residue`], a shard whose
    /// slice is not the serial replay of the committed prefix.
    pub violations: Vec<String>,
}

impl FleetReport {
    /// The fleet robustness invariant: no acked commit lost, every shard's
    /// state equals the committed-prefix replay, zero residue everywhere.
    pub fn sound(&self) -> bool {
        self.lost_acked == 0 && self.violations.is_empty()
    }
}

/// Run one partial-fleet crash/recover/audit cycle.
pub fn run_fleet_crash_recover(params: &FleetParams) -> FleetReport {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    semcc_core::silence_injected_panics();
    let db_params = DbParams {
        n_items: FLEET_N_ITEMS,
        orders_per_item: FLEET_ORDERS_PER_ITEM,
        ..Default::default()
    };
    let coord = Coordinator::new(FleetConfig {
        n_shards: params.n_shards,
        db_params: db_params.clone(),
        fault: params.fault,
        seed: params.seed,
        journal_capacity: 4096,
        ..Default::default()
    });

    // Seeded kill schedule: `kill` distinct shards die at distinct points
    // inside the batch.
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0xf1ee7);
    let mut victims: Vec<usize> = (0..params.n_shards).collect();
    let mut kills: Vec<(usize, usize)> = Vec::new();
    for _ in 0..params.kill.min(params.n_shards) {
        let v = victims.remove(rng.random_range(0..victims.len()));
        let at = rng.random_range(params.txns / 4..(3 * params.txns / 4).max(params.txns / 4 + 1));
        kills.push((at, v));
    }

    // Never executed on: the workload is generated against it, and the
    // state audit replays the committed prefix on copies of it.
    let reference = Database::build(&db_params).expect("reference build");
    let batch =
        Workload::new(&reference, WorkloadConfig { seed: params.seed, ..Default::default() })
            .batch(&reference, params.txns);

    let (mut specs, mut acked_ok, mut failed) = (BTreeMap::new(), 0, 0);
    for (i, spec) in batch.into_iter().enumerate() {
        kills.iter().filter(|(at, _)| *at == i).for_each(|(_, v)| coord.shards()[*v].crash());
        let (gtid, out) = coord.submit(&spec, CommitProtocol::OpenNested);
        match out {
            Ok(_) => acked_ok += 1,
            Err(_) => failed += 1,
        }
        specs.insert(gtid, spec);
    }

    // Settle: recover every dead shard, then re-drive every decision
    // (idempotent) so shards that missed a resolution — a dropped rpc, a
    // piece acked just before its shard died — converge.
    let dead = coord.shards().iter().filter(|shard| shard.is_dead());
    let settled = dead
        .map(|shard| shard.recover(&coord.decisions()))
        .find_map(Result::err)
        .or_else(|| coord.recover().err().map(|e| format!("decision re-drive failed: {e}")));

    // ---- audits -------------------------------------------------------
    let committed = coord.committed_gtids();
    let committed_set: HashSet<u64> = committed.iter().copied().collect();
    let lost_acked = coord.acked().iter().filter(|g| !committed_set.contains(g)).count();

    // Every shard: zero residue, and its slice equal to the serial replay
    // of its pieces of the committed prefix, in decision order.
    let mut violations: Vec<String> = settled.into_iter().collect();
    for shard in coord.shards() {
        let audit = shard.with_live(|engine, _| {
            Residue::of(engine).check()?;
            let pmap = coord.partition();
            check_slice(pmap, shard.idx(), &committed, &specs, &reference, engine.storage())
        });
        if let Err(e) = audit.unwrap_or_else(|| Err("still dead".into())) {
            violations.push(format!("shard {}: {e}", shard.idx()));
        }
    }

    let stats = coord.fleet_stats();
    FleetReport {
        acked: acked_ok,
        committed: committed.len(),
        failed,
        cross_shard: stats.cross_shard_txns,
        shard_crashes: stats.shard_crashes,
        lost_acked,
        violations,
    }
}

/// Shard `idx`'s slice of `got` must equal the serial replay, on the
/// initial state `fresh`, of its pieces of the `committed` gtids, in that
/// order.
fn check_slice(
    pmap: &PartitionMap,
    idx: usize,
    committed: &[u64],
    specs: &BTreeMap<u64, TxnSpec>,
    fresh: &Database,
    got: &Arc<dyn Storage>,
) -> Result<(), String> {
    let mut pieces = Vec::new();
    for gtid in committed {
        let spec =
            specs.get(gtid).ok_or_else(|| format!("committed gtid {gtid} was never submitted"))?;
        pieces.extend(pmap.split(spec).into_iter().filter(|(s, _)| *s == idx).map(|(_, p)| p));
    }
    let winners: Vec<&TxnSpec> = pieces.iter().collect();
    check_committed_prefix(fresh, &winners, got.as_ref(), |store| {
        canonical_shard_state(store, fresh.items_set, pmap.n_shards(), idx)
    })
}

// ---------------------------------------------------------------------
// Fleet cuts: every consistent image a crash could leave of a finished
// two-shard run
// ---------------------------------------------------------------------

/// What [`audit_fleet_cuts`] recovered, by class of cut. A cut may fall
/// in several classes; every class must be reached.
#[derive(Debug, Default)]
pub struct FleetCutReport {
    /// Consistent cuts recovered and audited, both shards together.
    pub cuts: usize,
    /// Cuts that keep a piece's leaves but not its participant record.
    pub leaves_without_prepare: usize,
    /// Cuts that keep a participant record but not the local commit.
    pub prepare_without_commit: usize,
    /// Cuts that keep a local commit but not its decision.
    pub commit_without_decision: usize,
    /// Cuts that keep a decision but not the shard's resolution marker.
    pub decision_without_marker: usize,
    /// Cuts whose recovery compensated a piece under presumed abort.
    pub presumed_abort: usize,
    /// Cuts of shard recovery's own appends, recovered again.
    pub recovery_cuts: usize,
}

/// The fleet of [`audit_fleet_cuts`]: two items, one per shard, on the
/// escrow schema, with so little stock that a shipment can fail its bound.
fn cut_fleet() -> DbParams {
    DbParams { n_items: 2, orders_per_item: 3, initial_qoh: 3, escrow: true, ..Default::default() }
}

/// The scripted batch of [`audit_fleet_cuts`]: single-shard and
/// cross-shard commits, and a global abort that compensates a piece
/// already committed on the other shard. Orders 0, 1, 2 of an item ship
/// 1, 2 and 3 units.
fn cut_batch(db: &Database, pmap: &PartitionMap) -> Vec<TxnSpec> {
    let on = |shard| db.items.iter().find(|i| pmap.owner_of_item(i.item) == shard).unwrap();
    let (a, b) = (on(0), on(1));
    let order = |i: &ItemInfo, k: usize| Target { item: i.item, order: i.orders[k].order };
    vec![
        // Shard 1 alone: b's stock 3 → 2.
        TxnSpec::Ship(vec![order(b, 0)]),
        // Both shards: a 3 → 2, b 2 → 0.
        TxnSpec::Ship(vec![order(a, 0), order(b, 1)]),
        // a's piece commits (2 → 0), then b's fails its bound: a global
        // abort compensates a back to 2.
        TxnSpec::Ship(vec![order(a, 1), order(b, 2)]),
        // Both shards, creating an order on each.
        TxnSpec::NewOrders {
            entries: vec![(a.item, db.next_order_no), (b.item, db.next_order_no + 1)],
            customer: 7,
            quantity: 1,
        },
        // Shard 0 alone, on the stock the abort gave back: a 2 → 0.
        TxnSpec::Ship(vec![order(a, 1)]),
    ]
}

/// A log of the fleet, parsed.
struct Log {
    image: LogImage,
    records: Vec<WalRecord>,
    /// `image.frame_ends()`: the cut keeping `k` records ends at `ends[k - 1]`.
    ends: Vec<usize>,
}

impl Log {
    fn of(image: LogImage) -> Result<Log, String> {
        let records = read_image(&image).map_err(|e| format!("fleet log unreadable: {e}"))?;
        Ok(Log { records: records.records, ends: image.frame_ends(), image })
    }

    /// The image keeping the first `k` records.
    fn cut(&self, k: usize) -> LogImage {
        self.image.cut(k.checked_sub(1).map_or(0, |i| self.ends[i]))
    }
}

/// Shard `s`'s three logs as a crash now would leave them: the
/// coordinator's decision log, the shard's main and participant logs.
fn shard_logs(coord: &Coordinator, s: usize) -> Result<[Log; 3], String> {
    let (main, part) = coord.shards()[s].log_images().ok_or("the shard is down")?;
    Ok([Log::of(coord.decision_image())?, Log::of(main)?, Log::of(part)?])
}

/// Run the scripted batch on a two-shard fleet with one client and no
/// latency, once under each [`CommitProtocol`]: every log of a shard is
/// appended in submission order, since a submission returns only once its
/// decision is logged and its pieces resolved. Then audit, for each
/// protocol and shard, every consistent cut of (decision log, main log,
/// participant log) at frame boundaries:
///
/// * recovery through [`recover_logs`], with the decisions parsed by
///   [`parse_decisions`], leaves zero [`Residue`] and a slice equal to the
///   serial replay of the shard's pieces of the cut's committed gtids;
/// * every consistent cut of what that recovery appended to the shard's
///   two logs recovers again to the same canonical state.
///
/// Both protocols write in the same order, so one consistency relation
/// ([`cuts`]) covers both. A failure names the protocol, the shard, the
/// submission and the cut.
pub fn audit_fleet_cuts() -> Result<Vec<(CommitProtocol, FleetCutReport)>, String> {
    [CommitProtocol::OpenNested, CommitProtocol::TwoPhase]
        .into_iter()
        .map(|protocol| {
            audit_fleet_cuts_under(protocol)
                .map(|report| (protocol, report))
                .map_err(|e| format!("{protocol:?}: {e}"))
        })
        .collect()
}

fn audit_fleet_cuts_under(protocol: CommitProtocol) -> Result<FleetCutReport, String> {
    let db_params = cut_fleet();
    // Each protocol on its own shards: 2PC's are the baseline's flat locks.
    let coord = Coordinator::new(FleetConfig {
        db_params: db_params.clone(),
        low_level_2pl: protocol == CommitProtocol::TwoPhase,
        ..Default::default()
    });
    let fresh = Database::build(&db_params).map_err(|e| e.to_string())?;
    let (mut specs, mut marks) = (BTreeMap::new(), vec![[[0; 3]; 2]]);
    for spec in cut_batch(&fresh, coord.partition()) {
        specs.insert(coord.submit(&spec, protocol).0, spec);
        // Per shard, the records in each of its logs after this submission.
        let count = |s| shard_logs(&coord, s).map(|logs| logs.map(|log| log.records.len()));
        marks.push([count(0)?, count(1)?]);
    }
    let decided = parse_decisions(&coord.decision_image())?;
    if decided.values().copied().collect::<Vec<_>>() != [true, true, false, true, true] {
        return Err(format!("the script did not run as written: decisions {decided:?}"));
    }
    let mut report = FleetCutReport::default();
    // Recover the cut keeping the first `cut[i]` records of each log; the
    // recovered engine must hold nothing, and no undo of it may fail.
    let recover = |logs: [&Log; 3], cut: [usize; 3]| {
        let decisions = parse_decisions(&logs[0].cut(cut[0]))?;
        let (main, part) = (logs[1].cut(cut[1]), logs[2].cut(cut[2]));
        let (stack, recovery) =
            recover_logs(&db_params, ProtocolConfig::semantic(), &main, &part, &decisions)?;
        Residue::of(&stack.engine).check()?;
        check_no_failed_undo(&stack.engine)?;
        Ok::<_, String>((decisions, stack, recovery))
    };
    for s in 0..2 {
        let logs = shard_logs(&coord, s)?;
        let local = pieces_of(&logs[2].records);
        let slice = |stack: &ShardStack| {
            canonical_shard_state(stack.engine.storage().as_ref(), fresh.items_set, 2, s)
        };
        let mut first = true;
        for (k, pair) in marks.windows(2).enumerate() {
            let (from, to) = (pair[0][s], pair[1][s]);
            if from[1..] == to[1..] {
                continue; // nothing of this submission reached the shard
            }
            let window = std::array::from_fn(|i| &logs[i].records[from[i]..to[i]]);
            // The first cut keeps nothing of the window: the last cut of
            // the window before, audited already unless this is the first.
            for (keep, hits) in cuts(window, &local).into_iter().skip(usize::from(!first)) {
                let at = |e: String| {
                    let last = &window[1][keep[1].saturating_sub(3)..keep[1]];
                    format!("shard {s}, submission {}, cut {keep:?}, after {last:?}: {e}", k + 1)
                };
                let counts = [
                    &mut report.leaves_without_prepare,
                    &mut report.prepare_without_commit,
                    &mut report.commit_without_decision,
                    &mut report.decision_without_marker,
                ];
                counts.into_iter().zip(hits).for_each(|(n, hit)| *n += usize::from(hit));
                let cut = std::array::from_fn(|i| from[i] + keep[i]);
                let (decisions, stack, recovery) = recover(logs.each_ref(), cut).map_err(at)?;
                let committed: Vec<u64> =
                    decisions.iter().filter(|(_, &c)| c).map(|(&g, _)| g).collect();
                let storage = stack.engine.storage();
                check_slice(coord.partition(), s, &committed, &specs, &fresh, storage)
                    .map_err(at)?;
                report.cuts += 1;
                report.presumed_abort += usize::from(recovery.compensated > 0);

                // What the recovery appended, cut at every consistent point.
                let want = slice(&stack);
                let main = Log::of(stack.wal.surviving_image())?;
                let part = Log::of(stack.part_log.surviving_image())?;
                let appended = [&[][..], &main.records[cut[1]..], &part.records[cut[2]..]];
                for ([_, m, p], _) in cuts(appended, &local).into_iter().skip(1) {
                    let at = |e: String| at(format!("recovery's appends cut at {:?}: {e}", (m, p)));
                    let (_, again, _) =
                        recover([&logs[0], &main, &part], [cut[0], cut[1] + m, cut[2] + p])
                            .map_err(at)?;
                    if slice(&again) != want {
                        return Err(at("state != the first recovery's".into()));
                    }
                    report.recovery_cuts += 1;
                }
            }
            first = false;
        }
    }
    Ok(report)
}

/// The local transaction id of each piece a participant log prepared, by
/// gtid.
fn pieces_of(part: &[WalRecord]) -> BTreeMap<u64, u64> {
    let piece = |r: &WalRecord| match r {
        WalRecord::SubCommit { top, subtree, .. } => Some((*top, u64::from(*subtree))),
        _ => None,
    };
    part.iter().filter_map(piece).collect()
}

/// Where a record of a window sits: (log, position).
type At = (usize, usize);

/// Whether `r` is the participant record of the piece with local id `t`.
fn prepares(r: &WalRecord, t: u64) -> bool {
    matches!(r, WalRecord::SubCommit { subtree, .. } if u64::from(*subtree) == t)
}

/// Every consistent cut of the records one submission (or one recovery)
/// appended to a shard's decision log (0), main log (1) and participant
/// log (2) — `window[i]` — as the number it keeps of each, with the
/// [`FleetCutReport`] classes it falls in. `local` maps each gtid prepared
/// on the shard to its piece's local id.
///
/// A cut is consistent when no kept record has a dropped predecessor, a
/// record of another log that was durable before it was written:
///
/// * a local `TopCommit` needs its participant `SubCommit`;
/// * a decision needs that shard's local `TopCommit` of the gtid;
/// * a resolution marker, and any main-log record of a piece after its
///   local commit (its compensation), need the gtid's decision;
/// * an abort marker needs the piece's closing `TopAbort`, synced first.
///
/// Within one log a cut is a prefix, so no other order is checked.
fn cuts(window: [&[WalRecord]; 3], local: &BTreeMap<u64, u64>) -> Vec<([usize; 3], [bool; 4])> {
    // (record, its predecessor, the class of cuts keeping only the latter).
    let mut edges: Vec<(At, At, Option<usize>)> = Vec::new();
    let find = |log: usize, f: &dyn Fn(&WalRecord) -> bool| {
        window[log].iter().position(f).map(|i| (log, i))
    };
    let decision = |g: u64| find(0, &|r| r.top() == g);
    let gtid = |t: u64| local.iter().find(|(_, &l)| l == t).map(|(&g, _)| g);
    let mut committed = HashSet::new();
    for (i, r) in window[1].iter().enumerate() {
        let (before, class) = match r {
            WalRecord::TopCommit { top } => {
                committed.insert(*top);
                (find(2, &|p| prepares(p, *top)), Some(1))
            }
            r if committed.contains(&r.top()) => (gtid(r.top()).and_then(decision), None),
            _ => (None, None),
        };
        edges.extend(before.map(|b| ((1, i), b, class)));
    }
    for (i, r) in window[0].iter().enumerate() {
        let top = |t: u64| find(1, &|m| *m == WalRecord::TopCommit { top: t });
        edges.extend(local.get(&r.top()).and_then(|&t| top(t)).map(|b| ((0, i), b, Some(2))));
    }
    for (i, r) in window[2].iter().enumerate() {
        let (WalRecord::TopCommit { top: g } | WalRecord::TopAbort { top: g }) = r else {
            continue;
        };
        edges.extend(decision(*g).map(|b| ((2, i), b, Some(3))));
        if matches!(r, WalRecord::TopAbort { .. }) {
            let closed = |t: u64| find(1, &|m| *m == WalRecord::TopAbort { top: t });
            edges.extend(local.get(g).and_then(|&t| closed(t)).map(|b| ((2, i), b, None)));
        }
    }

    let mut out = Vec::new();
    for d in 0..=window[0].len() {
        for m in 0..=window[1].len() {
            for p in 0..=window[2].len() {
                let keep = [d, m, p];
                let kept = |(log, i): (usize, usize)| i < keep[log];
                if edges.iter().any(|&(after, before, _)| kept(after) && !kept(before)) {
                    continue;
                }
                let unprepared = |r: &WalRecord| match r {
                    WalRecord::LeafRedo { top, .. } => {
                        !window[2][..p].iter().any(|q| prepares(q, *top))
                    }
                    _ => false,
                };
                let mut hits = [window[1][..m].iter().any(unprepared), false, false, false];
                for &(after, before, class) in &edges {
                    if let Some(c) = class {
                        hits[c] |= kept(before) && !kept(after);
                    }
                }
                out.push((keep, hits));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcc_core::RedoOp;
    use semcc_semantics::{ObjectId, Value};

    #[test]
    fn fault_free_chaos_commits_everything() {
        let report = run_chaos(&AuditParams { txns: 20, ..Default::default() });
        assert_eq!(report.committed, 20);
        assert_eq!(report.failed, 0);
        assert_eq!(report.injected, 0);
        assert!(report.contained(), "{report:?}");
    }

    #[test]
    fn storage_faults_are_contained_and_deterministic() {
        let p = AuditParams {
            seed: 7,
            txns: 40,
            faults: FaultSpec::storage(0.10),
            ..Default::default()
        };
        let a = run_chaos(&p);
        assert!(a.injected > 0, "a 10% storage fault rate must fire: {a:?}");
        assert!(a.failed > 0, "injected storage faults abort transactions: {a:?}");
        assert!(a.contained(), "{a:?}");
        // With one worker the fault schedule maps onto the same
        // transactions every time: fully reproducible outcome counts.
        // (Under multiple workers only the *draw sequence* is fixed; the
        // thread interleaving decides which transaction eats each draw.)
        let serial = AuditParams { workers: 1, ..p };
        let b = run_chaos(&serial);
        let c = run_chaos(&serial);
        assert_eq!((b.committed, b.failed, b.injected), (c.committed, c.failed, c.injected));
    }

    #[test]
    fn body_panics_are_contained() {
        let report = run_chaos(&AuditParams {
            seed: 11,
            txns: 40,
            faults: FaultSpec::body_panic(0.10),
            ..Default::default()
        });
        assert!(report.stats.caught_panics > 0, "{report:?}");
        assert!(report.contained(), "{report:?}");
    }

    fn finished(params: AuditParams) -> FinishedRun {
        FinishedRun::new(&params, AUDIT_WAL).expect("the finished log parses")
    }

    /// The cut right after the run's first leaf, whose subtree commits
    /// only later.
    fn after_first_leaf(run: &FinishedRun) -> usize {
        let leaf = run.records.iter().position(|r| matches!(r, WalRecord::LeafRedo { .. }));
        run.ends[leaf.expect("the run updates something")]
    }

    #[test]
    fn crash_free_run_recovers_every_committed_transaction() {
        let run = finished(AuditParams { txns: 20, ..Default::default() });
        let (_, report) = run.recover_prefix(&run.full, log_bytes(&run.full), None).unwrap();
        assert_eq!(report.winners as u64, run.committed, "{report:?}");
        assert_eq!(report.losers, 0, "{report:?}");
        assert!(report.replayed_actions > 0, "{report:?}");
    }

    #[test]
    fn leaf_append_crash_recovers_to_the_committed_prefix() {
        let run = finished(AuditParams { seed: 3, ..Default::default() });
        let n = after_first_leaf(&run);
        let (_, report) = run.recover_prefix(&run.full.cut(n), n, None).unwrap();
        assert!(report.losers > 0, "the leaf's transaction is a loser: {report:?}");
        assert!((report.winners as u64) < run.committed, "{report:?}");
    }

    #[test]
    fn torn_tail_crash_truncates_and_still_recovers() {
        let run = finished(AuditParams { seed: 5, ..Default::default() });
        let n = run.ends[58] + 7;
        let (_, report) = run.recover_prefix(&run.full.cut(n), n, None).unwrap();
        assert_eq!(report.truncated_bytes, 7, "the torn frame must be dropped: {report:?}");
    }

    #[test]
    fn creation_heavy_mix_exercises_creation_redo() {
        let run =
            finished(AuditParams { seed: 9, mix: crash_mixes().remove(0).1, ..Default::default() });
        let creates = |r: &WalRecord| matches!(r, WalRecord::LeafRedo { op, .. } if op.created_id().is_some());
        assert!(run.records.iter().any(creates), "the mix must create objects");
        run.recover_prefix(&run.full, log_bytes(&run.full), None).unwrap();
    }

    #[test]
    fn torture_chain_converges_after_a_crashed_recovery() {
        let run = finished(AuditParams { seed: 3, ..Default::default() });
        let n = after_first_leaf(&run);
        let (report, recuts) = run.recover_and_recut(&run.full.cut(n), n).unwrap();
        assert!(report.losers > 0, "{report:?}");
        assert!(recuts >= 2, "the mark, then the loser's compensation records: {recuts}");
    }

    /// The enumerator counts what a hand count gives. Each shard's piece of
    /// the cross-shard shipment ships one order on the escrow schema, so
    /// its main log holds 5 records (the status leaf, the `ChangeStatus`
    /// intent, the escrow leaf, the `ShipOrder` `SubCommit`, the local
    /// `TopCommit`), its participant log 2 (the `SubCommit`, the commit
    /// marker) and the decision log 1. Without the decision the marker is
    /// out, and a kept local commit needs the participant record: main
    /// prefixes 0–4 without the record (5) and 0–5 with it (6). With the
    /// decision the local commit is in: with and without the marker (2).
    /// 13 in all, the empty cut among them.
    #[test]
    fn a_one_transaction_cross_shard_run_has_thirteen_consistent_cuts_per_shard() {
        let coord = Coordinator::new(FleetConfig {
            n_shards: 2,
            db_params: cut_fleet(),
            ..Default::default()
        });
        let db = Database::build(&cut_fleet()).unwrap();
        let spec = cut_batch(&db, coord.partition()).remove(1);
        assert!(coord.submit(&spec, CommitProtocol::OpenNested).1.is_ok());
        for s in 0..2 {
            let logs = shard_logs(&coord, s).unwrap();
            let window = std::array::from_fn(|i| &logs[i].records[..]);
            let cuts = cuts(window, &pieces_of(&logs[2].records));
            assert_eq!(cuts.len(), 13, "shard {s}: {cuts:?}");
        }
    }

    #[test]
    fn a_local_commit_without_its_participant_record_is_no_cut() {
        let op = RedoOp::Put { obj: ObjectId(9), value: Value::Int(1) };
        let main = [
            WalRecord::LeafRedo { top: 5, subtree: 1, op },
            WalRecord::SubCommit { top: 5, subtree: 1, comp: vec![] },
            WalRecord::TopCommit { top: 5 },
        ];
        let part = [
            WalRecord::SubCommit { top: 1, subtree: 5, comp: vec![] },
            WalRecord::TopCommit { top: 1 },
        ];
        let decision = [WalRecord::TopCommit { top: 1 }];
        let cuts = cuts([&decision[..], &main[..], &part[..]], &pieces_of(&part));
        let consistent = |keep| cuts.iter().any(|(k, _)| *k == keep);
        assert!(!consistent([0, 3, 0]), "a local commit, no participant record");
        assert!(consistent([0, 3, 1]));
        assert!(!consistent([1, 2, 1]), "a decision, no local commit");
        assert!(!consistent([0, 3, 2]), "a marker, no decision");
        assert!(consistent([1, 3, 2]));
    }

    /// The re-cut of a progress log that recovery wrote behind a
    /// checkpoint. One worker, so that the seed alone places the last
    /// checkpoint, and with it the transactions behind it.
    #[test]
    fn torture_chain_with_checkpointing_converges() {
        let mix = crash_mixes().remove(0).1;
        let params = AuditParams { seed: 5, txns: 60, workers: 1, mix, ..Default::default() };
        let run = FinishedRun::new(&params, CHECKPOINT_WAL).expect("the finished log parses");
        let (image, retired, cuts) = run.behind_checkpoint().unwrap();
        let recut = cuts.into_iter().find_map(|n| {
            let (_, recuts) = run.recover_and_recut(&image.cut(n - retired), n).unwrap();
            (recuts > 0).then_some(recuts)
        });
        assert!(recut.is_some(), "some cut behind the checkpoint must leave a loser");
    }
}
