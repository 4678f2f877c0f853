//! Deterministic fault sweeps: run the order-entry workload on the audit
//! [`Rig`] under an injected-fault schedule, then hold the wreck against
//! the [`crate::validate`] oracles — [`run_chaos`] (storage errors, body
//! panics, compensation faults: every failure *contained*),
//! [`audit_every_cut`] and [`audit_checkpoint_parity`] (every image a
//! crash could leave of a finished run's log: recovery, re-recovery and
//! checkpoints reach the committed prefix), [`run_fsync_failure`] (a
//! failed fsync poisons the log:
//! acked = durable) and [`run_fleet_crash_recover`] (the sharded
//! deployment under shard and coordinator crashes).
//!
//! Faults are drawn from a seeded [`FaultPlan`], so a failing run can be
//! replayed exactly by its `(seed, spec)` pair.

use crate::executor::CommittedTxn;
use crate::rig::{winners, AuditParams, Rig};
use crate::validate::{
    canonical_shard_state, canonical_state, check_committed_prefix, check_semantic_graph, Residue,
};
use semcc_core::wal::checkpoint::fold;
use semcc_core::{
    read_image, FaultSpec, FsyncPolicy, IoFaultPoint, LogImage, MemorySink, RecoveryReport,
    StatsSnapshot, TopInfo, WalConfig, WalError, WalRecord, WalWriter,
};
use semcc_orderentry::{Database, DbParams, MixWeights, TxnSpec, Workload, WorkloadConfig};
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
    /// deadlock victims, compensation retries, …).
    pub stats: StatsSnapshot,
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

    ChaosReport {
        committed: out.metrics.committed,
        failed: out.metrics.failed,
        injected: rig.plan.triggered(),
        stats: out.metrics.stats,
        residue: Residue::of(&engine),
        serializable: check_semantic_graph(&sink.events(), engine.router()).serializable,
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
    /// Some cut ended inside an abort's `CompApplied` run.
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
    /// must end with zero [`Residue`].
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
        // logged a leaf, and the one after a `CompApplied`, which precedes
        // its `TopAbort`, among them.
        report.split_subtree = self.records.iter().enumerate().any(|(i, rec)| {
            let WalRecord::SubCommit { top, subtree, .. } = rec else { return false };
            self.records[..i].iter().any(|r| {
                matches!(r, WalRecord::LeafRedo { top: t, subtree: s, .. } if (t, s) == (top, subtree))
            })
        });
        report.mid_compensation =
            self.records.iter().any(|r| matches!(r, WalRecord::CompApplied { .. }));
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
/// compensated). At ≥ 16 workers the failing fsync is a group-commit
/// *batch* leader's, so the audit also proves that no follower in the
/// failed batch was acknowledged.
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
    let out = rig.run(&builder.build(), rig.batch.clone(), workers);
    rig.check_fsyncgate(&out.committed)
}

// ---------------------------------------------------------------------
// Partial-fleet crash / recover / audit (the sharded deployment)
// ---------------------------------------------------------------------

/// Database scale of every fleet audit.
const FLEET_N_ITEMS: usize = 6;
const FLEET_ORDERS_PER_ITEM: usize = 3;

/// One partial-fleet chaos run: drive the workload through the sharded
/// coordinator, kill `kill`-of-`n_shards` shards at seeded points in the
/// batch (plus whatever the injected [`ShardFaultPoint`] kills on its
/// own), recover everything, and audit.
///
/// [`ShardFaultPoint`]: semcc_core::ShardFaultPoint
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
    /// Injected fleet fault, if any.
    pub fault: Option<semcc_core::ShardFaultPoint>,
    /// Crash the (by then idle) coordinator after the batch, so the
    /// settle phase starts from its decision log alone.
    pub coordinator_crash: bool,
    /// Crash each killed shard *again* mid-recovery before the final
    /// recovery pass (the double-crash case).
    pub double_crash: bool,
}

impl Default for FleetParams {
    fn default() -> Self {
        FleetParams {
            seed: 42,
            txns: 40,
            n_shards: 3,
            kill: 1,
            fault: None,
            coordinator_crash: false,
            double_crash: false,
        }
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
    /// Total shard crashes (scheduled kills + fault-injected).
    pub shard_crashes: u64,
    /// In-doubt pieces kept (commit decision found) by shard recovery.
    pub kept: usize,
    /// Acked commits whose decision is missing after recovery (MUST be 0:
    /// an acked commit may never be lost, whatever crashed).
    pub lost_acked: usize,
    /// One entry per shard that is still dead or whose [`Residue`] is
    /// not clean after the settle phase.
    pub residue_violations: Vec<String>,
    /// First state-audit failure, if any: a recovery step failed, or a
    /// shard's recovered slice did not equal the serial replay of the
    /// committed prefix.
    pub audit_failure: Option<String>,
}

impl FleetReport {
    /// The fleet robustness invariant: no acked commit lost, every shard's
    /// state equals the committed-prefix replay, zero residue everywhere.
    pub fn sound(&self) -> bool {
        self.lost_acked == 0 && self.residue_violations.is_empty() && self.audit_failure.is_none()
    }
}

/// Run one partial-fleet crash/recover/audit cycle.
pub fn run_fleet_crash_recover(params: &FleetParams) -> FleetReport {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use semcc_dist::{CommitProtocol, Coordinator, FleetConfig};

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

    let mut specs: BTreeMap<u64, TxnSpec> = BTreeMap::new();
    let mut acked_ok = 0usize;
    let mut failed = 0usize;
    for (i, spec) in batch.iter().enumerate() {
        for (at, v) in &kills {
            if *at == i {
                coord.shards()[*v].crash();
            }
        }
        if coord.is_down() {
            // The client-visible face of a coordinator crash: the fleet
            // is unavailable until the decision log is reparsed.
            let _ = coord.recover();
        }
        let (gtid, out) = coord.submit(spec, CommitProtocol::OpenNested);
        specs.insert(gtid, spec.clone());
        match out {
            Ok(_) => acked_ok += 1,
            Err(_) => failed += 1,
        }
    }

    if params.coordinator_crash {
        coord.crash();
    }

    // Settle: recover the coordinator and every dead shard; re-driven
    // resolutions may themselves trip a not-yet-fired crash fault, so
    // iterate until the fleet is stable.
    let mut reports: Vec<semcc_dist::ShardRecoveryReport> = Vec::new();
    let mut audit_failure: Option<String> = None;
    if params.double_crash {
        for idx in 0..params.n_shards {
            if coord.shards()[idx].is_dead() {
                // First recovery attempt dies mid-flight (injected); the
                // final pass below must converge from the re-crashed logs.
                let _ = coord.shards()[idx].recover_opts(&coord.decisions(), true);
            }
        }
    }
    for _round in 0..4 {
        if coord.is_down() {
            if let Err(e) = coord.recover() {
                audit_failure = Some(format!("coordinator recovery failed: {e}"));
                break;
            }
        }
        let mut any_dead = false;
        for idx in 0..params.n_shards {
            if coord.shards()[idx].is_dead() {
                any_dead = true;
                match coord.recover_shard(idx) {
                    Ok(r) => reports.push(r),
                    Err(e) => {
                        audit_failure = Some(format!("shard {idx} recovery failed: {e}"));
                    }
                }
            }
        }
        if audit_failure.is_some() {
            break;
        }
        // Re-drive every decision (idempotent) so shards that missed a
        // resolution — dropped rpc, crash windows — converge.
        if let Err(e) = coord.recover() {
            audit_failure = Some(format!("decision re-drive failed: {e}"));
            break;
        }
        if !any_dead && !coord.is_down() {
            break;
        }
    }

    // ---- audits -------------------------------------------------------
    let committed = coord.committed_gtids();
    let committed_set: HashSet<u64> = committed.iter().copied().collect();
    let lost_acked = coord.acked().iter().filter(|g| !committed_set.contains(g)).count();

    let residue_violations = coord
        .shards()
        .iter()
        .filter_map(|shard| match shard.with_live(|engine, _| Residue::of(engine).check()) {
            Some(Ok(())) => None,
            Some(Err(e)) => Some(format!("shard {}: {e}", shard.idx())),
            None => Some(format!("shard {} still dead", shard.idx())),
        })
        .collect();

    if audit_failure.is_none() {
        audit_failure = check_fleet_state(&coord, &committed, &specs, &reference).err();
    }

    let stats = coord.fleet_stats();
    FleetReport {
        acked: acked_ok,
        committed: committed.len(),
        failed,
        cross_shard: stats.cross_shard_txns,
        shard_crashes: stats.shard_crashes,
        kept: reports.iter().map(|r| r.kept).sum(),
        lost_acked,
        residue_violations,
        audit_failure,
    }
}

/// The fleet's state audit: each recovered shard's slice must equal the
/// serial replay, on the initial state `fresh`, of its pieces of the
/// committed prefix, in decision order.
fn check_fleet_state(
    coord: &semcc_dist::Coordinator,
    committed: &[u64],
    specs: &BTreeMap<u64, TxnSpec>,
    fresh: &Database,
) -> Result<(), String> {
    let n_shards = coord.shards().len();
    let mut pieces: Vec<Vec<TxnSpec>> = vec![Vec::new(); n_shards];
    for gtid in committed {
        let spec =
            specs.get(gtid).ok_or_else(|| format!("committed gtid {gtid} was never submitted"))?;
        for (shard, piece) in coord.partition().split(spec) {
            pieces[shard].push(piece);
        }
    }
    for shard in coord.shards() {
        let idx = shard.idx();
        let winners: Vec<&TxnSpec> = pieces[idx].iter().collect();
        shard
            .with_live(|engine, _| {
                check_committed_prefix(fresh, &winners, engine.storage().as_ref(), |store| {
                    canonical_shard_state(store, fresh.items_set, n_shards, idx)
                })
            })
            .unwrap_or_else(|| Err("still dead".into()))
            .map_err(|e| format!("shard {idx}: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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
