//! Durability regression suite.
//!
//! The cut audit (every image a crash could leave of a finished run's log,
//! recovered and checked against the committed prefix, see
//! `sim::chaos::audit_every_cut`) plus targeted scenarios for the recovery
//! path itself: losers compensated from logged intents, recovery-time
//! compensation faults retried under the bounded budget, and the original
//! abort cause surviving a failing compensation (the error-shadowing
//! regression). Every workload run is watchdog-guarded — a hang is a
//! recovery failure and must surface as a test failure, not a stuck CI
//! job.

use semcc::core::{
    read_image, recover_image, Engine, Event, FaultPlan, FaultSpec, FnProgram, FsyncPolicy,
    IoFaultPoint, LogImage, MemorySink, ProtocolConfig, RecoveryReport, RedoOp, TransactionProgram,
    WalConfig, WalRecord, WalWriter,
};
use semcc::orderentry::{Database, DbParams, StatusEvent, Target, HOOK_SHIP_AFTER_CHANGE_STATUS};
use semcc::semantics::{Invocation, MethodContext, SemccError, Storage, Value};
use semcc::sim::scenario::{await_event, guarded, seed_window, top_of_label, Gate, OpenOnDrop};
use semcc::sim::{
    audit_checkpoint_parity, audit_every_cut, crash_mixes, enumerate_log_faults, run_fsync_failure,
    AuditParams, CutReport, ProtocolKind,
};
use std::sync::Arc;
use std::time::Duration;

/// `audit` of `params`' run, a tenth of its method bodies panicking so
/// that aborts compensate. The seeds come from `seed_window(1)`, which CI
/// shifts via `SEMCC_CHAOS_SEED_OFFSET`.
fn cut_audit(
    label: &str,
    audit: fn(&AuditParams) -> Result<CutReport, String>,
    params: AuditParams,
) -> CutReport {
    let params = AuditParams { faults: FaultSpec::body_panic(0.1), ..params };
    guarded(label, move || audit(&params)).unwrap_or_else(|e| panic!("{label}: {e}"))
}

/// Every cut of a finished run's log, for each workload mix: every frame
/// boundary recovers to the serial replay of its committed prefix with
/// nothing left behind, every torn offset reads as the boundary before
/// it, every flipped byte is refused, and every cut of the progress log a
/// recovery with losers writes recovers to the same prefix again. The
/// cuts must reach every kind of crash the log can see.
#[test]
fn every_cut_of_a_finished_run_recovers_to_its_committed_prefix() {
    let mut reports = Vec::new();
    for (mix_name, mix) in crash_mixes() {
        for seed in seed_window(1) {
            let params = AuditParams { seed, txns: 24, mix, ..Default::default() };
            let r = cut_audit(mix_name, audit_every_cut, params);
            assert!(r.boundary_cuts > r.committed as usize, "{mix_name}: {r:?}");
            assert!(r.torn_cuts > 0 && r.bit_flips > 0, "{mix_name}: {r:?}");
            reports.push(r);
        }
    }
    let some = |what: &str, reached: fn(&CutReport) -> bool| {
        assert!(reports.iter().any(reached), "no cut {what}: {reports:?}");
    };
    some("erased a commit", |r| r.erased_commit);
    some("split a leaf from its SubCommit", |r| r.split_subtree);
    some("fell inside an abort's compensations", |r| r.mid_compensation);
    some("of a progress log was recovered again", |r| r.progress_cuts > 0);
}

/// Checkpoint parity at every cut behind the last checkpoint a finished
/// checkpointing run installed: recovering from the checkpoint and from
/// the full log give the same store dump, version stamps included —
/// also where the checkpoint caught a subtree open.
#[test]
fn every_cut_behind_a_checkpoint_recovers_like_the_full_log() {
    for seed in seed_window(1) {
        let mix = crash_mixes().remove(0).1;
        let params = AuditParams { seed, txns: 60, mix, ..Default::default() };
        let r = cut_audit("parity", audit_checkpoint_parity, params);
        assert!(r.checkpoints_taken >= 1, "seed {seed}: {r:?}");
        assert!(r.boundary_cuts > 0, "seed {seed}: {r:?}");
    }
}

/// The fsyncgate invariant under the workload: an injected fsync failure
/// poisons the log, and no update transaction is ever acknowledged whose
/// commit record is not durable.
#[test]
fn fsync_failure_acknowledgement_audit_across_seeds() {
    for (seed, nth) in [(11, 5), (23, 9), (37, 3)] {
        run_fsync_failure(seed, 40, nth, 4)
            .unwrap_or_else(|e| panic!("fsync audit seed {seed} nth {nth}: {e}"));
    }
}

/// The `(seed, nth)` cells of the batch fsync audit.
const BATCH_FSYNC_CELLS: [(u64, u64); 3] = [(13, 4), (29, 8), (41, 2)];

/// Batch fsyncgate: with 16 workers the failing fsync belongs to a
/// group-commit *leader*, so the poisoned sync covers a whole batch of
/// parked followers. The audit inside [`run_fsync_failure`] proves no
/// member of the failed batch — leader or follower — was acknowledged
/// without a durable commit record, and that the live store equals the
/// serial replay of exactly the acknowledged set.
#[test]
fn fsync_failure_in_a_group_commit_batch_leaves_no_partial_acks() {
    for (seed, nth) in BATCH_FSYNC_CELLS {
        run_fsync_failure(seed, 60, nth, 16)
            .unwrap_or_else(|e| panic!("batch fsync audit seed {seed} nth {nth}: {e}"));
    }
}

/// The red rate of the batch fsync audit: each of its cells run 300 times
/// in one process, the red count per cell printed with its first failure.
/// `cargo test --test recovery -- --ignored --nocapture red_rate`
#[test]
#[ignore = "measurement, not a check"]
fn batch_fsync_red_rate_probe() {
    const RUNS: usize = 300;
    for (seed, nth) in BATCH_FSYNC_CELLS {
        let failures: Vec<String> =
            (0..RUNS).filter_map(|_| run_fsync_failure(seed, 60, nth, 16).err()).collect();
        let first = failures.first().map_or("", String::as_str);
        println!("seed {seed} nth {nth}: red {} of {RUNS} {first}", failures.len());
    }
}

/// Every single fault of the log device — each append, each fsync — on a
/// scripted run of seven order-entry transactions, under both fsync
/// policies: every run is undone to exactly its durable prefix, with no
/// failed undo and nothing left behind. The faults land on every kind of
/// forward record.
#[test]
fn every_single_log_fault_is_undone_to_the_durable_prefix() {
    let report = guarded("log faults", enumerate_log_faults).unwrap_or_else(|e| panic!("{e}"));
    let mut kinds = std::collections::BTreeMap::new();
    for (fsync, fault, kind) in &report.runs {
        println!("{fsync:?} {fault:?}: {kind}");
        *kinds.entry(*kind).or_insert(0) += 1;
    }
    for kind in ["LeafRedo", "SubIntent", "SubCommit", "TopCommit"] {
        assert!(kinds.contains_key(kind), "no fault landed on a {kind}: {kinds:?}");
    }
}

/// A leaf whose redo record cannot be appended is restored in place, with
/// no lock request and no compensating action. The case an undo by
/// compensation lost: T1 committed `ChangeStatus(shipped)` and keeps its
/// retained locks; T2's `ChangeStatus(paid)` gets its status `Put` by
/// Case 1, and that `Put`'s `LeafRedo` is the append that fails. Undone as
/// a new action under T2's root, the `Put` waits behind T1's retained lock
/// with no commuting ancestor; once T1 asks for a lock T2 holds, T2 is the
/// deadlock victim on every retry and its `Put` stays.
#[test]
fn a_leaf_whose_record_fails_is_restored_in_place() {
    let params = DbParams { n_items: 1, orders_per_item: 1, ..Default::default() };
    let db = Database::build(&params).unwrap();
    let order = db.items[0].orders[0].order;
    let status = db.store.field(order, "Status").unwrap();
    let initial = db.store.get(status).unwrap();
    // T1's `LeafRedo` and `SubCommit`, then T2's `LeafRedo`.
    let fault = FaultSpec::default().with_io(IoFaultPoint::AppendError { nth: 3 });
    let wal = WalWriter::with_config_and_faults(
        FsyncPolicy::EveryAppend,
        WalConfig::default(),
        FaultPlan::new(1, fault),
    );
    let sink = MemorySink::new();
    let engine = ProtocolKind::Semantic
        .builder(&db)
        .wal(Arc::clone(&wal))
        .compensation_retries(3, Duration::from_micros(50))
        .sink(sink.clone())
        .build();
    let change = |event: StatusEvent| vec![event.value()];
    let (parked, go) = (Gate::new(), Gate::new());
    let (p, g) = (Arc::clone(&parked), Arc::clone(&go));
    let t1 = FnProgram::new("T1", move |ctx: &mut dyn MethodContext| {
        ctx.call(order, "ChangeStatus", change(StatusEvent::Shipped))?;
        p.open();
        g.wait();
        // Conflicts with T2's `ChangeStatus(paid)` while T2 runs.
        ctx.call(order, "TestStatus", change(StatusEvent::Paid))
    });
    let t2 = FnProgram::new("T2", move |ctx: &mut dyn MethodContext| {
        ctx.call(order, "ChangeStatus", change(StatusEvent::Paid))
    });

    let (r2, requests) = std::thread::scope(|s| {
        let _unstick = OpenOnDrop::new([Arc::clone(&go)]);
        let h1 = s.spawn(|| engine.execute(&t1));
        parked.wait();
        let t1_top = top_of_label(&sink, "T1", 0).expect("T1 began");
        let before = engine.stats().lock_requests;
        let h2 = s.spawn(|| engine.execute(&t2));
        // T2 ends, or (its undo needing a lock) waits for T1.
        await_event(&sink, "T2 blocked or ended", |e| {
            e.ev.top() != t1_top && matches!(e.ev, Event::Blocked { .. } | Event::TopAbort { .. })
        });
        let requests = engine.stats().lock_requests - before;
        go.open();
        let r1 = h1.join().unwrap();
        assert!(
            matches!(r1, Err(SemccError::Durability(_))),
            "T1 commits on a poisoned log: {r1:?}"
        );
        (h2.join().unwrap(), requests)
    });

    assert!(matches!(r2, Err(SemccError::Durability(_))), "{r2:?}");
    let records = read_image(&wal.surviving_image()).unwrap().records;
    assert_eq!(records.len(), 2, "the fault hit T2's LeafRedo: {records:?}");
    assert_eq!(db.store.get(status).unwrap(), initial, "T2's Put outlived both aborts");
    assert_eq!(requests, 3, "T2's ChangeStatus, Get and Put; the restore asks for no lock");
    let t2 = top_of_label(&sink, "T2", 0).unwrap();
    let waited = sink.events().into_iter().any(|e| {
        e.ev.top() == t2 && matches!(e.ev, Event::Compensate { .. } | Event::Blocked { .. })
    });
    assert!(!waited, "T2 neither compensated nor waited");
    assert_eq!(engine.stats().compensation_failures, 0);
    assert_eq!(engine.live_transactions(), 0);
    assert_eq!(engine.lock_entries(), 0);
}

/// Torn tail *inside a group-commit batch*: under `OnCommit` with eight
/// workers, commit frames of a batch sit next to each other in the log, so
/// a cut can tear one of them while the process acknowledged the later
/// ones. Every cut of such a log must audit like any other.
#[test]
fn torn_tail_inside_a_group_commit_batch_recovers_sound() {
    for seed in seed_window(1) {
        let params = AuditParams {
            seed,
            txns: 24,
            workers: 8,
            fsync: FsyncPolicy::OnCommit,
            ..Default::default()
        };
        let r = cut_audit(&format!("torn-batch/seed{seed}"), audit_every_cut, params);
        assert!(r.erased_commit && r.torn_cuts > 0, "{r:?}");
    }
}

/// The semantic protocol's engine over `db`, logging to `wal`.
fn logged(db: &Database, wal: &Arc<WalWriter>) -> Arc<Engine> {
    ProtocolKind::Semantic.builder(db).wal(Arc::clone(wal)).build()
}

fn db2() -> Database {
    Database::build(&DbParams { n_items: 1, orders_per_item: 2, ..Default::default() }).unwrap()
}

fn ship_two(db: &Database) -> impl TransactionProgram {
    let a = Target { item: db.items[0].item, order: db.items[0].orders[0].order };
    let b = Target { item: db.items[0].item, order: db.items[0].orders[1].order };
    FnProgram::new("ship-two", move |ctx: &mut dyn MethodContext| {
        ctx.call(a.item, "ShipOrder", vec![Value::Id(a.order)])?;
        ctx.call(b.item, "ShipOrder", vec![Value::Id(b.order)])
    })
}

/// The log image of a transaction that completed two subtransactions but
/// whose `TopCommit` frame was torn by the crash: a loser with surviving
/// compensation intents. The process itself committed.
fn losing_log() -> LogImage {
    let db = db2();
    let wal = WalWriter::new(FsyncPolicy::EveryAppend);
    let engine = logged(&db, &wal);
    engine.execute(&ship_two(&db)).expect("the run commits");
    let image = wal.surviving_image();
    let ends = image.frame_ends();
    image.cut(ends[ends.len() - 2] + 1)
}

/// One recovery pass over `image` onto `base`, no progress log.
fn recover_onto(
    image: &LogImage,
    base: &Database,
    faults: Option<Arc<FaultPlan>>,
) -> Result<(Arc<Engine>, RecoveryReport), SemccError> {
    recover_image(
        image,
        Arc::clone(&base.store),
        Arc::clone(&base.catalog),
        ProtocolConfig::semantic(),
        faults,
        None,
    )
}

/// Recovery compensates a loser from its logged intents and leaves the
/// store at the initial state (both ShipOrders undone).
#[test]
fn recovery_compensates_a_loser_back_to_the_initial_state() {
    let image = losing_log();
    let base = db2();
    let (engine, report) = recover_onto(&image, &base, None).expect("recovery");
    assert_eq!(report.winners, 0, "{report:?}");
    assert_eq!(report.losers, 1, "{report:?}");
    assert!(report.truncated_bytes > 0, "the torn commit frame must be dropped: {report:?}");
    assert!(report.replayed_actions > 0, "{report:?}");
    assert_eq!(report.compensations, 4, "two inverses per shipped order: {report:?}");
    assert!(report.failures.is_empty(), "{report:?}");
    // Both orders back to no shipped event.
    let fresh = db2();
    for i in [0, 1] {
        let order = base.items[0].orders[i].order;
        let want =
            fresh.store.get(fresh.store.field(fresh.items[0].orders[i].order, "Status").unwrap());
        let got = base.store.get(base.store.field(order, "Status").unwrap());
        assert_eq!(got.unwrap(), want.unwrap(), "order {i} not fully compensated");
    }
    let stats = engine.stats();
    assert_eq!(stats.recoveries, 1, "{stats:?}");
    assert!(stats.replayed_actions > 0, "{stats:?}");
    assert_eq!(stats.recovery_compensations, 4, "{stats:?}");
    assert_eq!(engine.live_transactions(), 0);
    assert_eq!(engine.lock_entries(), 0);
}

/// Idempotent re-recovery, deterministic edition: the first recovery pass
/// dies with only its progress mark durable (the cut of its progress log
/// right after the mark — its compensation work is lost with the
/// machine), and a second pass over the wreckage must converge to exactly
/// the state a single clean recovery reaches.
#[test]
fn recovery_cut_after_its_mark_converges_to_the_clean_recovery_state() {
    let image = losing_log();
    let resume = |image: &LogImage| {
        WalWriter::resume(image, FsyncPolicy::EveryAppend, None, WalConfig::default())
            .expect("resume")
    };
    let recover = |image: &LogImage, db: &Database, progress: Option<Arc<WalWriter>>| {
        let (store, catalog) = (Arc::clone(&db.store), Arc::clone(&db.catalog));
        recover_image(image, store, catalog, ProtocolConfig::semantic(), None, progress)
            .expect("recovery")
    };

    // Pass 0, cut right after its mark.
    let progress = resume(&image);
    recover(&image, &db2(), Some(Arc::clone(&progress)));
    let log = progress.surviving_image();
    let surviving = read_image(&image).unwrap().records.len();
    let wreckage = log.cut(log.frame_ends()[surviving]);
    let records = read_image(&wreckage).unwrap().records;
    assert!(matches!(records.last(), Some(WalRecord::RecoveryMark { pass: 1 })), "{records:?}");

    // Pass 1: clean, over the wreckage.
    let chained = db2();
    let (engine, report) = recover(&wreckage, &chained, Some(resume(&wreckage)));
    assert!(report.rerecovery, "the second pass must see the first pass's mark: {report:?}");
    assert!(report.failures.is_empty(), "{report:?}");
    assert_eq!(engine.stats().rerecoveries, 1, "{:?}", engine.stats());
    assert_eq!(engine.live_transactions(), 0);
    assert_eq!(engine.lock_entries(), 0);

    // Reference: one clean recovery of the original image.
    let clean = db2();
    recover(&image, &clean, None);
    assert_eq!(
        chained.store.dump(),
        clean.store.dump(),
        "double-crash recovery must converge to the clean-recovery state"
    );
}

/// A CRC mismatch in the *middle* of the log — valid records follow the
/// damaged frame — is media corruption, not a torn tail: recovery must
/// refuse the image with a hard error instead of silently truncating away
/// committed work.
#[test]
fn mid_log_corruption_is_quarantined_not_silently_truncated() {
    let db = db2();
    let plan =
        FaultPlan::new(1, FaultSpec::default().with_io(IoFaultPoint::CorruptFrame { nth: 3 }));
    let wal =
        WalWriter::with_config_and_faults(FsyncPolicy::EveryAppend, WalConfig::default(), plan);
    let engine = logged(&db, &wal);
    // Two committed transactions: the bit flipped in the first one's
    // frames sits well before the second one's valid records.
    let t = Target { item: db.items[0].item, order: db.items[0].orders[0].order };
    let ship = FnProgram::new("ship", move |ctx: &mut dyn MethodContext| {
        ctx.call(t.item, "ShipOrder", vec![Value::Id(t.order)])
    });
    let pay = FnProgram::new("pay", move |ctx: &mut dyn MethodContext| {
        ctx.call(t.item, "PayOrder", vec![Value::Id(t.order), Value::Money(3)])
    });
    engine.execute(&ship).expect("first transaction commits");
    engine.execute(&pay).expect("second transaction commits");

    let base = db2();
    let err = recover_onto(&wal.surviving_image(), &base, None)
        .expect_err("mid-log corruption must be a hard error");
    let msg = err.to_string();
    assert!(
        msg.contains("corrupt") || msg.contains("Corrupt"),
        "the error must name the corruption: {msg}"
    );
}

/// Recovery replay must bump version stamps exactly as the live path did:
/// the snapshot read path validates against those stamps, so a recovered
/// store that diverged would silently invalidate (or worse, falsely
/// validate) post-recovery snapshot readers. Covers both winner redo and
/// compensation replay — an aborted transaction's forward effects and
/// their inverses each bump the stamp, and the replayed history must walk
/// the identical sequence.
#[test]
fn recovery_replay_bumps_versions_identically_to_the_live_path() {
    let live = db2();
    let wal = WalWriter::new(FsyncPolicy::EveryAppend);
    let engine = logged(&live, &wal);
    engine.execute(&ship_two(&live)).expect("winner commits");
    // An aborted top: its subtransaction commits (logged with the
    // compensation intent), then the program fails, so the compensation
    // runs — and is logged — on the live path.
    let t = Target { item: live.items[0].item, order: live.items[0].orders[0].order };
    let prog = FnProgram::new("abort-after-pay", move |ctx: &mut dyn MethodContext| {
        ctx.call(t.item, "PayOrder", vec![Value::Id(t.order), Value::Money(7)])?;
        Err(SemccError::Aborted("intentional".into()))
    });
    assert!(engine.execute(&prog).is_err(), "the loser must abort");

    let image = wal.surviving_image();
    let base = db2();
    let (_, report) = recover_onto(&image, &base, None).expect("recovery");
    assert!(report.failures.is_empty(), "{report:?}");
    assert!(report.replayed_actions > 0, "{report:?}");
    assert_eq!(
        base.store.version_state(),
        live.store.version_state(),
        "replayed history must leave every object at the live path's version stamp"
    );
}

/// A compensation fault injected *into recovery itself* is retried under
/// the engine's bounded budget: the pass still succeeds, and the retries
/// are visible in the stats.
#[test]
fn recovery_retries_injected_compensation_faults_to_success() {
    let image = losing_log();
    let base = db2();
    let plan = FaultPlan::new(
        9,
        FaultSpec { compensation_error: 1.0, ..FaultSpec::default() }.with_max_triggers(2),
    );
    let (engine, report) = recover_onto(&image, &base, Some(Arc::clone(&plan))).expect("recovery");
    assert_eq!(plan.triggered(), 2, "both budgeted faults must fire");
    assert!(report.failures.is_empty(), "retries must absorb the faults: {report:?}");
    assert_eq!(report.compensations, 4, "{report:?}");
    let stats = engine.stats();
    assert!(stats.compensation_retries >= 2, "{stats:?}");
    assert_eq!(stats.recovery_compensations, 4, "{stats:?}");
    assert_eq!(engine.live_transactions(), 0);
    assert_eq!(engine.lock_entries(), 0);
}

/// When the retry budget cannot absorb the faults (they fire on every
/// attempt), recovery surfaces a `CompensationFailure` for that loser and
/// continues — the engine still ends clean.
#[test]
fn recovery_surfaces_unabsorbable_compensation_faults() {
    let image = losing_log();
    let base = db2();
    let plan = FaultPlan::new(9, FaultSpec { compensation_error: 1.0, ..FaultSpec::default() });
    let (engine, report) =
        recover_onto(&image, &base, Some(plan)).expect("recovery itself must not error");
    assert_eq!(report.failures.len(), 1, "{report:?}");
    let (_, msg) = &report.failures[0];
    assert!(msg.contains("compensation"), "failure must name the injected cause: {msg}");
    assert_eq!(engine.stats().compensation_failures, 1, "counted once: {:?}", engine.stats());
    // A partially-compensated loser is reported, never allowed to wedge
    // the engine: no live transaction, no lock entry survives.
    assert_eq!(engine.live_transactions(), 0);
    assert_eq!(engine.lock_entries(), 0);
}

/// The error-shadowing regression, compensation-fault edition: an abort
/// whose compensations fault (and are retried to success) still reports
/// the *original* abort cause to the caller.
#[test]
fn abort_cause_survives_retried_compensation_faults() {
    let db = db2();
    let plan = FaultPlan::new(
        7,
        FaultSpec { compensation_error: 1.0, ..FaultSpec::default() }.with_max_triggers(2),
    );
    let engine = ProtocolKind::Semantic.builder(&db).fault_plan(Arc::clone(&plan)).build();
    let t = Target { item: db.items[0].item, order: db.items[0].orders[0].order };
    let prog = FnProgram::new("T", move |ctx: &mut dyn MethodContext| {
        ctx.call(t.item, "ShipOrder", vec![Value::Id(t.order)])?;
        panic!("boom-original");
    });
    match engine.execute(&prog) {
        Err(SemccError::MethodPanicked(msg)) => assert!(msg.contains("boom-original"), "{msg}"),
        other => panic!("original cause must survive the faulted compensation: {other:?}"),
    }
    assert_eq!(plan.triggered(), 2);
    let stats = engine.stats();
    assert!(stats.compensation_retries >= 2, "{stats:?}");
    assert_eq!(engine.live_transactions(), 0);
    assert_eq!(engine.lock_entries(), 0);
}

/// The lost-intent crash: a deep subtransaction's effect is exposed to a
/// commuting winner *before* its enclosing depth-1 subtree logs the
/// `SubCommit` that carries its compensation intent. A ShipOrder parks
/// right after its nested `ChangeStatus(shipped)` committed (locks
/// retained — the paper's Figure-7 moment); a PayOrder on the same order
/// commutes past it, embeds the shipped bit in the absolute status value
/// it logs, and commits. If the process dies there, the only durable undo
/// for the shipped bit is the `SubIntent` record appended at the deep
/// subcommit — without it, recovery replays the winner (shipped bit and
/// all) and has nothing to compensate the loser with, leaving a status no
/// serial history can produce. A checkpoint cut there holds the exposed
/// `ChangeStatus` leaf: recovery from it must keep the winner's status
/// rather than restore the loser's before-image.
#[test]
fn recovery_compensates_deep_intents_exposed_before_their_subcommit() {
    let params = DbParams { n_items: 1, orders_per_item: 1, ..Default::default() };
    let body_gate = Gate::new();
    let parked = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let armed = Arc::new(std::sync::atomic::AtomicBool::new(true));
    let (bg, pk, arm) = (Arc::clone(&body_gate), Arc::clone(&parked), Arc::clone(&armed));
    let hook: semcc::orderentry::ScenarioHook = Arc::new(move |point: &str| {
        if point == HOOK_SHIP_AFTER_CHANGE_STATUS && arm.load(std::sync::atomic::Ordering::SeqCst) {
            pk.store(true, std::sync::atomic::Ordering::SeqCst);
            bg.wait();
        }
    });
    let db = Database::build_with_hook(&params, Some(hook)).unwrap();
    let config = WalConfig { retain_for_audit: true, ..WalConfig::default() };
    let wal = WalWriter::with_config(FsyncPolicy::EveryAppend, config);
    let engine = logged(&db, &wal);
    let t = Target { item: db.items[0].item, order: db.items[0].orders[0].order };

    let images = std::thread::scope(|s| {
        let e = Arc::clone(&engine);
        s.spawn(move || {
            let p = FnProgram::new("loser-ship", move |ctx: &mut dyn MethodContext| {
                ctx.call(t.item, "ShipOrder", vec![Value::Id(t.order)])
            });
            // Commits in-process once the gate opens; the log snapshot
            // below was already taken by then.
            e.execute(&p).unwrap();
        });
        while !parked.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // ChangeStatus(shipped) is subcommitted and exposed; ShipOrder's
        // own SubCommit is not logged. PayOrder commutes with it at both
        // levels and commits, logging status = shipped|paid absolutely.
        let p = FnProgram::new("winner-pay", move |ctx: &mut dyn MethodContext| {
            ctx.call(t.item, "PayOrder", vec![Value::Id(t.order), Value::Money(7)])
        });
        engine.execute(&p).expect("the commuting payment must commit");
        assert!(engine.checkpoint().unwrap(), "checkpointed inside the open ShipOrder");
        let images = (wal.surviving_full_image(), wal.surviving_image());
        armed.store(false, std::sync::atomic::Ordering::SeqCst);
        body_gate.open();
        images
    });
    let (image, from_checkpoint) = images;

    // The crash image must show the exposure gap this record closes:
    // a SubIntent for the shipped bit, no SubCommit from the loser.
    let records = read_image(&image).expect("the crash image parses").records;
    let loser = records
        .iter()
        .find_map(|r| match r {
            WalRecord::SubIntent { top, .. } => Some(*top),
            _ => None,
        })
        .expect("the deep ChangeStatus subcommit must log a SubIntent");
    assert!(
        !records.iter().any(|r| matches!(r, WalRecord::SubCommit { top, .. } if *top == loser)),
        "the loser's depth-1 SubCommit must not have reached the log"
    );

    let base = Database::build(&params).unwrap();
    let (_, report) = recover_onto(&image, &base, None).expect("recovery");
    assert_eq!(report.winners, 1, "{report:?}");
    assert_eq!(report.losers, 1, "{report:?}");
    assert!(report.compensations >= 1, "the orphan intent must run: {report:?}");
    assert!(report.failures.is_empty(), "{report:?}");

    // Recovered state must equal the serial replay of the committed
    // prefix — the payment alone.
    let serial = Database::build(&params).unwrap();
    let se = ProtocolKind::Semantic.builder(&serial).build();
    let p = FnProgram::new("serial-pay", move |ctx: &mut dyn MethodContext| {
        ctx.call(t.item, "PayOrder", vec![Value::Id(t.order), Value::Money(7)])
    });
    se.execute(&p).unwrap();
    let status = |db: &Database| {
        db.store.get(db.store.field(db.items[0].orders[0].order, "Status").unwrap()).unwrap()
    };
    assert_eq!(
        status(&base),
        status(&serial),
        "the exposed-then-crashed shipped bit must be compensated away"
    );
    let from_cp = Database::build(&params).unwrap();
    recover_onto(&from_checkpoint, &from_cp, None).expect("recovery from the checkpoint");
    assert_eq!(from_cp.store.dump(), base.store.dump(), "checkpoint != full log");
}

/// Same regression with the budget exhausted: the compensation failure is
/// chained into the event stream alongside the original cause — it never
/// shadows it.
#[test]
fn exhausted_compensation_budget_chains_instead_of_shadowing() {
    let db = db2();
    let sink = MemorySink::new();
    let plan = FaultPlan::new(7, FaultSpec { compensation_error: 1.0, ..FaultSpec::default() });
    let engine = ProtocolKind::Semantic
        .builder(&db)
        .fault_plan(plan)
        .compensation_retries(3, Duration::from_micros(50))
        .sink(sink.clone())
        .build();
    let t = Target { item: db.items[0].item, order: db.items[0].orders[0].order };
    let prog = FnProgram::new("T", move |ctx: &mut dyn MethodContext| {
        ctx.call(t.item, "ShipOrder", vec![Value::Id(t.order)])?;
        panic!("boom-original");
    });
    match engine.execute(&prog) {
        Err(SemccError::MethodPanicked(msg)) => assert!(msg.contains("boom-original"), "{msg}"),
        other => panic!("original cause must not be shadowed: {other:?}"),
    }
    let failures: Vec<_> = sink
        .events()
        .into_iter()
        .filter_map(|e| match e.ev {
            Event::CompensationFailure { error, original, .. } => Some((error, original)),
            _ => None,
        })
        .collect();
    let [(error, original)] = &failures[..] else { panic!("one failure event: {failures:?}") };
    assert!(error.contains("compensation") && original.contains("boom-original"), "{failures:?}");
    assert_eq!(engine.stats().compensation_failures, 1, "counted once: {:?}", engine.stats());
    assert_eq!(engine.live_transactions(), 0);
    assert_eq!(engine.lock_entries(), 0);
}

/// An inverse's redo and its progress mark must be one record: with two, a
/// cut between them makes recovery apply the inverse twice — redo repeats
/// the `CompRedo`, and the undo, counting no mark for it, runs it again.
/// Absolute writes shrug that off (only version stamps differ), but an
/// escrow delta does not. An inverse that is one leaf carries its mark in
/// that leaf's record (`CompRedo { applied: true }`), so every cut of this
/// abort recovers the initial stock exactly.
#[test]
fn every_cut_of_an_escrow_abort_compensates_exactly_once() {
    let params = DbParams { n_items: 1, orders_per_item: 2, escrow: true, ..Default::default() };
    let db = Database::build(&params).unwrap();
    let wal = WalWriter::new(FsyncPolicy::EveryAppend);
    let engine = logged(&db, &wal);
    let t = Target { item: db.items[0].item, order: db.items[0].orders[0].order };
    let prog = FnProgram::new("ship-then-abort", move |ctx: &mut dyn MethodContext| {
        ctx.call(t.item, "ShipOrder", vec![Value::Id(t.order)])?;
        Err(SemccError::Aborted("scripted".into()))
    });
    assert!(engine.execute(&prog).is_err());

    let image = wal.surviving_image();
    let records = read_image(&image).unwrap().records;
    let qoh = |db: &Database| db.store.get(db.items[0].qoh).unwrap();
    let initial = qoh(&Database::build(&params).unwrap());
    for (n, rec) in image.frame_ends().into_iter().zip(&records) {
        let base = Database::build(&params).unwrap();
        recover_onto(&image.cut(n), &base, None).expect("recovery");
        assert_eq!(qoh(&base), initial, "cut at byte {n}, after {rec:?}");
    }
}

/// A checkpoint cut while a depth-1 subtree is open dumps that subtree's
/// leaves. Should the crash come before its `SubCommit`, recovery from the
/// full log never replays them (the subtree died unexposed), so recovery
/// from the checkpoint must take them back, version stamps included, with
/// the inverse the writer kept for it. Scripted on the log directly — a
/// creation and a put applied and logged as the engine does, then the
/// checkpoint — since no order-entry method can be paused right after a
/// leaf of its own.
#[test]
fn a_checkpoint_inside_an_open_subtree_recovers_like_the_full_log() {
    let db = db2();
    let config = WalConfig { retain_for_audit: true, ..WalConfig::default() };
    let wal = WalWriter::with_config(FsyncPolicy::EveryAppend, config);
    let (qoh, value) = (db.items[0].qoh, Value::Int(5));
    let type_id = db.store.type_of(qoh).unwrap();
    let leaf = |op| WalRecord::LeafRedo { top: 1, subtree: 1, op };
    let id = db.store.create_atomic(type_id, value.clone()).unwrap();
    wal.append(&leaf(RedoOp::CreateAtomic { id, type_id, value: value.clone() })).unwrap();
    let undo = Invocation::put(qoh, type_id, db.store.put(qoh, value.clone()).unwrap());
    wal.append_leaf(&leaf(RedoOp::Put { obj: qoh, value }), &[undo]).unwrap();
    wal.checkpoint(|since| db.store.checkpoint_delta(since)).unwrap().expect("checkpointed");
    let recovered = |image: &LogImage| {
        let base = db2();
        recover_onto(image, &base, None).expect("recovery");
        base.store.dump()
    };
    let from_log = recovered(&wal.surviving_full_image());
    assert_eq!(from_log.objects, db2().store.dump().objects, "redo skips an uncommitted subtree");
    assert_eq!(recovered(&wal.surviving_image()), from_log, "the open subtree's leaves survived");
}
