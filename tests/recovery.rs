//! Durability regression suite.
//!
//! Crash–recover–audit sweeps (seeded crash points injected into the
//! write-ahead log under the order-entry workload) plus targeted scenarios
//! for the recovery path itself: losers compensated from logged intents,
//! recovery-time compensation faults retried under the bounded budget, and
//! the original abort cause surviving a failing compensation (the
//! error-shadowing regression). Every workload run is watchdog-guarded —
//! a hang is a recovery failure and must surface as a test failure, not a
//! stuck CI job.

use semcc::core::{
    read_image, recover_image, CrashPoint, Engine, Event, FaultPlan, FaultSpec, FnProgram,
    FsyncPolicy, IoFaultPoint, LogImage, MemorySink, ProtocolConfig, RecoveryReport,
    TransactionProgram, WalConfig, WalRecord, WalWriter,
};
use semcc::orderentry::{Database, DbParams, Target, HOOK_SHIP_AFTER_CHANGE_STATUS};
use semcc::semantics::{MethodContext, SemccError, Storage, Value};
use semcc::sim::scenario::{guarded, seed_window, Gate};
use semcc::sim::{
    crash_mixes, crash_points, run_checkpoint_parity, run_crash_recover, run_fsync_failure,
    run_torture, AuditParams,
};
use std::sync::Arc;
use std::time::Duration;

/// The acceptance sweep: 8 seeds × three workload mixes × the four
/// canonical crash classes. Every run must recover to exactly the serial
/// replay of the log's committed prefix, with no live transactions, no
/// lock entries, and no waits-for residue on the recovery engine. CI
/// shifts the seed window via `SEMCC_CHAOS_SEED_OFFSET`.
#[test]
fn crash_recover_audit_sweep_across_seeds_mixes_and_crash_points() {
    for (class, faults, fsync) in crash_points() {
        let mut crashes = 0u32;
        let mut erased = 0u32;
        for (mix_name, mix) in crash_mixes() {
            for seed in seed_window(8) {
                let label = format!("crash-recover/{mix_name}/{class}/seed{seed}");
                let params = AuditParams { seed, faults, fsync, mix, ..Default::default() };
                let report = guarded(&label, move || run_crash_recover(&params));
                assert!(report.sound(), "{label}: recovery unsound: {report:?}");
                if report.crashed {
                    crashes += 1;
                }
                if (report.winners as u64) < report.committed {
                    erased += 1;
                }
            }
        }
        // Each class must actually fire somewhere in its sweep, and the
        // audit must not be vacuous: some crashes erase committed work.
        assert!(crashes > 0, "{class}: the crash point never fired across the sweep");
        assert!(erased > 0, "{class}: no run ever lost committed work — audit is vacuous");
    }
}

/// The B7c acceptance sweep: 8 seeds × three workload mixes, each run a
/// crash → recover → crash-mid-recovery → recover chain. Every chain must
/// converge to the committed-prefix serial replay *and* to the state a
/// single clean recovery reaches, with nothing leaked. Aggregate
/// assertions keep the sweep honest: the initial crash, the mid-recovery
/// crash and the re-recovery detection must each fire somewhere.
#[test]
fn torture_sweep_double_crash_chains_converge_across_seeds_and_mixes() {
    let (mut crashes, mut mid_crashes, mut rerecoveries, mut erased) = (0u32, 0u32, 0u32, 0u32);
    // The initial crash of every chain: the leaf-append class.
    let (_, faults, _) = crash_points().remove(0);
    for (mix_name, mix) in crash_mixes() {
        for seed in seed_window(8) {
            let label = format!("torture/{mix_name}/seed{seed}");
            let params = AuditParams { seed, faults, mix, ..Default::default() };
            let report = guarded(&label, move || run_torture(&params));
            assert!(report.sound(), "{label}: torture chain unsound: {report:?}");
            crashes += report.crashed as u32;
            mid_crashes += report.mid_crashes as u32;
            rerecoveries += report.rerecovery_detected as u32;
            erased += ((report.winners as u64) < report.committed) as u32;
        }
    }
    assert!(crashes > 0, "the initial crash never fired across the sweep");
    assert!(mid_crashes > 0, "no recovery pass was ever crashed — the chains prove nothing");
    assert!(rerecoveries > 0, "no final pass ever saw a prior pass's progress mark");
    assert!(erased > 0, "no run ever lost committed work — the audit is vacuous");
}

/// Checkpoint parity across seeds: recover-from-checkpoint must produce a
/// store dump identical to recover-from-full-log, for several crashed
/// checkpointing runs.
#[test]
fn checkpoint_parity_differential_across_seeds() {
    for seed in [7, 19, 31] {
        let params = AuditParams {
            seed,
            txns: 120,
            // Late crash: several checkpoints must land before the log
            // device dies, or the parity differential proves nothing.
            faults: FaultSpec::default().with_crash(CrashPoint::AtLeafAppend { nth: 160 }),
            mix: crash_mixes().remove(0).1,
            ..Default::default()
        };
        let report = guarded(&format!("parity/seed{seed}"), move || run_checkpoint_parity(&params));
        assert!(report.sound(), "parity seed {seed}: {report:?}");
        assert!(report.checkpoints_taken > 0, "seed {seed}: no checkpoint — parity proves nothing");
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

/// Batch fsyncgate: with 16 workers the failing fsync belongs to a
/// group-commit *leader*, so the poisoned sync covers a whole batch of
/// parked followers. The audit inside [`run_fsync_failure`] proves no
/// member of the failed batch — leader or follower — was acknowledged
/// without a durable commit record, and that the live store equals the
/// serial replay of exactly the acknowledged set.
#[test]
fn fsync_failure_in_a_group_commit_batch_leaves_no_partial_acks() {
    for (seed, nth) in [(13, 4), (29, 8), (41, 2)] {
        run_fsync_failure(seed, 60, nth, 16)
            .unwrap_or_else(|e| panic!("batch fsync audit seed {seed} nth {nth}: {e}"));
    }
}

/// Torn tail *inside a group-commit batch*: under `OnCommit` the torn
/// frame can sit in the middle of a batch whose later members the process
/// saw acknowledged. Recovery must truncate the tear and converge to the
/// committed-prefix serial replay — and across the seed sweep the crash
/// must actually fire and actually erase acknowledged work, or the test
/// proves nothing.
#[test]
fn torn_tail_inside_a_group_commit_batch_recovers_sound() {
    let (mut crashes, mut erased) = (0u32, 0u32);
    for seed in 1..=6 {
        let label = format!("torn-batch/seed{seed}");
        let params = AuditParams {
            seed,
            workers: 8,
            faults: FaultSpec::default().with_crash(CrashPoint::TornTail { nth: 40, keep: 5 }),
            fsync: FsyncPolicy::OnCommit,
            ..Default::default()
        };
        let report = guarded(&label, move || run_crash_recover(&params));
        assert!(report.sound(), "{label}: recovery unsound: {report:?}");
        crashes += report.crashed as u32;
        erased += ((report.winners as u64) < report.committed) as u32;
    }
    assert!(crashes > 0, "the torn tail never fired across the sweep");
    assert!(erased > 0, "no run ever lost acknowledged work — the audit is vacuous");
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

/// Build the log image of a transaction that completed two subtransactions
/// but whose `TopCommit` record was torn off by the crash: a loser with
/// surviving compensation intents. Uses a dry run to count the appends, so
/// the torn frame is exactly the commit record.
fn losing_log() -> LogImage {
    let dry = db2();
    let wal = WalWriter::new(FsyncPolicy::EveryAppend);
    let engine =
        Engine::builder(Arc::clone(&dry.store) as Arc<dyn Storage>, Arc::clone(&dry.catalog))
            .protocol(ProtocolConfig::semantic())
            .wal(Arc::clone(&wal))
            .build();
    let prog = ship_two(&dry);
    engine.execute(&prog).expect("dry run commits");
    let total = wal.appended();

    let db = db2();
    let plan = FaultPlan::new(
        1,
        FaultSpec::default().with_crash(CrashPoint::TornTail { nth: total, keep: 1 }),
    );
    let wal =
        WalWriter::with_config_and_faults(FsyncPolicy::EveryAppend, WalConfig::default(), plan);
    let engine =
        Engine::builder(Arc::clone(&db.store) as Arc<dyn Storage>, Arc::clone(&db.catalog))
            .protocol(ProtocolConfig::semantic())
            .wal(Arc::clone(&wal))
            .build();
    let prog = ship_two(&db);
    // The process itself still commits — only the log record is torn.
    engine.execute(&prog).expect("crashed run still commits in-process");
    assert!(wal.crashed(), "the torn-tail crash must fire on the commit append");
    wal.surviving_image()
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
/// is crashed right after it logged its progress mark (its compensation
/// work is lost with the machine), and a second pass over the wreckage
/// must converge to exactly the state a single clean recovery reaches.
#[test]
fn double_crash_recovery_converges_to_the_clean_recovery_state() {
    semcc::core::silence_injected_panics();
    let image = losing_log();

    // Pass 0: dies at its second recovery append (the first compensation
    // record — the RecoveryMark before it is already durable).
    let plan =
        FaultPlan::new(1, FaultSpec::default().with_crash(CrashPoint::AtRecoveryAppend { nth: 2 }));
    let doomed = db2();
    let progress =
        WalWriter::resume(&image, FsyncPolicy::EveryAppend, Some(plan), WalConfig::default())
            .expect("resume for the doomed pass");
    recover_image(
        &image,
        Arc::clone(&doomed.store),
        Arc::clone(&doomed.catalog),
        ProtocolConfig::semantic(),
        None,
        Some(Arc::clone(&progress)),
    )
    .expect("a crashed pass still returns (its writer is dead, not failed)");
    assert!(progress.crashed(), "the mid-recovery crash point must fire");
    let wreckage = progress.surviving_image();

    // Pass 1: clean, over the wreckage.
    let chained = db2();
    let progress2 =
        WalWriter::resume(&wreckage, FsyncPolicy::EveryAppend, None, WalConfig::default())
            .expect("resume for the clean pass");
    let (engine, report) = recover_image(
        &wreckage,
        Arc::clone(&chained.store),
        Arc::clone(&chained.catalog),
        ProtocolConfig::semantic(),
        None,
        Some(progress2),
    )
    .expect("the second pass must succeed");
    assert!(report.rerecovery, "the second pass must see the first pass's mark: {report:?}");
    assert!(report.failures.is_empty(), "{report:?}");
    assert_eq!(engine.stats().rerecoveries, 1, "{:?}", engine.stats());
    assert_eq!(engine.live_transactions(), 0);
    assert_eq!(engine.lock_entries(), 0);

    // Reference: one clean recovery of the original image.
    let clean = db2();
    recover_image(
        &image,
        Arc::clone(&clean.store),
        Arc::clone(&clean.catalog),
        ProtocolConfig::semantic(),
        None,
        None,
    )
    .expect("clean recovery");
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
    let engine =
        Engine::builder(Arc::clone(&db.store) as Arc<dyn Storage>, Arc::clone(&db.catalog))
            .protocol(ProtocolConfig::semantic())
            .wal(Arc::clone(&wal))
            .build();
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
    let engine =
        Engine::builder(Arc::clone(&live.store) as Arc<dyn Storage>, Arc::clone(&live.catalog))
            .protocol(ProtocolConfig::semantic())
            .wal(Arc::clone(&wal))
            .build();
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
    let engine =
        Engine::builder(Arc::clone(&db.store) as Arc<dyn Storage>, Arc::clone(&db.catalog))
            .protocol(ProtocolConfig::semantic())
            .fault_plan(Arc::clone(&plan))
            .build();
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
/// serial history can produce.
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
    let wal = WalWriter::new(FsyncPolicy::EveryAppend);
    let engine =
        Engine::builder(Arc::clone(&db.store) as Arc<dyn Storage>, Arc::clone(&db.catalog))
            .protocol(ProtocolConfig::semantic())
            .wal(Arc::clone(&wal))
            .build();
    let t = Target { item: db.items[0].item, order: db.items[0].orders[0].order };

    let image = std::thread::scope(|s| {
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
        let image = wal.surviving_image();
        armed.store(false, std::sync::atomic::Ordering::SeqCst);
        body_gate.open();
        image
    });

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
    let se =
        Engine::builder(Arc::clone(&serial.store) as Arc<dyn Storage>, Arc::clone(&serial.catalog))
            .protocol(ProtocolConfig::semantic())
            .build();
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
}

/// Same regression with the budget exhausted: the compensation failure is
/// chained into the event stream alongside the original cause — it never
/// shadows it.
#[test]
fn exhausted_compensation_budget_chains_instead_of_shadowing() {
    let db = db2();
    let sink = MemorySink::new();
    let plan = FaultPlan::new(7, FaultSpec { compensation_error: 1.0, ..FaultSpec::default() });
    let engine =
        Engine::builder(Arc::clone(&db.store) as Arc<dyn Storage>, Arc::clone(&db.catalog))
            .protocol(ProtocolConfig::semantic())
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
    let chained = sink.events().iter().any(|e| {
        matches!(
            &e.ev,
            Event::CompensationFailure { error, original, .. }
                if error.contains("compensation") && original.contains("boom-original")
        )
    });
    assert!(chained, "CompensationFailure event must carry both causes");
    assert_eq!(engine.live_transactions(), 0);
    assert_eq!(engine.lock_entries(), 0);
}
