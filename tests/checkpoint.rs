//! Incremental, non-blocking fuzzy checkpoints.
//!
//! A checkpoint is cut → assemble → install (`wal/checkpoint.rs`). These
//! tests drive the three steps one at a time, so every window between
//! them is entered deterministically — no sleeps, no timing:
//!
//! * the incremental image is byte-identical to encoding a full dump;
//! * transactions commit between cut and install and nothing is lost;
//! * a power failure or fsync fault between cut and install keeps the
//!   previous image and every segment, and recovery is exact either way;
//! * the lock-held step captures O(dirty), not O(store);
//! * racing checkpointers produce one checkpoint;
//! * under concurrent writers a cadence bounds the live log, and the log
//!   is off unless attached (the one test here that runs worker threads).

use semcc::core::wal::checkpoint::{
    decode_checkpoint, encode_checkpoint, fold, CheckpointCut, CheckpointImage,
};
use semcc::core::{
    read_image, recover_image, Engine, FaultPlan, FaultSpec, FnProgram, FsyncPolicy, IoFaultPoint,
    ProtocolConfig, TransactionProgram, WalConfig, WalError, WalWriter,
};
use semcc::orderentry::{
    Database, DbParams, MixWeights, Target, TxnSpec, Workload, WorkloadConfig,
};
use semcc::semantics::{MethodContext, SemccError, Storage, StoreDelta, Value};
use semcc::sim::scenario::{Gate, OpenOnDrop};
use semcc::sim::{run_workload, RunParams};
use std::collections::BTreeMap;
use std::sync::Arc;

fn params() -> DbParams {
    DbParams { n_items: 6, orders_per_item: 4, ..Default::default() }
}

fn engine_over(db: &Database, wal: &Arc<WalWriter>) -> Arc<Engine> {
    Engine::builder(Arc::clone(&db.store) as Arc<dyn Storage>, Arc::clone(&db.catalog))
        .wal(Arc::clone(wal))
        .build()
}

/// Small segments so every checkpoint retires several, and the retired
/// history is kept for the table oracle.
fn audited_wal(faults: Option<Arc<FaultPlan>>) -> Arc<WalWriter> {
    let config = WalConfig { segment_bytes: 512, retain_for_audit: true, ..Default::default() };
    match faults {
        Some(plan) => WalWriter::with_config_and_faults(FsyncPolicy::OnCommit, config, plan),
        None => WalWriter::with_config(FsyncPolicy::OnCommit, config),
    }
}

/// A seeded order-entry generator: ships, payments, new orders
/// (creations) and a few readers.
fn workload(db: &Database, seed: u64) -> Workload {
    let mix = MixWeights { t0_new: 2, t1_ship: 3, t2_pay: 3, ..MixWeights::paper_uniform() };
    Workload::new(db, WorkloadConfig { mix, seed, ..Default::default() })
}

/// Run the generator's next `n` transactions; every fourth one is forced
/// to abort after doing its work, so compensations run and aborted new
/// orders are GC-deleted.
fn run_mix(engine: &Engine, db: &Database, w: &mut Workload, n: usize) {
    for (i, spec) in w.batch(db, n).into_iter().enumerate() {
        if i % 4 == 3 {
            let doomed = FnProgram::new(
                "doomed",
                move |ctx: &mut dyn MethodContext| -> Result<Value, SemccError> {
                    spec.run(ctx)?;
                    Err(SemccError::Aborted("forced".into()))
                },
            );
            assert!(engine.execute(&doomed).is_err());
        } else {
            engine.execute(&spec).expect("uncontended commit");
        }
    }
}

fn capture(db: &Database) -> impl FnOnce(Option<u64>) -> Option<StoreDelta> + '_ {
    |since| db.store.checkpoint_delta(since)
}

/// Recover `wal`'s surviving image into a fresh replica and demand the
/// exact live store: values, versions, ids, allocator position.
fn assert_recovers_to(wal: &WalWriter, live: &Database) {
    let fresh = Database::build(&params()).unwrap();
    recover_image(
        &wal.surviving_image(),
        Arc::clone(&fresh.store),
        Arc::clone(&fresh.catalog),
        ProtocolConfig::semantic(),
        None,
        None,
    )
    .expect("recovery");
    assert_eq!(fresh.store.dump(), live.store.dump(), "recovered store != live store");
}

/// (a) After seeded transactions with aborts, creations and GC-deleted
/// creations, the image the incremental pipeline installed is, byte for
/// byte, `encode_checkpoint` of a full dump at the same quiesced cut with
/// the intent table folded from the whole retained log — four times in a
/// row, the first capture being full and the rest O(dirty).
#[test]
fn incremental_image_is_byte_identical_to_encoding_a_full_dump() {
    let db = Database::build(&params()).unwrap();
    let wal = audited_wal(None);
    let engine = engine_over(&db, &wal);
    let mut w = workload(&db, 100);
    for round in 0..4u64 {
        run_mix(&engine, &db, &mut w, 40);
        let cut = wal.checkpoint_cut(capture(&db)).unwrap().expect("healthy log");
        assert_eq!(cut.captured().full, round == 0, "only the first capture is full");
        let cp_lsn = cut.cp_lsn();
        cut.assemble().unwrap().install().unwrap().expect("installed");

        let image = wal.surviving_image().checkpoint.expect("an image was installed");
        let full_log = read_image(&wal.surviving_full_image()).unwrap();
        assert_eq!(full_log.base_lsn, 0);
        let mut table = BTreeMap::new();
        for (lsn, rec) in full_log.records[..cp_lsn as usize].iter().enumerate() {
            fold(&mut table, lsn as u64, rec);
        }
        table.retain(|_, info| info.unresolved());
        let oracle = encode_checkpoint(&CheckpointImage { cp_lsn, dump: db.store.dump(), table });
        assert!(image == oracle, "round {round}: incremental image differs from the full encoding");
        assert_eq!(decode_checkpoint(&image).unwrap().dump, db.store.dump());
        assert_recovers_to(&wal, &db);
    }
}

/// (b) + the lock-held step is short: between cut and install the barrier
/// and the writer state lock are free — transactions (which take both)
/// commit, on this very thread. The image is exact *at the cut*; what
/// committed afterwards rides in the segments the install leaves alone.
#[test]
fn writers_commit_during_assembly_and_recovery_is_exact() {
    let db = Database::build(&params()).unwrap();
    let wal = audited_wal(None);
    let engine = engine_over(&db, &wal);
    let mut w = workload(&db, 7);
    run_mix(&engine, &db, &mut w, 30);
    engine.checkpoint().unwrap();

    run_mix(&engine, &db, &mut w, 30);
    let cut = wal.checkpoint_cut(capture(&db)).unwrap().expect("healthy log");
    let at_cut = db.store.dump();
    run_mix(&engine, &db, &mut w, 10); // between cut and assemble
    let ready = cut.assemble().unwrap();
    run_mix(&engine, &db, &mut w, 10); // between assemble and install
    let outcome = ready.install().unwrap().expect("installed");
    run_mix(&engine, &db, &mut w, 10);

    let image = wal.surviving_image();
    let cp = decode_checkpoint(image.checkpoint.as_ref().unwrap()).unwrap();
    assert_eq!(cp.cp_lsn, outcome.cp_lsn);
    assert_eq!(cp.dump, at_cut, "the image is the store at the cut, not at the install");
    let tail = read_image(&image).unwrap();
    assert_eq!(tail.base_lsn, cp.cp_lsn, "exactly the segments sealed below the cut were retired");
    assert!(!tail.records.is_empty());
    assert_recovers_to(&wal, &db);
}

/// Run up to the point where a second checkpoint has been cut and
/// transactions have already run past the cut, hand the cut to `finish`
/// to be killed one way or another, then demand that the previous image
/// and every segment survived and that recovery is exact. The run is
/// single-threaded and seeded, hence identical every time.
fn dying_checkpoint(
    spec: FaultSpec,
    finish: impl FnOnce(&WalWriter, CheckpointCut<'_>),
) -> (Database, Arc<WalWriter>) {
    let db = Database::build(&params()).unwrap();
    let wal = audited_wal(Some(FaultPlan::new(1, spec)));
    let engine = engine_over(&db, &wal);
    let mut w = workload(&db, 21);
    run_mix(&engine, &db, &mut w, 30);
    assert!(engine.checkpoint().unwrap());
    let before = wal.surviving_image();

    run_mix(&engine, &db, &mut w, 30);
    let cut = wal.checkpoint_cut(capture(&db)).unwrap().expect("healthy log");
    run_mix(&engine, &db, &mut w, 10);
    finish(&wal, cut);

    let after = wal.surviving_image();
    assert_eq!(after.checkpoint, before.checkpoint, "previous image retained");
    assert!(after.segments.len() > before.segments.len(), "no segment retired");
    assert_recovers_to(&wal, &db);
    (db, wal)
}

/// (c) A power failure or an fsync fault while the image is made durable — after
/// transactions already ran past the cut — keeps the previous image and
/// every segment, and recovery from what survives is exact. A cut that
/// is simply abandoned leaves a healthy log whose next checkpoint
/// captures in full: the store's token moved on without the writer.
#[test]
fn a_checkpoint_that_dies_between_cut_and_install_loses_nothing() {
    let mut fsyncs_before_install = 0;
    let (db, wal) = dying_checkpoint(FaultSpec::default(), |wal, cut| {
        fsyncs_before_install = wal.fsyncs();
        drop(cut);
    });
    let cut = wal.checkpoint_cut(capture(&db)).unwrap().expect("healthy log");
    assert!(cut.captured().full, "a stale token must force a full capture");
    cut.assemble().unwrap().install().unwrap().expect("installed");
    assert_recovers_to(&wal, &db);

    let (_, wal) = dying_checkpoint(FaultSpec::default(), |wal, cut| {
        let ready = cut.assemble().unwrap();
        wal.power_fail();
        assert!(ready.install().unwrap().is_none(), "the machine died");
    });
    assert!(wal.crashed());

    // The image write is the next fsync after the ones the commits paid.
    let nth = fsyncs_before_install + 1;
    let fsync = FaultSpec::default().with_io(IoFaultPoint::FsyncError { nth });
    let (_, wal) = dying_checkpoint(fsync, |_, cut| {
        let err = cut.assemble().unwrap().install().unwrap_err();
        assert!(matches!(err, WalError::Io(_)), "{err:?}");
    });
    assert!(wal.poisoned().is_some());
}

fn bench_target(db: &Database, i: usize) -> Target {
    let item = &db.items[i % db.items.len()];
    Target { item: item.item, order: item.orders[(i / db.items.len()) % item.orders.len()].order }
}

/// The lock-held part of a checkpoint is O(dirty): on the benchmark's
/// database (1024 items × 32 orders), 200 payments dirty well under 5 %
/// of the store, and that is all the cut captures. That no image is
/// decoded and no segment read while the cut holds the barrier and the
/// state lock is asserted by the pipeline itself in debug builds
/// (`assert_off_lock`), i.e. on every checkpoint this suite takes.
#[test]
fn the_cut_captures_only_what_changed_on_the_benchmark_database() {
    let db =
        Database::build(&DbParams { n_items: 1024, orders_per_item: 32, ..Default::default() })
            .unwrap();
    let wal = WalWriter::with_config(FsyncPolicy::OnCommit, WalConfig::default());
    let engine = engine_over(&db, &wal);
    assert!(engine.checkpoint().unwrap(), "the first checkpoint captures in full");
    for i in 0..200 {
        let spec = TxnSpec::Pay(vec![bench_target(&db, 2 * i), bench_target(&db, 2 * i + 1)]);
        engine.execute(&spec).unwrap();
    }
    let cut = wal.checkpoint_cut(capture(&db)).unwrap().expect("healthy log");
    let (captured, total) = (cut.captured().objects.len(), db.store.object_count());
    assert!(!cut.captured().full && captured > 0);
    assert!(captured * 20 < total, "captured {captured} of {total} objects");
    // The locks are free again: a transaction needs both.
    engine.execute(&TxnSpec::Pay(vec![bench_target(&db, 999)])).unwrap();
    cut.assemble().unwrap().install().unwrap().expect("installed");
}

/// (f) Checkpoints are single flight. Two racing cadence triggers produce
/// one checkpoint: while one is inside its capture, the other returns
/// "skipped" without blocking and without capturing. An explicit
/// `Engine::checkpoint` is never skipped: it waits for the one in flight
/// and then takes its own.
#[test]
fn racing_checkpointers_produce_one_checkpoint() {
    let db = Database::build(&params()).unwrap();
    let wal = WalWriter::with_config(
        FsyncPolicy::OnCommit,
        WalConfig { checkpoint_bytes: Some(2 << 10), ..Default::default() },
    );
    let engine = engine_over(&db, &wal);
    let (entered, release) = (Gate::new(), Gate::new());
    std::thread::scope(|s| {
        let _unstick = OpenOnDrop::new([Arc::clone(&entered), Arc::clone(&release)]);
        let first = s.spawn(|| {
            wal.try_checkpoint(|since| {
                entered.open();
                release.wait();
                db.store.checkpoint_delta(since)
            })
        });
        entered.wait();
        let second = wal.try_checkpoint(|_| panic!("the loser of the race must not capture"));
        assert!(matches!(second, Ok(None)), "{second:?}");
        release.open();
        assert!(first.join().unwrap().unwrap().is_some());
    });
    assert_eq!(wal.checkpoints_taken(), 1);

    // Cadence triggers during a checkpoint in flight are skipped, and the
    // first one after the install goes through.
    let cut = wal.checkpoint_cut(capture(&db)).unwrap().expect("healthy log");
    run_mix(&engine, &db, &mut workload(&db, 31), 40);
    assert!(wal.wants_checkpoint(), "40 transactions log more than the 2 KiB cadence");
    assert_eq!((wal.checkpoints_taken(), engine.stats().checkpoints), (1, 0));
    // An explicit call made meanwhile is served whichever side of the
    // install it arrives on: behind the checkpoint in flight, or after it.
    let calling = Gate::new();
    std::thread::scope(|s| {
        let _unstick = OpenOnDrop::new([Arc::clone(&calling)]);
        let explicit = s.spawn(|| {
            calling.open();
            engine.checkpoint()
        });
        calling.wait();
        cut.assemble().unwrap().install().unwrap().expect("installed");
        assert!(explicit.join().unwrap().unwrap(), "an explicit checkpoint is never skipped");
    });
    assert_eq!((wal.checkpoints_taken(), engine.stats().checkpoints), (3, 1));
    engine.execute(&TxnSpec::Pay(vec![bench_target(&db, 0)])).unwrap();
    assert_eq!(wal.checkpoints_taken(), 3, "the explicit checkpoint reset the cadence");
    assert_recovers_to(&wal, &db);
}

/// Eight concurrent writers, 2 KiB segments, `fsync=never`. With an 8 KiB
/// checkpoint cadence the sealed segments below each checkpoint are
/// retired and the live log stays bounded; without one the same run
/// retains every byte it logged. Byte counts, no timing. On the way: an
/// engine built without `.wal(..)` logs nothing, and `fsync=never` rotates
/// segments without ever syncing.
#[test]
fn a_checkpoint_cadence_bounds_the_live_log_under_concurrent_writers() {
    let run = |config: Option<WalConfig>| {
        let db =
            Database::build(&DbParams { n_items: 8, orders_per_item: 8, ..Default::default() })
                .unwrap();
        let wal = config.map(|config| WalWriter::with_config(FsyncPolicy::Never, config));
        let engine = match &wal {
            Some(wal) => engine_over(&db, wal),
            None => {
                Engine::builder(Arc::clone(&db.store) as Arc<dyn Storage>, Arc::clone(&db.catalog))
                    .build()
            }
        };
        let wl = WorkloadConfig {
            mix: MixWeights::update_heavy(),
            zipf_theta: 0.6,
            ..Default::default()
        };
        let batch = Workload::new(&db, wl).batch(&db, 480);
        let params = RunParams { workers: 8, max_retries: 100_000, ..Default::default() };
        let metrics = run_workload(&engine, batch, &params).metrics;
        assert_eq!(metrics.committed, 480);
        (metrics.stats, wal)
    };
    let segments = WalConfig { segment_bytes: 2 << 10, ..WalConfig::default() };

    let (off, _) = run(None);
    assert_eq!((off.wal_appends, off.wal_bytes), (0, 0), "logging is off unless attached");

    let (plain, wal) = run(Some(segments));
    let unbounded = wal.expect("attached").retained_bytes();
    assert!(plain.wal_appends > 0, "the attached log must log");
    assert_eq!(plain.wal_fsyncs, 0, "fsync=never must never sync");
    assert!(plain.wal_segments_rotated > 0, "480 transactions outgrow a 2 KiB segment");
    assert_eq!(unbounded as u64, plain.wal_bytes, "without checkpoints nothing is retired");

    let (_, wal) = run(Some(WalConfig { checkpoint_bytes: Some(8 << 10), ..segments }));
    let wal = wal.expect("attached");
    assert!(wal.checkpoints_taken() > 0, "the cadence must fire");
    let bounded = wal.retained_bytes();
    assert!(
        bounded * 3 < unbounded,
        "live log {bounded} B with checkpoints, {unbounded} B without"
    );
}
