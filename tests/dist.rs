//! Sharded-fleet robustness regression suite.
//!
//! A crash of the fleet is a consistent cut of its logs, so the crash
//! windows of the cross-shard commit are audited by enumeration, under
//! both protocols: every consistent cut of a finished two-shard run, and
//! every cut of what shard recovery appends, recovers to the serial replay
//! of the committed prefix (`sim::chaos::audit_fleet_cuts`; deterministic,
//! no seed). Four tests name the protocol's crash windows — death before
//! prepare, after the decision, the coordinator's mid-commit, and a second
//! crash during shard recovery — each by the few cuts that window leaves;
//! a fifth crashes a 2PC shard between the votes and the gate. The
//! seeded runs cover what a cut cannot: shards killed mid-batch and
//! recovered while the fleet keeps going, transport faults absorbed by
//! retries, the 2PC baseline, and the dispatcher's threads. Every run
//! must converge to the serial replay of the committed prefix on every
//! shard, with zero lock / waits-for residue, and no acknowledged commit
//! may ever be lost. Threaded runs are watchdog-guarded: a hang is a
//! protocol failure and must surface as a test failure, not a stuck CI
//! job.

use semcc::core::wal::{read_image, LogImage, WalRecord};
use semcc::core::ProtocolConfig;
use semcc::dist::{
    parse_decisions, recover_logs, CommitProtocol, Coordinator, FleetConfig, RpcError,
    ShardFaultPoint, ShardRecoveryReport, ShardStack,
};
use semcc::orderentry::{Database, DbParams, ItemInfo, Target, TxnSpec, Workload, WorkloadConfig};
use semcc::semantics::Value;
use semcc::sim::scenario::{guarded, seed_window};
use semcc::sim::validate::{canonical_shard_state, check_committed_prefix, CanonicalDb, Residue};
use semcc::sim::{audit_fleet_cuts, run_fleet_crash_recover, FleetParams, FleetReport};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// One fleet crash/recover/audit cycle under the watchdog: no acked commit
/// lost, zero residue, every slice the committed-prefix replay.
fn run(label: &str, params: FleetParams) -> FleetReport {
    let report = guarded(label, move || run_fleet_crash_recover(&params));
    assert!(report.sound(), "{label}: fleet invariant violated: {report:?}");
    report
}

/// Healthy fleet, no kills: everything commits and both shards' slices
/// equal the committed-prefix replay.
#[test]
fn healthy_fleet_commits_and_converges() {
    for seed in seed_window(4) {
        let label = format!("healthy/seed{seed}");
        let report = run(&label, FleetParams { seed, kill: 0, ..Default::default() });
        assert_eq!(report.failed, 0, "no faults injected, nothing may fail: {report:?}");
        assert!(report.cross_shard > 0, "the default mix must produce cross-shard txns");
    }
}

/// k-of-N partial-fleet kill at seeded points mid-batch.
#[test]
fn partial_fleet_kill_recovers_without_losing_acked_commits() {
    for n_shards in [2usize, 4] {
        for kill in 1..n_shards.min(3) {
            for seed in seed_window(4) {
                let label = format!("kill{kill}of{n_shards}/seed{seed}");
                let report = run(
                    &label,
                    FleetParams { seed, n_shards, kill, txns: 48, ..Default::default() },
                );
                assert!(report.shard_crashes >= kill as u64, "{label}: kills scheduled");
            }
        }
    }
}

/// Every crash window of the cross-shard commit at once, under both
/// protocols: each consistent cut of a finished two-shard run's decision
/// log and shard log, and each cut of what shard recovery appends,
/// recovers to the committed prefix. Every class of cut must be reached
/// under each protocol, so the audit cannot pass by auditing nothing.
#[test]
fn every_consistent_cut_of_a_two_shard_run_recovers_to_its_committed_prefix() {
    let reports = audit_fleet_cuts().unwrap_or_else(|e| panic!("fleet cut audit: {e}"));
    println!("{reports:#?}");
    assert_eq!(reports.len(), 2, "one report per protocol");
    for (protocol, report) in reports {
        for (class, n) in [
            ("a piece's leaves without its prepare record", report.leaves_without_prepare),
            ("a prepare record without the local commit", report.prepare_without_commit),
            ("a local commit without a decision", report.commit_without_decision),
            ("a decision without its resolution marker", report.decision_without_marker),
            ("a presumed-abort compensation", report.presumed_abort),
            ("a cut of shard recovery's own appends", report.recovery_cuts),
        ] {
            assert!(n > 0, "{protocol:?}: no cut of class {class:?}: {report:?}");
        }
    }
}

// ---- crash windows, one cut each ---------------------------------------
//
// Each named crash window of the cross-shard commit protocol as the cut it
// leaves of a shard's (decision, shard) logs, recovered by the
// function shard recovery runs on decisions parsed as the coordinator
// parses them. The audit above enumerates every such cut.

/// The cut audit's fleet: one escrow item of 3 units on each shard.
fn escrow_params() -> DbParams {
    DbParams { n_items: 2, orders_per_item: 3, initial_qoh: 3, escrow: true, ..Default::default() }
}

fn escrow_fleet() -> (Coordinator, Database) {
    let db = Database::build(&escrow_params()).unwrap();
    (Coordinator::new(FleetConfig { db_params: escrow_params(), ..Default::default() }), db)
}

/// Ship, in one open-nested transaction, order `k` (`k + 1` units) of the
/// item on shard `s` for each `(s, k)`; the gtid.
fn ship(coord: &Coordinator, db: &Database, orders: &[(usize, usize)]) -> u64 {
    let on = |s| db.items.iter().find(|i| coord.partition().owner_of_item(i.item) == s).unwrap();
    let target =
        |&(s, k): &(usize, usize)| Target { item: on(s).item, order: on(s).orders[k].order };
    let spec = TxnSpec::Ship(orders.iter().map(target).collect());
    coord.submit(&spec, CommitProtocol::OpenNested).0
}

/// Shard `s`'s logs as the run left them: the decision log, its own.
fn shard_logs(coord: &Coordinator, s: usize) -> [LogImage; 2] {
    [coord.decision_image(), coord.shards()[s].log_images().expect("the shard is up")]
}

fn records(log: &LogImage) -> Vec<WalRecord> {
    read_image(log).unwrap().records
}

/// Recover `logs` cut to their first `keep[i]` records; the recovered
/// engine must hold nothing.
fn recover_cut(logs: &[LogImage; 2], keep: [usize; 2]) -> (ShardStack, ShardRecoveryReport) {
    let [decision, main] = std::array::from_fn(|i| {
        logs[i].cut(keep[i].checked_sub(1).map_or(0, |k| logs[i].frame_ends()[k]))
    });
    let decisions = parse_decisions(&decision).unwrap();
    let semantic = ProtocolConfig::semantic();
    let (stack, report) = recover_logs(&escrow_params(), semantic, &main, &decisions)
        .unwrap_or_else(|e| panic!("cut {keep:?}: {e}"));
    Residue::of(&stack.engine).check().unwrap_or_else(|e| panic!("cut {keep:?}: {e}"));
    (stack, report)
}

fn slice(stack: &ShardStack, db: &Database, s: usize) -> CanonicalDb {
    canonical_shard_state(stack.engine.storage().as_ref(), db.items_set, 2, s).unwrap()
}

/// The number of records of `log` before the first one `is`.
fn before(log: &LogImage, is: fn(&WalRecord) -> bool) -> usize {
    records(log).iter().position(is).unwrap()
}

/// The number of records of `log` up to and including the first local
/// commit.
fn through_local_commit(log: &LogImage) -> usize {
    1 + before(log, |r| matches!(r, WalRecord::TopCommit { .. }))
}

/// Crash window 1: a shard dies *before* writing the piece's `Prepared`
/// record. The piece is a local loser and, with no decision logged,
/// globally aborted; nothing is left in doubt.
#[test]
fn crash_window_before_prepare_aborts_globally_with_nothing_in_doubt() {
    let (coord, db) = escrow_fleet();
    ship(&coord, &db, &[(0, 0), (1, 0)]);
    for s in 0..2 {
        let logs = shard_logs(&coord, s);
        let fresh = slice(&recover_cut(&logs, [0; 2]).0, &db, s);
        // Every prefix of the piece's records short of its `Prepared`.
        for m in 1..=before(&logs[1], |r| matches!(r, WalRecord::Prepared { .. })) {
            let (stack, report) = recover_cut(&logs, [0, m]);
            assert!(report.resolved.is_empty(), "shard {s}, cut {m}: in doubt: {report:?}");
            assert_eq!(slice(&stack, &db, s), fresh, "shard {s}, cut {m}: the piece is a loser");
        }
    }
}

/// Crash window 2: a shard dies *after* the commit decision was durably
/// logged but before the resolution reached it. Recovery resolves the
/// in-doubt piece, and only it, from the decision log and keeps it.
#[test]
fn crash_window_after_decision_resolves_in_doubt_from_decision_log() {
    let (coord, db) = escrow_fleet();
    ship(&coord, &db, &[(0, 0), (1, 0)]);
    let gtid = ship(&coord, &db, &[(0, 1), (1, 1)]);
    for s in 0..2 {
        let logs = shard_logs(&coord, s);
        let [d, m] = logs.each_ref().map(|log| records(log).len());
        let (full, _) = recover_cut(&logs, [d, m]);
        // The last record is the piece's `Resolved` marker.
        let (stack, report) = recover_cut(&logs, [d, m - 1]);
        assert_eq!(report.resolved, [(gtid, true)], "shard {s}");
        assert_eq!(slice(&stack, &db, s), slice(&full, &db, s), "shard {s}: the piece is kept");
    }
}

/// Crash window 3: the coordinator dies mid-commit, both pieces committed
/// locally and no shard notified. The decision log alone decides on every
/// shard: a piece is kept if the decision reached it, and compensated
/// under presumed abort if not.
#[test]
fn crash_window_coordinator_mid_commit_redrives_from_decision_log() {
    let (coord, db) = escrow_fleet();
    let gtid = ship(&coord, &db, &[(0, 0), (1, 0)]);
    for s in 0..2 {
        let logs = shard_logs(&coord, s);
        let [d, m] = logs.each_ref().map(|log| records(log).len());
        let [fresh, full] = [[0; 2], [d, m]].map(|keep| slice(&recover_cut(&logs, keep).0, &db, s));
        for (decided, want) in [(0, fresh), (d, full)] {
            let (stack, report) = recover_cut(&logs, [decided, m - 1]);
            assert_eq!(report.resolved, [(gtid, decided > 0)], "shard {s}, decision {decided}");
            assert_eq!(report.compensated, usize::from(decided == 0), "shard {s}: {report:?}");
            assert_eq!(slice(&stack, &db, s), want, "shard {s}, decision {decided}");
        }
    }
}

/// Crash window 4: a shard crashes *again* in the middle of its own
/// recovery, while compensating a piece a global abort left in doubt.
/// Every cut of what that recovery appended recovers to the first
/// recovery's state: no inverse runs twice, which the escrow stock shows.
#[test]
fn crash_window_double_crash_during_shard_recovery_converges() {
    let (coord, db) = escrow_fleet();
    // Shard 1's stock goes 3 → 0. Then shard 0's piece commits and shard
    // 1's fails its bound: a global abort.
    ship(&coord, &db, &[(1, 2)]);
    let gtid = ship(&coord, &db, &[(0, 0), (1, 0)]);
    let logs = shard_logs(&coord, 0);
    let (d, commit) = (records(&logs[0]).len(), through_local_commit(&logs[1]));
    // The abort is decided; the piece's compensation and marker are lost.
    let (first, report) = recover_cut(&logs, [d, commit]);
    assert_eq!((report.resolved, report.compensated), (vec![(gtid, false)], 1));
    let want = slice(&first, &db, 0);
    assert_eq!(want, slice(&recover_cut(&logs, [0; 2]).0, &db, 0), "the stock is given back");

    let again = [logs[0].clone(), first.wal.surviving_image()];
    // Every prefix of what the recovery appended: its mark, the
    // compensation, the piece's `TopAbort`, then the marker.
    let recuts: Vec<[usize; 2]> = (commit..=records(&again[1]).len()).map(|k| [d, k]).collect();
    assert!(recuts.len() >= 3, "the compensation appends records: {recuts:?}");
    for keep in recuts {
        assert_eq!(slice(&recover_cut(&again, keep).0, &db, 0), want, "recut {keep:?}");
    }
}

/// A 2PC shard dies inside the vote round trip, after both pieces
/// prepared and before the gate opens. Its piece never commits durably, so
/// the transaction aborts: nothing is acked, the other shard's committed
/// piece is compensated, and the crashed shard's recovery resolves its
/// prepared piece to abort with nothing to undo.
#[test]
fn two_phase_crash_after_both_votes_aborts_and_recovers_with_nothing_to_undo() {
    guarded("2pc/crash-after-votes", || {
        let db = Database::build(&escrow_params()).unwrap();
        let coord = Coordinator::new(FleetConfig {
            db_params: escrow_params(),
            // The gate opens one net delay after the last vote: the crash
            // lands inside that window.
            net_delay: Duration::from_millis(300),
            // The baseline's shards: shard 0's piece is compensated under
            // flat object locks.
            low_level_2pl: true,
            ..Default::default()
        });
        let on = |s| db.items.iter().find(|i| coord.partition().owner_of_item(i.item) == s);
        let order = |s| on(s).map(|i| Target { item: i.item, order: i.orders[0].order }).unwrap();
        let spec = TxnSpec::Ship(vec![order(0), order(1)]);
        let (gtid, out) = std::thread::scope(|scope| {
            scope.spawn(|| {
                while coord.fleet_stats().prepares < 2 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                coord.shards()[1].crash();
            });
            coord.submit(&spec, CommitProtocol::TwoPhase)
        });
        assert!(out.is_err(), "a piece lost to the crash cannot be acked: {out:?}");
        assert!(coord.acked().is_empty());
        assert_eq!(coord.decisions().into_iter().collect::<Vec<_>>(), [(gtid, false)]);

        let report = coord.shards()[1].recover(&coord.decisions()).unwrap();
        assert_eq!((report.resolved, report.compensated), (vec![(gtid, false)], 0));
        for (s, shard) in coord.shards().iter().enumerate() {
            let fresh = canonical_shard_state(db.store.as_ref(), db.items_set, 2, s).unwrap();
            shard
                .with_live(|engine, _| {
                    Residue::of(engine).check().unwrap_or_else(|e| panic!("shard {s}: {e}"));
                    let got = canonical_shard_state(engine.storage().as_ref(), db.items_set, 2, s);
                    assert_eq!(got.unwrap(), fresh, "shard {s}: the piece is undone");
                })
                .expect("every shard is up");
        }
    });
}

/// Transport chaos: dropped and delayed coordinator→shard calls must be
/// absorbed by the retry seam (idempotent pieces, cached acks) without
/// state divergence or duplicated effects.
#[test]
fn transport_faults_are_absorbed_by_retry_and_idempotence() {
    for (name, fault) in [
        ("drop", ShardFaultPoint::DropRequest { nth: 4 }),
        ("delay", ShardFaultPoint::DelayRequest { nth: 4 }),
        ("fail", ShardFaultPoint::FailRequest { nth: 4 }),
    ] {
        for seed in seed_window(3) {
            let label = format!("transport-{name}/seed{seed}");
            let report = run(
                &label,
                FleetParams { seed, kill: 0, fault: Some(fault), ..Default::default() },
            );
            assert_eq!(report.failed, 0, "{label}: transport faults must be transparent");
        }
    }
}

/// The 2PC baseline reaches the same committed state on a healthy fleet —
/// it is a correctness peer, only slower under contention: every shard's
/// slice is the serial replay of its pieces of the committed gtids, with
/// zero residue, and each committed gtid is marked committed in the log
/// of every shard it touched.
#[test]
fn two_phase_baseline_converges_on_healthy_fleet() {
    guarded("2pc/healthy", || {
        let db_params = DbParams { n_items: 6, orders_per_item: 3, ..Default::default() };
        let coord = Coordinator::new(FleetConfig {
            n_shards: 2,
            db_params: db_params.clone(),
            low_level_2pl: true,
            ..Default::default()
        });
        let mut specs = BTreeMap::new();
        for spec in batch(&db_params, 11, 24) {
            let (gtid, out, _retries) =
                coord.submit_with_retry(&spec, CommitProtocol::TwoPhase, 10);
            out.unwrap_or_else(|e| panic!("healthy 2pc fleet commits everything: {e}"));
            specs.insert(gtid, spec);
        }
        let committed = coord.committed_gtids();
        assert_eq!(committed, specs.keys().copied().collect::<Vec<_>>(), "one commit per spec");
        assert_eq!(coord.acked(), committed, "every 2pc ack has a logged decision");

        let fresh = Database::build(&db_params).unwrap();
        let pmap = coord.partition();
        for (s, shard) in coord.shards().iter().enumerate() {
            let touched: Vec<(u64, TxnSpec)> = committed
                .iter()
                .flat_map(|&g| pmap.split(&specs[&g]).into_iter().map(move |piece| (g, piece)))
                .filter_map(|(g, (owner, piece))| (owner == s).then_some((g, piece)))
                .collect();
            let winners: Vec<&TxnSpec> = touched.iter().map(|(_, piece)| piece).collect();
            shard
                .with_live(|engine, _| {
                    Residue::of(engine).check()?;
                    check_committed_prefix(&fresh, &winners, engine.storage().as_ref(), |store| {
                        canonical_shard_state(store, fresh.items_set, 2, s)
                    })
                })
                .expect("the shard is up")
                .unwrap_or_else(|e| panic!("shard {s}: {e}"));
            let marked = records(&shard.log_images().expect("the shard is up"));
            for (g, _) in &touched {
                let marker = WalRecord::Resolved { gtid: *g, commit: true };
                assert!(marked.contains(&marker), "shard {s}: gtid {g} has no commit marker");
            }
        }
    });
}

// ---- piece dispatch ---------------------------------------------------

/// Tests whose fleets create dispatch helper threads run one at a time,
/// so the thread-leak test can count helpers by name.
static HELPER_TESTS: Mutex<()> = Mutex::new(());

fn helper_tests() -> MutexGuard<'static, ()> {
    HELPER_TESTS.lock().unwrap_or_else(|e| e.into_inner())
}

fn small_db() -> DbParams {
    DbParams { n_items: 16, orders_per_item: 4, ..Default::default() }
}

fn batch(db_params: &DbParams, seed: u64, txns: usize) -> Vec<TxnSpec> {
    let reference = Database::build(db_params).expect("reference");
    Workload::new(&reference, WorkloadConfig { seed, ..Default::default() }).batch(&reference, txns)
}

/// `clients` closed-loop clients drain `batch` through
/// `submit_with_retry`; returns how many transactions committed.
fn drain(
    coord: &Coordinator,
    batch: &[TxnSpec],
    protocol: CommitProtocol,
    clients: usize,
) -> usize {
    let (next, ok) = (AtomicUsize::new(0), AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                while let Some(spec) = batch.get(next.fetch_add(1, Ordering::Relaxed)) {
                    if coord.submit_with_retry(spec, protocol, 10_000).1.is_ok() {
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    ok.into_inner()
}

/// No latency to overlap: the submitting thread runs the pieces itself
/// and the fleet never creates a dispatch thread.
#[test]
fn zero_latency_open_nested_fleet_creates_no_dispatch_thread() {
    guarded("caller-runs/no-threads", || {
        let db_params = small_db();
        let coord =
            Coordinator::new(FleetConfig { db_params: db_params.clone(), ..Default::default() });
        let cross: Vec<TxnSpec> = batch(&db_params, 3, 400)
            .into_iter()
            .filter(|spec| coord.partition().split(spec).len() > 1)
            .collect();
        assert!(cross.len() >= 50, "the mix yields cross-shard transactions");
        let before = coord.fleet_stats().cross_shard_txns;
        let mut acked = 0u64;
        for spec in cross.iter().cycle().take(10_000) {
            acked += u64::from(coord.submit(spec, CommitProtocol::OpenNested).1.is_ok());
        }
        assert!(acked > 5_000, "most of the 10 000 cross-shard submits commit: {acked}");
        assert_eq!(coord.fleet_stats().cross_shard_txns - before, acked, "counted once, at ack");
        assert_eq!(coord.dispatch_threads_created(), 0);
    });
}

/// With latency to overlap, helpers are reused: their number is bounded
/// by clients × shards, whatever the number of transactions.
#[test]
fn dispatch_threads_are_bounded_by_clients_times_shards_not_by_transactions() {
    let _serial = helper_tests();
    for protocol in [CommitProtocol::OpenNested, CommitProtocol::TwoPhase] {
        guarded(&format!("helpers-bounded/{protocol:?}"), move || {
            const CLIENTS: usize = 4;
            let db_params = small_db();
            let coord = Coordinator::new(FleetConfig {
                db_params: db_params.clone(),
                net_delay: Duration::from_micros(50),
                lock_wait_timeout: Some(Duration::from_millis(10)),
                ..Default::default()
            });
            let bound = CLIENTS * coord.shards().len();
            for (seed, txns) in [(5, 100), (6, 600)] {
                let batch = batch(&db_params, seed, txns);
                assert_eq!(drain(&coord, &batch, protocol, CLIENTS), txns, "{protocol:?}");
                let created = coord.dispatch_threads_created();
                assert!(
                    (1..=bound).contains(&created),
                    "{protocol:?}: {created} helpers after {txns} more txns, bound {bound}"
                );
            }
        });
    }
}

/// A bounded pool would deadlock 2PC cohorts whose votes queue behind
/// each other's parked participants; on-demand growth must not.
#[test]
fn two_phase_cohorts_never_starve_for_a_helper() {
    let _serial = helper_tests();
    guarded("2pc/no-starvation", || {
        let db_params = small_db();
        let coord = Coordinator::new(FleetConfig {
            n_shards: 4,
            db_params: db_params.clone(),
            net_delay: Duration::from_micros(20),
            lock_wait_timeout: Some(Duration::from_millis(10)),
            low_level_2pl: true,
            ..Default::default()
        });
        let batch = batch(&db_params, 17, 400);
        assert_eq!(drain(&coord, &batch, CommitProtocol::TwoPhase, 8), 400);
        assert_eq!(coord.acked().len(), 400);
        assert!(coord.dispatch_threads_created() <= 8 * 4);
        let stats = coord.fleet_stats();
        assert!(stats.cross_shard_txns > 0 && stats.cross_shard_txns <= 400, "acks, not attempts");
    });
}

/// Caller-runs stops at the first failed piece: the later pieces never
/// start, so there is nothing to prepare and nothing to compensate. The
/// concurrent path runs them all and compensates the one that committed.
#[test]
fn caller_runs_short_circuits_after_a_failed_first_piece() {
    let _serial = helper_tests();
    guarded("caller-runs/short-circuit", || {
        for (net_delay, prepares, label) in
            [(Duration::ZERO, 0, "caller-runs"), (Duration::from_micros(1), 1, "helpers")]
        {
            let db_params = small_db();
            let coord = Coordinator::new(FleetConfig {
                db_params: db_params.clone(),
                net_delay,
                ..Default::default()
            });
            let db = Database::build(&db_params).expect("reference");
            let on = |shard: usize| {
                let owned = |i: &&ItemInfo| coord.partition().owner_of_item(i.item) == shard;
                db.items.iter().find(owned).expect("every shard owns an item")
            };
            // Shard 0's piece re-enters an existing order number and fails
            // for good; shard 1's piece is a perfectly valid new order.
            let spec = TxnSpec::NewOrders {
                entries: vec![(on(0).item, on(0).orders[0].order_no), (on(1).item, 1_000_000)],
                customer: 1,
                quantity: 1,
            };
            assert_eq!(coord.partition().split(&spec).len(), 2);
            let before = coord.fleet_stats();
            let (_, out) = coord.submit(&spec, CommitProtocol::OpenNested);
            assert!(matches!(&out, Err(RpcError::App(e)) if !e.is_retryable()), "{label}: {out:?}");
            let d = coord.fleet_stats().delta(&before);
            assert_eq!(d.prepares, prepares, "{label}: pieces that reached their commit point");
            assert_eq!(
                d.compensations > 0,
                prepares > 0,
                "{label}: compensations {}",
                d.compensations
            );
            assert_eq!(d.cross_shard_txns, 0, "{label}: an aborted transaction is not counted");
            assert!(coord.acked().is_empty() && coord.committed_gtids().is_empty());
        }
    });
}

/// One seeded batch, one client, both dispatch behaviours: same acks,
/// same values, same final state on every shard.
#[test]
fn caller_runs_and_helper_dispatch_agree() {
    let _serial = helper_tests();
    guarded("dispatch/differential", || {
        let db_params = small_db();
        let batch = batch(&db_params, 23, 2_000);
        let run = |net_delay: Duration| {
            let coord = Coordinator::new(FleetConfig {
                db_params: db_params.clone(),
                net_delay,
                ..Default::default()
            });
            let values: Vec<Option<Value>> = batch
                .iter()
                .map(|spec| coord.submit(spec, CommitProtocol::OpenNested).1.ok())
                .collect();
            let states: Vec<_> = coord
                .shards()
                .iter()
                .map(|shard| {
                    shard
                        .with_live(|engine, db| {
                            canonical_shard_state(
                                engine.storage().as_ref(),
                                db.items_set,
                                coord.shards().len(),
                                shard.idx(),
                            )
                        })
                        .expect("shard is live")
                        .expect("canonical projection")
                })
                .collect();
            (coord.acked(), values, states, coord.dispatch_threads_created())
        };
        let (acked, values, states, threads) = run(Duration::ZERO);
        let (acked_h, values_h, states_h, threads_h) = run(Duration::from_micros(1));
        assert_eq!((threads, threads_h), (0, 1), "one path each");
        assert!(acked.len() > 1_000, "most of the batch commits: {}", acked.len());
        assert_eq!(acked, acked_h);
        assert_eq!(values, values_h);
        assert_eq!(states, states_h);
    });
}

/// Dropping a coordinator joins its helpers: no thread outlives it.
#[cfg(target_os = "linux")]
#[test]
fn dropping_a_coordinator_leaves_no_helper_thread_behind() {
    fn helpers_alive() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.trim_end() == "semcc-dispatch")
            .count()
    }
    let _serial = helper_tests();
    guarded("dispatch/drop-joins", || {
        let db_params = DbParams { n_items: 4, orders_per_item: 2, ..Default::default() };
        let batch = batch(&db_params, 29, 8);
        let start = helpers_alive();
        for _ in 0..50 {
            let coord = Coordinator::new(FleetConfig {
                db_params: db_params.clone(),
                net_delay: Duration::from_micros(1),
                ..Default::default()
            });
            for spec in &batch {
                let _ = coord.submit(spec, CommitProtocol::TwoPhase);
            }
            assert!(coord.dispatch_threads_created() > 0, "the batch has cross-shard work");
            assert!(helpers_alive() > start, "helpers park between jobs");
        }
        // A joined thread may linger in /proc for an instant after it exits.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while helpers_alive() != start && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(helpers_alive(), start);
    });
}
