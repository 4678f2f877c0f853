//! Sharded-fleet robustness regression suite.
//!
//! Drives the order-entry workload through the coordinator across a
//! partitioned fleet and audits every crash window of the cross-shard
//! commit protocol: shard death before prepare, shard death after the
//! decision, coordinator death mid-commit, and a double crash during
//! shard recovery itself. Every run must converge to the serial replay
//! of the committed prefix on every shard, with zero lock / waits-for /
//! dependency residue, and no acknowledged commit may ever be lost.
//! Runs are watchdog-guarded: a hang is a protocol failure and must
//! surface as a test failure, not a stuck CI job.

use semcc::core::ShardFaultPoint;
use semcc::dist::{CommitProtocol, Coordinator, FleetConfig, RpcError};
use semcc::orderentry::{Database, DbParams, ItemInfo, TxnSpec, Workload, WorkloadConfig};
use semcc::semantics::Value;
use semcc::sim::scenario::{guarded, seed_window};
use semcc::sim::validate::canonical_shard_state;
use semcc::sim::{run_fleet_crash_recover, FleetParams, FleetReport};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// One fleet crash/recover/audit cycle under the watchdog.
fn run(label: &str, params: FleetParams) -> FleetReport {
    guarded(label, move || run_fleet_crash_recover(&params))
}

fn assert_sound(label: &str, report: &FleetReport) {
    assert!(
        report.sound(),
        "{label}: fleet invariant violated\n\
         lost_acked={} residue={:?} audit={:?}\n{report:?}",
        report.lost_acked,
        report.residue_violations,
        report.audit_failure
    );
    assert_eq!(report.lost_acked, 0, "{label}: acked commit lost");
}

/// Healthy fleet, no kills: everything commits and both shards' slices
/// equal the committed-prefix replay.
#[test]
fn healthy_fleet_commits_and_converges() {
    for seed in seed_window(4) {
        let label = format!("healthy/seed{seed}");
        let report = run(&label, FleetParams { seed, kill: 0, ..Default::default() });
        assert_sound(&label, &report);
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
                assert_sound(&label, &report);
                assert!(report.shard_crashes >= kill as u64, "{label}: kills scheduled");
            }
        }
    }
}

/// Crash window 1: a shard dies *before* writing the participant record.
/// The piece is a local loser; the coordinator aborts globally; nothing
/// may be left in doubt as a winner.
#[test]
fn crash_before_prepare_aborts_globally_with_nothing_in_doubt() {
    for nth in [3u64, 9, 17] {
        for seed in seed_window(3) {
            let label = format!("before-prepare/nth{nth}/seed{seed}");
            let report = run(
                &label,
                FleetParams {
                    seed,
                    kill: 0,
                    fault: Some(ShardFaultPoint::CrashBeforePrepare { nth }),
                    ..Default::default()
                },
            );
            assert_sound(&label, &report);
            assert!(report.shard_crashes >= 1, "{label}: the fault must fire: {report:?}");
            assert_eq!(report.kept, 0, "{label}: nothing was decided for the dying gtid");
        }
    }
}

/// Crash window 2: a shard dies *after* the commit decision was durably
/// logged but before the resolution reached it. Recovery must resolve
/// the in-doubt piece from the decision log and keep it.
#[test]
fn crash_after_decision_resolves_in_doubt_from_decision_log() {
    let mut kept_total = 0usize;
    for nth in [2u64, 7, 13] {
        for seed in seed_window(3) {
            let label = format!("after-decision/nth{nth}/seed{seed}");
            let report = run(
                &label,
                FleetParams {
                    seed,
                    kill: 0,
                    fault: Some(ShardFaultPoint::CrashAfterDecision { nth }),
                    ..Default::default()
                },
            );
            assert_sound(&label, &report);
            assert!(report.shard_crashes >= 1, "{label}: the fault must fire: {report:?}");
            kept_total += report.kept;
        }
    }
    assert!(
        kept_total > 0,
        "at least one run must recover an in-doubt piece via a kept commit decision"
    );
}

/// Crash window 3: the coordinator dies right after logging a commit
/// decision, before acking or notifying any shard. The decision log is
/// the only survivor; recovery must re-drive it and no state may diverge.
#[test]
fn coordinator_crash_mid_commit_redrives_from_decision_log() {
    for nth in [1u64, 5, 11] {
        for seed in seed_window(3) {
            let label = format!("coord-crash/nth{nth}/seed{seed}");
            let report = run(
                &label,
                FleetParams {
                    seed,
                    kill: 0,
                    fault: Some(ShardFaultPoint::CoordinatorCrashMidCommit { nth }),
                    ..Default::default()
                },
            );
            assert_sound(&label, &report);
            // The decided-but-unacked transaction commits durably even
            // though its client saw an error: committed ≥ acked.
            assert!(
                report.committed >= report.acked,
                "{label}: committed {} < acked {}",
                report.committed,
                report.acked
            );
        }
    }
    // The same death with nothing in flight: the coordinator is killed
    // *idle*, after the batch, while a shard is still down — so the whole
    // settle phase (shard recovery, every re-driven decision) starts from
    // the decision log alone.
    for seed in seed_window(3) {
        let label = format!("coord-crash/idle/seed{seed}");
        let report =
            run(&label, FleetParams { seed, coordinator_crash: true, ..Default::default() });
        assert_sound(&label, &report);
        assert!(report.shard_crashes >= 1, "{label}: a shard must be down at the crash");
        assert!(report.acked > 0, "{label}: nothing was acknowledged before the crash");
    }
}

/// Crash window 4: a killed shard crashes *again* in the middle of its
/// own recovery, after resolving some (but not all) in-doubt pieces.
/// The second recovery must converge without re-compensating.
#[test]
fn double_crash_during_shard_recovery_converges() {
    for seed in seed_window(4) {
        let label = format!("double-crash/seed{seed}");
        let report = run(
            &label,
            FleetParams {
                seed,
                n_shards: 3,
                kill: 2,
                double_crash: true,
                txns: 48,
                ..Default::default()
            },
        );
        assert_sound(&label, &report);
    }
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
            assert_sound(&label, &report);
            assert_eq!(report.failed, 0, "{label}: transport faults must be transparent");
        }
    }
}

/// The 2PC baseline reaches the same committed state on a healthy fleet —
/// it is a correctness peer, only slower under contention.
#[test]
fn two_phase_baseline_converges_on_healthy_fleet() {
    let (acked, committed, acked_log) = guarded("2pc/healthy", || {
        let db_params = DbParams { n_items: 6, orders_per_item: 3, ..Default::default() };
        let coord = Coordinator::new(FleetConfig {
            n_shards: 2,
            db_params: db_params.clone(),
            ..Default::default()
        });
        let mut acked = 0usize;
        for spec in batch(&db_params, 11, 24) {
            let (_gtid, out, _retries) =
                coord.submit_with_retry(&spec, CommitProtocol::TwoPhase, 10);
            if out.is_ok() {
                acked += 1;
            }
        }
        (acked, coord.committed_gtids().len(), coord.acked().len())
    });
    assert_eq!(acked, 24, "healthy 2pc fleet commits everything");
    assert_eq!(acked_log, committed, "every 2pc ack has a logged decision");
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
