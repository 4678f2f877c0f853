//! Tier-1 escrow suite: the escrow order-entry variant (maintained
//! `PaidTotal` counters, `EscrowAdd` shipping) under the semantic protocol,
//! multi-threaded, against the scan oracle. Every scenario is
//! watchdog-guarded — a hang must surface as a test failure rather than a
//! wedged CI job.

use semcc::core::Engine;
use semcc::orderentry::{Database, DbParams, MixWeights, Workload, WorkloadConfig};
use semcc::semantics::Storage;
use semcc::sim::scenario::guarded;
use semcc::sim::{build_engine, run_workload, ProtocolKind, Residue, RunMetrics, RunParams};
use std::sync::Arc;

/// Run the hot-counter mix — 3 parts pays, 2 parts totals and `ships` parts
/// shipments, Zipf 1.2 over two hot items, eight workers — on a fresh
/// database under the semantic protocol.
fn run_hot_mix(escrow: bool, seed: u64, ships: u32) -> (Database, Arc<Engine>, RunMetrics) {
    let params = DbParams { n_items: 2, orders_per_item: 8, escrow, ..Default::default() };
    let db = Database::build(&params).unwrap();
    let engine = build_engine(ProtocolKind::Semantic, &db, None);
    let mix = MixWeights {
        t0_new: 0,
        t1_ship: ships,
        t2_pay: 3,
        t3_check_shipped: 0,
        t4_check_paid: 0,
        t5_total: 2,
    };
    let wl = WorkloadConfig { seed, zipf_theta: 1.2, mix, ..Default::default() };
    let batch = Workload::new(&db, wl).batch(&db, 120);
    let out = run_workload(&engine, batch, &RunParams { workers: 8, ..Default::default() });
    (db, engine, out.metrics)
}

/// The escrow hot-counter cell end to end: a pay/ship/total mix must leave
/// the maintained `PaidTotal` counters exactly equal to the scan oracle,
/// with zero residue — for every seed.
#[test]
fn escrow_hot_cell_is_exact_across_seeds() {
    for seed in 1..=8 {
        guarded(&format!("escrow-cell/seed{seed}"), move || {
            let (db, engine, metrics) = run_hot_mix(true, seed, 2);
            assert_eq!(metrics.failed, 0, "seed {seed}: {metrics:?}");
            for (idx, item) in db.items.iter().enumerate() {
                let counter = db.store.get(item.paid_total).unwrap().as_int().unwrap();
                assert_eq!(
                    counter,
                    db.oracle_total_payment(idx).unwrap(),
                    "seed {seed}, item {idx}: counter vs scan oracle"
                );
            }
            assert!(metrics.stats.escrow_grants > 0, "seed {seed}: no escrow op: {metrics:?}");
            Residue::of(&engine).check().unwrap();
        });
    }
}

/// Pays and totals on both schemas: on the stock schema the ledger records
/// no escrow grant, on the escrow schema every payment is one. Every
/// transaction commits.
#[test]
fn escrow_grants_leave_no_trace_where_they_are_off() {
    guarded("escrow-off", || {
        for escrow in [false, true] {
            let (_db, _engine, metrics) = run_hot_mix(escrow, 9, 0);
            assert_eq!(metrics.failed, 0, "escrow={escrow}: {metrics:?}");
            assert_eq!(metrics.stats.escrow_grants > 0, escrow, "escrow={escrow}: {metrics:?}");
        }
    });
}
