//! Failure-containment regression suite.
//!
//! Chaos sweeps (seeded fault injection through the order-entry workload)
//! plus targeted scenarios for the three containment mechanisms: panic-safe
//! aborts, compensation on abort-after-partial-work, and the lock-wait
//! timeout backstop. Every workload run is watchdog-guarded — a hang is a
//! containment failure and must surface as a test failure, not a stuck CI
//! job.

use semcc::core::{
    Engine, FaultPlan, FaultSpec, FnProgram, MemorySink, ProtocolConfig, TransactionProgram,
};
use semcc::orderentry::{Database, DbParams, Target};
use semcc::semantics::{MethodContext, SemccError, Storage, Value};
use semcc::sim::scenario::{await_blocked, guarded, seed_window, top_of_label, Gate, OpenOnDrop};
use semcc::sim::{fault_mixes, run_chaos, AuditParams};
use std::sync::Arc;
use std::time::Duration;

/// The acceptance sweep: 8 seeds × the three canonical fault mixes, each
/// run must terminate, clean up completely, and leave a tree-reducible
/// committed history. CI shifts the seed window via
/// `SEMCC_CHAOS_SEED_OFFSET` to cover more schedules than local runs.
#[test]
fn chaos_sweep_is_contained_across_seeds_and_mixes() {
    for (mix, spec) in fault_mixes() {
        let mut injected_total = 0;
        for seed in seed_window(8) {
            let label = format!("chaos/{mix}/seed{seed}");
            let params = AuditParams { seed, txns: 40, faults: spec, ..Default::default() };
            let report = guarded(&label, move || run_chaos(&params));
            assert_eq!(
                report.committed + report.failed,
                40,
                "{label}: every transaction must resolve: {report:?}"
            );
            if let Err(residue) = report.residue.check() {
                panic!("{label}: {residue}: {report:?}");
            }
            assert!(report.serializable, "{label}: surviving history not serializable: {report:?}");
            injected_total += report.injected;
        }
        assert!(injected_total > 0, "{mix}: the sweep never injected a fault");
    }
}

fn db1() -> Database {
    Database::build(&DbParams { n_items: 1, orders_per_item: 2, ..Default::default() }).unwrap()
}

fn semantic_engine(db: &Database, sink: Arc<MemorySink>) -> Arc<Engine> {
    Engine::builder(Arc::clone(&db.store) as Arc<dyn Storage>, Arc::clone(&db.catalog))
        .protocol(ProtocolConfig::semantic())
        .sink(sink)
        .build()
}

/// A panic after completed subtransactions becomes an ordinary abort: the
/// compensation runs, the retained locks fall, and a concurrent
/// *conflicting* transaction that was blocked on them proceeds to commit.
#[test]
fn panicking_program_aborts_with_compensation_and_unblocks_conflicting_txn() {
    let db = db1();
    let sink = MemorySink::new();
    let engine = semantic_engine(&db, sink.clone());
    let t = Target { item: db.items[0].item, order: db.items[0].orders[0].order };

    let hold = Gate::new();
    let g = Arc::clone(&hold);
    let (e1, e2) = (Arc::clone(&engine), Arc::clone(&engine));

    let (r1, r2) = std::thread::scope(|s| {
        let _unstick = OpenOnDrop::new([Arc::clone(&hold)]);
        let h1 = s.spawn(move || {
            let p = FnProgram::new("T1", move |ctx: &mut dyn MethodContext| {
                ctx.call(t.item, "ShipOrder", vec![Value::Id(t.order)])?;
                g.wait();
                panic!("boom after shipping");
            });
            e1.execute(&p)
        });
        // T1 holds a retained ShipOrder lock; a second ShipOrder on the
        // same order conflicts (Figure 2) and must block on it.
        let t1 = loop {
            if let Some(t) = top_of_label(&sink, "T1", 0) {
                break t;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let h2 = s.spawn(move || {
            let p = FnProgram::new("T2", move |ctx: &mut dyn MethodContext| {
                ctx.call(t.item, "ShipOrder", vec![Value::Id(t.order)])
            });
            e2.execute(&p)
        });
        let t2 = loop {
            if let Some(t) = top_of_label(&sink, "T2", 0) {
                break t;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let waits_on = await_blocked(&sink, t2);
        assert!(waits_on.iter().any(|n| n.top == t1), "T2 must wait on T1: {waits_on:?}");

        // Release T1 into its panic; the abort must unblock T2.
        hold.open();
        (h1.join().unwrap(), h2.join().unwrap())
    });

    match r1 {
        Err(SemccError::MethodPanicked(msg)) => {
            assert!(msg.contains("boom after shipping"), "{msg}")
        }
        other => panic!("T1 must abort as MethodPanicked, got {other:?}"),
    }
    assert!(r2.is_ok(), "blocked conflicting transaction must proceed: {r2:?}");

    // Compensation ran (ClearStatus undoing the shipped event).
    let events = sink.events();
    assert!(
        events.iter().any(|e| matches!(e.ev, semcc::core::Event::Compensate { .. })),
        "panic abort must compensate the completed ShipOrder"
    );
    let stats = engine.stats();
    assert!(stats.caught_panics >= 1, "{stats:?}");
    assert_eq!(engine.live_transactions(), 0);
    assert_eq!(engine.lock_entries(), 0, "panic abort leaked lock entries");

    // The survivor's status is exactly one shipped event (T1's was cleared).
    let status = db.store.get(db.store.field(t.order, "Status").unwrap()).unwrap();
    assert_eq!(status, Value::Int(semcc::orderentry::StatusEvent::Shipped.bit()));
}

/// An injected method-body panic (FaultPlan at p=1, budget 1) is invisible
/// to later transactions: the first one aborts, everything after commits.
#[test]
fn injected_body_panic_aborts_only_the_victim() {
    semcc::core::silence_injected_panics();
    let db = db1();
    let plan = FaultPlan::new(3, FaultSpec::body_panic(1.0).with_max_triggers(1));
    let engine =
        Engine::builder(Arc::clone(&db.store) as Arc<dyn Storage>, Arc::clone(&db.catalog))
            .protocol(ProtocolConfig::semantic())
            .fault_plan(Arc::clone(&plan))
            .build();
    let t = Target { item: db.items[0].item, order: db.items[0].orders[0].order };

    let ship = FnProgram::new("ship", move |ctx: &mut dyn MethodContext| {
        ctx.call(t.item, "ShipOrder", vec![Value::Id(t.order)])
    });
    match engine.execute(&ship) {
        Err(SemccError::MethodPanicked(msg)) => assert!(msg.contains("method-body"), "{msg}"),
        other => panic!("first run must eat the injected panic, got {other:?}"),
    }
    assert_eq!(plan.triggered(), 1);
    // Budget exhausted: the retry commits, nothing lingers from the abort.
    engine.execute(&ship).expect("second run must commit");
    assert_eq!(engine.live_transactions(), 0);
    assert_eq!(engine.lock_entries(), 0);
}

/// The timeout backstop: a waiter stuck behind a lock that is never
/// released aborts with `LockTimeout` instead of hanging, and the holder
/// is unaffected.
#[test]
fn lock_wait_timeout_aborts_the_waiter_not_the_holder() {
    let db = db1();
    let sink = MemorySink::new();
    let engine =
        Engine::builder(Arc::clone(&db.store) as Arc<dyn Storage>, Arc::clone(&db.catalog))
            .protocol(ProtocolConfig::semantic())
            .lock_wait_timeout(Duration::from_millis(150))
            .sink(sink.clone())
            .build();
    let t = Target { item: db.items[0].item, order: db.items[0].orders[0].order };

    let hold = Gate::new();
    let g = Arc::clone(&hold);
    let (e1, e2) = (Arc::clone(&engine), Arc::clone(&engine));

    let (r1, r2) = std::thread::scope(|s| {
        let _unstick = OpenOnDrop::new([Arc::clone(&hold)]);
        let h1 = s.spawn(move || {
            let p = FnProgram::new("T1", move |ctx: &mut dyn MethodContext| {
                ctx.call(t.item, "ShipOrder", vec![Value::Id(t.order)])?;
                g.wait();
                Ok(Value::Unit)
            });
            e1.execute(&p)
        });
        loop {
            if top_of_label(&sink, "T1", 0).is_some() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let h2 = s.spawn(move || {
            let p = FnProgram::new("T2", move |ctx: &mut dyn MethodContext| {
                ctx.call(t.item, "ShipOrder", vec![Value::Id(t.order)])
            });
            // No retry: the timeout must surface.
            e2.execute(&p)
        });
        let r2 = h2.join().unwrap();
        hold.open();
        (h1.join().unwrap(), r2)
    });

    assert!(matches!(r2, Err(SemccError::LockTimeout)), "waiter must time out: {r2:?}");
    assert!(r1.is_ok(), "the lock holder must be unaffected: {r1:?}");
    let stats = engine.stats();
    assert!(stats.lock_timeouts >= 1, "{stats:?}");
    assert_eq!(engine.live_transactions(), 0);
    assert_eq!(engine.lock_entries(), 0);
}

/// `execute_with_retry` treats a lock timeout like a deadlock: the
/// transaction is re-run and succeeds once the blocker is gone.
#[test]
fn lock_timeout_is_retried_to_success() {
    let db = db1();
    let engine =
        Engine::builder(Arc::clone(&db.store) as Arc<dyn Storage>, Arc::clone(&db.catalog))
            .protocol(ProtocolConfig::semantic())
            .lock_wait_timeout(Duration::from_millis(100))
            .build();
    let t = Target { item: db.items[0].item, order: db.items[0].orders[0].order };

    let (hold, holding) = (Gate::new(), Gate::new());
    let (g, locked) = (Arc::clone(&hold), Arc::clone(&holding));
    let (e1, e2) = (Arc::clone(&engine), Arc::clone(&engine));

    std::thread::scope(|s| {
        let _unstick = OpenOnDrop::new([Arc::clone(&hold), Arc::clone(&holding)]);
        let h1 = s.spawn(move || {
            let p = FnProgram::new("holder", move |ctx: &mut dyn MethodContext| {
                ctx.call(t.item, "ShipOrder", vec![Value::Id(t.order)])?;
                locked.open();
                g.wait();
                Ok(Value::Unit)
            });
            e1.execute(&p)
        });
        // The waiter starts only once the holder owns the lock...
        holding.wait();
        let h2 = s.spawn(move || {
            let p = FnProgram::new("waiter", move |ctx: &mut dyn MethodContext| {
                ctx.call(t.item, "ShipOrder", vec![Value::Id(t.order)])
            });
            e2.execute_with_retry(&p, 100)
        });
        // ...and the holder lets go once the waiter has burnt an attempt
        // (observed, not assumed from a fixed sleep).
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while engine.stats().lock_timeouts < 1 {
            assert!(std::time::Instant::now() < deadline, "the waiter never timed out");
            std::thread::sleep(Duration::from_millis(1));
        }
        hold.open();
        let (res, retries) = h2.join().unwrap();
        assert!(res.is_ok(), "retry must eventually succeed: {res:?}");
        assert!(retries >= 1, "at least one attempt must have timed out");
        h1.join().unwrap().unwrap();
    });

    let stats = engine.stats();
    assert!(stats.lock_timeouts >= 1 && stats.txn_retries >= 1, "{stats:?}");
    assert_eq!(engine.live_transactions(), 0);
    assert_eq!(engine.lock_entries(), 0);
}

/// A panic with no completed work is still a clean abort (no compensation
/// needed, nothing leaked) and does not poison the engine for reuse.
#[test]
fn bare_panic_is_a_clean_abort() {
    let db = db1();
    let engine = semantic_engine(&db, MemorySink::new());
    let p = FnProgram::new("kaboom", |_ctx: &mut dyn MethodContext| -> Result<Value, SemccError> {
        panic!("immediate")
    });
    match engine.execute(&p) {
        Err(SemccError::MethodPanicked(msg)) => assert!(msg.contains("immediate"), "{msg}"),
        other => panic!("{other:?}"),
    }
    assert_eq!(engine.live_transactions(), 0);
    assert_eq!(engine.lock_entries(), 0);
    // Engine still fully usable.
    let t = Target { item: db.items[0].item, order: db.items[0].orders[0].order };
    let ship = FnProgram::new("ship", move |ctx: &mut dyn MethodContext| {
        ctx.call(t.item, "ShipOrder", vec![Value::Id(t.order)])
    });
    engine.execute(&ship).unwrap();
    let _ = &ship as &dyn TransactionProgram;
}
