//! The uncontended transaction path writes nothing two transactions share
//! that it does not have to: the process-wide structures answer "nothing
//! here" without their latch, completion subscriptions race node completion
//! under the waited-for tree's own lock and never lose a wake-up, retention
//! is read off the tree, and a sink nobody listens to changes nothing but
//! the cost.

use semcc::core::notify::WaitCell;
use semcc::core::{
    Engine, Event, FnProgram, HistorySink, MemorySink, TopId, TransactionProgram, TxnTree,
    WaitsForGraph,
};
use semcc::orderentry::{
    Database, DbParams, MixWeights, Target, TxnSpec, Workload, WorkloadConfig,
};
use semcc::semantics::{Invocation, ObjectId, Storage, Value, TYPE_ATOMIC};
use semcc::sim::scenario::guarded;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const ROUNDS: usize = 20_000;

/// Run `left(round)` and `right(round)` on two threads, released into each
/// round together by a barrier they poll, and `check(round)` once both are
/// through it.
fn race(
    left: impl Fn(usize) + Send + Sync,
    right: impl Fn(usize) + Send + Sync,
    check: impl Fn(usize) + Send + Sync,
) {
    let arrived = AtomicUsize::new(0);
    let meet = |at: usize| {
        arrived.fetch_add(1, Ordering::SeqCst);
        while arrived.load(Ordering::SeqCst) < at {
            std::thread::yield_now();
        }
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            for round in 0..ROUNDS {
                meet(4 * round + 2);
                left(round);
                meet(4 * round + 4);
            }
        });
        for round in 0..ROUNDS {
            meet(4 * round + 2);
            right(round);
            meet(4 * round + 4);
            check(round);
        }
    });
}

#[test]
fn empty_graphs_answer_without_taking_their_latch() {
    let wfg = Arc::new(WaitsForGraph::new());
    let _latch = wfg.hold_latch();
    let w = Arc::clone(&wfg);
    guarded("fast paths of the empty waits-for graph, latch held elsewhere", move || {
        let top = TopId(7);
        assert!(!w.is_doomed(top));
        w.finished(top);
    });
}

#[test]
fn a_subscription_racing_the_nodes_end_is_woken_or_refused_never_neither() {
    let rounds: Vec<(Arc<TxnTree>, u32, Arc<WaitCell>)> = (0..ROUNDS)
        .map(|i| {
            let tree = TxnTree::new(TopId(i as u64 + 1));
            let idx = tree.add_child(0, Arc::new(Invocation::get(ObjectId(1), TYPE_ATOMIC)));
            (tree, idx, WaitCell::new())
        })
        .collect();
    let accepted: Vec<AtomicUsize> = (0..ROUNDS).map(|_| AtomicUsize::new(0)).collect();
    guarded("subscribe racing complete/abort", move || {
        race(
            |r| {
                let (tree, idx, cell) = &rounds[r];
                accepted[r].store(usize::from(tree.subscribe(*idx, cell)), Ordering::SeqCst);
            },
            |r| {
                let (tree, idx, _) = &rounds[r];
                drop(if r % 2 == 0 { tree.complete(*idx) } else { tree.abort(*idx) });
            },
            |r| {
                let cell = &rounds[r].2;
                let accepted = accepted[r].load(Ordering::SeqCst) == 1;
                assert!(!cell.would_wait(), "round {r}: subscribed and never woken");
                assert_eq!(cell.had_completion(), accepted, "round {r}: woken iff accepted");
            },
        );
    });
}

#[test]
fn a_forget_racing_a_block_leaves_no_residue() {
    let wfg = Arc::new(WaitsForGraph::new());
    guarded("forget racing block", move || {
        let (waiter, target) = (|r: usize| TopId(2 * r as u64 + 1), |r: usize| TopId(2 * r as u64));
        race(
            |r| {
                wfg.block(waiter(r), &[target(r)], &WaitCell::new());
                wfg.unblock(waiter(r));
                wfg.finished(waiter(r));
            },
            |r| wfg.finished(target(r)),
            |r| assert_eq!(wfg.residue(), (0, 0, 0, 0), "round {r}"),
        );
    });
}

fn one_item_db() -> Database {
    Database::build(&DbParams { n_items: 1, orders_per_item: 2, ..Default::default() }).unwrap()
}

fn engine_over(db: &Database, sink: Option<Arc<MemorySink>>) -> Arc<Engine> {
    let builder =
        Engine::builder(Arc::clone(&db.store) as Arc<dyn Storage>, Arc::clone(&db.catalog));
    match sink {
        Some(sink) => builder.sink(sink as Arc<dyn HistorySink>),
        None => builder,
    }
    .build()
}

fn target(db: &Database, order: usize) -> Target {
    Target { item: db.items[0].item, order: db.items[0].orders[order].order }
}

/// Nothing marks a lock retained any more; the dump reads it off the tree.
#[test]
fn locks_read_as_retained_between_a_subtransactions_commit_and_the_top_level_end() {
    let db = one_item_db();
    let engine = engine_over(&db, None);
    let ship = TxnSpec::Ship(vec![target(&db, 0)]);
    let seen = Mutex::new(None);
    let probe = FnProgram::new("T1", |ctx| {
        ship.run(ctx)?;
        *seen.lock().unwrap() = Some(engine.lock_table());
        Ok(Value::Unit)
    });
    engine.execute(&probe).unwrap();
    let mid = seen.lock().unwrap().take().expect("the program ran");
    assert!(mid.retained > 0, "ShipOrder committed, its children's locks are retained: {mid}");
    assert!(mid.held > 0, "ShipOrder's own lock is held, not retained: {mid}");
    assert_eq!(engine.stats().retained_conversions, mid.retained as u64);
    let after = engine.lock_table();
    assert_eq!((after.held, after.retained), (0, 0), "{after}");
}

/// The same script under `NullSink` and under `MemorySink`: the protocol
/// does the same work, and the listening sink still sees all of it, in
/// order.
#[test]
fn a_sink_nobody_listens_to_changes_no_counter_and_a_listening_one_sees_every_event() {
    let script = |db: &Database| {
        vec![
            TxnSpec::Ship(vec![target(db, 0), target(db, 1)]),
            TxnSpec::Pay(vec![target(db, 0)]),
            TxnSpec::CheckShipped { targets: vec![target(db, 1)], bypass: true },
            TxnSpec::Total(db.items[0].item),
        ]
    };
    let run = |sink: Option<Arc<MemorySink>>| {
        let db = one_item_db();
        let engine = engine_over(&db, sink);
        for spec in script(&db) {
            engine.execute(&spec).unwrap();
        }
        engine.stats()
    };
    let sink = MemorySink::new();
    let (quiet, heard) = (run(None), run(Some(Arc::clone(&sink))));
    assert_eq!(quiet, heard);

    let events = sink.events();
    assert!(events.iter().enumerate().all(|(i, e)| e.seq == i as u64), "sequence has a gap");
    let count = |pred: fn(&Event) -> bool| events.iter().filter(|e| pred(&e.ev)).count() as u64;
    assert_eq!(count(|e| matches!(e, Event::TopBegin { .. })), 4);
    assert_eq!(count(|e| matches!(e, Event::TopCommit { .. })), heard.commits);
    assert_eq!(count(|e| matches!(e, Event::Granted { .. })), heard.lock_requests);
    let starts = count(|e| matches!(e, Event::ActionStart { .. }));
    assert_eq!(starts, count(|e| matches!(e, Event::ActionComplete { .. })));
    assert!(starts >= heard.lock_requests, "every lock request belongs to a started action");
    // Per transaction: begin first, commit last, every grant inside an
    // action that started before it and completed after it.
    for top in events.iter().filter_map(|e| match e.ev {
        Event::TopBegin { top, .. } => Some(top),
        _ => None,
    }) {
        let own: Vec<&Event> = events.iter().map(|e| &e.ev).filter(|e| e.top() == top).collect();
        assert!(matches!(own.first(), Some(Event::TopBegin { .. })), "{top}: {own:?}");
        assert!(matches!(own.last(), Some(Event::TopCommit { .. })), "{top}: {own:?}");
        for (at, ev) in own.iter().enumerate() {
            let Event::Granted { node, .. } = ev else { continue };
            let started = |e: &&Event| matches!(e, Event::ActionStart { node: n, .. } if n == node);
            let done = |e: &&Event| matches!(e, Event::ActionComplete { node: n } if n == node);
            assert!(own[..at].iter().any(started), "{node}: granted before it started");
            assert!(own[at..].iter().any(done), "{node}: never completed after its grant");
        }
    }
}

/// Not a test: the scaling probe EXPERIMENTS.md quotes, until the benchmark
/// carries a one-thread rep. A closed loop over `execute_with_retry` on the
/// benchmark's database shape (no service, no WAL), 100 k transactions of
/// the `oe_hot` mix and of the uniform T1/T2 mix: one thread, two threads
/// on one engine, two threads on an engine and database each.
/// `cargo test --release --test contention -- --ignored --nocapture scaling`
#[test]
#[ignore = "measurement, not a check"]
fn scaling_probe() {
    const N: usize = 100_000;
    let stage = |hot: bool, n: usize, seed: u64| {
        let params = DbParams { n_items: 1024, orders_per_item: 32, ..Default::default() };
        let db = Database::build(&params).unwrap();
        let (mix, zipf_theta) = match hot {
            true => (MixWeights::update_heavy(), 1.2),
            false => (MixWeights::with_read_ratio(0), 0.0),
        };
        let cfg = WorkloadConfig { mix, zipf_theta, targets_per_txn: 2, bypass_checks: true, seed };
        let batch = Workload::new(&db, cfg).batch(&db, n);
        (engine_over(&db, None), batch)
    };
    // Transactions per second of `threads` clients draining one cursor per
    // stage (so: sharing the stage's engine, and nothing across stages).
    let rate = |stages: &[(Arc<Engine>, Vec<TxnSpec>)], threads: usize| {
        let cursors: Vec<AtomicUsize> = stages.iter().map(|_| AtomicUsize::new(0)).collect();
        let started = std::time::Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let ((engine, batch), cursor) =
                    (&stages[t % stages.len()], &cursors[t % stages.len()]);
                s.spawn(move || {
                    while let Some(spec) = batch.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        engine.execute_with_retry(spec, 1000).0.unwrap();
                    }
                });
            }
        });
        stages.iter().map(|(_, b)| b.len()).sum::<usize>() as f64 / started.elapsed().as_secs_f64()
    };
    for hot in [true, false] {
        let one = rate(&[stage(hot, N, 7)], 1);
        let two = rate(&[stage(hot, N, 7)], 2);
        let private = rate(&[stage(hot, N / 2, 7), stage(hot, N / 2, 8)], 2);
        println!(
            "{}: 1 thread {one:.0}/s, 2 threads {two:.0}/s ({:.2}x), 2 private engines {private:.0}/s ({:.2}x)",
            if hot { "oe_hot batch" } else { "uniform T1/T2" },
            two / one,
            private / one,
        );
    }
}
