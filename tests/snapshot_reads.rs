//! The versioned snapshot read path at the API surface.
//!
//! Read-only transactions must commit entirely outside the lock kernel
//! (no lock-table entries, no waits-for edges, no WAL records), validate
//! their observed version set at top-commit, and fall back to the
//! ordinary semantic-locking path whenever the snapshot cannot be proven
//! consistent. The reader classification that gates the path must agree
//! with the hand-written order-entry matrices, and storage wrappers that
//! cannot guarantee stamp consistency (the chaos harness) must disable
//! the path entirely. A reader's allocations, counted on the test's own
//! thread, must not grow with what it reads.

use semcc::core::{Engine, FaultPlan, FaultSpec, FaultyStorage, FnProgram, ProtocolConfig};
use semcc::orderentry::types::{
    ITEM_CHECK_ORDER, ITEM_METHODS, ITEM_TOTAL_PAYMENT, ORDER_METHODS, ORDER_TEST_STATUS,
};
use semcc::orderentry::{
    matrices, Database, DbParams, MixWeights, StatusEvent, Target, TxnSpec, Workload,
    WorkloadConfig,
};
use semcc::semantics::{
    CommutativitySpec, Invocation, MethodContext, MethodId, ObjectId, Storage, Value, TYPE_ATOMIC,
};
use semcc::sim::{build_engine, check_snapshot_reads, run_workload, ProtocolKind, RunParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Counts fresh allocations per thread, as in `tests/chain_alloc.rs`, and
/// forwards every call to `System` unchanged (so the caller's obligations
/// under `GlobalAlloc` are `System`'s).
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

fn small_db() -> Database {
    Database::build(&DbParams { n_items: 2, orders_per_item: 3, ..Default::default() }).unwrap()
}

fn engine_for(db: &Database) -> Arc<Engine> {
    Engine::builder(Arc::clone(&db.store) as Arc<dyn Storage>, Arc::clone(&db.catalog))
        .protocol(ProtocolConfig::semantic())
        .build()
}

fn target(db: &Database, i: usize, o: usize) -> Target {
    Target { item: db.items[i].item, order: db.items[i].orders[o].order }
}

/// T3/T4/T5 commit on the snapshot path with a commit-order number after
/// the writers they observed; counters account for every read and
/// validation; no lock-kernel state is involved.
#[test]
fn read_only_transactions_commit_on_the_snapshot_path() {
    let db = small_db();
    let engine = engine_for(&db);
    let t = target(&db, 0, 0);

    let ship = engine.execute(&TxnSpec::Ship(vec![t])).unwrap();
    assert!(!ship.snapshot, "updates take the locking path");
    assert!(ship.commit_seq > 0);

    for bypass in [true, false] {
        let check = engine.execute(&TxnSpec::CheckShipped { targets: vec![t], bypass }).unwrap();
        assert!(check.snapshot, "pure reader commits on the snapshot path (bypass={bypass})");
        assert!(check.commit_seq > ship.commit_seq, "the reader orders after the writer");
        assert_eq!(check.value, Value::List(vec![Value::Bool(true)]));
    }

    let total = engine.execute(&TxnSpec::Total(db.items[0].item)).unwrap();
    assert!(total.snapshot);
    assert_eq!(total.value, Value::Money(0), "nothing paid yet");

    let s = engine.stats();
    assert!(s.snapshot_reads > 0, "leaf reads must be counted");
    assert_eq!(s.read_validations, 3, "one validation per snapshot commit");
    assert_eq!(s.read_validation_failures, 0);
    assert_eq!(s.snapshot_retries, 0);
}

/// The builder knob disables the path without changing results.
#[test]
fn snapshot_knob_off_routes_readers_through_the_kernel() {
    let db = small_db();
    let engine =
        Engine::builder(Arc::clone(&db.store) as Arc<dyn Storage>, Arc::clone(&db.catalog))
            .protocol(ProtocolConfig::semantic())
            .snapshot_reads(false)
            .build();
    let total = engine.execute(&TxnSpec::Total(db.items[0].item)).unwrap();
    assert!(!total.snapshot);
    assert_eq!(total.value, Value::Money(0));
    let s = engine.stats();
    assert_eq!(
        (s.snapshot_reads, s.read_validations, s.snapshot_retries),
        (0, 0, 0),
        "knob off leaves no snapshot-path trace"
    );
}

/// A program that *claims* to be read-only but attempts a write is
/// promoted to the locking path, where the write lands normally.
#[test]
fn lying_read_only_program_is_promoted_and_its_write_lands() {
    let db = small_db();
    let engine = engine_for(&db);
    let qoh = db.items[0].qoh;
    let prog = FnProgram::read_only("sneaky-writer", move |ctx: &mut dyn MethodContext| {
        ctx.invoke(Invocation::put(qoh, TYPE_ATOMIC, Value::Int(5)))
    });
    let out = engine.execute(&prog).unwrap();
    assert!(!out.snapshot, "promoted to the locking path");
    assert_eq!(db.store.get(qoh).unwrap(), Value::Int(5), "the write took effect");
    let s = engine.stats();
    assert_eq!(s.snapshot_retries, 1, "one promote");
    assert_eq!(s.read_validations, 0, "an ineligible attempt never validates");
}

/// A mutation landing between a snapshot read and top-commit fails
/// validation; the retry on the locking path observes the new state.
#[test]
fn validation_failure_promotes_and_the_retry_sees_current_state() {
    let db = small_db();
    let engine = engine_for(&db);
    let status = db.items[0].orders[0].status;
    let store = Arc::clone(&db.store);
    let attempts = Arc::new(AtomicUsize::new(0));
    let prog = {
        let attempts = Arc::clone(&attempts);
        FnProgram::read_only("racy-reader", move |ctx: &mut dyn MethodContext| {
            let v = ctx.invoke(Invocation::get(status, TYPE_ATOMIC))?;
            if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                // An out-of-band writer lands after the read, before commit.
                store.put(status, Value::Int(7)).unwrap();
            }
            Ok(v)
        })
    };
    let out = engine.execute(&prog).unwrap();
    assert!(!out.snapshot, "failed validation falls back to the locking path");
    assert_eq!(out.value, Value::Int(7), "the retry observed the overwrite");
    assert_eq!(attempts.load(Ordering::SeqCst), 2, "snapshot attempt plus locking re-run");
    let s = engine.stats();
    assert_eq!(s.read_validations, 1);
    assert_eq!(s.read_validation_failures, 1);
    assert_eq!(s.snapshot_retries, 1);
}

/// A reader that observes an object carrying write intent — exactly the
/// state a compensating abort leaves mid-flight — must fail validation
/// even though the version stamp it recorded is still current.
#[test]
fn reader_observing_mid_compensation_state_fails_validation() {
    let db = small_db();
    let engine = engine_for(&db);
    let status = db.items[0].orders[0].status;
    // Simulate a compensation in flight: intent declared, payload moved.
    db.store.begin_object_write(status).unwrap();
    db.store.put(status, Value::Int(StatusEvent::Shipped.bit())).unwrap();

    let out =
        engine.execute(&TxnSpec::CheckShipped { targets: vec![target(&db, 0, 0)], bypass: true });
    let out = out.unwrap();
    assert!(!out.snapshot, "possibly-uncommitted state must not commit as a snapshot");
    let s = engine.stats();
    assert_eq!(s.read_validation_failures, 1, "write intent fails the validation");
    assert_eq!(s.snapshot_retries, 1);

    db.store.end_object_write(status);
    let out = engine
        .execute(&TxnSpec::CheckShipped { targets: vec![target(&db, 0, 0)], bypass: true })
        .unwrap();
    assert!(out.snapshot, "intent released: the path is available again");
}

/// Version stamps are compared for equality only, so wraparound is an
/// ordinary stamp change, not a special case.
#[test]
fn version_wraparound_is_an_ordinary_stamp() {
    let db = small_db();
    let engine = engine_for(&db);
    let status = db.items[0].orders[0].status;
    db.store.force_version(status, u64::MAX).unwrap();

    let spec = TxnSpec::CheckShipped { targets: vec![target(&db, 0, 0)], bypass: true };
    let out = engine.execute(&spec).unwrap();
    assert!(out.snapshot, "u64::MAX is an ordinary stamp");

    engine.execute(&TxnSpec::Ship(vec![target(&db, 0, 0)])).unwrap();
    assert_eq!(db.store.object_version(status).unwrap(), (0, 0), "the stamp wrapped");

    let out = engine.execute(&spec).unwrap();
    assert!(out.snapshot);
    assert_eq!(out.value, Value::List(vec![Value::Bool(true)]));
    assert_eq!(engine.stats().read_validation_failures, 0);
}

/// Differential check of the spec-derived reader classification: a
/// method is a pure reader exactly when its catalog definition says
/// `updates: false`, and every pure-reader pair commutes in the
/// hand-written Figure-2/Figure-3 matrices (readers must never conflict
/// with readers, or the snapshot path would change blocking behaviour).
#[test]
fn reader_classification_matches_the_hand_written_matrices() {
    let db = small_db();
    let router = db.catalog.router();
    let item = db.items[0].item;
    let order = db.items[0].orders[0].order;

    let mut readers: Vec<(usize, &str)> = Vec::new();
    for (type_id, obj, methods) in
        [(db.item_type, item, &ITEM_METHODS[..]), (db.order_type, order, &ORDER_METHODS[..])]
    {
        for (i, name) in methods.iter().enumerate() {
            let m = MethodId(i as u32);
            let def = db.catalog.method_def(type_id, m).unwrap();
            assert_eq!(def.name, *name);
            let inv = Invocation::user(obj, type_id, m, Vec::new());
            assert_eq!(
                router.is_pure_reader(&inv),
                !def.updates,
                "classification of {name} disagrees with its spec"
            );
            if !def.updates && type_id == db.item_type {
                readers.push((i, name));
            }
        }
    }
    assert_eq!(
        readers.iter().map(|(i, _)| MethodId(*i as u32)).collect::<Vec<_>>(),
        vec![ITEM_TOTAL_PAYMENT, ITEM_CHECK_ORDER],
        "the Item readers are TotalPayment and CheckOrder"
    );

    // Reader × reader must commute in both Item matrix variants, for any
    // argument combination (same or different orders/events).
    let check_args =
        |order: semcc::semantics::ObjectId, bit: i64| vec![Value::Id(order), Value::Int(bit)];
    let arg_sets: Vec<Vec<Value>> = vec![
        Vec::new(),
        check_args(order, StatusEvent::Shipped.bit()),
        check_args(db.items[0].orders[1].order, StatusEvent::Paid.bit()),
    ];
    for param_aware in [false, true] {
        let m = matrices::item_matrix(param_aware);
        for (i, a_name) in &readers {
            for (j, b_name) in &readers {
                let (ma, mb) = (MethodId(*i as u32), MethodId(*j as u32));
                for args_a in &arg_sets {
                    for args_b in &arg_sets {
                        let a = Invocation::user(item, db.item_type, ma, args_a.clone());
                        let b = Invocation::user(item, db.item_type, mb, args_b.clone());
                        assert!(
                            m.commute(&a, &b),
                            "readers {a_name}/{b_name} must commute (param_aware={param_aware})"
                        );
                    }
                }
            }
        }
    }
    // Figure 3: the one Order reader commutes with itself.
    let m = matrices::order_matrix();
    let a = Invocation::user(order, db.order_type, ORDER_TEST_STATUS, Vec::new());
    assert!(m.commute(&a, &a));
}

/// The chaos harness wraps the store in a fault injector that cannot
/// guarantee stamp consistency; the engine must detect the missing
/// capability and route every transaction through the kernel.
#[test]
fn fault_wrapped_storage_disables_the_snapshot_path() {
    let db = small_db();
    // Zero fault probabilities: the wrapper's *presence* is the point.
    let plan = FaultPlan::new(1, FaultSpec::default());
    let store = FaultyStorage::new(Arc::clone(&db.store) as Arc<dyn Storage>, plan);
    let engine = Engine::builder(store as Arc<dyn Storage>, Arc::clone(&db.catalog))
        .protocol(ProtocolConfig::semantic())
        .build();
    let out = engine.execute(&TxnSpec::Total(db.items[0].item)).unwrap();
    assert!(!out.snapshot, "unversioned storage must force the locking path");
    assert_eq!(out.value, Value::Money(0));
    assert_eq!(engine.stats().snapshot_reads, 0);
}

/// End to end: a concurrent mixed workload commits snapshot readers, and
/// the commit-order serializability validator confirms each one observed
/// exactly a prefix of the committed writers.
#[test]
fn mixed_workload_snapshot_commits_pass_the_commit_order_validator() {
    let db = Database::build(&DbParams { n_items: 3, orders_per_item: 4, ..Default::default() })
        .unwrap();
    let initial = db.store.snapshot();
    let engine = build_engine(ProtocolKind::Semantic, &db, None);
    let mut w = Workload::new(
        &db,
        WorkloadConfig { seed: 11, mix: MixWeights::with_read_ratio(60), ..Default::default() },
    );
    let batch = w.batch(&db, 40);
    let out = run_workload(
        &engine,
        batch,
        &RunParams { workers: 4, record_outcomes: true, ..Default::default() },
    );
    assert_eq!(out.metrics.failed, 0);
    let snapshots = out.committed.iter().filter(|c| c.snapshot).count();
    assert!(snapshots > 0, "a 60%-read mix must commit snapshot readers");
    assert!(out.metrics.stats.snapshot_reads > 0);

    let report = check_snapshot_reads(&initial, &db.catalog, &out.committed).unwrap();
    assert!(report.ok(), "snapshot reads inconsistent with commit order: {:?}", report.mismatches);
    assert_eq!(report.checked, snapshots);
}

/// Differential audit of the group-commit ordering invariant: snapshot
/// readers race a batched writer group (a durable `OnCommit` log, many
/// workers), and the commit-sequence order the snapshot validator uses
/// must be the *same* order in which commit records reached the log.
/// `commit_seq` is drawn under the WAL's append lock, so a durable
/// `TopCommit` at a smaller LSN must carry a smaller sequence — if it
/// didn't, a snapshot reader could validate against a prefix that is not
/// a durable prefix.
#[test]
fn snapshot_validation_order_equals_durable_commit_order_under_group_commit() {
    use semcc::core::{read_image, FsyncPolicy, WalRecord, WalWriter};
    use std::collections::HashMap;

    let db = Database::build(&DbParams { n_items: 3, orders_per_item: 4, ..Default::default() })
        .unwrap();
    let initial = db.store.snapshot();
    let wal = WalWriter::new(FsyncPolicy::OnCommit);
    let engine =
        Engine::builder(Arc::clone(&db.store) as Arc<dyn Storage>, Arc::clone(&db.catalog))
            .protocol(ProtocolConfig::semantic())
            .lock_wait_timeout(Duration::from_secs(5))
            .wal(Arc::clone(&wal))
            .build();
    let mut w = Workload::new(
        &db,
        WorkloadConfig { seed: 23, mix: MixWeights::with_read_ratio(50), ..Default::default() },
    );
    let batch = w.batch(&db, 80);
    let out = run_workload(
        &engine,
        batch,
        &RunParams { workers: 8, max_retries: 200, record_outcomes: true, ..Default::default() },
    );
    assert_eq!(out.metrics.failed, 0);
    assert!(
        out.committed.iter().any(|c| c.snapshot),
        "a 50%-read mix must commit snapshot readers"
    );

    // Readers validated against a consistent commit-seq prefix…
    let report = check_snapshot_reads(&initial, &db.catalog, &out.committed).unwrap();
    assert!(report.ok(), "snapshot reads inconsistent with commit order: {:?}", report.mismatches);

    // …and that prefix order is the durable order: walking the log's
    // TopCommit records front to back, commit sequences strictly ascend.
    let seq_of: HashMap<u64, u64> =
        out.committed.iter().filter(|c| !c.snapshot).map(|c| (c.top.0, c.commit_seq)).collect();
    let mut durable_commits = 0usize;
    let mut last_seq = 0u64;
    for rec in &read_image(&wal.surviving_image()).expect("the log parses").records {
        let WalRecord::TopCommit { top } = rec else { continue };
        let seq = *seq_of
            .get(top)
            .unwrap_or_else(|| panic!("durable winner {top} has no committed outcome"));
        assert!(
            seq > last_seq,
            "log order violates commit_seq order: top {top} has seq {seq} after {last_seq}"
        );
        last_seq = seq;
        durable_commits += 1;
    }
    assert_eq!(
        durable_commits,
        seq_of.len(),
        "every locking-path commit must have a durable record"
    );
}

/// Run `read` as a read-only program whose first attempt, after reading,
/// has `mutate` change what it read. The snapshot attempt must fail
/// validation and promote; returns what the locking re-run read.
fn read_then_mutate(
    engine: &Engine,
    read: impl Fn(&mut dyn MethodContext) -> semcc::semantics::Result<Value> + Send + Sync,
    mutate: impl Fn() + Send + Sync,
) -> Value {
    let before = engine.stats();
    let attempts = AtomicUsize::new(0);
    let prog = FnProgram::read_only("read-then-mutate", |ctx: &mut dyn MethodContext| {
        let v = read(ctx)?;
        if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
            mutate();
        }
        Ok(v)
    });
    let out = engine.execute(&prog).unwrap();
    let after = engine.stats();
    assert!(!out.snapshot, "a failed validation promotes");
    assert_eq!(attempts.load(Ordering::SeqCst), 2, "the snapshot attempt and the locking re-run");
    assert_eq!(after.read_validation_failures, before.read_validation_failures + 1);
    assert_eq!(after.snapshot_retries, before.snapshot_retries + 1);
    out.value
}

/// The snapshot context's direct `get`, `select` and `scan` record their
/// stamps as a generic read through `invoke` does: a mutation after any of
/// them fails validation, and the locking re-run reads the new state.
#[test]
fn a_mutation_after_a_direct_read_fails_validation() {
    let db = small_db();
    let engine = engine_for(&db);
    let store = &db.store;
    let (status, orders) = (db.items[0].orders[0].status, db.items[0].orders_set);
    let no = db.items[0].orders[0].order_no;
    let got = read_then_mutate(
        &engine,
        |ctx| ctx.get(status),
        || {
            store.put(status, Value::Int(7)).unwrap();
        },
    );
    assert_eq!(got, Value::Int(7));
    let selected = read_then_mutate(
        &engine,
        |ctx| Ok(ctx.select(orders, no)?.map_or(Value::Unit, Value::Id)),
        || {
            store.set_remove(orders, no).unwrap();
        },
    );
    assert_eq!(selected, Value::Unit, "the re-run no longer finds the order");
    let stranger = db.items[1].orders[0].order;
    let scanned = read_then_mutate(
        &engine,
        |ctx| Ok(Value::Int(ctx.scan(orders)?.len() as i64)),
        || store.set_insert(orders, 999, stranger).unwrap(),
    );
    assert_eq!(scanned, Value::Int(3), "two orders left, and the stranger");
}

/// Reading an atom again after it moved poisons the attempt at once: the
/// program's second read fails, and the transaction is promoted without
/// reaching validation.
#[test]
fn rereading_a_moved_atom_poisons_the_attempt_at_once() {
    let db = small_db();
    let engine = engine_for(&db);
    let status = db.items[0].orders[0].status;
    let store = Arc::clone(&db.store);
    let rereads = Arc::new(Mutex::new(Vec::new()));
    let prog = {
        let rereads = Arc::clone(&rereads);
        FnProgram::read_only("rereader", move |ctx: &mut dyn MethodContext| {
            ctx.get(status)?;
            if rereads.lock().unwrap().is_empty() {
                store.put(status, Value::Int(7)).unwrap();
            }
            let again = ctx.get(status);
            rereads.lock().unwrap().push(again.is_ok());
            again
        })
    };
    let out = engine.execute(&prog).unwrap();
    assert!(!out.snapshot);
    assert_eq!(out.value, Value::Int(7));
    assert_eq!(*rereads.lock().unwrap(), [false, true], "the snapshot attempt's re-read failed");
    let s = engine.stats();
    assert_eq!((s.snapshot_retries, s.read_validations), (1, 0), "promoted before validating");
}

/// A snapshot `TotalPayment` allocates as often over an item with 8 orders
/// as over one with 32: no leaf read allocates, and the read set fills the
/// table its thread kept from the attempt before.
#[test]
fn a_snapshot_total_payment_allocates_the_same_over_8_and_32_orders() {
    let allocs_over = |orders: usize| {
        let params = DbParams { n_items: 1, orders_per_item: orders, ..Default::default() };
        let db = Database::build(&params).unwrap();
        let engine = engine_for(&db);
        // Paid orders make the reader take the `Quantity` reads as well.
        engine.execute(&TxnSpec::Pay((0..4).map(|o| target(&db, 0, o)).collect())).unwrap();
        let total = TxnSpec::Total(db.items[0].item);
        engine.execute(&total).unwrap();
        let (out, n) = allocs(|| engine.execute(&total).unwrap());
        assert!(out.snapshot, "TotalPayment commits on the snapshot path");
        n
    };
    let (eight, thirty_two) = (allocs_over(8), allocs_over(32));
    assert_eq!(eight, thirty_two, "allocations grow with the orders read");
    assert!(eight <= 8, "a snapshot TotalPayment allocated {eight} times");
}

/// Not a test: the per-type breakdown EXPERIMENTS.md quotes for `oe_read`.
/// One thread runs the workload's mix (95 % readers, Zipf 0.6, two targets
/// per transaction, bypassing checks) on the benchmark's database shape,
/// once to warm up and once timed, and prints each type's share of the
/// transactions, its mean µs and its share of the time; then the cost of
/// `Storage::field` on one order (hot) and across all orders (cold).
/// `cargo test --release --test snapshot_reads -- --ignored --nocapture per_type`
#[test]
#[ignore = "measurement, not a check"]
fn per_type_cost_probe() {
    const N: usize = 100_000;
    let params = DbParams { n_items: 1024, orders_per_item: 32, ..Default::default() };
    let db = Database::build(&params).unwrap();
    let engine = engine_for(&db);
    let cfg = WorkloadConfig {
        mix: MixWeights::with_read_ratio(95),
        zipf_theta: 0.6,
        targets_per_txn: 2,
        bypass_checks: true,
        seed: 1993,
    };
    let batch = Workload::new(&db, cfg).batch(&db, N);
    let run = |spec: &TxnSpec| engine.execute_with_retry(spec, 1000).0.unwrap();
    for spec in &batch {
        run(spec);
    }
    let mut per_type: BTreeMap<&str, (usize, Duration)> = BTreeMap::new();
    for spec in &batch {
        let started = Instant::now();
        run(spec);
        let (n, time) = per_type.entry(spec.kind()).or_default();
        *n += 1;
        *time += started.elapsed();
    }
    let total: Duration = per_type.values().map(|(_, time)| *time).sum();
    println!("| type | share of txns | mean µs | share of time |");
    for (kind, (n, time)) in &per_type {
        println!(
            "| {kind} | {:.1} % | {:.2} | {:.1} % |",
            100.0 * *n as f64 / N as f64,
            time.as_secs_f64() * 1e6 / *n as f64,
            100.0 * time.as_secs_f64() / total.as_secs_f64(),
        );
    }
    let orders: Vec<ObjectId> =
        db.items.iter().flat_map(|it| it.orders.iter().map(|o| o.order)).collect();
    let field_ns = |pick: &dyn Fn(usize) -> ObjectId| {
        const CALLS: usize = 1_000_000;
        let started = Instant::now();
        for i in 0..CALLS {
            black_box(db.store.field(pick(i), black_box("Status")).unwrap());
        }
        started.elapsed().as_nanos() as f64 / CALLS as f64
    };
    let hot = field_ns(&|_| orders[0]);
    let cold = field_ns(&|i| orders[i * 7919 % orders.len()]);
    println!(
        "Storage::field: {hot:.0} ns hot (one order), {cold:.0} ns cold (stride 7919 over {} orders)",
        orders.len()
    );
}
