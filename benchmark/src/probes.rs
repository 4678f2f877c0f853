//! Probes: single-threaded loops over one layer's public functions. Each
//! probe reports the median over [`BATCHES`] batches of the mean cost per
//! call. Nanosecond-scale probes make ≥200 k calls in total; the
//! microsecond-scale ones (a whole transaction, a checkpoint) make fewer,
//! sized so that no probe runs much longer than half a second.

use crate::metrics::Values;
use crate::reps::{self, RepSpec, Variant};
use crate::stats::median;
use crate::workloads::{Workload, FLEET_SHARDS};
use semcc_core::deadlock::WaitsForGraph;
use semcc_core::history::NullSink;
use semcc_core::kernel::{
    ConcurrencyKernel, EntryMode, KernelRequest, LockKey, Outcome, RwLockPolicy, RwMode,
};
use semcc_core::lock::conflict::{test_conflict, Requestor};
use semcc_core::lock::entry::LockEntry;
use semcc_core::notify::CompletionHub;
use semcc_core::speculate::DepGraph;
use semcc_core::stats::Stats;
use semcc_core::tree::Registry;
use semcc_core::{DisciplineDeps, Engine, NodeRef, ProtocolConfig, WalRecord, WalWriter};
use semcc_dist::{FleetFaults, PartitionMap, ShardConfig, ShardNode};
use semcc_objstore::MemoryStore;
use semcc_orderentry::types::{ITEM_PAY_ORDER, ITEM_SHIP_ORDER, ORDER_CHANGE_STATUS};
use semcc_orderentry::{
    build_catalog_full, Database, StatusEvent, Target, TxnSpec, ITEM_METHODS, ORDER_METHODS,
};
use semcc_semantics::{Invocation, MethodId, ObjectId, Storage, Value, TYPE_ATOMIC};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches per probe.
pub const BATCHES: usize = 5;

/// Median over `BATCHES` batches of nanoseconds per call; `f` receives a
/// running call index to vary its input.
fn ns_per_call(calls_per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut next = 0;
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls_per_batch {
                f(next);
                next += 1;
            }
            t.elapsed().as_nanos() as f64 / calls_per_batch as f64
        })
        .collect();
    median(&samples)
}

/// `SemanticsRouter::commute` over every same-object pair of Item and
/// Order methods, under the stock and the escrow matrices.
fn commute_ns() -> f64 {
    let (item, order) = (ObjectId(10), ObjectId(20));
    let mut pairs = Vec::new();
    for escrow in [false, true] {
        let (catalog, item_ty, order_ty) = build_catalog_full(false, escrow, None);
        let router = Arc::new(catalog.router());
        let item_inv = |mth: usize, which: i64| {
            let args = match ITEM_METHODS[mth] {
                "NewOrder" => vec![Value::Int(7), Value::Int(1), Value::Int(1000 + which)],
                "TotalPayment" => vec![],
                "CheckOrder" => vec![Value::Id(ObjectId(20 + which as u64)), Value::Int(which + 1)],
                _ => vec![Value::Id(ObjectId(20 + which as u64))],
            };
            Invocation::user(item, item_ty, MethodId(mth as u32), args)
        };
        let order_inv = |mth: usize, which: i64| {
            Invocation::user(order, order_ty, MethodId(mth as u32), vec![Value::Int(which + 1)])
        };
        for a in 0..ITEM_METHODS.len() {
            for b in 0..ITEM_METHODS.len() {
                pairs.push((Arc::clone(&router), item_inv(a, 0), item_inv(b, 1)));
            }
        }
        for a in 0..ORDER_METHODS.len() {
            for b in 0..ORDER_METHODS.len() {
                pairs.push((Arc::clone(&router), order_inv(a, 0), order_inv(b, 1)));
            }
        }
    }
    ns_per_call(45_000, |i| {
        let (router, a, b) = &pairs[i % pairs.len()];
        black_box(router.commute(black_box(a), black_box(b)));
    })
}

/// The Figure-9 test on the chains order entry builds: a retained `Put`
/// on an order's status under `ShipOrder → ChangeStatus(shipped)`, tested
/// by the `Put` of `PayOrder → ChangeStatus(paid)` on the same order. The
/// leaves conflict, the `ChangeStatus` ancestors commute and the holder's
/// has committed: a Case-1 grant, the hot path of `oe_hot`.
fn test_conflict_ns() -> f64 {
    let (catalog, item_ty, order_ty) = build_catalog_full(false, false, None);
    let router = catalog.router();
    let registry = Registry::new();
    let cfg = ProtocolConfig::semantic();
    let stats = Stats::default();
    let (item, order, status) = (ObjectId(10), ObjectId(20), ObjectId(30));
    let chain_of = |item_method: MethodId, event: StatusEvent| {
        let tree = registry.begin();
        let on_item = Invocation::user(item, item_ty, item_method, vec![Value::Id(order)]);
        let on_order = Invocation::user(order, order_ty, ORDER_CHANGE_STATUS, vec![event.value()]);
        let n1 = tree.add_child(0, Arc::new(on_item));
        let n2 = tree.add_child(n1, Arc::new(on_order));
        let leaf =
            tree.add_child(n2, Arc::new(Invocation::put(status, TYPE_ATOMIC, Value::Int(1))));
        (tree, n2, leaf)
    };
    let (h_tree, h_change, h_leaf) = chain_of(ITEM_SHIP_ORDER, StatusEvent::Shipped);
    h_tree.complete(h_leaf);
    h_tree.complete(h_change);
    let holder = LockEntry {
        node: NodeRef { top: h_tree.top(), idx: h_leaf },
        inv: h_tree.invocation(h_leaf),
        chain: h_tree.chain(h_leaf),
        retained: true,
    };
    let (r_tree, _, r_leaf) = chain_of(ITEM_PAY_ORDER, StatusEvent::Paid);
    let (r_inv, r_chain) = (r_tree.invocation(r_leaf), r_tree.chain(r_leaf));
    let requestor = Requestor {
        node: NodeRef { top: r_tree.top(), idx: r_leaf },
        inv: &r_inv,
        chain: &r_chain,
    };
    let decide =
        || test_conflict(&router, &registry, &cfg, &stats, None, None, &holder, &requestor);
    assert_eq!(decide(), None, "probe scenario is a Case-1 grant");
    assert_eq!(stats.snapshot().case1_grants, 1, "probe scenario is a Case-1 grant");
    ns_per_call(50_000, |_| {
        black_box(decide());
    })
}

/// `ConcurrencyKernel<RwLockPolicy>::sequence` + `finish`: one
/// uncontended write-lock round trip.
fn kernel_uncontended_ns() -> f64 {
    let registry = Arc::new(Registry::new());
    let deps = DisciplineDeps {
        registry: Arc::clone(&registry),
        hub: Arc::new(CompletionHub::new()),
        wfg: Arc::new(WaitsForGraph::new()),
        stats: Arc::new(Stats::default()),
        sink: Arc::new(NullSink::new()),
        router: Arc::new(semcc_semantics::Catalog::new().router()),
        storage: Arc::new(MemoryStore::new()),
        lock_wait_timeout: None,
        journal: None,
        dep_graph: Arc::new(DepGraph::new(Arc::clone(&registry))),
    };
    let kernel = ConcurrencyKernel::new(RwLockPolicy, deps);
    let root = NodeRef::root(registry.begin().top());
    ns_per_call(50_000, |i| {
        let key = LockKey::Object(ObjectId(i as u64 % 1024));
        let guard = kernel
            .sequence(KernelRequest {
                key,
                node: root,
                owner: root,
                mode: EntryMode::Rw(RwMode::Write),
                compensating: false,
            })
            .expect("uncontended grant");
        black_box(kernel.finish(guard.key, guard.owner, Outcome::Release));
    })
}

fn target(db: &Database, i: usize) -> Target {
    let item = &db.items[i % db.items.len()];
    let order = item.orders[(i / db.items.len()) % item.orders.len()].order;
    Target { item: item.item, order }
}

/// One thread, uncontended `Engine::execute` per transaction type, two
/// targets on different items, walking the whole database.
fn engine_us(values: &mut Values) {
    let db = Database::build(&Workload::OeHot.db_params()).expect("database build");
    let engine =
        Engine::builder(Arc::clone(&db.store) as Arc<dyn Storage>, Arc::clone(&db.catalog)).build();
    let pair = |i: usize| vec![target(&db, 2 * i), target(&db, 2 * i + 1)];
    type Make<'a> = &'a dyn Fn(usize) -> TxnSpec;
    let kinds: [(&'static str, Make<'_>); 4] = [
        ("core.engine.ship_us", &|i| TxnSpec::Ship(pair(i))),
        ("core.engine.pay_us", &|i| TxnSpec::Pay(pair(i))),
        ("core.engine.check_us", &|i| TxnSpec::CheckShipped { targets: pair(i), bypass: true }),
        ("core.engine.total_us", &|i| TxnSpec::Total(db.items[i % db.items.len()].item)),
    ];
    for (name, make) in kinds {
        let specs: Vec<TxnSpec> = (0..4096).map(make).collect();
        let ns = ns_per_call(8_000, |i| {
            black_box(engine.execute(&specs[i % specs.len()]).expect("uncontended commit"));
        });
        values.insert(name, ns / 1e3);
    }
    crate::checks::engine_residue(&engine).expect("probe engine is quiescent");
}

/// `MemoryStore` point reads, writes, versioned reads and set scans over
/// the benchmark database (a 32-member set per scan).
fn objstore_ns(values: &mut Values) {
    let db = Database::build(&Workload::OeRead.db_params()).expect("database build");
    let store: &dyn Storage = db.store.as_ref();
    let atoms: Vec<ObjectId> =
        db.items.iter().flat_map(|it| it.orders.iter().map(|o| o.status)).collect();
    let sets: Vec<ObjectId> = db.items.iter().map(|it| it.orders_set).collect();
    let stride = |i: usize, n: usize| (i * 7919) % n;
    values.insert(
        "objstore.get_ns",
        ns_per_call(60_000, |i| {
            black_box(store.get(atoms[stride(i, atoms.len())]).expect("get"));
        }),
    );
    values.insert(
        "objstore.put_ns",
        ns_per_call(60_000, |i| {
            black_box(
                store.put(atoms[stride(i, atoms.len())], Value::Int(i as i64 & 3)).expect("put"),
            );
        }),
    );
    values.insert(
        "objstore.get_versioned_ns",
        ns_per_call(60_000, |i| {
            black_box(store.get_versioned(atoms[stride(i, atoms.len())]).expect("get_versioned"));
        }),
    );
    values.insert(
        "objstore.scan_ns",
        ns_per_call(40_000, |i| {
            black_box(store.set_scan(sets[stride(i, sets.len())]).expect("scan"));
        }),
    );
}

/// A standalone `svc_durable`-configured writer: a leaf redo append (no
/// flush) and a commit append (flush + group-commit barrier, alone).
fn wal_append_ns(values: &mut Values) {
    let leaf = WalRecord::LeafRedo {
        top: 1,
        subtree: 1,
        op: semcc_core::RedoOp::Put { obj: ObjectId(42), value: Value::Int(3) },
    };
    let wal = reps::svc_wal();
    values.insert(
        "core.wal.append_ns",
        ns_per_call(50_000, |_| {
            black_box(wal.append(black_box(&leaf)).expect("append"));
        }),
    );
    let wal = reps::svc_wal();
    values.insert(
        "core.wal.append_commit_ns",
        ns_per_call(50_000, |i| {
            let rec = WalRecord::TopCommit { top: i as u64 };
            black_box(wal.append(&rec).expect("append"));
        }),
    );
}

/// `Engine::checkpoint` of the benchmark database behind a live log.
fn wal_checkpoint_ms() -> f64 {
    let db = Database::build(&Workload::SvcDurable.db_params()).expect("database build");
    let wal: Arc<WalWriter> = reps::svc_wal();
    let engine =
        Engine::builder(Arc::clone(&db.store) as Arc<dyn Storage>, Arc::clone(&db.catalog))
            .wal(wal)
            .build();
    let samples: Vec<f64> = (0..BATCHES)
        .map(|b| {
            for i in 0..200 {
                let spec = TxnSpec::Pay(vec![
                    target(&db, 400 * b + 2 * i),
                    target(&db, 400 * b + 2 * i + 1),
                ]);
                engine.execute(&spec).expect("uncontended commit");
            }
            let t = Instant::now();
            assert!(engine.checkpoint().expect("checkpoint"), "a checkpoint was written");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// `recover_image` of the surviving image of a 20 k-transaction
/// `svc_durable` rep (one checkpoint plus a log tail), timed inside the
/// rep's acked ⇒ durable check.
fn wal_recover_ms(seed: u64) -> Result<f64, String> {
    let out = reps::run(&RepSpec {
        workload: Workload::SvcDurable,
        variant: Variant::Standard,
        seed,
        txns: 20_000,
        traced: false,
        deep_check: true,
    });
    match out.violation {
        Some(v) => Err(format!("recovery probe: {v}")),
        None => Ok(out.recover_ms),
    }
}

/// `PartitionMap::split` over a `fleet_cross` batch, and one shard's
/// `run_piece` + `resolve` of single-shard pieces on one thread.
fn dist_probes(values: &mut Values, seed: u64) {
    let w = Workload::FleetCross;
    let db = Database::build(&w.db_params()).expect("database build");
    let pmap = PartitionMap::new(&db, FLEET_SHARDS);
    let batch = w.batch(&db, seed, 8192);
    values.insert(
        "dist.split_ns",
        ns_per_call(50_000, |i| {
            black_box(pmap.split(black_box(&batch[i % batch.len()])));
        }),
    );
    let shard = ShardNode::new(
        ShardConfig {
            idx: 0,
            db_params: w.db_params(),
            protocol: ProtocolConfig::semantic(),
            lock_wait_timeout: Some(Duration::from_millis(200)),
            op_delay: Duration::ZERO,
            journal_capacity: 0,
            low_level_2pl: false,
        },
        FleetFaults::new(None),
    );
    let pieces: Vec<TxnSpec> = batch
        .iter()
        .flat_map(|s| pmap.split(s))
        .filter(|(s, _)| *s == 0)
        .map(|(_, piece)| piece)
        .collect();
    let ns = ns_per_call(4_000, |i| {
        let gtid = i as u64 + 1;
        black_box(shard.run_piece(gtid, &pieces[i % pieces.len()]).expect("piece commits"));
        shard.resolve(gtid, true).expect("resolve");
    });
    values.insert("dist.piece_us", ns / 1e3);
}

/// Run every probe. The values do not depend on the workload being
/// traced; `seed` only picks the inputs of the batch-driven ones.
pub fn run_all(values: &mut Values, seed: u64) -> Result<(), String> {
    values.insert("semantics.commute_ns", commute_ns());
    values.insert("core.lock.test_conflict_ns", test_conflict_ns());
    values.insert("core.kernel.uncontended_ns", kernel_uncontended_ns());
    engine_us(values);
    objstore_ns(values);
    wal_append_ns(values);
    values.insert("core.wal.checkpoint_ms", wal_checkpoint_ms());
    values.insert("core.wal.recover_ms", wal_recover_ms(seed)?);
    dist_probes(values, seed);
    Ok(())
}
