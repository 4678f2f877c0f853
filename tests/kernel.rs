//! Concurrency-kernel behaviour at the API surface: FCFS granting must
//! survive the move from broadcast re-tests to targeted wake-ups, and a
//! Figure-9 Case-2 waiter must be resumed by the blocking *subtransaction's*
//! commit — not only by the holder's top-level commit.

use proptest::prelude::*;
use semcc::core::config::ProtocolConfig;
use semcc::core::discipline::{AcquireRequest, DisciplineDeps};
use semcc::core::notify::CompletionHub;
use semcc::core::stats::Stats;
use semcc::core::tree::{Registry, TxnTree};
use semcc::core::{Discipline, NodeRef, NullSink, SemanticLockManager, WaitsForGraph};
use semcc::objstore::MemoryStore;
use semcc::semantics::{
    Catalog, CompatibilityMatrix, Invocation, MethodId, ObjectId, TypeDef, TypeKind, Value,
    TYPE_ATOMIC,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn deps_with_catalog(catalog: Catalog) -> DisciplineDeps {
    DisciplineDeps {
        registry: Arc::new(Registry::new()),
        hub: Arc::new(CompletionHub::new()),
        wfg: Arc::new(WaitsForGraph::new()),
        stats: Arc::new(Stats::default()),
        sink: Arc::new(NullSink::new()),
        router: Arc::new(catalog.router()),
        storage: Arc::new(MemoryStore::new()),
        lock_wait_timeout: None,
        journal: None,
        dep_graph: Arc::default(), // BENCH-PINNED: benchmark/src/probes.rs:152
    }
}

fn deps() -> DisciplineDeps {
    deps_with_catalog(Catalog::new())
}

/// Spin until `cond` holds (the kernel's counters are eventually consistent
/// with the waiter threads); panic on timeout so a hang fails fast.
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

fn leaf_acquire(mgr: &SemanticLockManager, tree: &Arc<TxnTree>, idx: u32) -> bool {
    let (inv, chain) = (tree.invocation(idx), tree.chain(idx));
    mgr.acquire(AcquireRequest {
        node: NodeRef { top: tree.top(), idx },
        inv: &inv,
        chain: &chain,
        is_leaf: true,
        writes: true,
        compensating: false,
    })
    .unwrap()
    .waited
}

proptest! {
    // Each case spawns up to five threads: keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// FCFS: any number of mutually conflicting writers enqueued in a known
    /// arrival order are granted in exactly that order, even though wake-ups
    /// are targeted pokes rather than broadcast re-tests.
    #[test]
    fn fcfs_grant_order_is_preserved_under_targeted_wakeups(n_waiters in 2usize..6) {
        let d = deps();
        let mgr = SemanticLockManager::new(ProtocolConfig::semantic(), d.clone());
        let obj = d.storage.create_atomic(TYPE_ATOMIC, Value::Int(0)).unwrap();

        // The initial holder: Put conflicts with Put.
        let t1 = d.registry.begin();
        let l1 = t1.add_child(0, Arc::new(Invocation::put(obj, TYPE_ATOMIC, Value::Int(1))));
        leaf_acquire(&mgr, &t1, l1);

        let order = Arc::new(parking_lot::Mutex::new(Vec::<usize>::new()));
        let mut handles = Vec::new();
        for tag in 0..n_waiters {
            let tree = d.registry.begin();
            let mgr2 = Arc::clone(&mgr);
            let order2 = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                let l = tree.add_child(0, Arc::new(Invocation::put(obj, TYPE_ATOMIC, Value::Int(9))));
                assert!(leaf_acquire(&mgr2, &tree, l), "waiter {tag} must wait");
                order2.lock().push(tag);
                // Release straight away so the next waiter can proceed.
                let waiters = tree.complete(0);
                mgr2.top_finished(tree.top());
                drop(waiters);
            }));
            // Fix the arrival order: the next waiter is spawned only once
            // this one is visibly queued.
            wait_for("waiter to enqueue", || mgr.waiting_count() == tag + 1);
        }

        let waiters = t1.complete(0);
        mgr.top_finished(t1.top());
        drop(waiters);
        for h in handles {
            h.join().unwrap();
        }
        let got = order.lock().clone();
        prop_assert_eq!(got, (0..n_waiters).collect::<Vec<_>>());
    }
}

/// Regression for the paper's Figure-9 **Case 2**: a requestor blocked on a
/// commutative but uncommitted ancestor must be woken by that
/// *subtransaction's* commit — while the holder's top-level transaction is
/// still running and still holds its lock.
#[test]
fn case2_waiter_is_woken_by_subtransaction_commit() {
    // One type `Pair` with methods A (0) and B (1); A commutes with B but
    // neither commutes with itself (mirrors the conflict-test fixture).
    let mut m = CompatibilityMatrix::new();
    m.ok(MethodId(0), MethodId(1));
    let def = TypeDef {
        name: "Pair".into(),
        kind: TypeKind::Encapsulated,
        methods: vec![],
        spec: Arc::new(m),
    };
    let mut catalog = Catalog::new();
    let pair = catalog.register_type(def);
    let d = deps_with_catalog(catalog);
    let mgr = SemanticLockManager::new(ProtocolConfig::semantic(), d.clone());

    // Holder: root → method A on object 5 → leaf Put(10).
    let h_tree = d.registry.begin();
    let a_idx =
        h_tree.add_child(0, Arc::new(Invocation::user(ObjectId(5), pair, MethodId(0), vec![])));
    let h_leaf = h_tree
        .add_child(a_idx, Arc::new(Invocation::put(ObjectId(10), TYPE_ATOMIC, Value::Int(1))));
    assert!(!leaf_acquire(&mgr, &h_tree, h_leaf));

    // Requestor: root → method B on the same object 5 → leaf Get(10).
    // Put(10) vs Get(10) conflict, but A and B commute: Case 2, blocked on
    // the holder's method node.
    let r_tree = d.registry.begin();
    let b_idx =
        r_tree.add_child(0, Arc::new(Invocation::user(ObjectId(5), pair, MethodId(1), vec![])));
    let r_leaf = r_tree.add_child(b_idx, Arc::new(Invocation::get(ObjectId(10), TYPE_ATOMIC)));
    let mgr2 = Arc::clone(&mgr);
    let r_clone = Arc::clone(&r_tree);
    let h = std::thread::spawn(move || leaf_acquire(&mgr2, &r_clone, r_leaf));
    wait_for("Case-2 waiter to enqueue", || mgr.waiting_count() == 1);
    assert_eq!(d.stats.snapshot().case2_waits, 1, "blocked via Case 2, not the root");

    // Commit ONLY the holder's method subtransaction. No lock is released
    // (it is retained), the top-level transaction keeps running — yet the
    // waiter must be granted (Case 1 now applies).
    h_tree.complete(h_leaf);
    mgr.node_completed(&h_tree, h_leaf);
    let waiters = h_tree.complete(a_idx);
    mgr.node_completed(&h_tree, a_idx);
    drop(waiters);

    assert!(h.join().unwrap(), "the waiter did wait");
    let snap = d.stats.snapshot();
    assert_eq!(snap.case1_grants, 1, "re-test after the subtransaction commit grants via Case 1");
    assert_eq!(snap.locks_released, 0, "the holder's lock was retained, not released");
    assert_eq!(mgr.granted_count(), 2, "holder and requestor both hold their locks");
    assert_eq!(
        snap.targeted_wakeups, 0,
        "no lock entry was removed: the wake-up came from the blocker-node subscription"
    );
}
