//! The semantic lock manager — the locking protocol of the paper's
//! Section 4.2 (Figures 8 and 9), packaged as a [`Discipline`].
//!
//! Protocol walk-through for one lock request (`exec-transaction`,
//! Figure 8):
//!
//! 1. Test the request against **every lock held or requested** on the
//!    object (granted entries plus earlier waiting requests — FCFS).
//! 2. If any [`test_conflict`](conflict::test_conflict) returns a blocker,
//!    record the request in the object's queue, announce the waits-for
//!    edges (deadlock detection), subscribe to the completion of every
//!    blocker and wait. On wake-up, re-test (granting stays FCFS because a
//!    request only ever tests against locks granted or enqueued before it).
//! 3. Otherwise acquire the lock and proceed.
//!
//! On subtransaction completion the locks acquired **for its children**
//! become retained locks (or are released, in the no-retention ablation);
//! at top-level end every lock of the transaction is released. The
//! conflict test reads completion states from the tree, so the parent's
//! commit *is* the conversion ([`TxnTree::is_retained`]): no table visit.
//!
//! Queueing, blocking and waking live in the shared
//! [`ConcurrencyKernel`]; this module contributes the Figure-9 conflict
//! test as a [`KernelPolicy`] and maps the protocol's lock lifecycle onto
//! the kernel's `sequence`/`finish` phases.

pub mod conflict;
pub mod entry;

use crate::config::ProtocolConfig;
use crate::discipline::{AcquireRequest, Discipline, DisciplineDeps, GrantInfo};
use crate::ids::{NodeRef, TopId};
use crate::journal::EventJournal;
use crate::kernel::{
    ConcurrencyKernel, EntryMode, KernelPolicy, KernelRequest, LockKey, LockTableDump, Outcome,
};
use crate::lock::conflict::{test_conflict, Requestor};
use crate::lock::entry::LockEntry;
use crate::stats::{Stats, StatsSnapshot};
use crate::tree::{Registry, TxnTree};
use semcc_semantics::{Result, SemanticsRouter};
use std::sync::Arc;

/// The Figure-9 conflict test as a kernel policy: commutativity first,
/// same-transaction transparency, then the commutative-ancestor search.
pub struct SemanticPolicy {
    cfg: ProtocolConfig,
    router: Arc<SemanticsRouter>,
    registry: Arc<Registry>,
    stats: Arc<Stats>,
    journal: Option<Arc<EventJournal>>,
}

impl KernelPolicy for SemanticPolicy {
    fn test(&self, held: &crate::kernel::KernelEntry, req: &KernelRequest) -> Option<NodeRef> {
        let h = held.mode.semantic().expect("semantic kernel holds semantic entries");
        let r = req.mode.semantic().expect("semantic kernel receives semantic requests");
        let requestor = Requestor { node: req.node, inv: &r.inv, chain: &r.chain };
        test_conflict(
            &self.router,
            &self.registry,
            &self.cfg,
            &self.stats,
            self.journal.as_deref(),
            None,
            h,
            &requestor,
        )
    }

    /// The paper requires FCFS granting among conflicting requests
    /// ("all locks h that are held **or have been requested**").
    fn fcfs(&self) -> bool {
        true
    }

    /// Semantic locks are per-subtransaction control blocks; they are
    /// never merged.
    fn absorbs(&self) -> bool {
        false
    }
}

/// The semantic lock manager.
pub struct SemanticLockManager {
    cfg: ProtocolConfig,
    deps: DisciplineDeps,
    kernel: ConcurrencyKernel<SemanticPolicy>,
}

impl SemanticLockManager {
    /// Create a manager with the given protocol configuration.
    pub fn new(cfg: ProtocolConfig, deps: DisciplineDeps) -> Arc<Self> {
        let policy = SemanticPolicy {
            cfg,
            router: Arc::clone(&deps.router),
            registry: Arc::clone(&deps.registry),
            stats: Arc::clone(&deps.stats),
            journal: deps.journal.clone(),
        };
        let kernel = ConcurrencyKernel::new(policy, deps.clone());
        Arc::new(SemanticLockManager { cfg, deps, kernel })
    }

    /// The active configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// Number of currently granted locks (tests / introspection).
    pub fn granted_count(&self) -> usize {
        self.kernel.granted_count()
    }

    /// Number of currently waiting requests.
    pub fn waiting_count(&self) -> usize {
        self.kernel.waiting_count()
    }
}

impl Discipline for SemanticLockManager {
    fn name(&self) -> &str {
        self.cfg.name
    }

    fn acquire(&self, req: AcquireRequest<'_>) -> Result<GrantInfo> {
        let entry = LockEntry {
            node: req.node,
            inv: Arc::clone(req.inv),
            chain: req.chain.clone(),
            retained: false,
        };
        let guard = self.kernel.sequence(KernelRequest {
            key: LockKey::Object(req.inv.object),
            node: req.node,
            owner: req.node,
            mode: EntryMode::Semantic(entry),
            compensating: req.compensating,
        })?;
        Ok(GrantInfo { waited: guard.waited })
    }

    fn node_completed(&self, tree: &TxnTree, idx: u32) {
        // "After completing the execution of the children, the locks that
        // have been acquired for the children are converted into retained
        // locks": marking the node committed did that, so there is only
        // the conversion to count.
        if self.cfg.retain_locks {
            let converted = tree.committed_children(idx) as u64;
            Stats::add(&self.deps.stats.retained_conversions, converted);
            return;
        }
        // The Section-3 (no-retention) variant releases them instead.
        let top = tree.top();
        for child in tree.children(idx) {
            let obj = tree.invocation(child).object;
            let node = NodeRef { top, idx: child };
            self.kernel.finish(LockKey::Object(obj), node, Outcome::Release);
        }
    }

    fn top_finished(&self, top: TopId) {
        self.kernel.finish_top(top);
    }

    fn stats(&self) -> StatsSnapshot {
        self.deps.stats.snapshot()
    }

    fn live_entries(&self) -> usize {
        self.kernel.granted_count() + self.kernel.waiting_count()
    }

    fn lock_table(&self) -> LockTableDump {
        self.kernel.dump()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::NullSink;
    use crate::notify::CompletionHub;
    use crate::tree::Registry;
    use crate::WaitsForGraph;
    use parking_lot::Mutex;
    use semcc_objstore::MemoryStore;
    use semcc_semantics::{Catalog, Invocation, ObjectId, SemccError, Value, TYPE_ATOMIC};

    fn deps() -> DisciplineDeps {
        let catalog = Catalog::new();
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

    fn leaf_req<'a>(
        tree: &Arc<crate::tree::TxnTree>,
        idx: u32,
        inv: &'a Arc<Invocation>,
        chain: &'a crate::tree::Chain,
    ) -> AcquireRequest<'a> {
        AcquireRequest {
            node: NodeRef { top: tree.top(), idx },
            inv,
            chain,
            is_leaf: true,
            writes: false,
            compensating: false,
        }
    }

    #[test]
    fn grant_compatible_locks_immediately() {
        let d = deps();
        let mgr = SemanticLockManager::new(ProtocolConfig::semantic(), d.clone());
        let store = &d.storage;
        let obj = store.create_atomic(TYPE_ATOMIC, Value::Int(0)).unwrap();

        let t1 = d.registry.begin();
        let l1 = t1.add_child(0, Arc::new(Invocation::get(obj, TYPE_ATOMIC)));
        let (i1, c1) = (t1.invocation(l1), t1.chain(l1));
        assert!(!mgr.acquire(leaf_req(&t1, l1, &i1, &c1)).unwrap().waited);

        let t2 = d.registry.begin();
        let l2 = t2.add_child(0, Arc::new(Invocation::get(obj, TYPE_ATOMIC)));
        let (i2, c2) = (t2.invocation(l2), t2.chain(l2));
        assert!(!mgr.acquire(leaf_req(&t2, l2, &i2, &c2)).unwrap().waited, "Get/Get commute");
        assert_eq!(mgr.granted_count(), 2);
    }

    #[test]
    fn conflicting_lock_waits_until_release() {
        let d = deps();
        let mgr = SemanticLockManager::new(ProtocolConfig::semantic(), d.clone());
        let obj = d.storage.create_atomic(TYPE_ATOMIC, Value::Int(0)).unwrap();

        let t1 = d.registry.begin();
        let l1 = t1.add_child(0, Arc::new(Invocation::put(obj, TYPE_ATOMIC, Value::Int(1))));
        let (i1, c1) = (t1.invocation(l1), t1.chain(l1));
        mgr.acquire(leaf_req(&t1, l1, &i1, &c1)).unwrap();

        let t2 = d.registry.begin();
        let l2 = t2.add_child(0, Arc::new(Invocation::get(obj, TYPE_ATOMIC)));
        let mgr2 = Arc::clone(&mgr);
        let t2c = Arc::clone(&t2);
        let h = std::thread::spawn(move || {
            let (i2, c2) = (t2c.invocation(l2), t2c.chain(l2));
            let req = AcquireRequest {
                node: NodeRef { top: t2c.top(), idx: l2 },
                inv: &i2,
                chain: &c2,
                is_leaf: true,
                writes: false,
                compensating: false,
            };
            mgr2.acquire(req).unwrap()
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(mgr.waiting_count(), 1, "T2 is queued");

        // Commit T1: release, then wake.
        let waiters = t1.complete(0);
        mgr.top_finished(t1.top());
        drop(waiters);
        let grant = h.join().unwrap();
        assert!(grant.waited);
        assert_eq!(mgr.waiting_count(), 0);
        assert_eq!(mgr.granted_count(), 1);
    }

    #[test]
    fn no_retention_releases_on_parent_completion() {
        let d = deps();
        let mgr = SemanticLockManager::new(ProtocolConfig::open_nested_plain(), d.clone());
        let obj = d.storage.create_atomic(TYPE_ATOMIC, Value::Int(0)).unwrap();

        let t1 = d.registry.begin();
        // A method node under the root with a Put leaf under it.
        let m = t1.add_child(0, Arc::new(Invocation::get(ObjectId(999), TYPE_ATOMIC)));
        let l1 = t1.add_child(m, Arc::new(Invocation::put(obj, TYPE_ATOMIC, Value::Int(1))));
        let (i1, c1) = (t1.invocation(l1), t1.chain(l1));
        mgr.acquire(leaf_req(&t1, l1, &i1, &c1)).unwrap();
        assert_eq!(mgr.granted_count(), 1);

        t1.complete(l1);
        mgr.node_completed(&t1, l1); // no children: no-op
        t1.complete(m);
        mgr.node_completed(&t1, m); // releases the child's lock
        assert_eq!(mgr.granted_count(), 0, "Section-3 protocol drops child locks");
    }

    #[test]
    fn retention_converts_instead_of_releasing() {
        let d = deps();
        let mgr = SemanticLockManager::new(ProtocolConfig::semantic(), d.clone());
        let obj = d.storage.create_atomic(TYPE_ATOMIC, Value::Int(0)).unwrap();

        let t1 = d.registry.begin();
        let m = t1.add_child(0, Arc::new(Invocation::get(ObjectId(999), TYPE_ATOMIC)));
        let l1 = t1.add_child(m, Arc::new(Invocation::put(obj, TYPE_ATOMIC, Value::Int(1))));
        let (i1, c1) = (t1.invocation(l1), t1.chain(l1));
        mgr.acquire(leaf_req(&t1, l1, &i1, &c1)).unwrap();

        t1.complete(l1);
        t1.complete(m);
        mgr.node_completed(&t1, m);
        assert_eq!(mgr.granted_count(), 1, "lock retained, not released");
        assert_eq!(d.stats.snapshot().retained_conversions, 1);
        mgr.top_finished(t1.top());
        assert_eq!(mgr.granted_count(), 0);
    }

    #[test]
    fn doomed_transaction_fails_fast() {
        let d = deps();
        let mgr = SemanticLockManager::new(ProtocolConfig::semantic(), d.clone());
        let obj = d.storage.create_atomic(TYPE_ATOMIC, Value::Int(0)).unwrap();
        let t1 = d.registry.begin();
        // Doom T1 artificially via a self-inflicted 2-cycle.
        let c = crate::notify::WaitCell::new();
        d.wfg.block(t1.top(), &[TopId(4242)], &c);
        d.wfg.block(TopId(4242), &[t1.top()], &crate::notify::WaitCell::new());
        // T4242 is younger → victim is T4242, not t1... construct directly:
        // simpler: mark doom via a cycle where t1 is youngest.
        // (registry ids start at 1, so use an older fake id 0.)
        let t2 = d.registry.begin();
        d.wfg.unblock(t1.top());
        let c2 = crate::notify::WaitCell::new();
        d.wfg.block(t2.top(), &[t1.top()], &c2);
        let decision = d.wfg.block(t1.top(), &[t2.top()], &crate::notify::WaitCell::new());
        // One of the two got doomed; whichever it is fails fast on acquire.
        let doomed_tree = if d.wfg.is_doomed(t1.top()) { &t1 } else { &t2 };
        assert!(matches!(
            decision,
            crate::deadlock::BlockDecision::Wait | crate::deadlock::BlockDecision::VictimSelf
        ));
        let l = doomed_tree.add_child(0, Arc::new(Invocation::get(obj, TYPE_ATOMIC)));
        let (i, ch) = (doomed_tree.invocation(l), doomed_tree.chain(l));
        let err = mgr.acquire(leaf_req(doomed_tree, l, &i, &ch)).unwrap_err();
        assert_eq!(err, SemccError::Deadlock);
    }

    #[test]
    fn fcfs_conflicting_requests_queue_in_order() {
        // T1 holds Put; T2 requests Put (waits); T3 requests Put (waits,
        // behind T2). After T1 commits, both eventually get through, and
        // T2's grant precedes T3's.
        let d = deps();
        let mgr = SemanticLockManager::new(ProtocolConfig::semantic(), d.clone());
        let obj = d.storage.create_atomic(TYPE_ATOMIC, Value::Int(0)).unwrap();

        let t1 = d.registry.begin();
        let l1 = t1.add_child(0, Arc::new(Invocation::put(obj, TYPE_ATOMIC, Value::Int(1))));
        let (i1, c1) = (t1.invocation(l1), t1.chain(l1));
        mgr.acquire(leaf_req(&t1, l1, &i1, &c1)).unwrap();

        let order = Arc::new(Mutex::new(Vec::<u64>::new()));
        let spawn_waiter = |tree: Arc<crate::tree::TxnTree>, tag: u64| {
            let mgr = Arc::clone(&mgr);
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                let l =
                    tree.add_child(0, Arc::new(Invocation::put(obj, TYPE_ATOMIC, Value::Int(9))));
                let (i, c) = (tree.invocation(l), tree.chain(l));
                let req = AcquireRequest {
                    node: NodeRef { top: tree.top(), idx: l },
                    inv: &i,
                    chain: &c,
                    is_leaf: true,
                    writes: true,
                    compensating: false,
                };
                mgr.acquire(req).unwrap();
                order.lock().push(tag);
                // Release straight away so the next one can proceed.
                tree.complete(0);
                mgr.top_finished(tree.top());
            })
        };

        let t2 = d.registry.begin();
        let h2 = spawn_waiter(Arc::clone(&t2), 2);
        std::thread::sleep(std::time::Duration::from_millis(30));
        let t3 = d.registry.begin();
        let h3 = spawn_waiter(Arc::clone(&t3), 3);
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(mgr.waiting_count(), 2);

        t1.complete(0);
        mgr.top_finished(t1.top());
        h2.join().unwrap();
        h3.join().unwrap();
        assert_eq!(*order.lock(), vec![2, 3], "FCFS among conflicting requests");
    }
}
