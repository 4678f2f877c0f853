//! Closed nested transactions (Moss-style).
//!
//! Read/write locks are acquired by the leaf operations. When a
//! subtransaction commits, its locks are **inherited by its parent**
//! instead of being released (the defining difference from open nesting):
//! nothing becomes visible to other transactions before top-level commit.
//! A requesting node may acquire a lock whose conflicting holders are all
//! among its own ancestors (lock inheritance makes this the common case for
//! sequentially executed siblings).
//!
//! With one thread per transaction and sequential children, the
//! *inter*-transaction behaviour of this protocol coincides with strict
//! object 2PL — which is exactly the point the paper makes about closed
//! nesting: it "is restricted to read/write locking and does not support
//! semantically rich operations". The implementation nevertheless performs
//! genuine per-node ownership and inheritance — locks are owned by the
//! acquiring node and migrated upward via [`Outcome::Inherit`] — so the
//! mechanism itself is faithful (and testable).
//!
//! Sequencing runs through the shared [`ConcurrencyKernel`] under the
//! [`RwLockPolicy`], whose same-transaction transparency implements Moss's
//! rule for our sequential-children engine: the only same-transaction,
//! non-ancestor holders a request can encounter are the inherited locks of
//! earlier siblings and the locks a compensation branch revisits — both
//! must be transparent, exactly like in a single-threaded closed nested
//! transaction.

use semcc_core::kernel::{
    ConcurrencyKernel, EntryMode, KernelRequest, LockKey, LockTableDump, Outcome, RwLockPolicy,
    RwMode,
};
use semcc_core::stats::StatsSnapshot;
use semcc_core::tree::TxnTree;
use semcc_core::{AcquireRequest, Discipline, DisciplineDeps, GrantInfo, NodeRef, TopId};
use semcc_semantics::Result;
use std::sync::Arc;

/// The closed nested locking discipline.
pub struct ClosedNested {
    kernel: ConcurrencyKernel<RwLockPolicy>,
    deps: DisciplineDeps,
}

impl ClosedNested {
    /// Build from shared engine infrastructure.
    pub fn new(deps: &DisciplineDeps) -> Arc<Self> {
        Arc::new(ClosedNested {
            kernel: ConcurrencyKernel::new(RwLockPolicy, deps.clone()),
            deps: deps.clone(),
        })
    }

    /// Number of objects currently locked.
    pub fn locked_objects(&self) -> usize {
        self.kernel.locked_keys()
    }
}

impl Discipline for ClosedNested {
    fn name(&self) -> &str {
        "closed-nested"
    }

    fn acquire(&self, req: AcquireRequest<'_>) -> Result<GrantInfo> {
        if !req.is_leaf {
            return Ok(GrantInfo { waited: false });
        }
        let mode = if req.writes { RwMode::Write } else { RwMode::Read };
        let guard = self.kernel.sequence(KernelRequest {
            key: LockKey::Object(req.inv.object),
            node: req.node,
            owner: req.node,
            mode: EntryMode::Rw(mode),
            compensating: req.compensating,
        })?;
        Ok(GrantInfo { waited: guard.waited })
    }

    fn node_completed(&self, tree: &TxnTree, idx: u32) {
        // Anti-release: the committed subtransaction's locks are inherited
        // by its parent (upward migration of ownership).
        let Some(parent) = tree.parent(idx) else { return };
        let top = tree.top();
        let from = NodeRef { top, idx };
        let to = NodeRef { top, idx: parent };
        for key in self.kernel.keys_of(top) {
            self.kernel.finish(key, from, Outcome::Inherit { parent: to });
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
    use semcc_core::history::NullSink;
    use semcc_core::notify::CompletionHub;
    use semcc_core::stats::Stats;
    use semcc_core::tree::Registry;
    use semcc_core::WaitsForGraph;
    use semcc_objstore::MemoryStore;
    use semcc_semantics::{Catalog, Invocation, Value, TYPE_ATOMIC};

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

    fn leaf_acquire(
        d: &ClosedNested,
        tree: &Arc<semcc_core::TxnTree>,
        idx: u32,
        writes: bool,
    ) -> GrantInfo {
        let (inv, chain) = (tree.invocation(idx), tree.chain(idx));
        d.acquire(AcquireRequest {
            node: NodeRef { top: tree.top(), idx },
            inv: &inv,
            chain: &chain,
            is_leaf: true,
            writes,
            compensating: false,
        })
        .unwrap()
    }

    #[test]
    fn same_transaction_holders_are_transparent() {
        let d = deps();
        let cn = ClosedNested::new(&d);
        let store = &d.storage;
        let obj = store.create_atomic(TYPE_ATOMIC, Value::Int(0)).unwrap();

        let t1 = d.registry.begin();
        let a = t1.add_child(0, Arc::new(Invocation::put(obj, TYPE_ATOMIC, Value::Int(1))));
        let b = t1.add_child(0, Arc::new(Invocation::put(obj, TYPE_ATOMIC, Value::Int(2))));
        assert!(!leaf_acquire(&cn, &t1, a, true).waited);
        // A sibling writer of the same transaction passes straight through
        // (a second node of a sequential transaction is transparent).
        assert!(!leaf_acquire(&cn, &t1, b, true).waited);
        assert_eq!(cn.locked_objects(), 1);
    }

    #[test]
    fn locks_are_inherited_not_released() {
        let d = deps();
        let cn = ClosedNested::new(&d);
        let obj = d.storage.create_atomic(TYPE_ATOMIC, Value::Int(0)).unwrap();

        let t1 = d.registry.begin();
        let leaf = t1.add_child(0, Arc::new(Invocation::put(obj, TYPE_ATOMIC, Value::Int(1))));
        leaf_acquire(&cn, &t1, leaf, true);

        // Subtransaction commit migrates the lock to the parent instead of
        // releasing it…
        t1.complete(leaf);
        cn.node_completed(&t1, leaf);
        assert_eq!(cn.locked_objects(), 1, "lock survives subtransaction commit");
        assert_eq!(d.stats.snapshot().locks_released, 0);

        // …so a foreign writer still waits until top-level commit.
        let t2 = d.registry.begin();
        let l2 = t2.add_child(0, Arc::new(Invocation::put(obj, TYPE_ATOMIC, Value::Int(9))));
        let cn2 = Arc::clone(&cn);
        let t2c = Arc::clone(&t2);
        let h = std::thread::spawn(move || leaf_acquire(&cn2, &t2c, l2, true));
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!h.is_finished(), "foreign writer blocks on the inherited lock");

        let waiters = t1.complete(0);
        cn.top_finished(t1.top());
        drop(waiters);
        assert!(h.join().unwrap().waited);
        assert_eq!(cn.locked_objects(), 1);
    }
}
