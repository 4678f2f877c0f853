//! Conventional strict two-phase locking baselines.
//!
//! Both protocols ignore the method structure of the transaction entirely:
//! only leaf (generic) operations acquire locks — read locks for `Get` /
//! `Select` / `Scan`, write locks for `Put` / `Insert` / `Remove` — held
//! until top-level commit. The only difference is the lockable unit:
//! individual objects ("records") or whole pages.
//!
//! Both sequence through the shared [`ConcurrencyKernel`] under the
//! [`RwLockPolicy`], passing the transaction *root* as lock owner so that a
//! transaction's repeated access to the same unit is a same-owner mode
//! upgrade, never a self-conflict.

use semcc_core::kernel::{
    ConcurrencyKernel, EntryMode, KernelRequest, LockKey, LockTableDump, RwLockPolicy, RwMode,
};
use semcc_core::stats::StatsSnapshot;
use semcc_core::tree::TxnTree;
use semcc_core::{AcquireRequest, Discipline, DisciplineDeps, GrantInfo, NodeRef, TopId};
use semcc_semantics::{PageId, Result};
use std::sync::Arc;

/// Object-granularity strict 2PL ("record-oriented" locking).
pub struct FlatObject2pl {
    kernel: ConcurrencyKernel<RwLockPolicy>,
    deps: DisciplineDeps,
}

impl FlatObject2pl {
    /// Build from shared engine infrastructure.
    pub fn new(deps: &DisciplineDeps) -> Arc<Self> {
        Arc::new(FlatObject2pl {
            kernel: ConcurrencyKernel::new(RwLockPolicy, deps.clone()),
            deps: deps.clone(),
        })
    }
}

impl Discipline for FlatObject2pl {
    fn name(&self) -> &str {
        "2pl/object"
    }

    fn acquire(&self, req: AcquireRequest<'_>) -> Result<GrantInfo> {
        if !req.is_leaf {
            // Method invocations carry no locks of their own.
            return Ok(GrantInfo { waited: false });
        }
        let mode = if req.writes { RwMode::Write } else { RwMode::Read };
        let guard = self.kernel.sequence(KernelRequest {
            key: LockKey::Object(req.inv.object),
            node: req.node,
            owner: NodeRef::root(req.node.top),
            mode: EntryMode::Rw(mode),
            compensating: req.compensating,
        })?;
        Ok(GrantInfo { waited: guard.waited })
    }

    fn node_completed(&self, _tree: &TxnTree, _idx: u32) {
        // Strict 2PL: nothing is released before transaction end.
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

/// Page-granularity strict 2PL (the conventional OODBS implementation the
/// paper contrasts with: "lock all pages that are accessed").
pub struct Page2pl {
    kernel: ConcurrencyKernel<RwLockPolicy>,
    deps: DisciplineDeps,
}

impl Page2pl {
    /// Build from shared engine infrastructure.
    pub fn new(deps: &DisciplineDeps) -> Arc<Self> {
        Arc::new(Page2pl {
            kernel: ConcurrencyKernel::new(RwLockPolicy, deps.clone()),
            deps: deps.clone(),
        })
    }
}

impl Discipline for Page2pl {
    fn name(&self) -> &str {
        "2pl/page"
    }

    fn acquire(&self, req: AcquireRequest<'_>) -> Result<GrantInfo> {
        if !req.is_leaf {
            return Ok(GrantInfo { waited: false });
        }
        // Fall back to the object id as a pseudo page when the store has no
        // page mapping for the object (should not happen in practice).
        let page = self
            .deps
            .storage
            .page_of(req.inv.object)
            .unwrap_or(PageId(u64::MAX ^ req.inv.object.0));
        let mode = if req.writes { RwMode::Write } else { RwMode::Read };
        let guard = self.kernel.sequence(KernelRequest {
            key: LockKey::Page(page),
            node: req.node,
            owner: NodeRef::root(req.node.top),
            mode: EntryMode::Rw(mode),
            compensating: req.compensating,
        })?;
        Ok(GrantInfo { waited: guard.waited })
    }

    fn node_completed(&self, _tree: &TxnTree, _idx: u32) {}

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
