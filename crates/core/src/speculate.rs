//! Abort-dependency tracking for speculative Case-2 grants (controlled
//! lock violation, after Bamboo — "Releasing Locks As Early As You Can").
//!
//! The Figure-9 conflict test's Case 2 makes a requestor wait for the
//! holder's *uncommitted* commutative ancestor: once that subtransaction
//! commits, the pair reduces to Case 1 and the grant is safe even if the
//! holder's top-level transaction later aborts (its compensation commutes
//! at the ancestor level). Speculation grants the lock *before* that
//! subtransaction commits and records an **abort-dependency edge**
//! instead: the dependent may execute, but
//!
//! * its top-level **commit waits** until every depended-on subtransaction
//!   has finished, and
//! * if any depended-on subtransaction **aborts**, the dependent
//!   cascade-aborts (it may have observed mid-flight state that the
//!   rollback retracts in a way ancestor-level commutativity does not
//!   cover). Cascade aborts reuse the ordinary compensation machinery and
//!   are retryable.
//!
//! The graph is engine-global, shared between the conflict test (edge
//! recording, under the kernel's shard lock) and the engine (edge
//! resolution at node completion, commit-time waiting). Lock order is
//! strictly `shard lock → graph mutex`; the graph never calls back into
//! the kernel. Two atomic counts keep a run without speculation off the
//! graph mutex altogether: no live edge makes `node_done` a single load,
//! no recorded dependent makes `wait_commit` and `clear` one.

use crate::ids::{NodeRef, TopId};
use crate::tree::Registry;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Commit-wait backstop. Depended-on subtransactions normally finish in
/// micro- to milliseconds; a wait this long means a commit-wait cycle the
/// waits-for graph cannot see (the dependent holds locks the holder's
/// transaction is blocked on while the dependent waits for the holder's
/// subtransaction). Timing out conservatively cascade-aborts the
/// dependent, which is retryable — the same resolution the lock-wait
/// timeout applies to lost wake-ups.
pub const DEP_WAIT_CAP: Duration = Duration::from_secs(2);

/// Outcome of recording a dependency edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordOutcome {
    /// The edge was recorded (or already existed): the grant may proceed
    /// speculatively. `new_edge` is false for a duplicate.
    Recorded { new_edge: bool },
    /// The depended-on node has already committed — the pair reduced to
    /// Case 1 while the conflict test ran; grant without an edge.
    HolderCommitted,
    /// The depended-on node has already aborted (or its transaction
    /// vanished mid-abort): do **not** grant speculatively.
    HolderAborted,
}

#[derive(Default)]
struct DepState {
    /// Depended-on nodes that have not finished yet.
    pending: HashSet<NodeRef>,
    /// Some depended-on node aborted: the dependent must cascade-abort.
    /// Carries the aborted holder node for diagnostics.
    aborted: Option<NodeRef>,
}

#[derive(Default)]
struct GraphInner {
    /// Per-dependent state, keyed by the dependent's top-level id.
    deps: HashMap<TopId, DepState>,
    /// Reverse index: holder node → dependents awaiting it.
    holders: HashMap<NodeRef, Vec<TopId>>,
}

/// The abort-dependency graph. See the module docs.
pub struct DepGraph {
    registry: Arc<Registry>,
    inner: Mutex<GraphInner>,
    resolved: Condvar,
    /// Live (unresolved) edge count; `0` makes [`DepGraph::node_done`] a
    /// single relaxed load.
    live_edges: AtomicUsize,
    /// `deps.len()`, stored under the mutex after every change to it; `0`
    /// makes [`DepGraph::wait_commit`] and [`DepGraph::clear`] a single
    /// load. Only a transaction's own thread creates its `deps` entry (in
    /// [`DepGraph::record`], from its own conflict test), so the thread
    /// asking about `top` never reads a 0 that misses `top`.
    dependents: AtomicUsize,
    /// Commit-wait backstop applied in [`DepGraph::wait_commit`].
    wait_cap: Duration,
}

impl DepGraph {
    /// Empty graph over the given transaction registry (consulted to
    /// resolve edges whose holder finished before the edge was recorded),
    /// with the default [`DEP_WAIT_CAP`] backstop.
    pub fn new(registry: Arc<Registry>) -> Self {
        Self::with_cap(registry, DEP_WAIT_CAP)
    }

    /// Like [`DepGraph::new`], with an explicit commit-wait backstop.
    pub fn with_cap(registry: Arc<Registry>, cap: Duration) -> Self {
        DepGraph {
            registry,
            inner: Mutex::new(GraphInner::default()),
            resolved: Condvar::new(),
            live_edges: AtomicUsize::new(0),
            dependents: AtomicUsize::new(0),
            wait_cap: cap.max(Duration::from_millis(1)),
        }
    }

    fn no_dependents(&self) -> bool {
        self.dependents.load(Ordering::Acquire) == 0
    }

    /// Hold the graph mutex (contention tests: the fast paths must not
    /// need it).
    #[doc(hidden)]
    pub fn hold_latch(&self) -> impl Sized + '_ {
        self.inner.lock()
    }

    /// Record that `dependent` (a top-level transaction) was speculatively
    /// granted over the uncommitted holder-side ancestor `holder`.
    /// Idempotent: re-recording an existing edge is a no-op (the
    /// differential conflict paths may both report the same decision).
    pub fn record(&self, dependent: TopId, holder: NodeRef) -> RecordOutcome {
        let mut g = self.inner.lock();
        // State check under the graph mutex: `node_done` also takes it, so
        // either the holder finished first (visible here) or our edge is
        // inserted first (visible to `node_done`). No stale edges.
        match self.registry.tree(holder.top) {
            Some(tree) => match tree.state(holder.idx) {
                crate::tree::NodeState::Committed => return RecordOutcome::HolderCommitted,
                crate::tree::NodeState::Aborted => return RecordOutcome::HolderAborted,
                crate::tree::NodeState::Active => {}
            },
            // The holder's whole transaction finished between the conflict
            // scan and this call; whether the ancestor committed before the
            // end is unknowable now — decline the speculation.
            None => return RecordOutcome::HolderAborted,
        }
        let state = g.deps.entry(dependent).or_default();
        if !state.pending.insert(holder) {
            return RecordOutcome::Recorded { new_edge: false };
        }
        self.dependents.store(g.deps.len(), Ordering::Release);
        g.holders.entry(holder).or_default().push(dependent);
        self.live_edges.fetch_add(1, Ordering::Relaxed);
        RecordOutcome::Recorded { new_edge: true }
    }

    /// A tree node finished (subtransaction commit or abort): resolve every
    /// edge depending on it. Called by the engine wherever nodes complete
    /// or abort; a no-op single load when no edges are live.
    pub fn node_done(&self, node: NodeRef, committed: bool) {
        if self.live_edges.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut g = self.inner.lock();
        let Some(dependents) = g.holders.remove(&node) else { return };
        let mut resolved = 0usize;
        for dep in dependents {
            if let Some(state) = g.deps.get_mut(&dep) {
                if state.pending.remove(&node) {
                    resolved += 1;
                    if !committed {
                        state.aborted.get_or_insert(node);
                    }
                }
            }
        }
        if resolved > 0 {
            self.live_edges.fetch_sub(resolved, Ordering::Relaxed);
            self.resolved.notify_all();
        }
    }

    /// Commit barrier for a dependent: block until every depended-on node
    /// has finished. `Ok(())` when all committed (or no edges exist);
    /// `Err(holder)` when one aborted — the caller must cascade-abort.
    /// `Err(None)` on the configured commit-wait timeout backstop
    /// (default [`DEP_WAIT_CAP`]).
    pub fn wait_commit(&self, top: TopId) -> Result<(), Option<NodeRef>> {
        if self.no_dependents() {
            return Ok(());
        }
        let deadline = std::time::Instant::now() + self.wait_cap;
        let mut g = self.inner.lock();
        loop {
            let verdict = match g.deps.get(&top) {
                None => Some(Ok(())),
                Some(s) => match s.aborted {
                    Some(h) => Some(Err(Some(h))),
                    None if s.pending.is_empty() => Some(Ok(())),
                    None => None,
                },
            };
            match verdict {
                Some(Ok(())) => return Ok(()),
                Some(err) => {
                    g.deps.remove(&top);
                    self.dependents.store(g.deps.len(), Ordering::Release);
                    return err;
                }
                None => {}
            }
            if self.resolved.wait_until(&mut g, deadline).timed_out() {
                self.clear_locked(&mut g, top);
                return Err(None);
            }
        }
    }

    /// Forget a dependent's edges (after its commit or abort completed).
    pub fn clear(&self, top: TopId) {
        if self.no_dependents() {
            return;
        }
        let mut g = self.inner.lock();
        self.clear_locked(&mut g, top);
    }

    fn clear_locked(&self, g: &mut GraphInner, top: TopId) {
        let Some(state) = g.deps.remove(&top) else { return };
        self.dependents.store(g.deps.len(), Ordering::Release);
        let purged = state.pending.len();
        if purged > 0 {
            for node in &state.pending {
                if let Some(v) = g.holders.get_mut(node) {
                    v.retain(|t| *t != top);
                    if v.is_empty() {
                        g.holders.remove(node);
                    }
                }
            }
            self.live_edges.fetch_sub(purged, Ordering::Relaxed);
        }
    }

    /// Live (unresolved) edge count — observability and leak audits.
    pub fn live_edge_count(&self) -> usize {
        self.live_edges.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for DepGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DepGraph({} live edges)", self.live_edge_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcc_semantics::{Invocation, ObjectId, TYPE_ATOMIC};

    fn setup() -> (Arc<Registry>, DepGraph) {
        let reg = Arc::new(Registry::new());
        let dg = DepGraph::new(Arc::clone(&reg));
        (reg, dg)
    }

    fn child(tree: &crate::tree::TxnTree) -> NodeRef {
        let idx = tree.add_child(0, Arc::new(Invocation::get(ObjectId(1), TYPE_ATOMIC)));
        NodeRef { top: tree.top(), idx }
    }

    #[test]
    fn commit_resolution_releases_the_dependent() {
        let (reg, dg) = setup();
        let holder_tree = reg.begin();
        let dep = reg.begin();
        let h = child(&holder_tree);
        assert_eq!(dg.record(dep.top(), h), RecordOutcome::Recorded { new_edge: true });
        assert_eq!(dg.record(dep.top(), h), RecordOutcome::Recorded { new_edge: false });
        assert_eq!(dg.live_edge_count(), 1);
        holder_tree.complete(h.idx);
        dg.node_done(h, true);
        assert_eq!(dg.live_edge_count(), 0);
        assert_eq!(dg.wait_commit(dep.top()), Ok(()));
        dg.clear(dep.top());
    }

    #[test]
    fn abort_resolution_cascades_the_dependent() {
        let (reg, dg) = setup();
        let holder_tree = reg.begin();
        let dep = reg.begin();
        let h = child(&holder_tree);
        assert!(matches!(dg.record(dep.top(), h), RecordOutcome::Recorded { .. }));
        holder_tree.abort(h.idx);
        dg.node_done(h, false);
        assert_eq!(dg.wait_commit(dep.top()), Err(Some(h)));
        // The verdict is consumed; a retry of the dependent starts clean.
        assert_eq!(dg.wait_commit(dep.top()), Ok(()));
    }

    #[test]
    fn finished_holders_resolve_at_record_time() {
        let (reg, dg) = setup();
        let holder_tree = reg.begin();
        let dep = reg.begin();
        let h = child(&holder_tree);
        holder_tree.complete(h.idx);
        assert_eq!(dg.record(dep.top(), h), RecordOutcome::HolderCommitted);
        let h2 = child(&holder_tree);
        holder_tree.abort(h2.idx);
        assert_eq!(dg.record(dep.top(), h2), RecordOutcome::HolderAborted);
        // A vanished transaction is indistinguishable from an abort.
        let h3 = child(&holder_tree);
        reg.remove(holder_tree.top());
        assert_eq!(dg.record(dep.top(), h3), RecordOutcome::HolderAborted);
        assert_eq!(dg.live_edge_count(), 0);
    }

    #[test]
    fn clear_purges_pending_edges() {
        let (reg, dg) = setup();
        let holder_tree = reg.begin();
        let dep = reg.begin();
        let h = child(&holder_tree);
        assert!(matches!(dg.record(dep.top(), h), RecordOutcome::Recorded { .. }));
        assert_eq!(dg.live_edge_count(), 1);
        dg.clear(dep.top());
        assert_eq!(dg.live_edge_count(), 0);
        // Late resolution of the purged holder is a no-op.
        dg.node_done(h, false);
        assert_eq!(dg.wait_commit(dep.top()), Ok(()));
    }

    #[test]
    fn default_cap_matches_historical_constant_and_tight_cap_times_out() {
        let (reg, dg) = setup();
        assert_eq!(dg.wait_cap, DEP_WAIT_CAP);
        // A tightened cap fires quickly on an unresolved edge and clears
        // the dependent's state (conservative cascade-abort, retryable).
        let dg = DepGraph::with_cap(Arc::clone(&reg), Duration::from_millis(10));
        let holder_tree = reg.begin();
        let dep = reg.begin();
        let h = child(&holder_tree);
        assert!(matches!(dg.record(dep.top(), h), RecordOutcome::Recorded { .. }));
        let start = std::time::Instant::now();
        assert_eq!(dg.wait_commit(dep.top()), Err(None));
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(dg.live_edge_count(), 0);
    }

    #[test]
    fn blocked_commit_wakes_on_resolution() {
        let (reg, dg) = setup();
        let dg = Arc::new(dg);
        let holder_tree = reg.begin();
        let dep = reg.begin();
        let h = child(&holder_tree);
        assert!(matches!(dg.record(dep.top(), h), RecordOutcome::Recorded { .. }));
        let waiter = {
            let dg = Arc::clone(&dg);
            let top = dep.top();
            std::thread::spawn(move || dg.wait_commit(top))
        };
        std::thread::sleep(Duration::from_millis(20));
        holder_tree.complete(h.idx);
        dg.node_done(h, true);
        assert_eq!(waiter.join().unwrap(), Ok(()));
    }
}
