//! Deadlock detection on a transaction-level waits-for graph.
//!
//! The paper requires FCFS lock granting and cites Rypka/Lucido for
//! deadlock handling without fixing an algorithm. We detect cycles at block
//! time: whenever a transaction is about to wait, its outgoing edges are
//! added to the graph and a depth-first search looks for a cycle through
//! it. The youngest transaction in the cycle that is not already aborting
//! is chosen as victim; if that is the requestor itself the block attempt
//! fails with [`SemccError::Deadlock`], otherwise the victim's wait is
//! killed and it aborts at its next scheduling point.

use crate::ids::TopId;
use crate::notify::WaitCell;
use crate::stats::Stats;
use parking_lot::Mutex;
use semcc_semantics::{IdMap, IdSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[derive(Default)]
struct WfgInner {
    /// waiter → set of tops it waits for.
    edges: IdMap<TopId, IdSet<TopId>>,
    /// The current wait cell of each waiting transaction (for kills).
    cells: IdMap<TopId, Arc<WaitCell>>,
    /// Transactions doomed by victim selection but not yet aborting.
    doomed: IdSet<TopId>,
    /// Transactions currently executing their abort/compensation path —
    /// never selected as victims.
    aborting: IdSet<TopId>,
    /// Total number of victims chosen (metrics).
    victims: u64,
}

/// The shared waits-for graph.
#[derive(Default)]
pub struct WaitsForGraph {
    inner: Mutex<WfgInner>,
    /// How many entries `inner` held after its last mutation. While it
    /// reads 0, [`is_doomed`](Self::is_doomed) and [`forget`](Self::forget)
    /// are answered by this one load: an uncontended transaction never
    /// takes the latch. `Release`/`Acquire` pair the store with that load
    /// alone; a non-zero reading is followed up under the latch. A
    /// transaction never misses its own entries: it made them itself, or —
    /// a doom mark — was given them while it had edges in the graph, which
    /// it removes under the latch before it asks.
    live: AtomicUsize,
    /// Optional engine counters mirrored on victim selection.
    stats: Option<Arc<Stats>>,
}

/// Result of announcing a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockDecision {
    /// No deadlock (or another transaction was chosen as victim): wait.
    Wait,
    /// The requestor itself is the victim: abort with deadlock.
    VictimSelf,
}

impl WaitsForGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty graph whose victim selections also bump `stats.victims`.
    pub fn with_stats(stats: Arc<Stats>) -> Self {
        WaitsForGraph { stats: Some(stats), ..Self::default() }
    }

    /// Every mutation: run `f` under the latch, then publish the size.
    fn mutate<R>(&self, f: impl FnOnce(&mut WfgInner) -> R) -> R {
        let mut inner = self.inner.lock();
        let out = f(&mut inner);
        let live =
            inner.edges.len() + inner.cells.len() + inner.doomed.len() + inner.aborting.len();
        self.live.store(live, Ordering::Release);
        out
    }

    fn is_empty(&self) -> bool {
        self.live.load(Ordering::Acquire) == 0
    }

    /// Hold the latch (contention tests: the fast paths must not need it).
    #[doc(hidden)]
    pub fn hold_latch(&self) -> impl Sized + '_ {
        self.inner.lock()
    }

    /// Find a cycle through `start`; returns the members of one cycle.
    fn find_cycle(inner: &WfgInner, start: TopId) -> Option<Vec<TopId>> {
        // Iterative DFS remembering the path.
        let mut stack: Vec<(TopId, Vec<TopId>)> = vec![(start, vec![start])];
        let mut visited: IdSet<TopId> = IdSet::default();
        while let Some((node, path)) = stack.pop() {
            if let Some(nexts) = inner.edges.get(&node) {
                for &n in nexts {
                    if n == start {
                        return Some(path.clone());
                    }
                    if visited.insert(n) {
                        let mut p = path.clone();
                        p.push(n);
                        stack.push((n, p));
                    }
                }
            }
        }
        None
    }

    /// Announce that `waiter` is about to wait for `blockers` using `cell`.
    ///
    /// Runs victim selection until no cycle through `waiter` remains.
    pub fn block(&self, waiter: TopId, blockers: &[TopId], cell: &Arc<WaitCell>) -> BlockDecision {
        self.mutate(|inner| {
            if inner.doomed.contains(&waiter) {
                return BlockDecision::VictimSelf;
            }
            let set: IdSet<TopId> = blockers.iter().copied().filter(|b| *b != waiter).collect();
            if set.is_empty() {
                return BlockDecision::Wait;
            }
            inner.edges.insert(waiter, set);
            inner.cells.insert(waiter, Arc::clone(cell));

            while let Some(cycle) = Self::find_cycle(inner, waiter) {
                // Youngest (largest id) non-aborting member is the victim.
                let victim = cycle.iter().copied().filter(|t| !inner.aborting.contains(t)).max();
                let Some(victim) = victim else {
                    // Every member is aborting — compensation transactions are
                    // retried by the engine, so just wait.
                    break;
                };
                inner.victims += 1;
                if let Some(stats) = &self.stats {
                    Stats::bump(&stats.victims);
                }
                inner.doomed.insert(victim);
                inner.edges.remove(&victim);
                if victim == waiter {
                    inner.cells.remove(&waiter);
                    return BlockDecision::VictimSelf;
                }
                if let Some(c) = inner.cells.remove(&victim) {
                    c.kill();
                }
            }
            BlockDecision::Wait
        })
    }

    /// The waiter resumed (granted, re-testing, or erroring out): remove its
    /// edges.
    pub fn unblock(&self, waiter: TopId) {
        self.mutate(|inner| {
            inner.edges.remove(&waiter);
            inner.cells.remove(&waiter);
        });
    }

    /// Was this transaction doomed by victim selection?
    pub fn is_doomed(&self, top: TopId) -> bool {
        !self.is_empty() && self.inner.lock().doomed.contains(&top)
    }

    /// Transition a transaction into its abort path: it can no longer be
    /// victimized, and its doom mark is consumed.
    pub fn begin_abort(&self, top: TopId) {
        self.mutate(|inner| {
            inner.doomed.remove(&top);
            inner.aborting.insert(top);
            inner.edges.remove(&top);
            inner.cells.remove(&top);
        });
    }

    /// The transaction finished (commit or abort): clear every trace.
    /// Equivalent to [`WaitsForGraph::forget`].
    pub fn finished(&self, top: TopId) {
        self.forget(top);
    }

    /// Purge `top` from the graph entirely — as a waiter *and* as a
    /// target inside other waiters' edge sets. Without the target-side
    /// purge, a transaction that finished while others were (transiently)
    /// recorded as waiting for it could linger in those edge sets, making
    /// phantom cycles — and thus spurious victims — possible and leaking
    /// memory across long runs. Called on every top-level exit.
    pub fn forget(&self, top: TopId) {
        if self.is_empty() {
            return;
        }
        self.mutate(|inner| {
            inner.doomed.remove(&top);
            inner.aborting.remove(&top);
            inner.edges.remove(&top);
            inner.cells.remove(&top);
            inner.edges.retain(|_, targets| {
                targets.remove(&top);
                !targets.is_empty()
            });
        });
    }

    /// Residual state counts `(edges, cells, doomed, aborting)` — all zero
    /// once every transaction has finished. The chaos harness asserts this
    /// to detect stale waits-for state, mirroring the lock-table
    /// `live_entries` leak audit.
    pub fn residue(&self) -> (usize, usize, usize, usize) {
        let inner = self.inner.lock();
        (inner.edges.len(), inner.cells.len(), inner.doomed.len(), inner.aborting.len())
    }

    /// Number of victims selected so far.
    pub fn victim_count(&self) -> u64 {
        self.inner.lock().victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> Arc<WaitCell> {
        WaitCell::new()
    }

    #[test]
    fn no_cycle_means_wait() {
        let g = WaitsForGraph::new();
        assert_eq!(g.block(TopId(1), &[TopId(2)], &cell()), BlockDecision::Wait);
        assert_eq!(g.block(TopId(2), &[TopId(3)], &cell()), BlockDecision::Wait);
        assert_eq!(g.victim_count(), 0);
    }

    #[test]
    fn two_cycle_picks_youngest() {
        let g = WaitsForGraph::new();
        assert_eq!(g.block(TopId(1), &[TopId(2)], &cell()), BlockDecision::Wait);
        // T2 waits for T1 → cycle {1,2}; youngest is T2 = the requestor.
        assert_eq!(g.block(TopId(2), &[TopId(1)], &cell()), BlockDecision::VictimSelf);
        assert!(g.is_doomed(TopId(2)));
        assert_eq!(g.victim_count(), 1);
    }

    #[test]
    fn victim_other_is_killed() {
        let g = WaitsForGraph::new();
        let c2 = cell();
        c2.add_pending();
        // T2 (younger) waits for T1.
        assert_eq!(g.block(TopId(2), &[TopId(1)], &c2), BlockDecision::Wait);
        // T1 then waits for T2: cycle; youngest is T2, which is killed.
        let c1 = cell();
        c1.add_pending();
        assert_eq!(g.block(TopId(1), &[TopId(2)], &c1), BlockDecision::Wait);
        assert!(g.is_doomed(TopId(2)));
        assert_eq!(c2.wait(), crate::notify::WaitOutcome::Killed);
        assert!(c1.would_wait(), "T1 keeps waiting for the dying T2");
    }

    #[test]
    fn aborting_transactions_are_not_victims() {
        let g = WaitsForGraph::new();
        let c2 = cell();
        c2.add_pending();
        g.begin_abort(TopId(2));
        assert_eq!(g.block(TopId(2), &[TopId(1)], &c2), BlockDecision::Wait);
        // T1 creates the cycle; T2 is aborting, so T1 (the only candidate)
        // is the victim even though it is older.
        assert_eq!(g.block(TopId(1), &[TopId(2)], &cell()), BlockDecision::VictimSelf);
        assert!(g.is_doomed(TopId(1)));
    }

    #[test]
    fn doomed_block_fails_fast() {
        let g = WaitsForGraph::new();
        let c2 = cell();
        c2.add_pending();
        assert_eq!(g.block(TopId(2), &[TopId(1)], &c2), BlockDecision::Wait);
        assert_eq!(g.block(TopId(1), &[TopId(2)], &cell()), BlockDecision::Wait);
        // T2 was doomed; its next block attempt fails immediately.
        assert_eq!(g.block(TopId(2), &[TopId(3)], &cell()), BlockDecision::VictimSelf);
    }

    #[test]
    fn unblock_removes_edges() {
        let g = WaitsForGraph::new();
        assert_eq!(g.block(TopId(1), &[TopId(2)], &cell()), BlockDecision::Wait);
        g.unblock(TopId(1));
        // No cycle anymore.
        assert_eq!(g.block(TopId(2), &[TopId(1)], &cell()), BlockDecision::Wait);
        assert_eq!(g.victim_count(), 0);
    }

    #[test]
    fn begin_abort_consumes_doom() {
        let g = WaitsForGraph::new();
        let c2 = cell();
        c2.add_pending();
        assert_eq!(g.block(TopId(2), &[TopId(1)], &c2), BlockDecision::Wait);
        assert_eq!(g.block(TopId(1), &[TopId(2)], &cell()), BlockDecision::Wait);
        assert!(g.is_doomed(TopId(2)));
        g.begin_abort(TopId(2));
        assert!(!g.is_doomed(TopId(2)));
        // While aborting, its compensation may block without being revictimized.
        assert_eq!(g.block(TopId(2), &[TopId(5)], &cell()), BlockDecision::Wait);
        g.finished(TopId(2));
    }

    #[test]
    fn three_cycle_resolution() {
        let g = WaitsForGraph::new();
        let (c1, c2, c3) = (cell(), cell(), cell());
        for c in [&c1, &c2, &c3] {
            c.add_pending();
        }
        assert_eq!(g.block(TopId(1), &[TopId(2)], &c1), BlockDecision::Wait);
        assert_eq!(g.block(TopId(2), &[TopId(3)], &c2), BlockDecision::Wait);
        // Closing the cycle: 3 → 1. Youngest = T3 = requestor.
        assert_eq!(g.block(TopId(3), &[TopId(1)], &c3), BlockDecision::VictimSelf);
        assert!(c1.would_wait());
        assert!(c2.would_wait());
    }

    #[test]
    fn victim_selection_bumps_stats() {
        let stats = Arc::new(Stats::default());
        let g = WaitsForGraph::with_stats(Arc::clone(&stats));
        let c2 = cell();
        c2.add_pending();
        assert_eq!(g.block(TopId(2), &[TopId(1)], &c2), BlockDecision::Wait);
        assert_eq!(g.block(TopId(1), &[TopId(2)], &cell()), BlockDecision::Wait);
        assert_eq!(g.victim_count(), 1);
        assert_eq!(stats.snapshot().victims, 1);
    }

    #[test]
    fn forget_purges_the_top_as_waiter_and_as_target() {
        let g = WaitsForGraph::new();
        assert_eq!(g.block(TopId(1), &[TopId(3)], &cell()), BlockDecision::Wait);
        assert_eq!(g.block(TopId(2), &[TopId(3), TopId(4)], &cell()), BlockDecision::Wait);
        assert_eq!(g.block(TopId(3), &[TopId(4)], &cell()), BlockDecision::Wait);
        // T3 exits. Its own edges go, and it disappears from T1/T2's
        // waits-for sets; T1's now-empty set is dropped entirely.
        g.forget(TopId(3));
        let (edges, cells, doomed, aborting) = g.residue();
        assert_eq!(edges, 1, "only T2 (still waiting for T4) remains");
        assert_eq!(cells, 2, "unblock, not forget, clears resumed waiters' cells");
        assert_eq!((doomed, aborting), (0, 0));
        // A stale T3 target can no longer fabricate a cycle.
        assert_eq!(g.block(TopId(3), &[TopId(1)], &cell()), BlockDecision::Wait);
        assert_eq!(g.victim_count(), 0);
    }

    #[test]
    fn residue_is_empty_after_all_tops_finish() {
        let g = WaitsForGraph::new();
        let c2 = cell();
        c2.add_pending();
        assert_eq!(g.block(TopId(2), &[TopId(1)], &c2), BlockDecision::Wait);
        assert_eq!(g.block(TopId(1), &[TopId(2)], &cell()), BlockDecision::Wait);
        g.begin_abort(TopId(2));
        for t in [TopId(1), TopId(2)] {
            g.unblock(t);
            g.finished(t);
        }
        assert_eq!(g.residue(), (0, 0, 0, 0));
    }

    #[test]
    fn self_edges_are_ignored() {
        let g = WaitsForGraph::new();
        assert_eq!(g.block(TopId(1), &[TopId(1)], &cell()), BlockDecision::Wait);
        assert_eq!(g.victim_count(), 0);
    }
}
