//! Per-key lock queues of the concurrency kernel.
//!
//! Each lockable unit (object or page) owns one [`KernelQueue`]: the
//! granted lock entries plus the FCFS wait queue. Every entry — granted or
//! waiting — carries a queue-unique *entry id* (`eid`); a blocked request
//! records the eids of the entries its conflict test failed against, and is
//! poked only when one of exactly those entries leaves the queue. A
//! per-queue generation counter, bumped on every mutation that can unblock
//! a waiter, lets a woken waiter prove that nothing changed since its last
//! scan and go back to sleep without re-testing.

use crate::ids::NodeRef;
use crate::lock::entry::LockEntry;
use crate::notify::WaitCell;
use crate::stats::Stats;
use semcc_semantics::{ObjectId, PageId};
use std::sync::Arc;

/// A lockable unit: disciplines lock objects ("records") or whole pages,
/// never both in the same kernel instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LockKey {
    /// Object granularity.
    Object(ObjectId),
    /// Page granularity.
    Page(PageId),
}

impl LockKey {
    /// Shard selector: a Fibonacci multiply spreads sequentially allocated
    /// ids over the shard space (`id % SHARD_COUNT` would send the strided
    /// keys of a scan to a handful of shards). Page keys are tagged with
    /// the top bit so an object and a page with the same numeric id do not
    /// collide systematically.
    pub(crate) fn shard_hint(self) -> usize {
        let x = match self {
            LockKey::Object(o) => o.0,
            LockKey::Page(p) => p.0 ^ (1 << 63),
        };
        (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
    }

    /// Journal wire encoding: object ids verbatim, page ids tagged with
    /// the top bit (ids never get near 2^63 in practice).
    pub fn raw(self) -> u64 {
        match self {
            LockKey::Object(o) => o.0,
            LockKey::Page(p) => (1 << 63) | p.0,
        }
    }
}

impl std::fmt::Display for LockKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockKey::Object(o) => write!(f, "obj:{}", o.0),
            LockKey::Page(p) => write!(f, "page:{}", p.0),
        }
    }
}

/// Read/write lock mode of the conventional disciplines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RwMode {
    /// Shared.
    Read,
    /// Exclusive.
    Write,
}

impl RwMode {
    /// Classic r/w compatibility.
    pub fn compatible(self, other: RwMode) -> bool {
        matches!((self, other), (RwMode::Read, RwMode::Read))
    }

    /// The stronger of two modes.
    pub fn max(self, other: RwMode) -> RwMode {
        std::cmp::Ord::max(self, other)
    }
}

/// The discipline-specific payload of a lock entry: either a full semantic
/// lock control block (Figure-9 conflict testing) or a plain r/w mode.
#[derive(Clone, Debug)]
pub enum EntryMode {
    /// Semantic lock (method + object + parameters + ancestor chain).
    Semantic(LockEntry),
    /// Read/write lock of the conventional disciplines.
    Rw(RwMode),
}

/// One lock entry of a kernel queue, granted or waiting.
#[derive(Clone, Debug)]
pub struct KernelEntry {
    /// Queue-unique entry id; stable across the waiting→granted transition
    /// and across ownership changes, so waiter subscriptions survive both.
    pub eid: u64,
    /// Lock-ownership identity: the acquiring node for the nested
    /// disciplines, the transaction root for flat 2PL.
    pub owner: NodeRef,
    /// Discipline payload.
    pub mode: EntryMode,
}

impl KernelEntry {
    /// Fold another entry's r/w mode into this one (lock upgrade on
    /// same-owner absorption or parent inheritance). Semantic entries are
    /// never merged.
    pub(crate) fn merge_mode(&mut self, other: &EntryMode) {
        if let (EntryMode::Rw(m), EntryMode::Rw(o)) = (&mut self.mode, other) {
            *m = RwMode::max(*m, *o);
        }
    }
}

/// A queued (not yet granted) lock request with its wake-up subscriptions.
pub(crate) struct Waiter {
    /// FCFS queue position (wrapping, see [`ticket_before`]).
    pub ticket: u64,
    /// The request's lock entry (keeps its eid when granted).
    pub entry: KernelEntry,
    /// The current wait episode's cell (re-set on each re-test).
    pub cell: Arc<WaitCell>,
    /// The eids of the queue entries the last conflict scan failed
    /// against: this waiter is poked exactly when one of them is removed.
    pub conflict_srcs: Vec<u64>,
    /// When the request first entered the queue (introspection: oldest
    /// waiter age; survives re-test episodes).
    pub enqueued_at: std::time::Instant,
}

/// Whether ticket `a` was issued before ticket `b`, correct across u64
/// wrap-around (tickets are compared only within one queue, where live
/// tickets are always much closer together than half the u64 range).
pub(crate) fn ticket_before(a: u64, b: u64) -> bool {
    a != b && b.wrapping_sub(a) < u64::MAX / 2
}

/// Per-key lock queue: granted entries plus the FCFS wait queue.
#[derive(Default)]
pub struct KernelQueue {
    /// Granted locks (held and retained).
    pub(crate) granted: Vec<KernelEntry>,
    /// Requested but not yet granted locks, in arrival order.
    pub(crate) waiting: Vec<Waiter>,
    /// Bumped on every mutation that can unblock a waiter (entry removal);
    /// a woken waiter that finds it unchanged skips the re-scan.
    pub(crate) generation: u64,
    next_ticket: u64,
    next_eid: u64,
}

impl KernelQueue {
    /// Allocate the next FCFS ticket (wrapping).
    pub(crate) fn alloc_ticket(&mut self) -> u64 {
        let t = self.next_ticket;
        self.next_ticket = self.next_ticket.wrapping_add(1);
        t
    }

    /// Allocate the next entry id (wrapping).
    pub(crate) fn alloc_eid(&mut self) -> u64 {
        let e = self.next_eid;
        self.next_eid = self.next_eid.wrapping_add(1);
        e
    }

    /// Remove a waiting request by ticket, returning it so the caller can
    /// promote its entry (grant) or account its removal (cancel).
    pub(crate) fn remove_waiting(&mut self, ticket: u64) -> Option<Waiter> {
        let pos = self.waiting.iter().position(|w| w.ticket == ticket)?;
        Some(self.waiting.remove(pos))
    }

    /// Entries were removed from the queue: bump the generation and poke
    /// exactly the waiters whose last conflict scan failed against one of
    /// them.
    pub(crate) fn entries_removed(&mut self, eids: &[u64], stats: &Stats) {
        if eids.is_empty() {
            return;
        }
        self.generation = self.generation.wrapping_add(1);
        for w in &self.waiting {
            if w.conflict_srcs.iter().any(|s| eids.contains(s)) {
                w.cell.poke();
                Stats::bump(&stats.targeted_wakeups);
            }
        }
    }

    /// Whether the queue holds nothing at all (garbage collection).
    pub(crate) fn is_empty(&self) -> bool {
        self.granted.is_empty() && self.waiting.is_empty()
    }

    #[cfg(test)]
    pub(crate) fn seed_tickets_near_overflow(&mut self) {
        self.next_ticket = u64::MAX - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TopId;
    use crate::tree::TxnTree;
    use semcc_semantics::{Invocation, TYPE_ATOMIC};

    fn entry(q: &mut KernelQueue, top: u64) -> KernelEntry {
        let tree = TxnTree::new(TopId(top));
        let leaf = tree.add_child(0, Arc::new(Invocation::get(ObjectId(9), TYPE_ATOMIC)));
        let node = NodeRef { top: TopId(top), idx: leaf };
        KernelEntry {
            eid: q.alloc_eid(),
            owner: node,
            mode: EntryMode::Semantic(LockEntry {
                node,
                inv: tree.invocation(leaf),
                chain: tree.chain(leaf),
                retained: false,
            }),
        }
    }

    fn waiter(q: &mut KernelQueue, top: u64, srcs: Vec<u64>) -> (u64, Arc<WaitCell>) {
        let ticket = q.alloc_ticket();
        let entry = entry(q, top);
        let cell = WaitCell::new();
        cell.add_pending();
        q.waiting.push(Waiter {
            ticket,
            entry,
            cell: Arc::clone(&cell),
            conflict_srcs: srcs,
            enqueued_at: std::time::Instant::now(),
        });
        (ticket, cell)
    }

    #[test]
    fn tickets_are_fcfs() {
        let mut q = KernelQueue::default();
        let (a, b) = (q.alloc_ticket(), q.alloc_ticket());
        assert!(ticket_before(a, b));
        assert!(!ticket_before(b, a));
        assert!(!ticket_before(a, a));
    }

    #[test]
    fn ticket_order_survives_wraparound() {
        let mut q = KernelQueue::default();
        q.seed_tickets_near_overflow();
        let a = q.alloc_ticket(); // u64::MAX - 1
        let b = q.alloc_ticket(); // u64::MAX
        let c = q.alloc_ticket(); // 0 (wrapped)
        let d = q.alloc_ticket(); // 1
        assert_eq!(c, 0, "allocation wraps instead of overflowing");
        for (x, y) in [(a, b), (b, c), (c, d), (a, c), (a, d), (b, d)] {
            assert!(ticket_before(x, y), "{x} before {y}");
            assert!(!ticket_before(y, x), "{y} not before {x}");
        }
    }

    #[test]
    fn grant_release_cycle() {
        let mut q = KernelQueue::default();
        let e1 = entry(&mut q, 1);
        let e2 = entry(&mut q, 2);
        q.granted.push(e1);
        q.granted.push(e2);
        assert_eq!(q.granted.len(), 2);
        q.granted.retain(|e| e.owner.top != TopId(1));
        assert_eq!(q.granted.len(), 1);
        q.granted.retain(|e| e.owner.top != TopId(2));
        assert!(q.is_empty());
    }

    #[test]
    fn waiting_queue_management() {
        let stats = Stats::default();
        let mut q = KernelQueue::default();
        let blocker = entry(&mut q, 1);
        let blocker_eid = blocker.eid;
        q.granted.push(blocker);
        let (ticket, cell) = waiter(&mut q, 3, vec![blocker_eid]);
        assert_eq!(q.waiting.len(), 1);
        let gen_before = q.generation;

        // Removing the blocking entry pokes the subscribed waiter and bumps
        // the generation.
        let removed = q.granted.pop().unwrap();
        q.entries_removed(&[removed.eid], &stats);
        assert!(!cell.would_wait(), "poked");
        assert_ne!(q.generation, gen_before);
        assert_eq!(stats.snapshot().targeted_wakeups, 1);

        let w = q.remove_waiting(ticket);
        assert!(w.is_some());
        assert_eq!(q.waiting.len(), 0);
        assert!(q.remove_waiting(ticket).is_none(), "double removal is visible");
    }

    #[test]
    fn unrelated_waiters_are_not_poked() {
        let stats = Stats::default();
        let mut q = KernelQueue::default();
        let b1 = entry(&mut q, 1);
        let b2 = entry(&mut q, 2);
        let (e1, e2) = (b1.eid, b2.eid);
        q.granted.push(b1);
        q.granted.push(b2);
        let (_, cell1) = waiter(&mut q, 3, vec![e1]);
        let (_, cell2) = waiter(&mut q, 4, vec![e2]);

        q.granted.retain(|e| e.eid != e1);
        q.entries_removed(&[e1], &stats);
        assert!(!cell1.would_wait(), "subscriber of the removed entry is poked");
        assert!(cell2.would_wait(), "unrelated waiter sleeps on");
        assert_eq!(stats.snapshot().targeted_wakeups, 1);
    }
}
