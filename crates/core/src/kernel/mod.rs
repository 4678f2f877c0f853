//! The concurrency kernel: one sequencing engine for every discipline.
//!
//! All four protocols (the paper's semantic lock manager, closed nested
//! locking and the two flat 2PL baselines) acquire and release locks
//! through this kernel. The kernel owns the sharded lock table, the
//! waits-for bookkeeping of a blocked request, and waiter notification; a
//! [`KernelPolicy`] contributes only the pairwise conflict test and two
//! protocol switches (FCFS queue fairness, same-owner absorption).
//!
//! The API is two-phase:
//!
//! * [`ConcurrencyKernel::sequence`] runs the Figure-8 loop for one
//!   request — test against granted entries (and, under FCFS, earlier
//!   waiting requests), enqueue and wait on conflict, grant otherwise —
//!   and returns a [`KernelGuard`] once the lock is held;
//! * [`ConcurrencyKernel::finish`] disposes of a granted entry with an
//!   [`Outcome`]: release it, or migrate ownership to the parent node
//!   (closed-nested inheritance); [`ConcurrencyKernel::finish_top`]
//!   releases everything a top-level transaction still holds. A *retained*
//!   lock (open nesting, paper Section 4.2) is no third outcome: the tree
//!   knows it ([`TxnTree::is_retained`](crate::tree::TxnTree::is_retained)).
//!
//! Wake-ups are **targeted** (no broadcast re-test): a blocked request
//! records the entry ids its conflict scan failed against and is poked
//! exactly when one of those entries leaves the queue; in addition it
//! subscribes to the completion of the blocker *nodes* the conflict test
//! named (the subtransaction for a Case-2 conflict, the top-level root
//! otherwise — Figure 9), which alone guarantees liveness. A per-queue
//! generation counter lets a waiter whose wake-up carries no new
//! information (stray poke, unchanged queue) go back to sleep without
//! re-scanning.

pub mod queue;

use crate::deadlock::BlockDecision;
use crate::discipline::DisciplineDeps;
use crate::history::Event;
use crate::ids::{NodeRef, TopId};
use crate::inline_vec::InlineVec;
use crate::journal::JournalKind;
use crate::notify::{WaitCell, WaitOutcome};
use crate::stats::Stats;
use parking_lot::Mutex;
use semcc_objstore::CacheLine;
use semcc_semantics::{IdMap, IdSet, Result, SemccError};
use std::sync::Arc;

use queue::{ticket_before, Waiter};
pub use queue::{EntryMode, KernelEntry, KernelQueue, LockKey, RwMode};

const SHARD_COUNT: usize = 64;

impl EntryMode {
    /// The semantic lock control block, if this is a semantic entry.
    pub fn semantic(&self) -> Option<&crate::lock::entry::LockEntry> {
        match self {
            EntryMode::Semantic(e) => Some(e),
            EntryMode::Rw(_) => None,
        }
    }

    /// The r/w mode, if this is a conventional entry.
    pub fn rw(&self) -> Option<RwMode> {
        match self {
            EntryMode::Rw(m) => Some(*m),
            EntryMode::Semantic(_) => None,
        }
    }
}

/// One lock acquisition handed to [`ConcurrencyKernel::sequence`].
pub struct KernelRequest {
    /// The lockable unit.
    pub key: LockKey,
    /// The acting node (identity for events, deadlock edges and the
    /// semantic conflict test).
    pub node: NodeRef,
    /// Lock-ownership identity: equals `node` for the nested disciplines;
    /// the transaction root for flat 2PL, so a transaction's re-acquisition
    /// is a same-owner upgrade rather than a self-conflict.
    pub owner: NodeRef,
    /// Discipline payload tested against held entries.
    pub mode: EntryMode,
    /// Compensating invocations skip the doomed check and the FCFS wait
    /// queue (waiting behind queued requests could re-deadlock the abort).
    pub compensating: bool,
}

/// Proof of a granted [`KernelRequest`]; redeemed via
/// [`ConcurrencyKernel::finish`].
#[derive(Clone, Copy, Debug)]
pub struct KernelGuard {
    /// The locked unit.
    pub key: LockKey,
    /// The granted entry's owner.
    pub owner: NodeRef,
    /// Whether the request had to wait at least once.
    pub waited: bool,
}

/// How [`ConcurrencyKernel::finish`] disposes of a granted entry.
#[derive(Clone, Copy, Debug)]
pub enum Outcome {
    /// Release the entry and wake its dependents.
    Release,
    /// Migrate ownership to the parent node (closed-nested inheritance);
    /// wakes nobody, since the lock stays held within the same
    /// transaction.
    Inherit {
        /// The new owner.
        parent: NodeRef,
    },
}

/// The pluggable per-discipline part of the kernel: a pairwise conflict
/// test plus two queueing switches.
pub trait KernelPolicy: Send + Sync {
    /// Test a request against one held (or earlier-queued) entry. `None`
    /// means no conflict; `Some(node)` names the node whose completion the
    /// requestor must await (Figure 9: the commutative uncommitted ancestor
    /// in Case 2, the holder's top-level root otherwise).
    fn test(&self, held: &KernelEntry, req: &KernelRequest) -> Option<NodeRef>;

    /// Whether requests must also test against earlier *waiting* requests
    /// (FCFS granting — the paper's semantic protocol). Conventional r/w
    /// disciplines skip this so a lock upgrade never waits behind its own
    /// queue.
    fn fcfs(&self) -> bool;

    /// Whether a grant merges into an existing same-owner entry (r/w mode
    /// upgrade) instead of adding a second entry.
    fn absorbs(&self) -> bool;
}

/// Read/write locking policy shared by the closed-nested and flat 2PL
/// disciplines: holders of the same top-level transaction are transparent,
/// foreign holders conflict unless both sides read. The disciplines differ
/// only in the `owner` granularity they pass in ([`KernelRequest::owner`])
/// and in their use of [`Outcome::Inherit`].
pub struct RwLockPolicy;

impl KernelPolicy for RwLockPolicy {
    fn test(&self, held: &KernelEntry, req: &KernelRequest) -> Option<NodeRef> {
        if held.owner.top == req.node.top {
            return None;
        }
        let h = held.mode.rw().expect("r/w kernel holds r/w entries");
        let r = req.mode.rw().expect("r/w kernel receives r/w requests");
        if r.compatible(h) {
            None
        } else {
            Some(NodeRef::root(held.owner.top))
        }
    }

    fn fcfs(&self) -> bool {
        false
    }

    fn absorbs(&self) -> bool {
        true
    }
}

/// One conflict scan's result (internal).
enum Scan {
    Granted,
    Blocked { cell: Arc<WaitCell>, blockers: Vec<NodeRef>, generation: u64 },
}

/// Point-in-time snapshot of a kernel's lock table, taken shard by shard
/// (each shard is latched briefly; the table as a whole is not frozen).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LockTableDump {
    /// Keys with a live queue.
    pub keys: usize,
    /// Granted entries currently held (not retained).
    pub held: usize,
    /// Granted entries that are retained locks: their owner's parent has
    /// committed.
    pub retained: usize,
    /// Queued (waiting) requests.
    pub waiting: usize,
    /// Deepest wait queue across all keys.
    pub max_queue_depth: usize,
    /// Age of the oldest queued request, microseconds (0 when idle).
    pub oldest_waiter_us: u64,
    /// Live keys per shard, for skew diagnosis. Empty queues are
    /// garbage-collected eagerly, so these count contended-or-held keys.
    pub per_shard_keys: Vec<usize>,
}

impl LockTableDump {
    /// Shards with at least one live key.
    pub fn occupied_shards(&self) -> usize {
        self.per_shard_keys.iter().filter(|&&n| n > 0).count()
    }

    /// Render as a JSON object (hand-rolled; per-shard counts included).
    pub fn to_json(&self) -> String {
        let shards: Vec<String> = self.per_shard_keys.iter().map(|n| n.to_string()).collect();
        format!(
            "{{\"keys\":{},\"held\":{},\"retained\":{},\"waiting\":{},\
             \"max_queue_depth\":{},\"oldest_waiter_us\":{},\"per_shard_keys\":[{}]}}",
            self.keys,
            self.held,
            self.retained,
            self.waiting,
            self.max_queue_depth,
            self.oldest_waiter_us,
            shards.join(",")
        )
    }
}

impl std::fmt::Display for LockTableDump {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "keys={} held={} retained={} waiting={} max_queue={} oldest_wait={}us shards={}/{}",
            self.keys,
            self.held,
            self.retained,
            self.waiting,
            self.max_queue_depth,
            self.oldest_waiter_us,
            self.occupied_shards(),
            self.per_shard_keys.len()
        )
    }
}

/// The shared sequencing core. Owns the 64-way sharded lock table and the
/// equally sharded held-locks release index, each shard on cache lines of
/// its own.
pub struct ConcurrencyKernel<P> {
    policy: P,
    deps: DisciplineDeps,
    shards: Sharded<IdMap<LockKey, KernelQueue>>,
    /// Keys on which each top-level transaction holds granted entries.
    held: Sharded<IdMap<TopId, IdSet<LockKey>>>,
}

type Sharded<T> = Vec<CacheLine<Mutex<T>>>;

impl<P: KernelPolicy> ConcurrencyKernel<P> {
    /// A kernel over the engine's shared infrastructure.
    pub fn new(policy: P, deps: DisciplineDeps) -> Self {
        ConcurrencyKernel {
            policy,
            deps,
            shards: (0..SHARD_COUNT).map(|_| CacheLine::default()).collect(),
            held: (0..SHARD_COUNT).map(|_| CacheLine::default()).collect(),
        }
    }

    /// Run `f` with the (possibly fresh) queue of a key, under the shard
    /// latch; empty queues are garbage-collected eagerly. A single map
    /// access: an existing queue is visited in place (and removed on the
    /// way out if emptied); a missing one is materialised on the stack and
    /// inserted only if `f` actually put something into it, so read-only
    /// visits of an absent key never touch the map.
    fn with_queue<R>(&self, key: LockKey, f: impl FnOnce(&mut KernelQueue) -> R) -> R {
        use std::collections::hash_map::Entry;
        let mut shard = self.shards[key.shard_hint() % SHARD_COUNT].lock();
        match shard.entry(key) {
            Entry::Occupied(mut occ) => {
                let r = f(occ.get_mut());
                if occ.get().is_empty() {
                    occ.remove();
                }
                r
            }
            Entry::Vacant(vac) => {
                let mut q = KernelQueue::default();
                let r = f(&mut q);
                if !q.is_empty() {
                    vac.insert(q);
                }
                r
            }
        }
    }

    /// Run `f` with the queue of a key only if one exists (release paths,
    /// generation checks): an absent queue means there is nothing to do, so
    /// no queue is ever created and the map is not written at all.
    fn with_existing_queue<R>(
        &self,
        key: LockKey,
        f: impl FnOnce(&mut KernelQueue) -> R,
    ) -> Option<R> {
        use std::collections::hash_map::Entry;
        let mut shard = self.shards[key.shard_hint() % SHARD_COUNT].lock();
        match shard.entry(key) {
            Entry::Occupied(mut occ) => {
                let r = f(occ.get_mut());
                if occ.get().is_empty() {
                    occ.remove();
                }
                Some(r)
            }
            Entry::Vacant(_) => None,
        }
    }

    fn held_shard(&self, top: TopId) -> &Mutex<IdMap<TopId, IdSet<LockKey>>> {
        &self.held[(top.0 as usize) % SHARD_COUNT].0
    }

    /// Index a fresh grant for `finish_top`. Called after the shard latch
    /// is dropped: only the granted transaction's own thread reads its
    /// index entry, and it does so later.
    fn note_held(&self, top: TopId, key: LockKey) {
        self.held_shard(top).lock().entry(top).or_default().insert(key);
    }

    /// Append one record to the event journal, if one is attached.
    fn journal(&self, kind: JournalKind, node: NodeRef, other: NodeRef, key: LockKey, aux: u64) {
        if let Some(j) = &self.deps.journal {
            j.record(kind, node.top.0, node.idx, other.top.0, other.idx, key.raw(), aux);
        }
    }

    /// Phase one: test, enqueue, wait — until the lock is granted or the
    /// transaction is chosen as deadlock victim.
    pub fn sequence(&self, req: KernelRequest) -> Result<KernelGuard> {
        let top = req.node.top;
        let stats = &self.deps.stats;
        Stats::bump(&stats.lock_requests);
        self.journal(JournalKind::LockRequest, req.node, req.node, req.key, 0);

        // A doomed deadlock victim discovers its fate at the next lock
        // request (unless it is already compensating its way out).
        if !req.compensating && self.deps.wfg.is_doomed(top) {
            Stats::bump(&stats.deadlocks);
            self.journal(JournalKind::VictimSelected, req.node, req.node, req.key, 0);
            return Err(SemccError::Deadlock);
        }

        let mut ticket: Option<u64> = None;
        let mut waited = false;
        // The timeout backstop spans the whole request, not one episode:
        // a request that keeps re-testing without ever being granted still
        // hits the deadline. It runs from the first time the request
        // blocks, so a request that never waits reads no clock.
        let mut deadline = None;

        loop {
            if waited {
                Stats::bump(&stats.retests);
            }
            match self.scan(&req, &mut ticket) {
                Scan::Granted => {
                    if waited {
                        Stats::bump(&stats.blocked_requests);
                    } else {
                        Stats::bump(&stats.immediate_grants);
                    }
                    self.note_held(req.owner.top, req.key);
                    self.deps.emit(|| Event::Granted { node: req.node, waited });
                    self.journal(
                        JournalKind::LockGrant,
                        req.node,
                        req.node,
                        req.key,
                        u64::from(waited),
                    );
                    return Ok(KernelGuard { key: req.key, owner: req.owner, waited });
                }
                Scan::Blocked { cell, blockers, generation } => {
                    if waited {
                        // Woken, re-tested, still blocked: the wake-up
                        // brought no progress.
                        Stats::bump(&stats.spurious_wakeups);
                    }
                    waited = true;
                    deadline = deadline.or_else(|| {
                        self.deps.lock_wait_timeout.map(|t| std::time::Instant::now() + t)
                    });
                    Stats::bump(&stats.wait_episodes);
                    self.deps.emit(|| Event::Blocked { node: req.node, on: blockers.clone() });
                    self.journal(
                        JournalKind::LockWait,
                        req.node,
                        blockers[0],
                        req.key,
                        blockers.len() as u64,
                    );

                    // Deadlock detection on the transaction-level
                    // waits-for graph.
                    let blocker_tops: Vec<TopId> = blockers.iter().map(|b| b.top).collect();
                    match self.deps.wfg.block(top, &blocker_tops, &cell) {
                        BlockDecision::VictimSelf => {
                            self.cancel(&req, ticket);
                            Stats::bump(&stats.deadlocks);
                            self.journal(
                                JournalKind::VictimSelected,
                                req.node,
                                blockers[0],
                                req.key,
                                0,
                            );
                            return Err(SemccError::Deadlock);
                        }
                        BlockDecision::Wait => {}
                    }

                    // Subscribe to the completion of every blocker node;
                    // already-finished blockers simply do not count.
                    for b in &blockers {
                        self.deps.registry.subscribe(*b, &cell);
                    }

                    loop {
                        let outcome = cell.wait_deadline(deadline);
                        if outcome == WaitOutcome::Killed {
                            self.deps.wfg.unblock(top);
                            self.cancel(&req, ticket);
                            Stats::bump(&stats.deadlocks);
                            self.journal(
                                JournalKind::VictimSelected,
                                req.node,
                                req.node,
                                req.key,
                                0,
                            );
                            return Err(SemccError::Deadlock);
                        }
                        if outcome == WaitOutcome::TimedOut {
                            // Backstop against missed wake-ups: give up the
                            // wait and abort the transaction. The queued
                            // request is withdrawn exactly like a deadlock
                            // victim's, so waiters blocked on it re-test.
                            self.deps.wfg.unblock(top);
                            self.cancel(&req, ticket);
                            Stats::bump(&stats.lock_timeouts);
                            self.journal(JournalKind::LockTimeout, req.node, req.node, req.key, 0);
                            return Err(SemccError::LockTimeout);
                        }
                        // A poke with an unchanged queue generation (and no
                        // blocker completion, which would change the
                        // registry state the conflict test reads) proves a
                        // re-scan would reproduce the last one: swallow the
                        // poke and sleep on. The waits-for edges and the
                        // completion subscriptions stay armed.
                        // (A vanished queue means every entry left — real
                        // progress, so the re-scan proceeds.)
                        let suppress = cell.was_poked()
                            && !cell.had_completion()
                            && self
                                .with_existing_queue(req.key, |q| {
                                    if q.generation == generation {
                                        cell.clear_poke();
                                        true
                                    } else {
                                        false
                                    }
                                })
                                .unwrap_or(false);
                        if !suppress {
                            break;
                        }
                        Stats::bump(&stats.spurious_wakeups);
                    }
                    self.deps.wfg.unblock(top);
                    // Re-test; FCFS position is preserved via the ticket.
                }
            }
        }
    }

    /// One pass of the Figure-8 conflict loop, under the shard latch.
    fn scan(&self, req: &KernelRequest, ticket: &mut Option<u64>) -> Scan {
        self.with_queue(req.key, |q| {
            // Inline scratch: the uncontended scan (no blockers) finishes
            // without a single heap allocation.
            let mut blockers: InlineVec<NodeRef, 4> = InlineVec::new();
            let mut srcs: InlineVec<u64, 8> = InlineVec::new();
            for g in &q.granted {
                if let Some(b) = self.policy.test(g, req) {
                    if !blockers.as_slice().contains(&b) {
                        blockers.push(b);
                    }
                    srcs.push(g.eid);
                }
            }
            // FCFS: also test against requests enqueued earlier.
            // Compensating invocations of an aborting transaction take
            // priority over queued requests: they only test against granted
            // locks. (A queued request holds nothing yet, so skipping it is
            // safe — and waiting behind it could re-deadlock the abort.)
            if self.policy.fcfs() && !req.compensating {
                for w in &q.waiting {
                    if let Some(t) = *ticket {
                        if !ticket_before(w.ticket, t) {
                            continue;
                        }
                    }
                    if w.entry.owner.top == req.node.top {
                        continue;
                    }
                    if let Some(b) = self.policy.test(&w.entry, req) {
                        if !blockers.as_slice().contains(&b) {
                            blockers.push(b);
                        }
                        srcs.push(w.entry.eid);
                    }
                }
            }

            if blockers.is_empty() {
                // Grant path: the scratch above never spilled to the heap.
                // Grant. A queued request keeps its entry — and crucially
                // its eid, so waiters subscribed to it stay subscribed to
                // the now-granted lock.
                let entry = match ticket.take() {
                    Some(t) => {
                        q.remove_waiting(t)
                            .expect("granted ticket vanished from its wait queue")
                            .entry
                    }
                    None => {
                        KernelEntry { eid: q.alloc_eid(), owner: req.owner, mode: req.mode.clone() }
                    }
                };
                if self.policy.absorbs() {
                    if let Some(pos) = q.granted.iter().position(|e| e.owner == entry.owner) {
                        q.granted[pos].merge_mode(&entry.mode);
                        // The absorbed entry disappears; notify anyone who
                        // blocked on it while it was queued.
                        q.entries_removed(&[entry.eid], &self.deps.stats);
                        return Scan::Granted;
                    }
                }
                q.granted.push(entry);
                return Scan::Granted;
            }

            // Blocked: record the request (keeping its FCFS position) with
            // a fresh cell for this episode, subscribed to exactly the
            // entries the scan failed against. Only this contended path
            // materialises the scratch on the heap.
            let srcs = srcs.as_slice().to_vec();
            let cell = WaitCell::new();
            match *ticket {
                None => {
                    let t = q.alloc_ticket();
                    *ticket = Some(t);
                    let eid = q.alloc_eid();
                    q.waiting.push(Waiter {
                        ticket: t,
                        entry: KernelEntry { eid, owner: req.owner, mode: req.mode.clone() },
                        cell: Arc::clone(&cell),
                        conflict_srcs: srcs,
                        enqueued_at: std::time::Instant::now(),
                    });
                }
                Some(t) => {
                    let w = q
                        .waiting
                        .iter_mut()
                        .find(|w| w.ticket == t)
                        .expect("re-testing ticket vanished from its wait queue");
                    w.cell = Arc::clone(&cell);
                    w.conflict_srcs = srcs;
                }
            }
            Scan::Blocked { cell, blockers: blockers.as_slice().to_vec(), generation: q.generation }
        })
    }

    /// Withdraw a queued request (deadlock victim / kill): waiters that
    /// blocked on it must be re-tested.
    fn cancel(&self, req: &KernelRequest, ticket: Option<u64>) {
        let Some(t) = ticket else { return };
        let found = self.with_existing_queue(req.key, |q| {
            let w = q.remove_waiting(t);
            debug_assert!(w.is_some(), "cancelled ticket {t} missing from queue {}", req.key);
            if let Some(w) = w {
                q.entries_removed(&[w.entry.eid], &self.deps.stats);
            }
        });
        debug_assert!(found.is_some(), "cancelled ticket {t} has no queue on {}", req.key);
    }

    /// Phase two: dispose of one granted entry. Returns whether an entry of
    /// that owner existed on the key.
    pub fn finish(&self, key: LockKey, owner: NodeRef, outcome: Outcome) -> bool {
        let stats = &self.deps.stats;
        let found = self.with_existing_queue(key, |q| match outcome {
            Outcome::Release => {
                let mut removed: InlineVec<u64, 8> = InlineVec::new();
                q.granted.retain(|e| {
                    if e.owner == owner {
                        removed.push(e.eid);
                        false
                    } else {
                        true
                    }
                });
                if removed.is_empty() {
                    false
                } else {
                    // One entry released = one count (a single fetch_add
                    // even when several entries of the owner go at once).
                    Stats::add(&stats.locks_released, removed.len() as u64);
                    q.entries_removed(removed.as_slice(), stats);
                    true
                }
            }
            Outcome::Inherit { parent } => {
                let Some(pos) = q.granted.iter().position(|e| e.owner == owner) else {
                    return false;
                };
                if let Some(ppos) = q.granted.iter().position(|e| e.owner == parent) {
                    let child = q.granted.remove(pos);
                    let ppos = if ppos > pos { ppos - 1 } else { ppos };
                    q.granted[ppos].merge_mode(&child.mode);
                    q.entries_removed(&[child.eid], stats);
                } else {
                    // Re-owner in place: the eid survives, so nobody needs
                    // to be woken — the lock is still held.
                    q.granted[pos].owner = parent;
                }
                true
            }
        });
        found.unwrap_or(false)
    }

    /// Release every entry a top-level transaction still holds (top-level
    /// commit or abort).
    pub fn finish_top(&self, top: TopId) {
        let keys: Vec<LockKey> = self
            .held_shard(top)
            .lock()
            .remove(&top)
            .map(|s| s.into_iter().collect())
            .unwrap_or_default();
        let stats = &self.deps.stats;
        for key in keys {
            self.with_existing_queue(key, |q| {
                let mut removed: InlineVec<u64, 8> = InlineVec::new();
                q.granted.retain(|e| {
                    if e.owner.top == top {
                        removed.push(e.eid);
                        false
                    } else {
                        true
                    }
                });
                // One fetch_add for the whole sweep, one count per entry.
                Stats::add(&stats.locks_released, removed.len() as u64);
                q.entries_removed(removed.as_slice(), stats);
            });
        }
    }

    /// Keys on which a transaction currently holds entries (closed-nested
    /// inheritance iterates this).
    pub fn keys_of(&self, top: TopId) -> Vec<LockKey> {
        self.held_shard(top)
            .lock()
            .get(&top)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Total number of granted entries (tests / introspection).
    pub fn granted_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().values().map(|q| q.granted.len()).sum::<usize>()).sum()
    }

    /// Total number of waiting requests.
    pub fn waiting_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().values().map(|q| q.waiting.len()).sum::<usize>()).sum()
    }

    /// Number of keys with a live queue (granted or waiting entries).
    pub fn locked_keys(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Snapshot the lock table for introspection. Shards are latched one
    /// at a time, so the dump is internally consistent per shard but not
    /// across shards — fine for monitoring, useless for invariants.
    pub fn dump(&self) -> LockTableDump {
        let now = std::time::Instant::now();
        let mut d =
            LockTableDump { per_shard_keys: Vec::with_capacity(SHARD_COUNT), ..Default::default() };
        for shard in &self.shards {
            let shard = shard.lock();
            d.per_shard_keys.push(shard.len());
            d.keys += shard.len();
            for q in shard.values() {
                for e in &q.granted {
                    let tree = self.deps.registry.tree(e.owner.top);
                    if tree.is_some_and(|t| t.is_retained(e.owner.idx)) {
                        d.retained += 1;
                    } else {
                        d.held += 1;
                    }
                }
                d.waiting += q.waiting.len();
                d.max_queue_depth = d.max_queue_depth.max(q.waiting.len());
                for w in &q.waiting {
                    let age = now.saturating_duration_since(w.enqueued_at).as_micros() as u64;
                    d.oldest_waiter_us = d.oldest_waiter_us.max(age);
                }
            }
        }
        d
    }

    #[cfg(test)]
    fn first_waiting_cell(&self, key: LockKey) -> Option<Arc<WaitCell>> {
        self.with_existing_queue(key, |q| q.waiting.first().map(|w| Arc::clone(&w.cell))).flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::NullSink;
    use crate::notify::CompletionHub;
    use crate::tree::Registry;
    use crate::WaitsForGraph;
    use semcc_objstore::MemoryStore;
    use semcc_semantics::{Catalog, ObjectId};

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

    fn rw_kernel(d: &DisciplineDeps) -> Arc<ConcurrencyKernel<RwLockPolicy>> {
        Arc::new(ConcurrencyKernel::new(RwLockPolicy, d.clone()))
    }

    fn rw_req(top: TopId, obj: u64, mode: RwMode, compensating: bool) -> KernelRequest {
        let root = NodeRef::root(top);
        KernelRequest {
            key: LockKey::Object(ObjectId(obj)),
            node: root,
            owner: root,
            mode: EntryMode::Rw(mode),
            compensating,
        }
    }

    #[test]
    fn readers_share() {
        let d = deps();
        let k = rw_kernel(&d);
        let t1 = d.registry.begin().top();
        let t2 = d.registry.begin().top();
        assert!(!k.sequence(rw_req(t1, 5, RwMode::Read, false)).unwrap().waited);
        assert!(!k.sequence(rw_req(t2, 5, RwMode::Read, false)).unwrap().waited);
        assert_eq!(k.locked_keys(), 1);
        assert_eq!(k.granted_count(), 2);
    }

    #[test]
    fn reentrant_and_upgrade() {
        let d = deps();
        let k = rw_kernel(&d);
        let t1 = d.registry.begin().top();
        k.sequence(rw_req(t1, 5, RwMode::Read, false)).unwrap();
        assert!(
            !k.sequence(rw_req(t1, 5, RwMode::Write, false)).unwrap().waited,
            "self-upgrade never waits"
        );
        k.sequence(rw_req(t1, 5, RwMode::Read, false)).unwrap();
        assert_eq!(k.granted_count(), 1, "same-owner grants absorb into one entry");
        k.finish_top(t1);
        assert_eq!(k.locked_keys(), 0);
        assert_eq!(
            d.stats.snapshot().locks_released,
            1,
            "one absorbed entry = one release, counted exactly once"
        );
    }

    #[test]
    fn writer_blocks_reader_until_release() {
        let d = deps();
        let k = rw_kernel(&d);
        let t1 = d.registry.begin().top();
        let t2 = d.registry.begin().top();
        k.sequence(rw_req(t1, 7, RwMode::Write, false)).unwrap();
        let k2 = Arc::clone(&k);
        let h =
            std::thread::spawn(move || k2.sequence(rw_req(t2, 7, RwMode::Read, false)).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!h.is_finished());
        k.finish_top(t1);
        assert!(h.join().unwrap().waited);
        assert_eq!(d.stats.snapshot().targeted_wakeups, 1, "exactly one targeted poke");
    }

    #[test]
    fn release_wakes_only_subscribed_waiters() {
        let d = deps();
        let k = rw_kernel(&d);
        let t1 = d.registry.begin().top();
        let t2 = d.registry.begin().top();
        let t3 = d.registry.begin().top();
        let t4 = d.registry.begin().top();
        k.sequence(rw_req(t1, 1, RwMode::Write, false)).unwrap();
        k.sequence(rw_req(t2, 2, RwMode::Write, false)).unwrap();
        let ka = Arc::clone(&k);
        let kb = Arc::clone(&k);
        let ha =
            std::thread::spawn(move || ka.sequence(rw_req(t3, 1, RwMode::Read, false)).unwrap());
        let hb =
            std::thread::spawn(move || kb.sequence(rw_req(t4, 2, RwMode::Read, false)).unwrap());
        while k.waiting_count() < 2 {
            std::thread::yield_now();
        }
        k.finish_top(t1);
        assert!(ha.join().unwrap().waited);
        assert_eq!(k.waiting_count(), 1, "the waiter on the other key sleeps on");
        assert!(!hb.is_finished());
        k.finish_top(t2);
        assert!(hb.join().unwrap().waited);
        let snap = d.stats.snapshot();
        assert_eq!(snap.targeted_wakeups, 2);
        assert_eq!(snap.locks_released, 2, "each finish_top released exactly one entry");
    }

    #[test]
    fn stray_poke_is_suppressed_by_generation_check() {
        let d = deps();
        let k = rw_kernel(&d);
        let t1 = d.registry.begin().top();
        let t2 = d.registry.begin().top();
        k.sequence(rw_req(t1, 9, RwMode::Write, false)).unwrap();
        let k2 = Arc::clone(&k);
        let h =
            std::thread::spawn(move || k2.sequence(rw_req(t2, 9, RwMode::Read, false)).unwrap());
        while k.waiting_count() < 1 {
            std::thread::yield_now();
        }
        let cell = k.first_waiting_cell(LockKey::Object(ObjectId(9))).unwrap();

        // A stray poke that bypasses the queue helpers (so the generation
        // is unchanged) must not lead to a re-test, only to a suppressed
        // spurious wake-up.
        let retests_before = d.stats.snapshot().retests;
        cell.poke();
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!h.is_finished(), "waiter is still blocked");
        assert_eq!(k.waiting_count(), 1);
        let snap = d.stats.snapshot();
        assert_eq!(snap.retests, retests_before, "suppressed wake-up skips the re-scan");
        assert!(snap.spurious_wakeups >= 1);

        k.finish_top(t1);
        assert!(h.join().unwrap().waited);
    }

    #[test]
    fn deadlock_detected_between_two_writers() {
        let d = deps();
        let k = rw_kernel(&d);
        let t1 = d.registry.begin().top();
        let t2 = d.registry.begin().top();
        k.sequence(rw_req(t1, 1, RwMode::Write, false)).unwrap();
        k.sequence(rw_req(t2, 2, RwMode::Write, false)).unwrap();
        let k2 = Arc::clone(&k);
        let h = std::thread::spawn(move || k2.sequence(rw_req(t1, 2, RwMode::Write, false)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Closing the cycle from this thread: T2 (younger) is the victim.
        let err = k.sequence(rw_req(t2, 1, RwMode::Write, false)).unwrap_err();
        assert_eq!(err, SemccError::Deadlock);
        k.finish_top(t2);
        h.join().unwrap().unwrap();
        k.finish_top(t1);
        assert_eq!(k.locked_keys(), 0);
    }

    #[test]
    fn doomed_transactions_fail_fast_but_compensating_passes() {
        let d = deps();
        let k = rw_kernel(&d);
        let t1 = d.registry.begin().top();
        let t2 = d.registry.begin().top();
        k.sequence(rw_req(t1, 1, RwMode::Write, false)).unwrap();
        k.sequence(rw_req(t2, 2, RwMode::Write, false)).unwrap();
        let kref = &k;
        std::thread::scope(|s| {
            let h = s.spawn(move || kref.sequence(rw_req(t1, 2, RwMode::Write, false)));
            std::thread::sleep(std::time::Duration::from_millis(20));
            let _ = kref.sequence(rw_req(t2, 1, RwMode::Write, false)).unwrap_err();
            // Doomed: plain acquire fails fast…
            assert_eq!(
                kref.sequence(rw_req(t2, 99, RwMode::Write, false)).unwrap_err(),
                SemccError::Deadlock
            );
            // …but a compensating acquire on a free key succeeds.
            assert!(!kref.sequence(rw_req(t2, 98, RwMode::Write, true)).unwrap().waited);
            kref.finish_top(t2);
            h.join().unwrap().unwrap();
        });
    }

    #[test]
    fn lock_wait_times_out_and_withdraws_the_request() {
        let mut d = deps();
        d.lock_wait_timeout = Some(std::time::Duration::from_millis(40));
        let k = rw_kernel(&d);
        let t1 = d.registry.begin().top();
        let t2 = d.registry.begin().top();
        k.sequence(rw_req(t1, 7, RwMode::Write, false)).unwrap();
        let err = k.sequence(rw_req(t2, 7, RwMode::Write, false)).unwrap_err();
        assert_eq!(err, SemccError::LockTimeout);
        assert_eq!(k.waiting_count(), 0, "the timed-out request left the queue");
        assert_eq!(d.stats.snapshot().lock_timeouts, 1);
        k.finish_top(t1);
        assert_eq!(k.locked_keys(), 0);
    }

    #[test]
    fn grant_beats_generous_timeout() {
        let mut d = deps();
        d.lock_wait_timeout = Some(std::time::Duration::from_secs(30));
        let k = rw_kernel(&d);
        let t1 = d.registry.begin().top();
        let t2 = d.registry.begin().top();
        k.sequence(rw_req(t1, 7, RwMode::Write, false)).unwrap();
        let k2 = Arc::clone(&k);
        let h =
            std::thread::spawn(move || k2.sequence(rw_req(t2, 7, RwMode::Write, false)).unwrap());
        while k.waiting_count() < 1 {
            std::thread::yield_now();
        }
        k.finish_top(t1);
        assert!(h.join().unwrap().waited);
        assert_eq!(d.stats.snapshot().lock_timeouts, 0);
    }

    #[test]
    fn dump_and_journal_observe_a_blocked_request() {
        let mut d = deps();
        let journal = Arc::new(crate::journal::EventJournal::new(64));
        d.journal = Some(Arc::clone(&journal));
        let k = rw_kernel(&d);
        let t1 = d.registry.begin().top();
        let t2 = d.registry.begin().top();
        k.sequence(rw_req(t1, 7, RwMode::Write, false)).unwrap();
        let k2 = Arc::clone(&k);
        let h =
            std::thread::spawn(move || k2.sequence(rw_req(t2, 7, RwMode::Read, false)).unwrap());
        while k.waiting_count() < 1 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(5));

        let dump = k.dump();
        assert_eq!((dump.keys, dump.held, dump.retained, dump.waiting), (1, 1, 0, 1));
        assert_eq!(dump.max_queue_depth, 1);
        assert_eq!(dump.per_shard_keys.len(), SHARD_COUNT);
        assert_eq!(dump.occupied_shards(), 1);
        assert!(dump.oldest_waiter_us > 0, "waiter age is measured: {dump}");
        assert!(dump.to_json().contains("\"waiting\":1"));

        k.finish_top(t1);
        h.join().unwrap();
        k.finish_top(t2);
        let after = k.dump();
        assert_eq!((after.keys, after.held, after.waiting, after.oldest_waiter_us), (0, 0, 0, 0));

        let kinds: Vec<JournalKind> = journal.snapshot().iter().map(|r| r.kind).collect();
        for expected in [JournalKind::LockRequest, JournalKind::LockGrant, JournalKind::LockWait] {
            assert!(kinds.contains(&expected), "missing {expected:?} in {kinds:?}");
        }
    }

    #[test]
    fn inherit_migrates_ownership_without_waking() {
        let d = deps();
        let k = rw_kernel(&d);
        let tree = d.registry.begin();
        let top = tree.top();
        let child = NodeRef { top, idx: 1 };
        let parent = NodeRef { top, idx: 0 };
        let req = KernelRequest {
            key: LockKey::Object(ObjectId(3)),
            node: child,
            owner: child,
            mode: EntryMode::Rw(RwMode::Write),
            compensating: false,
        };
        k.sequence(req).unwrap();
        assert!(k.finish(LockKey::Object(ObjectId(3)), child, Outcome::Inherit { parent }));
        assert_eq!(k.granted_count(), 1, "entry migrated, not released");
        assert!(
            !k.finish(LockKey::Object(ObjectId(3)), child, Outcome::Inherit { parent }),
            "child no longer owns anything"
        );
        assert_eq!(d.stats.snapshot().locks_released, 0);
        k.finish_top(top);
        assert_eq!(k.granted_count(), 0);
    }
}
