//! The pluggable concurrency control interface.
//!
//! The engine executes the *same* transaction programs under any
//! [`Discipline`]: the paper's semantic lock manager, the conventional
//! two-phase locking baselines, or closed nested locking. A discipline sees
//! every action of the transaction tree and decides what (if anything) to
//! lock and when to release.

use crate::deadlock::WaitsForGraph;
use crate::history::{Event, HistorySink};
use crate::ids::{NodeRef, TopId};
use crate::journal::EventJournal;
use crate::kernel::LockTableDump;
use crate::notify::CompletionHub;
use crate::stats::{Stats, StatsSnapshot};
use crate::tree::{Chain, Registry, TxnTree};
use semcc_semantics::{Invocation, Result, SemanticsRouter, Storage};
use std::sync::Arc;
use std::time::Duration;

/// Shared infrastructure a discipline needs: built once by the
/// [`EngineBuilder`](crate::engine::EngineBuilder) and handed to the
/// discipline factory so that engine and discipline agree on registry,
/// waits-for graph and counters.
#[derive(Clone)]
pub struct DisciplineDeps {
    /// Live transaction trees (which also carry the completion
    /// subscriptions of their own nodes).
    pub registry: Arc<Registry>,
    /// BENCH-PINNED (`benchmark/src/probes.rs:144`): unused, see
    /// [`CompletionHub`].
    pub hub: Arc<CompletionHub>,
    /// Shared deadlock detector.
    pub wfg: Arc<WaitsForGraph>,
    /// Shared counters.
    pub stats: Arc<Stats>,
    /// Event sink.
    pub sink: Arc<dyn HistorySink>,
    /// Commutativity dispatch.
    pub router: Arc<SemanticsRouter>,
    /// The object store (for page lookups).
    pub storage: Arc<dyn Storage>,
    /// Lock-wait timeout backstop applied by the kernel's block path
    /// (`None` disables it). Populated from
    /// [`EngineBuilder::lock_wait_timeout`](crate::engine::EngineBuilder::lock_wait_timeout).
    pub lock_wait_timeout: Option<Duration>,
    /// The structured event journal (`None` when disabled). Populated from
    /// [`EngineBuilder::journal_capacity`](crate::engine::EngineBuilder::journal_capacity);
    /// the kernel, the conflict test and the engine all write through this
    /// handle, so every discipline emits the same event vocabulary.
    pub journal: Option<Arc<EventJournal>>,
    /// BENCH-PINNED (`benchmark/src/probes.rs:152` writes it in a struct
    /// literal): unused.
    pub dep_graph: Arc<crate::speculate::DepGraph>,
}

impl DisciplineDeps {
    /// Hand `event()` to the sink if it listens. The one way the engine and
    /// the kernel publish an event: under [`NullSink`](crate::NullSink) the
    /// event is never built.
    pub fn emit(&self, event: impl FnOnce() -> Event) {
        if self.sink.is_listening() {
            self.sink.record(event());
        }
    }
}

/// A lock acquisition request for one action of a transaction tree.
pub struct AcquireRequest<'a> {
    /// The acting node.
    pub node: NodeRef,
    /// Its invocation.
    pub inv: &'a Arc<Invocation>,
    /// Ancestor chain, `[self, parent, …, root]`, with its object index.
    pub chain: &'a Chain,
    /// Whether the action is a leaf storage operation (a generic method).
    pub is_leaf: bool,
    /// Whether the action may update its object.
    pub writes: bool,
    /// Whether this acquisition belongs to a compensating subtransaction
    /// of an aborting transaction.
    pub compensating: bool,
}

/// Grant information returned by a successful acquisition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GrantInfo {
    /// The request had to wait at least once.
    pub waited: bool,
}

/// A concurrency control protocol driving the engine's lock steps.
pub trait Discipline: Send + Sync {
    /// Stable display name (for reports).
    fn name(&self) -> &str;

    /// Acquire whatever this discipline locks for the action. Blocks until
    /// granted; returns [`SemccError::Deadlock`] if the transaction was
    /// chosen as a deadlock victim.
    ///
    /// [`SemccError::Deadlock`]: semcc_semantics::SemccError::Deadlock
    fn acquire(&self, req: AcquireRequest<'_>) -> Result<GrantInfo>;

    /// The action committed (subtransaction completion): convert or release
    /// the locks of its children according to the protocol.
    fn node_completed(&self, tree: &TxnTree, idx: u32);

    /// The top-level transaction ended (commit or abort): release every
    /// lock it still holds.
    fn top_finished(&self, top: TopId);

    /// Counter snapshot.
    fn stats(&self) -> StatsSnapshot;

    /// Number of live lock-table entries (granted + waiting) across the
    /// discipline's kernel. Must be zero once every transaction has
    /// finished — the chaos harness asserts this to detect leaked locks.
    fn live_entries(&self) -> usize;

    /// Point-in-time snapshot of the discipline's lock table (per-shard
    /// entry counts, queue depths, retained vs. held locks, oldest waiter
    /// age) for the observability sampler and the `observe` report.
    fn lock_table(&self) -> LockTableDump;
}
