//! The open nested transaction engine — the `exec-transaction` procedure of
//! the paper's Figure 8.
//!
//! A top-level transaction is a [`TransactionProgram`] executed against a
//! [`MethodContext`]. Every `invoke` creates a child subtransaction,
//! acquires its semantic lock through the configured
//! [`Discipline`](crate::discipline::Discipline) (possibly waiting), runs
//! the method body (which recursively invokes further methods — the dynamic
//! method invocation hierarchy), and on completion converts the children's
//! locks into retained locks and notifies waiters.
//!
//! **Aborts are compensation-based** (paper Section 3): committed
//! subtransactions have already exposed their effects, so they are undone
//! by *inverse* method invocations executed under the very same locking
//! protocol. Each method may declare a compensation builder in the catalog;
//! methods without one inherit the (reversed) compensations of their
//! children, bottoming out at the built-in inverses of the generic leaf
//! operations (`Put` restores the old value, `Insert` removes, `Remove`
//! re-inserts).

use crate::config::ProtocolConfig;
use crate::deadlock::WaitsForGraph;
use crate::discipline::{AcquireRequest, Discipline, DisciplineDeps, GrantInfo};
use crate::fault::{injected_panic, FaultPlan, FaultSite, InjectedPanic};
use crate::history::{Event, HistorySink, NullSink};
use crate::ids::{NodeRef, TopId};
use crate::journal::{EventJournal, JournalKind};
use crate::kernel::LockTableDump;
use crate::lock::SemanticLockManager;
use crate::notify::CompletionHub;
use crate::speculate::DepGraph;
use crate::stats::{Stats, StatsSnapshot};
use crate::tree::{Registry, TxnTree};
use crate::wal::{AppendInfo, RedoOp, WalFailMode, WalRecord, WalWriter};
use parking_lot::Mutex;
use rand::{rngs::StdRng, Rng, SeedableRng};
use semcc_semantics::{
    Catalog, GenericMethod, Invocation, MethodContext, MethodSel, ObjectId, Result,
    SemanticsRouter, SemccError, Storage, TypeId, Value,
};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Render a caught panic payload as an abort reason.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(ip) = payload.downcast_ref::<InjectedPanic>() {
        format!("injected panic at {}", ip.0)
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// A top-level transaction program.
pub trait TransactionProgram: Send + Sync {
    /// Display label for histories and reports (e.g. `"T1"`).
    fn label(&self) -> String {
        "txn".to_owned()
    }

    /// The body: invoke methods through the context, return the
    /// transaction's result. Returning `Err` aborts the transaction (with
    /// compensation).
    fn run(&self, ctx: &mut dyn MethodContext) -> Result<Value>;

    /// Declare that this program only reads (every invocation is a pure
    /// reader). A `true` answer routes the transaction through the
    /// lock-free snapshot read path when the engine and storage support
    /// it; the engine still verifies the claim dynamically and falls back
    /// to ordinary locking on any write attempt, so a wrong `true` costs
    /// one wasted execution, never correctness. Default: `false`.
    fn read_only_hint(&self) -> bool {
        false
    }
}

/// A program built from a closure plus a label.
pub struct FnProgram<F> {
    label: String,
    f: F,
    read_only: bool,
}

impl<F> FnProgram<F>
where
    F: Fn(&mut dyn MethodContext) -> Result<Value> + Send + Sync,
{
    /// Wrap a closure as a program.
    pub fn new(label: impl Into<String>, f: F) -> Self {
        FnProgram { label: label.into(), f, read_only: false }
    }

    /// Wrap a closure as a program declared read-only (eligible for the
    /// snapshot read path).
    pub fn read_only(label: impl Into<String>, f: F) -> Self {
        FnProgram { label: label.into(), f, read_only: true }
    }
}

impl<F> TransactionProgram for FnProgram<F>
where
    F: Fn(&mut dyn MethodContext) -> Result<Value> + Send + Sync,
{
    fn label(&self) -> String {
        self.label.clone()
    }

    fn run(&self, ctx: &mut dyn MethodContext) -> Result<Value> {
        (self.f)(ctx)
    }

    fn read_only_hint(&self) -> bool {
        self.read_only
    }
}

/// Result of a committed transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxnOutcome {
    /// The transaction's id (for correlating histories).
    pub top: TopId,
    /// The program's return value.
    pub value: Value,
    /// Whether the transaction committed on the lock-free snapshot read
    /// path (no lock-table entries, no waits-for edges, no WAL records).
    pub snapshot: bool,
    /// Position in the engine-wide commit order (1-based). Writers take
    /// their number before releasing write intents; snapshot readers take
    /// theirs right after validating, so a reader's observed state equals
    /// the effects of exactly the writers numbered below it.
    pub commit_seq: u64,
}

/// Per-transaction shared state.
struct TxnShared {
    tree: Arc<TxnTree>,
    /// Objects created by this transaction (deleted again on abort).
    created: Mutex<Vec<ObjectId>>,
    /// Objects this transaction declared write intent on (first mutating
    /// leaf per object); intents are released when the top finishes.
    written: Mutex<Vec<ObjectId>>,
    /// Log this transaction's records under a different transaction id.
    /// Set only by recovery's loser compensations: the wrapper executes
    /// under its own fresh `TopId`, but its `CompRedo`/`CompApplied`
    /// records must carry the *loser's* id so a crash mid-recovery leaves
    /// a log a second pass analyzes correctly. An aliased transaction
    /// also logs no `TopCommit`/`TopAbort` of its own — recovery resolves
    /// the loser explicitly.
    wal_alias: Option<u64>,
    /// Positive escrow deltas this transaction has applied but not yet
    /// committed, mirrored in the engine's escrow ledger. Released (ledger
    /// decrement) exactly once, at commit or after the abort path's
    /// compensations have restored the store.
    escrow_pos: Mutex<Vec<(ObjectId, i64)>>,
}

impl TxnShared {
    /// The transaction id this transaction's WAL records carry.
    fn wal_top(&self) -> u64 {
        self.wal_alias.unwrap_or(self.tree.top().0)
    }
}

/// Prepare hook of [`Engine::execute_open_prepared`]: runs after the
/// transaction body succeeds and before the local commit record, with the
/// top id and the chronological compensation intent.
pub type PrepareHook<'a> = &'a mut dyn FnMut(TopId, &[Invocation]) -> Result<()>;

/// Builds an [`Engine`].
pub struct EngineBuilder {
    storage: Arc<dyn Storage>,
    catalog: Arc<Catalog>,
    sink: Arc<dyn HistorySink>,
    config: ProtocolConfig,
    #[allow(clippy::type_complexity)]
    discipline_factory: Option<Box<dyn FnOnce(&DisciplineDeps) -> Arc<dyn Discipline>>>,
    comp_retry_limit: u32,
    comp_retry_backoff: Duration,
    op_delay: Duration,
    faults: Option<Arc<FaultPlan>>,
    wal: Option<Arc<WalWriter>>,
    snapshot_reads: bool,
    /// Builder-level overrides of two [`ProtocolConfig`] fields. Kept apart
    /// from `config` so that they hold whichever side of
    /// [`protocol`](Self::protocol) they were set on.
    lock_wait_timeout: Option<Duration>,
    journal_capacity: Option<usize>,
}

impl EngineBuilder {
    /// Start building an engine over a store and a catalog.
    pub fn new(storage: Arc<dyn Storage>, catalog: Arc<Catalog>) -> Self {
        EngineBuilder {
            storage,
            catalog,
            sink: Arc::new(NullSink::new()),
            config: ProtocolConfig::semantic(),
            discipline_factory: None,
            comp_retry_limit: 1000,
            comp_retry_backoff: Duration::from_micros(200),
            op_delay: Duration::ZERO,
            faults: None,
            wal: None,
            snapshot_reads: true,
            lock_wait_timeout: None,
            journal_capacity: None,
        }
    }

    /// Replace the store the engine runs over — e.g. the same store behind
    /// a [`FaultyStorage`](crate::fault::FaultyStorage) wrapper.
    pub fn storage(mut self, storage: Arc<dyn Storage>) -> Self {
        self.storage = storage;
        self
    }

    /// Enable or disable the snapshot read path for programs declaring
    /// [`TransactionProgram::read_only_hint`]. On by default; it only
    /// engages when the storage also reports
    /// [`supports_versioning`](Storage::supports_versioning).
    pub fn snapshot_reads(mut self, on: bool) -> Self {
        self.snapshot_reads = on;
        self
    }

    /// Simulated latency of every leaf (storage) operation, applied while
    /// the operation's lock is held. The in-memory store completes leaf
    /// operations in nanoseconds, which would measure lock-manager overhead
    /// rather than concurrency; a per-operation delay (≈ a page access of
    /// the paper's disk-based setting) restores realistic lock hold times
    /// for the performance experiments.
    pub fn op_delay(mut self, delay: Duration) -> Self {
        self.op_delay = delay;
        self
    }

    /// Use a history sink (e.g. [`MemorySink`](crate::history::MemorySink)).
    pub fn sink(mut self, sink: Arc<dyn HistorySink>) -> Self {
        self.sink = sink;
        self
    }

    /// Configure the built-in semantic lock manager (ignored if a custom
    /// discipline factory is installed). [`lock_wait_timeout`] and
    /// [`journal_capacity`] set on this builder take precedence over the
    /// config's fields, in either call order.
    ///
    /// [`lock_wait_timeout`]: Self::lock_wait_timeout
    /// [`journal_capacity`]: Self::journal_capacity
    pub fn protocol(mut self, config: ProtocolConfig) -> Self {
        self.config = config;
        self
    }

    /// Install a custom concurrency control discipline (baselines).
    pub fn discipline<F>(mut self, factory: F) -> Self
    where
        F: FnOnce(&DisciplineDeps) -> Arc<dyn Discipline> + 'static,
    {
        self.discipline_factory = Some(Box::new(factory));
        self
    }

    /// How often a compensating invocation is retried on deadlock.
    pub fn compensation_retries(mut self, limit: u32, backoff: Duration) -> Self {
        self.comp_retry_limit = limit;
        self.comp_retry_backoff = backoff;
        self
    }

    /// Override the lock-wait timeout (applies to any discipline; 0
    /// disables the backstop).
    pub fn lock_wait_timeout(mut self, timeout: Duration) -> Self {
        self.lock_wait_timeout = Some(timeout);
        self
    }

    /// Install a fault-injection plan (chaos testing). Method-body and
    /// compensation faults fire through the engine; pair this with a
    /// [`FaultyStorage`](crate::fault::FaultyStorage) wrapper for storage
    /// faults.
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enable the event journal with the given ring capacity (0 disables;
    /// applies to any discipline).
    pub fn journal_capacity(mut self, records: usize) -> Self {
        self.journal_capacity = Some(records);
        self
    }

    /// Attach a write-ahead log: the engine appends leaf redo records,
    /// subtransaction-commit records (carrying compensation intent) and
    /// top-level resolution records, making
    /// [`recover_image`](crate::wal::recovery::recover_image) possible after
    /// a crash.
    /// Logging is off by default.
    pub fn wal(mut self, wal: Arc<WalWriter>) -> Self {
        self.wal = Some(wal);
        self
    }

    /// Build the engine.
    pub fn build(self) -> Arc<Engine> {
        let mut config = self.config;
        if let Some(timeout) = self.lock_wait_timeout {
            config.lock_wait_timeout_ms = timeout.as_millis() as u64;
        }
        if let Some(records) = self.journal_capacity {
            config.journal_capacity = records;
        }
        let stats = Arc::new(Stats::default());
        let journal = (config.journal_capacity > 0)
            .then(|| Arc::new(EventJournal::new(config.journal_capacity)));
        let registry = Arc::new(Registry::new());
        let deps = DisciplineDeps {
            registry: Arc::clone(&registry),
            hub: Arc::new(CompletionHub::new()),
            wfg: Arc::new(WaitsForGraph::with_stats(Arc::clone(&stats))),
            stats,
            sink: Arc::clone(&self.sink),
            router: Arc::new(self.catalog.router()),
            storage: Arc::clone(&self.storage),
            lock_wait_timeout: config.lock_wait_timeout(),
            journal,
            dep_graph: Arc::new(DepGraph::with_cap(registry, config.dep_wait_cap())),
        };
        let discipline: Arc<dyn Discipline> = match self.discipline_factory {
            Some(f) => f(&deps),
            None => SemanticLockManager::new(config, deps.clone()),
        };
        let snapshot_enabled = self.snapshot_reads && self.storage.supports_versioning();
        Arc::new(Engine {
            storage: self.storage,
            catalog: self.catalog,
            deps,
            discipline,
            comp_retry_limit: self.comp_retry_limit,
            comp_retry_backoff: self.comp_retry_backoff,
            max_backoff: config.max_backoff(),
            op_delay: self.op_delay,
            faults: self.faults,
            wal: self.wal,
            snapshot_enabled,
            commit_seq: AtomicU64::new(0),
            escrow: Mutex::new(HashMap::new()),
        })
    }
}

/// The transaction engine.
pub struct Engine {
    storage: Arc<dyn Storage>,
    catalog: Arc<Catalog>,
    deps: DisciplineDeps,
    discipline: Arc<dyn Discipline>,
    comp_retry_limit: u32,
    comp_retry_backoff: Duration,
    /// Ceiling on any single backoff sleep, from
    /// [`ProtocolConfig::max_backoff_us`] (default [`Self::MAX_BACKOFF`]).
    max_backoff: Duration,
    op_delay: Duration,
    faults: Option<Arc<FaultPlan>>,
    wal: Option<Arc<WalWriter>>,
    /// Snapshot read path available: the builder knob is on *and* the
    /// storage maintains version stamps.
    snapshot_enabled: bool,
    /// Engine-wide commit order. Writers draw their number before
    /// releasing write intents; snapshot readers draw theirs after
    /// validation, so validation success orders a reader after exactly
    /// the writers it observed.
    commit_seq: AtomicU64,
    /// Escrow ledger: per object, the sum of *uncommitted positive*
    /// `EscrowAdd` deltas across all live transactions. The guard of a
    /// bounded escrow operation tests against the worst-case value
    /// (current minus this sum): every pending increment might still roll
    /// back, while pending decrements rolling back only raise the value —
    /// safe for a lower bound. Held across the leaf's read-modify-write,
    /// because commuting `EscrowAdd`s hold their semantic locks
    /// concurrently and this mutex is their only serialization point.
    escrow: Mutex<HashMap<ObjectId, i64>>,
}

impl Engine {
    /// Start building an engine.
    pub fn builder(storage: Arc<dyn Storage>, catalog: Arc<Catalog>) -> EngineBuilder {
        EngineBuilder::new(storage, catalog)
    }

    /// The schema catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The object store.
    pub fn storage(&self) -> &Arc<dyn Storage> {
        &self.storage
    }

    /// The commutativity router.
    pub fn router(&self) -> &Arc<SemanticsRouter> {
        &self.deps.router
    }

    /// The active discipline's name.
    pub fn protocol_name(&self) -> &str {
        self.discipline.name()
    }

    /// Counter snapshot (engine + lock manager share one [`Stats`]).
    pub fn stats(&self) -> StatsSnapshot {
        self.deps.stats.snapshot()
    }

    /// Number of live (uncommitted) transactions.
    pub fn live_transactions(&self) -> usize {
        self.deps.registry.live_count()
    }

    /// Live lock-table entries (granted + waiting) of the active
    /// discipline. Zero once every transaction has finished; the chaos
    /// harness asserts this to detect leaked locks.
    pub fn lock_entries(&self) -> usize {
        self.discipline.live_entries()
    }

    /// The event journal, if enabled via
    /// [`ProtocolConfig::journal_capacity`] /
    /// [`EngineBuilder::journal_capacity`].
    pub fn journal(&self) -> Option<&Arc<EventJournal>> {
        self.deps.journal.as_ref()
    }

    /// Snapshot of the active discipline's lock table.
    pub fn lock_table(&self) -> LockTableDump {
        self.discipline.lock_table()
    }

    /// Residual waits-for-graph state `(edges, cells, doomed, aborting)` —
    /// all zero once every transaction has exited (the chaos harness's
    /// stale-state audit).
    pub fn wfg_residue(&self) -> (usize, usize, usize, usize) {
        self.deps.wfg.residue()
    }

    /// Live abort-dependency edges in the speculation graph — zero once
    /// every transaction has exited (residue audit for speculative runs).
    pub fn speculation_edges(&self) -> usize {
        self.deps.dep_graph.live_edge_count()
    }

    /// Append one record to the event journal, if one is attached.
    fn journal_record(&self, kind: JournalKind, node: NodeRef, aux: u64) {
        if let Some(j) = &self.deps.journal {
            j.record(kind, node.top.0, node.idx, 0, 0, 0, aux);
        }
    }

    /// The live counters (shared with the lock manager; recovery adds its
    /// replay/compensation tallies here).
    pub(crate) fn stats_ref(&self) -> &Arc<Stats> {
        &self.deps.stats
    }

    /// The transaction registry (recovery raises its id floor past the
    /// surviving log's largest transaction id).
    pub(crate) fn registry_ref(&self) -> &Arc<Registry> {
        &self.deps.registry
    }

    /// Append one record to the write-ahead log, if one is attached.
    ///
    /// `Err` means the record did **not** reach the log and never will
    /// (the writer is poisoned, or an I/O fault just poisoned it): the
    /// caller must not acknowledge the work the record describes.
    /// `Ok` covers the simulated-crash case too — a dead (crashed)
    /// writer silently drops appends, modeling work the machine lost in
    /// flight, which is precisely what recovery is tested against.
    fn wal_append(&self, rec: WalRecord) -> Result<()> {
        let Some(w) = &self.wal else { return Ok(()) };
        match w.append(&rec) {
            Ok(info) => {
                self.account_wal_append(info);
                Ok(())
            }
            Err(e) => {
                Stats::bump(&self.deps.stats.wal_io_errors);
                Err(SemccError::Durability(e.to_string()))
            }
        }
    }

    /// Commit-record append that draws the commit-order number under the
    /// log's state lock (see [`WalWriter::append_commit`]): ascending LSN
    /// then implies ascending `commit_seq`, so snapshot-read validation
    /// order equals durable commit order even when a group-commit batch
    /// wakes its members out of append order.
    fn wal_append_commit(&self, rec: WalRecord) -> Result<u64> {
        let Some(w) = &self.wal else {
            return Ok(self.commit_seq.fetch_add(1, Ordering::SeqCst) + 1);
        };
        match w.append_commit(&rec, || self.commit_seq.fetch_add(1, Ordering::SeqCst) + 1) {
            Ok((info, seq)) => {
                self.account_wal_append(info);
                Ok(seq)
            }
            Err(e) => {
                Stats::bump(&self.deps.stats.wal_io_errors);
                Err(SemccError::Durability(e.to_string()))
            }
        }
    }

    fn account_wal_append(&self, info: AppendInfo) {
        if info.appended {
            Stats::bump(&self.deps.stats.wal_appends);
            Stats::add(&self.deps.stats.wal_bytes, info.bytes as u64);
        }
        if info.synced {
            Stats::bump(&self.deps.stats.wal_fsyncs);
        }
        if info.durable && !info.synced {
            // A group-commit follower: durable on the back of a
            // concurrent leader's single fsync.
            Stats::bump(&self.deps.stats.wal_group_commits);
            if let Some(j) = &self.deps.journal {
                j.record(JournalKind::GroupCommit, 0, 0, 0, 0, info.lsn, 0);
            }
        }
        if info.rotated {
            Stats::bump(&self.deps.stats.wal_segments_rotated);
            if let Some(j) = &self.deps.journal {
                j.record(JournalKind::WalRotate, 0, 0, 0, 0, info.lsn, info.bytes as u64);
            }
        }
    }

    /// Abort-path append: a failure is counted but swallowed. The abort
    /// must run to completion regardless — a poisoned log already refuses
    /// every subsequent commit, so losing an abort-side record costs
    /// nothing recovery cannot reconstruct (an unresolved transaction is
    /// compensated from its logged intents).
    fn wal_append_quiet(&self, rec: WalRecord) {
        let _ = self.wal_append(rec);
    }

    /// Take a fuzzy checkpoint now: capture what the store changed since
    /// the previous checkpoint plus the live-transaction intent table
    /// (the only step that stops other transactions), assemble and
    /// persist the image on this thread while they keep committing, then
    /// retire the log segments sealed at the capture. If a
    /// cadence-triggered checkpoint is in flight on another thread, waits
    /// for it and then takes its own. Returns `Ok(true)` if a checkpoint
    /// was written, `Ok(false)` if there is no WAL, the storage cannot
    /// capture itself, or the writer is crashed; `Err` if the log is
    /// poisoned, a retained segment fails re-verification, or checkpoint
    /// I/O failed (which poisons it).
    pub fn checkpoint(&self) -> Result<bool> {
        self.checkpoint_with(true)
    }

    /// Automatic checkpoint trigger, run after a transaction resolves
    /// (no locks held); skipped while another checkpoint is in flight.
    /// Errors are swallowed: a poisoned log surfaces through the next
    /// commit's typed durability error, not here.
    fn maybe_checkpoint(&self) {
        if self.wal.as_ref().is_some_and(|w| w.wants_checkpoint()) {
            let _ = self.checkpoint_with(false);
        }
    }

    /// `wait`: queue behind a checkpoint in flight instead of skipping.
    fn checkpoint_with(&self, wait: bool) -> Result<bool> {
        let Some(w) = &self.wal else { return Ok(false) };
        // Journalled from inside the cut, so only a checkpoint that won
        // the single flight on a healthy log leaves a `CheckpointBegin`.
        let capture = |since| {
            if let Some(j) = &self.deps.journal {
                j.record(JournalKind::CheckpointBegin, 0, 0, 0, 0, 0, 0);
            }
            self.storage.checkpoint_delta(since)
        };
        let taken = if wait { w.checkpoint(capture) } else { w.try_checkpoint(capture) };
        match taken {
            Ok(Some(outcome)) => {
                Stats::bump(&self.deps.stats.checkpoints);
                if let Some(j) = &self.deps.journal {
                    j.record(
                        JournalKind::CheckpointEnd,
                        0,
                        0,
                        0,
                        0,
                        outcome.cp_lsn,
                        outcome.bytes_dropped as u64,
                    );
                }
                Ok(true)
            }
            Ok(None) => Ok(false),
            Err(e) => {
                Stats::bump(&self.deps.stats.wal_io_errors);
                Err(SemccError::Durability(e.to_string()))
            }
        }
    }

    /// Execute a top-level transaction: commit on `Ok`, abort with
    /// compensation on `Err` (the error is passed through). A panicking
    /// program is contained: it aborts with
    /// [`SemccError::MethodPanicked`] like any other failure.
    pub fn execute(&self, prog: &dyn TransactionProgram) -> Result<TxnOutcome> {
        self.execute_collecting(prog, None).1.map(|(outcome, _)| outcome)
    }

    /// Execute a transaction as an **open-nested piece** of a larger
    /// (distributed) transaction: on commit, additionally return the
    /// accumulated compensation intent — the inverse invocations that
    /// would undo the piece's now-exposed effects. A coordinator that
    /// commits shard-local pieces early (retained semantic locks covering
    /// the cross-shard window, paper Section 3/4 lifted one level up) uses
    /// this to compensate a committed piece if the *global* transaction
    /// later aborts. Read-only snapshot commits return an empty intent.
    ///
    /// The **prepare hook** runs after the program body succeeds but
    /// *before* the local commit record is written: the callback sees the
    /// piece's `TopId` and its accumulated compensation intent. A
    /// distributed participant durably logs its prepare record
    /// (gtid → compensation) here, guaranteeing the write-ordering
    /// invariant *prepare-record ⟶ local commit*: a crash between the two
    /// leaves a loser that generic recovery rolls back, never a committed
    /// piece the coordinator cannot later compensate. A callback `Err`
    /// aborts the piece through the normal compensation path.
    pub fn execute_open_prepared(
        &self,
        prog: &dyn TransactionProgram,
        prepare: PrepareHook<'_>,
    ) -> (TopId, Result<(TxnOutcome, Vec<Invocation>)>) {
        self.execute_collecting(prog, Some(prepare))
    }

    /// The one execution path. Also returns the attempt's `TopId` when it
    /// aborted (the retry loop keys its backoff on it).
    fn execute_collecting(
        &self,
        prog: &dyn TransactionProgram,
        prepare: Option<PrepareHook<'_>>,
    ) -> (TopId, Result<(TxnOutcome, Vec<Invocation>)>) {
        // Degraded mode: once the log is poisoned (an I/O fault made
        // durability unprovable), no transaction that would need a log
        // record may run. Under `WalFailMode::ReadOnly`, programs declared
        // read-only still execute on the lock-free snapshot path — it
        // writes nothing to the log — but a promotion (the program tried
        // to write after all) fails with the same typed error instead of
        // falling through to the locking path. `FailStop` refuses
        // everything.
        if let Some(w) = &self.wal {
            if let Some(err) = w.poisoned() {
                if w.fail_mode() == WalFailMode::ReadOnly
                    && self.snapshot_enabled
                    && prog.read_only_hint()
                {
                    if let Some((top, done)) = self.execute_snapshot(prog) {
                        return (top, done.map(|o| (o, Vec::new())));
                    }
                }
                let top = self.deps.registry.allocate_top();
                let reason = SemccError::Durability(format!("write-ahead log poisoned: {err}"));
                self.deps.sink.record(Event::TopBegin { top, label: prog.label() });
                self.deps.sink.record(Event::TopAbort { top, reason: reason.to_string() });
                return (top, Err(reason));
            }
        }
        if self.snapshot_enabled && prog.read_only_hint() {
            if let Some((top, done)) = self.execute_snapshot(prog) {
                return (top, done.map(|o| (o, Vec::new())));
            }
            // Ineligible or validation failed: promote to the ordinary
            // locking path below (a fresh top-level transaction).
            Stats::bump(&self.deps.stats.snapshot_retries);
        }
        let tree = self.deps.registry.begin();
        let top = tree.top();
        self.deps.sink.record(Event::TopBegin { top, label: prog.label() });
        let shared = Arc::new(TxnShared {
            tree: Arc::clone(&tree),
            created: Mutex::new(Vec::new()),
            written: Mutex::new(Vec::new()),
            wal_alias: None,
            escrow_pos: Mutex::new(Vec::new()),
        });
        // Backstop containment: if anything below unwinds past the
        // commit/abort calls (e.g. a panic inside the abort path itself),
        // the guard still releases locks, finishes the registry entry and
        // wakes waiters before the panic propagates.
        let mut guard = AbortGuard { engine: self, shared: Arc::clone(&shared), armed: true };
        let mut ctx = ExecCtx {
            engine: self,
            shared: Arc::clone(&shared),
            node_idx: 0,
            subtree: 0,
            stash: Vec::new(),
            comp: Vec::new(),
            compensating: false,
        };
        let run = catch_unwind(AssertUnwindSafe(|| prog.run(&mut ctx)));
        let run = run.unwrap_or_else(|payload| {
            Stats::bump(&self.deps.stats.caught_panics);
            Err(SemccError::MethodPanicked(panic_message(payload)))
        });
        let result = match run {
            // Commit can fail at its durability point (the `TopCommit`
            // append hit a poisoned log): the transaction then aborts
            // through the ordinary compensation path — its effects are
            // undone under the locking discipline and it is *not*
            // acknowledged, upholding acked ⇒ durable.
            Ok(value) => {
                let prepared = match prepare {
                    Some(hook) => hook(top, &ctx.comp),
                    None => Ok(()),
                };
                match prepared.and_then(|()| self.commit(top, &shared)) {
                    Ok(seq) => Ok((
                        TxnOutcome { top, value, snapshot: false, commit_seq: seq },
                        std::mem::take(&mut ctx.comp),
                    )),
                    Err(e) => {
                        let comp = std::mem::take(&mut ctx.comp);
                        self.abort(top, &shared, comp, &e);
                        Err(e)
                    }
                }
            }
            Err(e) => {
                let comp = std::mem::take(&mut ctx.comp);
                self.abort(top, &shared, comp, &e);
                Err(e)
            }
        };
        guard.armed = false;
        self.maybe_checkpoint();
        (top, result)
    }

    /// Execute with automatic retry on contention aborts (deadlock victim
    /// or lock-wait timeout). Returns the outcome and the number of
    /// aborted attempts.
    pub fn execute_with_retry(
        &self,
        prog: &dyn TransactionProgram,
        max_retries: u32,
    ) -> (Result<TxnOutcome>, u32) {
        let mut retries = 0;
        loop {
            let (top, result) = self.execute_collecting(prog, None);
            match result {
                Err(ref e) if e.is_retryable() && retries < max_retries => {
                    retries += 1;
                    Stats::bump(&self.deps.stats.txn_retries);
                    self.retry_backoff(top.0, retries);
                }
                other => return (other.map(|(outcome, _)| outcome), retries),
            }
        }
    }

    /// Attempt a read-only program on the lock-free snapshot read path:
    /// no lock-table entries, no waits-for edges, no WAL records. Every
    /// leaf read records the object's version stamp; at commit the read
    /// set is validated (stamps unchanged, no write intent), which proves
    /// the observed state equals the current committed state — i.e. the
    /// effects of exactly the writers with a smaller commit-order number.
    ///
    /// Returns `None` to *promote*: the program attempted a write or an
    /// object creation, an invoked method is not a declared pure reader,
    /// an object moved between reads, the program failed or panicked, or
    /// commit-time validation failed. A promoted attempt leaves no
    /// observable trace (no sink events, no WAL records) — the locking
    /// re-run is the transaction.
    fn execute_snapshot(
        &self,
        prog: &dyn TransactionProgram,
    ) -> Option<(TopId, Result<TxnOutcome>)> {
        // No tree, no registry entry: a snapshot transaction holds no
        // locks, so nothing ever queries its status or waits on its nodes
        // (see `Registry::allocate_top`).
        let top = self.deps.registry.allocate_top();
        self.journal_record(JournalKind::SnapshotBegin, NodeRef::root(top), 0);
        // Quiescence token *before* the first read: if it is unchanged at
        // validation, the store proves the whole window mutation-free and
        // the per-object re-checks (one latch round trip each) are skipped.
        let quiesce = self.storage.quiesce_token();
        let mut ctx = SnapshotCtx {
            engine: self,
            selves: Vec::new(),
            reads: BTreeMap::new(),
            stash: Vec::new(),
            reads_done: 0,
            ineligible: false,
        };
        let run = catch_unwind(AssertUnwindSafe(|| prog.run(&mut ctx)));
        // One batched add per attempt: a per-read bump on the shared
        // counter line measurably serializes concurrent readers.
        Stats::add(&self.deps.stats.snapshot_reads, ctx.reads_done);
        let value = match run {
            // The sticky flag catches programs that swallowed an
            // ineligibility error: committing would drop the attempted
            // write silently.
            Ok(Ok(v)) if !ctx.ineligible => v,
            // Program error, write attempt, torn read or panic: promote.
            // (A panicking program panics again on the locking path,
            // where the panic is contained and counted as usual.)
            _ => {
                self.journal_record(JournalKind::SnapshotPromote, NodeRef::root(top), 0);
                return None;
            }
        };
        Stats::bump(&self.deps.stats.read_validations);
        let quiescent = quiesce.is_some() && self.storage.quiesce_token() == quiesce;
        let valid = quiescent
            || ctx.reads.iter().all(|(o, ver)| {
                matches!(
                    self.storage.object_version(*o),
                    Ok((cur, writers)) if cur == *ver && writers == 0
                )
            });
        if let Some(j) = &self.deps.journal {
            j.record(
                JournalKind::SnapshotValidate,
                top.0,
                0,
                0,
                0,
                ctx.reads.len() as u64,
                u64::from(valid),
            );
        }
        if !valid {
            Stats::bump(&self.deps.stats.read_validation_failures);
            self.journal_record(JournalKind::SnapshotPromote, NodeRef::root(top), 1);
            return None;
        }
        // Serialization point: validation just proved the read set equals
        // the committed state, so the reader orders after exactly the
        // writers numbered below `seq` (writers draw their number before
        // releasing write intents).
        let seq = self.commit_seq.fetch_add(1, Ordering::SeqCst) + 1;
        // The event trace is emitted only now, and without per-read leaf
        // actions: the reader serializes at its validation point, which
        // the interleaved event order cannot express. The sim crate's
        // `check_snapshot_reads` validates snapshot transactions against
        // the commit order instead of the event graph.
        self.deps.sink.record(Event::TopBegin { top, label: prog.label() });
        Stats::bump(&self.deps.stats.commits);
        self.deps.sink.record(Event::TopCommit { top });
        self.journal_record(JournalKind::TopCommit, NodeRef::root(top), 0);
        Some((top, Ok(TxnOutcome { top, value, snapshot: true, commit_seq: seq })))
    }

    /// Run a batch of compensating invocations as one top-level
    /// transaction — the recovery module's way of aborting a loser "via
    /// compensation, driven from the log". `intents` is the loser's
    /// logged compensation intent in chronological order; execution
    /// reverses it and acquires every lock through the normal Figure-9
    /// path (`compensating = true`), exactly like an in-process abort.
    /// Returns the number of compensating invocations executed.
    pub fn compensate_transaction(&self, intents: Vec<Invocation>) -> Result<usize> {
        self.compensate_transaction_as(intents, None)
    }

    /// [`Engine::compensate_transaction`] with a WAL alias: every record
    /// the wrapper logs (`CompRedo`, `CompApplied`) carries `alias`'s
    /// transaction id instead of the wrapper's own, and the wrapper logs
    /// no resolution record of its own. Recovery uses this so that a
    /// crash *during* recovery leaves a log in which the loser's abort
    /// progress is attributed to the loser — the next pass resumes it
    /// exactly like a crash during an in-process abort.
    pub fn compensate_transaction_as(
        &self,
        intents: Vec<Invocation>,
        alias: Option<u64>,
    ) -> Result<usize> {
        let n = intents.len();
        let tree = self.deps.registry.begin();
        let top = tree.top();
        self.deps.sink.record(Event::TopBegin { top, label: "recovery-compensation".into() });
        let shared = Arc::new(TxnShared {
            tree: Arc::clone(&tree),
            created: Mutex::new(Vec::new()),
            written: Mutex::new(Vec::new()),
            wal_alias: alias,
            escrow_pos: Mutex::new(Vec::new()),
        });
        let mut guard = AbortGuard { engine: self, shared: Arc::clone(&shared), armed: true };
        let result = match self.compensate_list(&shared, intents, true) {
            // An aliased commit appends nothing, so it cannot fail; an
            // unaliased one can (poisoned log) and falls to the abort arm.
            Ok(()) => self.commit(top, &shared).map(|_| n),
            Err(e) => {
                self.abort(top, &shared, Vec::new(), &e);
                Err(e)
            }
        };
        guard.armed = false;
        result
    }

    /// Default hard ceiling on any single backoff sleep, whatever the
    /// attempt count or configured base: a budget of 1000 compensation
    /// retries must stay in seconds, not minutes. Configurable per engine
    /// via [`ProtocolConfig::max_backoff_us`].
    pub const MAX_BACKOFF: Duration = Duration::from_millis(5);

    /// Sleep out the [`backoff_duration`] of this engine's base and
    /// ceiling before retry number `attempt` (of a transaction, seeded by
    /// its `TopId`, or of one compensating invocation).
    fn retry_backoff(&self, seed: u64, attempt: u32) {
        std::thread::sleep(backoff_duration(
            self.comp_retry_backoff,
            seed,
            attempt,
            self.max_backoff,
        ));
    }

    fn commit(&self, top: TopId, shared: &Arc<TxnShared>) -> Result<u64> {
        let tree = &shared.tree;
        // Speculative grants recorded abort-dependencies: we must not become
        // durable while a subtransaction we read past is still undecided. If
        // it aborted (or the wait times out on a commit-wait cycle), this
        // transaction cascade-aborts through the ordinary compensation path.
        if let Err(holder) = self.deps.dep_graph.wait_commit(top) {
            Stats::bump(&self.deps.stats.cascade_aborts);
            if let Some(j) = &self.deps.journal {
                let h = holder.unwrap_or(NodeRef::root(top));
                j.record(JournalKind::CascadeAbort, top.0, 0, h.top.0, h.idx, 0, 0);
            }
            return Err(match holder {
                Some(h) => SemccError::CascadeAborted(format!(
                    "depended-on subtransaction {}/{} aborted",
                    h.top.0, h.idx
                )),
                None => SemccError::CascadeAborted(
                    "abort-dependency wait timed out (commit-wait cycle)".into(),
                ),
            });
        }
        // Durability point: the commit record must reach the log *before*
        // any lock is released (a crash after release but before the
        // record would let dependents of an officially-uncommitted
        // transaction commit). With `FsyncPolicy::OnCommit` this append
        // is also the group fsync. A failure here (poisoned log) fails
        // the commit itself — the caller aborts with compensation, so no
        // transaction is ever acknowledged without a durable record.
        // Recovery's aliased wrappers skip this: the loser's resolution
        // is recovery's to log.
        // Draw the commit-order number *before* releasing write intents: a
        // snapshot reader that later validates against our effects
        // (observing `writers == 0`) is then guaranteed a larger number.
        // With a log attached the number is drawn *inside* the append,
        // under the log's state lock, so durable commit order (LSN order)
        // and validation order agree even across a group-commit batch.
        let seq = if shared.wal_alias.is_none() {
            self.wal_append_commit(WalRecord::TopCommit { top: top.0 })?
        } else {
            self.commit_seq.fetch_add(1, Ordering::SeqCst) + 1
        };
        self.release_write_intents(shared);
        self.release_escrow(shared);
        // Release every lock first (wakes waiters into a world without our
        // entries), then mark the root committed and notify.
        self.discipline.top_finished(top);
        tree.complete(0);
        self.deps.dep_graph.node_done(NodeRef::root(top), true);
        self.deps.hub.node_finished(NodeRef::root(top));
        self.deps.registry.remove(top);
        self.deps.wfg.finished(top);
        self.deps.dep_graph.clear(top);
        Stats::bump(&self.deps.stats.commits);
        self.deps.sink.record(Event::TopCommit { top });
        self.journal_record(JournalKind::TopCommit, NodeRef::root(top), 0);
        Ok(seq)
    }

    /// Release every write intent this transaction declared (best-effort;
    /// objects may have been garbage-collected by an abort).
    fn release_write_intents(&self, shared: &Arc<TxnShared>) {
        let written = std::mem::take(&mut *shared.written.lock());
        for o in written {
            self.storage.end_object_write(o);
        }
    }

    /// Drop this transaction's pending escrow contributions from the
    /// engine-wide ledger. At commit the deltas are part of the committed
    /// value; at abort the compensations (which bypass the ledger) have
    /// already restored the store — either way the reservations must go,
    /// exactly once. Idempotent: the take empties the per-txn list.
    fn release_escrow(&self, shared: &Arc<TxnShared>) {
        let pos = std::mem::take(&mut *shared.escrow_pos.lock());
        if pos.is_empty() {
            return;
        }
        let mut ledger = self.escrow.lock();
        for (obj, delta) in pos {
            if let Some(p) = ledger.get_mut(&obj) {
                *p -= delta;
                if *p <= 0 {
                    ledger.remove(&obj);
                }
            }
        }
    }

    fn abort(
        &self,
        top: TopId,
        shared: &Arc<TxnShared>,
        comp: Vec<Invocation>,
        reason: &SemccError,
    ) {
        self.deps.wfg.begin_abort(top);
        Stats::bump(&self.deps.stats.aborts);

        // Compensate committed top-level children (and, transitively,
        // whatever they inherited), newest first. Failures here indicate a
        // schema without proper inverses (or an injected chaos fault); they
        // are surfaced in the event stream but cannot stop the abort.
        if let Err(e) = self.compensate_list(shared, comp, true) {
            self.deps.sink.record(Event::CompensationFailure {
                top,
                error: e.to_string(),
                original: reason.to_string(),
            });
        }

        // The compensations above restored any escrow effects in the store,
        // so the ledger reservations come off only now — releasing earlier
        // would let a concurrent guard count value this abort is still about
        // to take back.
        self.release_escrow(shared);

        // Garbage-collect objects created by this transaction.
        let created = std::mem::take(&mut *shared.created.lock());
        for obj in created.into_iter().rev() {
            let _ = self.storage.delete(obj);
        }

        // The abort is fully compensated. Recovery still replays this
        // transaction's forward *and* compensating effects (repeating
        // history keeps concurrently logged absolute values consistent)
        // but, seeing this record, runs no further compensation. A crash
        // before this record instead treats the transaction as a loser and
        // finishes the abort from the logged intents, minus the ones the
        // `CompApplied` markers show were already applied. The append is
        // quiet — losing it degrades a resolved abort into a loser, which
        // recovery handles — and aliased wrappers skip it entirely.
        if shared.wal_alias.is_none() {
            self.wal_append_quiet(WalRecord::TopAbort { top: top.0 });
        }

        // Write intents cover the compensations just executed, so they are
        // only released now — a snapshot reader that observed any of this
        // transaction's effects (forward or compensating) must have failed
        // validation while the abort was in flight.
        self.release_write_intents(shared);

        // Release locks, then mark every still-active node aborted.
        self.discipline.top_finished(top);
        for idx in shared.tree.active_nodes() {
            shared.tree.abort(idx);
            self.deps.dep_graph.node_done(NodeRef { top, idx }, false);
            self.deps.hub.node_finished(NodeRef { top, idx });
        }
        self.deps.registry.remove(top);
        self.deps.wfg.finished(top);
        self.deps.dep_graph.clear(top);
        self.deps.sink.record(Event::TopAbort { top, reason: reason.to_string() });
        self.journal_record(JournalKind::TopAbort, NodeRef::root(top), 0);
    }

    /// Execute compensations in reverse chronological order, retrying on
    /// contention aborts (deadlock victim or lock-wait timeout).
    /// `log_progress` appends a `CompApplied` marker per applied inverse —
    /// set only by *top-level* aborts, whose intent list is what recovery
    /// reconstructs from `SubCommit` records; intra-subtransaction
    /// rollbacks must not inflate the marker count.
    fn compensate_list(
        &self,
        shared: &Arc<TxnShared>,
        comp: Vec<Invocation>,
        log_progress: bool,
    ) -> Result<()> {
        for inv in comp.into_iter().rev() {
            let mut attempts = 0;
            loop {
                self.deps.sink.record(Event::Compensate {
                    top: shared.tree.top(),
                    inv: Arc::new(inv.clone()),
                });
                Stats::bump(&self.deps.stats.compensations);
                if let Some(j) = &self.deps.journal {
                    j.record(
                        JournalKind::Compensation,
                        shared.tree.top().0,
                        0,
                        0,
                        0,
                        inv.object.0,
                        u64::from(attempts),
                    );
                }
                // An injected compensation fault is transient (a crashed
                // page write, say), so it takes the same arm as a
                // contention abort below: the recovery path exercises
                // `CompensationFailure` without being structurally
                // excluded from faults, and only a fault on every retry
                // becomes terminal.
                let injected = self
                    .faults
                    .as_ref()
                    .is_some_and(|plan| plan.should_fire(FaultSite::Compensation));
                let run = if injected {
                    Err(SemccError::FaultInjected("compensation".into()))
                } else {
                    self.run_action(shared, 0, 0, inv.clone(), true)
                };
                match run {
                    Ok(_) => {
                        // Abort-progress marker: tells recovery how many of
                        // the loser's logged intents were already applied
                        // (the *last* k, since compensation runs newest
                        // first), so it only compensates the remainder.
                        // Quiet: abort progress lost to a poisoned log just
                        // means recovery re-runs an inverse it cannot know
                        // was applied.
                        if log_progress {
                            self.wal_append_quiet(WalRecord::CompApplied { top: shared.wal_top() });
                        }
                        break;
                    }
                    Err(e)
                        if (injected || e.is_retryable()) && attempts < self.comp_retry_limit =>
                    {
                        // Same seeded jittered backoff as the top-level
                        // retry path: colliding compensations (two aborts
                        // inverting the same object) must not retry in
                        // lockstep under contention.
                        attempts += 1;
                        Stats::bump(&self.deps.stats.compensation_retries);
                        self.retry_backoff(shared.tree.top().0 ^ inv.object.0, attempts);
                    }
                    Err(e) => {
                        return Err(SemccError::CompensationFailed(format!("{inv}: {e}")));
                    }
                }
            }
        }
        Ok(())
    }

    /// Execute one action (create node → acquire lock → run → complete).
    /// Returns the result value and the compensation entries the parent
    /// must record for this (now committed) child. `caller_subtree` is the
    /// depth-1 ancestor's node index (0 at the root), threaded down so WAL
    /// records can tag every leaf with the subtree whose `SubCommit`
    /// governs its redo.
    fn run_action(
        &self,
        shared: &Arc<TxnShared>,
        parent: u32,
        caller_subtree: u32,
        inv: Invocation,
        compensating: bool,
    ) -> Result<(Value, Vec<Invocation>)> {
        let tree = &shared.tree;
        let top = tree.top();
        let inv = Arc::new(inv);
        let child = tree.add_child(parent, Arc::clone(&inv));
        // A direct child of the root *is* a depth-1 subtree root.
        let subtree = if parent == 0 { child } else { caller_subtree };
        let node = NodeRef { top, idx: child };
        self.deps.sink.record(Event::ActionStart {
            node,
            parent: NodeRef { top, idx: parent },
            inv: Arc::clone(&inv),
        });

        let chain = tree.chain(child);
        let is_leaf = inv.method.is_generic();
        let writes = inv.method.as_generic().map(|g| g.is_update()).unwrap_or(true);
        let page = if is_leaf { self.storage.page_of(inv.object).ok() } else { None };

        let _grant: GrantInfo = match self.discipline.acquire(AcquireRequest {
            node,
            inv: &inv,
            chain: &chain,
            is_leaf,
            writes,
            page,
            compensating,
        }) {
            Ok(g) => g,
            Err(e) => {
                tree.abort(child);
                self.deps.dep_graph.node_done(node, false);
                self.deps.hub.node_finished(node);
                return Err(e);
            }
        };

        // First mutating leaf on this object: declare write intent so
        // concurrent snapshot readers fail validation until the top-level
        // transaction finishes. Skipped when the storage keeps no stamps.
        if is_leaf && writes && self.snapshot_enabled {
            let mut written = shared.written.lock();
            if !written.contains(&inv.object) && self.storage.begin_object_write(inv.object).is_ok()
            {
                written.push(inv.object);
            }
        }

        let result = match inv.method {
            MethodSel::Generic(g) => {
                // The leaf's store mutation and its redo record form one
                // atomic unit with respect to the checkpointer: the
                // barrier's read side is held across both, so a fuzzy
                // checkpoint sees either (effect in dump, record below
                // `cp_lsn`) or neither — never a dumped effect whose
                // record survives to be replayed twice, nor a logged
                // record whose effect the dump missed. The record is
                // logged *before* the leaf's lock is released, so the
                // log's order respects the store's conflict order.
                // Compensating leaf effects are logged as `CompRedo` (the
                // logical CLR): recovery repeats history — forward
                // effects and compensations alike — because absolute leaf
                // values embed the effects of concurrently exposed work
                // that a later compensation undid.
                let applied = {
                    let _cp = self.wal.as_ref().map(|w| w.checkpoint_guard());
                    match self.apply_generic(shared, node, &inv, g, compensating) {
                        Ok((value, comp)) => {
                            let logged = match Self::redo_of(&inv) {
                                Some(op) if writes && compensating => {
                                    // Quiet: a lost CLR means recovery
                                    // re-derives this inverse from the
                                    // intent list instead of replaying it.
                                    self.wal_append_quiet(WalRecord::CompRedo {
                                        top: shared.wal_top(),
                                        op,
                                    });
                                    Ok(())
                                }
                                Some(op) if writes => {
                                    self.wal_append(WalRecord::LeafRedo { top: top.0, subtree, op })
                                }
                                _ => Ok(()),
                            };
                            match logged {
                                Ok(()) => Ok((value, comp)),
                                Err(e) => Err((e, comp)),
                            }
                        }
                        Err(e) => Err((e, Vec::new())),
                    }
                };
                // Guard dropped before any compensation below re-enters
                // `run_action` (and the barrier).
                applied.map_err(|(e, comp)| {
                    // The mutation hit the store but its record will never
                    // hit the log: undo it inline via the leaf's built-in
                    // inverse (best-effort — the transaction is aborting
                    // with a durability error regardless).
                    let _ = self.compensate_list(shared, comp, false);
                    e
                })
            }
            MethodSel::User(m) => {
                self.run_user_method(shared, child, subtree, &inv, m, compensating)
            }
        };

        match result {
            Ok((value, comp)) => {
                if self.wal.is_some() {
                    let rec = if parent == 0 && !compensating {
                        // The depth-1 subtransaction committed: persist its
                        // compensation intent (the paper's inverse
                        // invocations) as the logical undo record.
                        Some(WalRecord::SubCommit {
                            top: top.0,
                            subtree: child,
                            comp: comp.clone(),
                        })
                    } else if !compensating
                        && !comp.is_empty()
                        && matches!(inv.method, MethodSel::User(_))
                    {
                        // A deeper user-method subtransaction committed:
                        // completing it below retains its locks, which is
                        // the moment commuting requestors may observe its
                        // effects (and embed them in absolute leaf values
                        // they log). The undo intent must therefore be
                        // durable *now* — the enclosing subtree's
                        // `SubCommit`, which aggregates it, may never reach
                        // the log if we crash mid-subtree. Generic leaves
                        // get no early record: one record per exposed
                        // method, not per leaf. That is sound as long as
                        // leaf writes whose method ancestors commute (the
                        // only grants that expose a leaf early) happen
                        // inside user submethods — true of the order-entry
                        // matrices, where every absorbable write path runs
                        // through `ChangeStatus`.
                        Some(WalRecord::SubIntent { top: top.0, subtree, comp: comp.clone() })
                    } else {
                        None
                    };
                    if let Some(rec) = rec {
                        if let Err(e) = self.wal_append(rec) {
                            // The subtransaction's effects are in the store
                            // but its undo intent will never be durable:
                            // reverse them inline (best-effort) before
                            // failing the node with the durability error.
                            let _ = self.compensate_list(shared, comp, false);
                            tree.abort(child);
                            self.deps.dep_graph.node_done(node, false);
                            self.deps.hub.node_finished(node);
                            return Err(e);
                        }
                    }
                }
                tree.complete(child);
                self.discipline.node_completed(tree, child);
                // A committed subtransaction resolves its speculative
                // dependents safely: the grant has become an ordinary
                // Case 1 (committed commutative ancestor).
                self.deps.dep_graph.node_done(node, true);
                self.deps.hub.node_finished(node);
                self.deps.sink.record(Event::ActionComplete { node });
                self.journal_record(JournalKind::SubCommit, node, 0);
                Ok((value, comp))
            }
            Err(e) => {
                tree.abort(child);
                self.deps.dep_graph.node_done(node, false);
                self.deps.hub.node_finished(node);
                Err(e)
            }
        }
    }

    /// The redo record of a committed generic update, derived from the
    /// invocation itself (the store applies exactly these arguments).
    /// `Remove` is logged even when the key was absent — replaying it is a
    /// no-op, matching the original execution.
    fn redo_of(inv: &Invocation) -> Option<RedoOp> {
        match inv.method.as_generic()? {
            GenericMethod::Put => {
                Some(RedoOp::Put { obj: inv.object, value: inv.arg(0).ok()?.clone() })
            }
            GenericMethod::Insert => Some(RedoOp::Insert {
                set: inv.object,
                key: inv.arg_key(0).ok()?,
                member: inv.arg_id(1).ok()?,
            }),
            GenericMethod::Remove => {
                Some(RedoOp::Remove { set: inv.object, key: inv.arg_key(0).ok()? })
            }
            GenericMethod::EscrowAdd => {
                // Delta-logged: replay re-applies the increment on top of
                // whatever absolute value earlier records produced, which is
                // exactly repeating history.
                Some(RedoOp::EscrowAdd { obj: inv.object, delta: inv.arg_int(0).ok()? })
            }
            GenericMethod::Get | GenericMethod::Select | GenericMethod::Scan => None,
        }
    }

    fn run_user_method(
        &self,
        shared: &Arc<TxnShared>,
        child: u32,
        subtree: u32,
        inv: &Arc<Invocation>,
        m: semcc_semantics::MethodId,
        compensating: bool,
    ) -> Result<(Value, Vec<Invocation>)> {
        let (body, compensation) = {
            let def = self.catalog.method_def(inv.type_id, m)?;
            let body = def
                .body
                .clone()
                .ok_or_else(|| SemccError::Internal(format!("method {} has no body", def.name)))?;
            (body, def.compensation.clone())
        };
        let mut ctx = ExecCtx {
            engine: self,
            shared: Arc::clone(shared),
            node_idx: child,
            subtree,
            stash: Vec::new(),
            comp: Vec::new(),
            compensating,
        };
        // Contain panics at the method boundary: a panicking body (the
        // fault plan's injected panics included) becomes an ordinary
        // `MethodPanicked` abort whose committed children are compensated
        // below, exactly like any other failing method.
        let run = catch_unwind(AssertUnwindSafe(|| {
            // Body panics model buggy *application* logic, so they fire
            // only on forward execution. Compensating bodies run the
            // system's own inverses — their fault knob is the dedicated
            // (and retried) `compensation_error`, injected in
            // `compensate_list`; a non-retryable panic there would wedge
            // the abort in a state no audit can reconcile.
            if !compensating {
                if let Some(plan) = &self.faults {
                    if plan.should_fire(FaultSite::MethodBody) {
                        injected_panic("method-body");
                    }
                }
            }
            body.run(&mut ctx, inv)
        }));
        let run = run.unwrap_or_else(|payload| {
            Stats::bump(&self.deps.stats.caught_panics);
            Err(SemccError::MethodPanicked(panic_message(payload)))
        });
        match run {
            Ok(ret) => {
                let comp = if compensating {
                    Vec::new()
                } else {
                    match &compensation {
                        // The method declares its own (semantic) inverse —
                        // it supersedes the children's compensations.
                        Some(f) => f(inv, &ret, &ctx.stash).into_iter().collect(),
                        // No declared inverse: inherit the children's
                        // compensations (structural compensation).
                        None => ctx.comp,
                    }
                };
                Ok((ret, comp))
            }
            Err(e) => {
                // Eagerly roll back the partial subtransaction: compensate
                // its committed children before propagating the error.
                if !compensating && e.is_abort() {
                    self.deps.wfg.begin_abort(shared.tree.top());
                }
                if !compensating {
                    let partial = std::mem::take(&mut ctx.comp);
                    if let Err(ce) = self.compensate_list(shared, partial, false) {
                        // Surface *both* failures: the compensation error
                        // is chained onto the original abort cause instead
                        // of shadowing it.
                        self.deps.sink.record(Event::CompensationFailure {
                            top: shared.tree.top(),
                            error: ce.to_string(),
                            original: e.to_string(),
                        });
                        let detail = match ce {
                            SemccError::CompensationFailed(m) => m,
                            other => other.to_string(),
                        };
                        return Err(SemccError::CompensationFailed(format!(
                            "{detail}; original abort cause: {e}"
                        )));
                    }
                }
                Err(e)
            }
        }
    }

    /// Apply a generic (leaf) operation to the store, producing its
    /// built-in compensation.
    fn apply_generic(
        &self,
        shared: &Arc<TxnShared>,
        node: NodeRef,
        inv: &Invocation,
        g: GenericMethod,
        compensating: bool,
    ) -> Result<(Value, Vec<Invocation>)> {
        if !self.op_delay.is_zero() {
            // Simulated page access, while the leaf's lock is held.
            std::thread::sleep(self.op_delay);
        }
        let obj = inv.object;
        match g {
            GenericMethod::Get => Ok((self.storage.get(obj)?, Vec::new())),
            GenericMethod::Put => {
                let new = inv.arg(0)?.clone();
                let old = self.storage.put(obj, new)?;
                Ok((Value::Unit, vec![Invocation::put(obj, inv.type_id, old)]))
            }
            GenericMethod::Select => {
                let key = inv.arg_key(0)?;
                let found = self.storage.set_select(obj, key)?;
                Ok((found.map(Value::Id).unwrap_or(Value::Unit), Vec::new()))
            }
            GenericMethod::Insert => {
                let key = inv.arg_key(0)?;
                let member = inv.arg_id(1)?;
                self.storage.set_insert(obj, key, member)?;
                Ok((Value::Unit, vec![Invocation::remove(obj, inv.type_id, key)]))
            }
            GenericMethod::Remove => {
                let key = inv.arg_key(0)?;
                let removed = self.storage.set_remove(obj, key)?;
                let comp = removed
                    .map(|m| Invocation::insert(obj, inv.type_id, key, m))
                    .into_iter()
                    .collect();
                Ok((removed.map(Value::Id).unwrap_or(Value::Unit), comp))
            }
            GenericMethod::Scan => {
                let pairs = self.storage.set_scan(obj)?;
                let list = pairs
                    .into_iter()
                    .map(|(k, m)| Value::List(vec![Value::Int(k as i64), Value::Id(m)]))
                    .collect();
                Ok((Value::List(list), Vec::new()))
            }
            GenericMethod::EscrowAdd => {
                let delta = inv.arg_int(0)?;
                // The ledger mutex is held across the read-modify-write:
                // commuting EscrowAdds hold their semantic locks
                // concurrently, so this is their only serialization point.
                let mut ledger = self.escrow.lock();
                let cur = match self.storage.get(obj)? {
                    Value::Int(i) => i,
                    other => {
                        return Err(SemccError::EscrowViolation(format!(
                            "escrow target {obj:?} holds non-integer {other:?}"
                        )))
                    }
                };
                // Guard against the *worst-case* value: every pending
                // positive delta (including our own earlier ones) might
                // still roll back. Compensations skip the guard — an
                // inverse must always succeed.
                if !compensating {
                    if let Ok(lo) = inv.arg_int(1) {
                        let pending = ledger.get(&obj).copied().unwrap_or(0);
                        if cur - pending + delta < lo {
                            return Err(SemccError::EscrowViolation(format!(
                                "escrow bound on {obj:?}: worst-case {} + {delta} < {lo}",
                                cur - pending
                            )));
                        }
                    }
                }
                self.storage.put(obj, Value::Int(cur + delta))?;
                if delta > 0 && !compensating {
                    *ledger.entry(obj).or_insert(0) += delta;
                    shared.escrow_pos.lock().push((obj, delta));
                }
                drop(ledger);
                Stats::bump(&self.deps.stats.escrow_grants);
                if let Some(j) = &self.deps.journal {
                    j.record(
                        JournalKind::EscrowGrant,
                        node.top.0,
                        node.idx,
                        0,
                        0,
                        obj.0,
                        delta as u64,
                    );
                }
                let comp = if compensating {
                    Vec::new()
                } else {
                    vec![Invocation::escrow_add(obj, inv.type_id, -delta)]
                };
                Ok((Value::Unit, comp))
            }
        }
    }
}

/// Exponential-backoff doubling stops here: shifting by more than the
/// attempt count's value width is undefined in release and a panic in
/// debug, and attempt counts run to the compensation-retry limit
/// (1000 by default) — far past the 63-bit shift width of `1u64 <<`.
const MAX_BACKOFF_SHIFT: u32 = 6;

/// Jittered, capped exponential backoff — the one retry backoff of the
/// workspace (engine retries and compensation retries, the fleet's rpc
/// link, the coordinator's whole-transaction retry). Deterministic for a
/// given seed (reproducible tests), decorrelated across competing
/// transactions, and bounded for *any* `attempt` value: the exponent
/// saturates at six doublings and the product at `cap`, jittered by a
/// factor uniform in [0.5, 1.5).
pub fn backoff_duration(base: Duration, seed: u64, attempt: u32, cap: Duration) -> Duration {
    let mut rng = StdRng::seed_from_u64(seed ^ u64::from(attempt));
    let exp = 1u64 << attempt.min(MAX_BACKOFF_SHIFT);
    // Cap *before* jittering so saturated retries stay decorrelated
    // instead of all sleeping the identical ceiling.
    let capped = (base.as_secs_f64() * exp as f64).min(cap.as_secs_f64());
    Duration::from_secs_f64(capped * (0.5 + rng.random::<f64>()))
}

/// RAII backstop for [`Engine::execute`]. Normal execution disarms
/// it after `commit`/`abort` ran; it only fires when the transaction
/// unwinds past both — a panic inside the abort/compensation path itself,
/// or an engine bug. It performs *hard containment*: no compensation (that
/// is what just failed), but locks are released, active nodes aborted,
/// waiters woken and the registry/WFG entries removed, so no other
/// transaction ever hangs on the wreck.
struct AbortGuard<'e> {
    engine: &'e Engine,
    shared: Arc<TxnShared>,
    armed: bool,
}

impl Drop for AbortGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let engine = self.engine;
        let top = self.shared.tree.top();
        Stats::bump(&engine.deps.stats.aborts);
        engine.release_write_intents(&self.shared);
        // No compensation ran (that is what just failed), so the store may
        // keep this transaction's escrow deltas; release the reservations
        // anyway — a leaked entry would depress the worst-case value of
        // the object forever.
        engine.release_escrow(&self.shared);
        engine.discipline.top_finished(top);
        for idx in self.shared.tree.active_nodes() {
            self.shared.tree.abort(idx);
            engine.deps.dep_graph.node_done(NodeRef { top, idx }, false);
            engine.deps.hub.node_finished(NodeRef { top, idx });
        }
        engine.deps.registry.remove(top);
        engine.deps.wfg.finished(top);
        engine.deps.dep_graph.clear(top);
        engine
            .deps
            .sink
            .record(Event::TopAbort { top, reason: "unwound past abort: hard containment".into() });
        engine.journal_record(JournalKind::TopAbort, NodeRef::root(top), 1);
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Engine(protocol = {})", self.protocol_name())
    }
}

/// The execution context of one action. Implements [`MethodContext`];
/// method bodies see only the trait.
struct ExecCtx<'e> {
    engine: &'e Engine,
    shared: Arc<TxnShared>,
    node_idx: u32,
    /// Depth-1 ancestor of this node (0 for the root context): the
    /// subtree tag of WAL records emitted below here.
    subtree: u32,
    stash: Vec<Value>,
    /// Compensations of committed children, chronological order.
    comp: Vec<Invocation>,
    compensating: bool,
}

impl MethodContext for ExecCtx<'_> {
    fn invoke(&mut self, inv: Invocation) -> Result<Value> {
        let (value, comp) = self.engine.run_action(
            &self.shared,
            self.node_idx,
            self.subtree,
            inv,
            self.compensating,
        )?;
        self.comp.extend(comp);
        Ok(value)
    }

    fn self_object(&self) -> ObjectId {
        self.shared.tree.invocation(self.node_idx).object
    }

    fn stash(&mut self, v: Value) {
        self.stash.push(v);
    }

    fn field(&self, obj: ObjectId, name: &str) -> Result<ObjectId> {
        self.engine.storage.field(obj, name)
    }

    fn type_of(&self, obj: ObjectId) -> Result<TypeId> {
        self.engine.storage.type_of(obj)
    }

    fn create_atomic(&mut self, v: Value) -> Result<ObjectId> {
        let log = self.engine.wal.is_some() && !self.compensating;
        let redo_value = log.then(|| v.clone());
        // Creation + redo record are one unit under the checkpoint
        // barrier, like any leaf write. An append failure leaves the
        // object in `created`, so the resulting abort deletes it.
        let _cp = log.then(|| self.engine.wal.as_ref().expect("log is on").checkpoint_guard());
        let id = self.engine.storage.create_atomic(semcc_semantics::TYPE_ATOMIC, v)?;
        if !self.compensating {
            self.shared.created.lock().push(id);
        }
        if let Some(value) = redo_value {
            self.engine.wal_append(WalRecord::LeafRedo {
                top: self.shared.tree.top().0,
                subtree: self.subtree,
                op: RedoOp::CreateAtomic { id, type_id: semcc_semantics::TYPE_ATOMIC, value },
            })?;
        }
        Ok(id)
    }

    fn create_tuple(
        &mut self,
        type_id: TypeId,
        fields: Vec<(String, ObjectId)>,
    ) -> Result<ObjectId> {
        let log = self.engine.wal.is_some() && !self.compensating;
        let redo_fields = log.then(|| fields.clone());
        let _cp = log.then(|| self.engine.wal.as_ref().expect("log is on").checkpoint_guard());
        let id = self.engine.storage.create_tuple(type_id, fields)?;
        if !self.compensating {
            self.shared.created.lock().push(id);
        }
        if let Some(fields) = redo_fields {
            self.engine.wal_append(WalRecord::LeafRedo {
                top: self.shared.tree.top().0,
                subtree: self.subtree,
                op: RedoOp::CreateTuple { id, type_id, fields },
            })?;
        }
        Ok(id)
    }

    fn create_set(&mut self) -> Result<ObjectId> {
        let log = self.engine.wal.is_some() && !self.compensating;
        let _cp = log.then(|| self.engine.wal.as_ref().expect("log is on").checkpoint_guard());
        let id = self.engine.storage.create_set(semcc_semantics::TYPE_SET)?;
        if !self.compensating {
            self.shared.created.lock().push(id);
            // No payload to clone here, so the `wal_append` no-op check
            // suffices.
            self.engine.wal_append(WalRecord::LeafRedo {
                top: self.shared.tree.top().0,
                subtree: self.subtree,
                op: RedoOp::CreateSet { id, type_id: semcc_semantics::TYPE_SET },
            })?;
        }
        Ok(id)
    }

    fn catalog(&self) -> &Catalog {
        &self.engine.catalog
    }
}

/// The execution context of the snapshot read path. Implements
/// [`MethodContext`] over versioned, lock-free storage reads: every leaf
/// read records the object's version stamp (first observation wins; a
/// re-read that sees a different stamp poisons the attempt), every write
/// or object creation poisons the attempt, and user methods are admitted
/// only when the router classifies them as pure readers. The engine
/// promotes a poisoned attempt to the ordinary locking path.
struct SnapshotCtx<'e> {
    engine: &'e Engine,
    /// Stack of `self` objects (innermost last; the DB object at depth 0).
    selves: Vec<ObjectId>,
    /// Read set: object → first-observed version stamp.
    reads: BTreeMap<ObjectId, u64>,
    stash: Vec<Value>,
    /// Leaf reads served, flushed to `Stats::snapshot_reads` in one add.
    reads_done: u64,
    /// Sticky: the program attempted something the snapshot path cannot
    /// do. Checked by the engine even when the program swallowed the
    /// error, because committing then would drop the attempted effect.
    ineligible: bool,
}

impl SnapshotCtx<'_> {
    fn poison(&mut self, msg: String) -> SemccError {
        self.ineligible = true;
        SemccError::SnapshotIneligible(msg)
    }

    /// Record `o`'s observed stamp, failing fast when a re-read proves the
    /// object moved mid-transaction (commit-time validation would fail
    /// against whichever stamp was kept, so don't run on).
    fn record(&mut self, o: ObjectId, ver: u64) -> Result<()> {
        use std::collections::btree_map::Entry;
        match self.reads.entry(o) {
            Entry::Vacant(e) => {
                e.insert(ver);
                Ok(())
            }
            Entry::Occupied(e) if *e.get() == ver => Ok(()),
            Entry::Occupied(_) => {
                Err(self.poison(format!("object {o:?} moved between snapshot reads")))
            }
        }
    }

    fn read_leaf(&mut self, inv: &Invocation, g: GenericMethod) -> Result<Value> {
        if !self.engine.op_delay.is_zero() {
            // Simulated page access, same as on the locking path — the
            // snapshot path skips the kernel, not the I/O.
            std::thread::sleep(self.engine.op_delay);
        }
        self.reads_done += 1;
        let storage = &self.engine.storage;
        match g {
            GenericMethod::Get => {
                let (v, ver) = storage.get_versioned(inv.object)?;
                self.record(inv.object, ver)?;
                Ok(v)
            }
            GenericMethod::Select => {
                let key = inv.arg_key(0)?;
                let (found, ver) = storage.set_select_versioned(inv.object, key)?;
                self.record(inv.object, ver)?;
                Ok(found.map(Value::Id).unwrap_or(Value::Unit))
            }
            GenericMethod::Scan => {
                let (pairs, ver) = storage.set_scan_versioned(inv.object)?;
                self.record(inv.object, ver)?;
                let list = pairs
                    .into_iter()
                    .map(|(k, m)| Value::List(vec![Value::Int(k as i64), Value::Id(m)]))
                    .collect();
                Ok(Value::List(list))
            }
            GenericMethod::Put
            | GenericMethod::Insert
            | GenericMethod::Remove
            | GenericMethod::EscrowAdd => {
                unreachable!("write leaves are rejected before dispatch")
            }
        }
    }
}

impl MethodContext for SnapshotCtx<'_> {
    fn invoke(&mut self, inv: Invocation) -> Result<Value> {
        match inv.method {
            MethodSel::Generic(g) => {
                if g.is_update() {
                    return Err(self.poison(format!("{} is an update", g.name())));
                }
                self.read_leaf(&inv, g)
            }
            MethodSel::User(m) => {
                if !self.engine.deps.router.is_pure_reader(&inv) {
                    let name = self
                        .engine
                        .catalog
                        .method_def(inv.type_id, m)
                        .map(|d| d.name.clone())
                        .unwrap_or_else(|_| format!("{m:?}"));
                    return Err(self.poison(format!("method {name} may update")));
                }
                let body = {
                    let def = self.engine.catalog.method_def(inv.type_id, m)?;
                    def.body.clone().ok_or_else(|| {
                        SemccError::Internal(format!("method {} has no body", def.name))
                    })?
                };
                self.selves.push(inv.object);
                let out = body.run(self, &inv);
                self.selves.pop();
                out
            }
        }
    }

    fn self_object(&self) -> ObjectId {
        self.selves.last().copied().unwrap_or(semcc_semantics::DB_OBJECT)
    }

    fn stash(&mut self, v: Value) {
        // Stashes feed compensation builders, which pure readers never
        // invoke; accept and ignore.
        self.stash.push(v);
    }

    fn field(&self, obj: ObjectId, name: &str) -> Result<ObjectId> {
        self.engine.storage.field(obj, name)
    }

    fn type_of(&self, obj: ObjectId) -> Result<TypeId> {
        self.engine.storage.type_of(obj)
    }

    fn create_atomic(&mut self, _v: Value) -> Result<ObjectId> {
        Err(self.poison("creates an object".into()))
    }

    fn create_tuple(&mut self, _t: TypeId, _f: Vec<(String, ObjectId)>) -> Result<ObjectId> {
        Err(self.poison("creates an object".into()))
    }

    fn create_set(&mut self) -> Result<ObjectId> {
        Err(self.poison("creates an object".into()))
    }

    fn catalog(&self) -> &Catalog {
        &self.engine.catalog
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite regression (PR 8): the exponential factor is a shift of
    /// the attempt count. Attempt counts at or beyond the shift width
    /// (the compensation-retry budget defaults to 1000) must neither
    /// panic nor overflow into a zero/huge sleep — the exponent saturates
    /// and the sleep is hard-capped.
    #[test]
    fn backoff_saturates_at_high_attempt_counts() {
        let base = Duration::from_micros(200);
        let cap = Engine::MAX_BACKOFF;
        let ceiling = Duration::from_secs_f64(cap.as_secs_f64() * 1.5);
        for attempt in [0, 1, MAX_BACKOFF_SHIFT, 63, 64, 65, 1000, u32::MAX] {
            let d = backoff_duration(base, 7, attempt, cap);
            assert!(d > Duration::ZERO, "attempt {attempt}: zero sleep");
            assert!(d <= ceiling, "attempt {attempt}: {d:?} above the jittered ceiling");
        }
        // Saturation: every attempt past the shift cap draws from the
        // same (capped) base, so only the jitter differs.
        let lo = Duration::from_secs_f64(cap.as_secs_f64() * 0.5);
        let d = backoff_duration(base, 7, u32::MAX, cap);
        assert!(d >= lo, "saturated backoff stays near the ceiling, got {d:?}");
    }

    /// The backoff stays deterministic per (seed, attempt) yet
    /// decorrelated across seeds — colliding compensations must not
    /// retry in lockstep.
    #[test]
    fn backoff_is_seeded_and_decorrelated() {
        let base = Duration::from_micros(200);
        let cap = Engine::MAX_BACKOFF;
        assert_eq!(
            backoff_duration(base, 42, 3, cap),
            backoff_duration(base, 42, 3, cap),
            "same seed and attempt must reproduce"
        );
        let distinct: std::collections::BTreeSet<Duration> =
            (0..16).map(|seed| backoff_duration(base, seed, 3, cap)).collect();
        assert!(distinct.len() > 8, "seeds must spread the jitter: {distinct:?}");
    }

    /// Satellite regression (PR 10): the configurable ceiling defaults to
    /// the historical constant, and a tightened ceiling actually lowers
    /// the worst-case sleep.
    #[test]
    fn backoff_ceiling_is_configurable() {
        assert_eq!(ProtocolConfig::semantic().max_backoff(), Engine::MAX_BACKOFF);
        let base = Duration::from_micros(200);
        let tight = Duration::from_micros(300);
        for attempt in [4, 10, 100] {
            let d = backoff_duration(base, 9, attempt, tight);
            assert!(d <= Duration::from_secs_f64(tight.as_secs_f64() * 1.5));
        }
    }
}
