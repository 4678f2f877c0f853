//! Assembling an [`Engine`].

use super::escrow::EscrowLedger;
use super::log::EngineLog;
use super::Engine;
use crate::config::ProtocolConfig;
use crate::deadlock::WaitsForGraph;
use crate::discipline::{Discipline, DisciplineDeps};
use crate::fault::FaultPlan;
use crate::history::{HistorySink, NullSink};
use crate::journal::EventJournal;
use crate::lock::SemanticLockManager;
use crate::notify::CompletionHub;
use crate::stats::Stats;
use crate::tree::Registry;
use crate::wal::WalWriter;
use semcc_semantics::{Catalog, Storage};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

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
    lock_wait_timeout: Duration,
    journal_capacity: usize,
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
            // Long enough that it never fires under healthy operation
            // (deadlocks are detected, wake-ups are targeted), short enough
            // that a lost wake-up surfaces as an abort instead of a hang.
            lock_wait_timeout: Duration::from_secs(30),
            journal_capacity: 0,
        }
    }

    /// Replace the store the engine runs over — e.g. the same store behind
    /// a [`FaultyStorage`](crate::fault::FaultyStorage) wrapper.
    pub fn storage(mut self, storage: Arc<dyn Storage>) -> Self {
        self.storage = storage;
        self
    }

    /// Enable or disable the snapshot read path for programs declaring
    /// [`TransactionProgram::read_only_hint`](super::TransactionProgram::read_only_hint).
    /// On by default; it only engages when the storage also reports
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
    /// discipline factory is installed).
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

    /// The lock-wait timeout, a backstop against missed wake-ups: a request
    /// that waits longer aborts with
    /// [`SemccError::LockTimeout`](semcc_semantics::SemccError) instead of
    /// hanging forever. Applies to any discipline; 30 s by default, zero
    /// disables it.
    pub fn lock_wait_timeout(mut self, timeout: Duration) -> Self {
        self.lock_wait_timeout = timeout;
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

    /// Enable the [event journal](crate::journal) with the given ring
    /// capacity in records (applies to any discipline). 0 — the default —
    /// disables journaling: the hot path then pays a single branch per
    /// would-be record.
    pub fn journal_capacity(mut self, records: usize) -> Self {
        self.journal_capacity = records;
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
        let stats = Arc::new(Stats::default());
        let deps = DisciplineDeps {
            registry: Arc::new(Registry::new()),
            hub: Arc::new(CompletionHub::new()),
            wfg: Arc::new(WaitsForGraph::with_stats(Arc::clone(&stats))),
            stats,
            sink: self.sink,
            router: Arc::new(self.catalog.router()),
            storage: Arc::clone(&self.storage),
            lock_wait_timeout: (!self.lock_wait_timeout.is_zero())
                .then_some(self.lock_wait_timeout),
            journal: (self.journal_capacity > 0)
                .then(|| Arc::new(EventJournal::new(self.journal_capacity))),
            dep_graph: Arc::default(), // BENCH-PINNED: benchmark/src/probes.rs:152
        };
        let discipline: Arc<dyn Discipline> = match self.discipline_factory {
            Some(f) => f(&deps),
            None => SemanticLockManager::new(self.config, deps.clone()),
        };
        Arc::new(Engine {
            snapshot_enabled: self.snapshot_reads && self.storage.supports_versioning(),
            storage: self.storage,
            catalog: self.catalog,
            log: EngineLog::new(self.wal, &deps),
            deps,
            discipline,
            comp_retry_limit: self.comp_retry_limit,
            comp_retry_backoff: self.comp_retry_backoff,
            op_delay: self.op_delay,
            faults: self.faults,
            commit_seq: AtomicU64::new(0),
            escrow: EscrowLedger::default(),
        })
    }
}
