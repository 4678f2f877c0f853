//! # semcc-core
//!
//! Open nested transaction engine with **retained semantic locks** — the
//! concurrency control protocol of Muth, Rakow, Weikum, Brössler and Hasse,
//! *"Semantic Concurrency Control in Object-Oriented Database Systems"*,
//! ICDE 1993.
//!
//! The two central algorithms of the paper are implemented faithfully:
//!
//! * [`engine::Engine`] executes dynamic method invocation hierarchies as
//!   open nested transactions — the `exec-transaction` procedure of the
//!   paper's **Figure 8** (lock request with FCFS queueing, waits-for sets,
//!   recursive child execution, conversion of completed children's locks
//!   into retained locks, release of everything at top-level commit). Every
//!   top-level transaction begins in one place and ends in one place
//!   (`engine/lifecycle.rs`: `begin`, `finish_top`), whatever its outcome;
//! * [`lock::conflict::test_conflict`] is the `test-conflict` function of
//!   the paper's **Figure 9**: commutativity first, same-transaction
//!   transparency, then the search for a *commutative ancestor pair* on the
//!   same object — granting immediately if the holder-side ancestor is
//!   already committed (Case 1), waiting for exactly that ancestor if it is
//!   still running (Case 2), and falling back to waiting for the holder's
//!   top-level commit otherwise.
//!
//! Aborts are realized by **compensation**: committed subtransactions are
//! undone by inverse method invocations executed under the very same
//! locking protocol (paper Section 3). Deadlocks are detected on a
//! waits-for graph with youngest-victim selection.
//!
//! Baseline protocols (flat/page two-phase locking, closed nested
//! transactions — crate `semcc-baselines`) plug into the same engine via
//! the [`discipline::Discipline`] trait, so every protocol executes the
//! identical workload code. All disciplines sequence their lock requests
//! through the shared [`kernel::ConcurrencyKernel`], which owns the
//! sharded lock table, the wait queues and targeted waiter wake-ups; a
//! discipline contributes only its pairwise conflict test.
//!
//! ## Shells pinned by `benchmark/`
//!
//! `benchmark/src` names eight things that no longer do anything and may
//! not be edited by a change to anything else. Each is tagged where it is
//! defined (`grep -rn BENCH-PINNED crates tests`) and goes with the next
//! `benchmark`-typed change:
//!
//! * BENCH-PINNED 1–2: [`speculate::DepGraph`], [`DisciplineDeps::dep_graph`];
//! * BENCH-PINNED 3–4: `test_conflict`'s sixth parameter, [`Engine::speculation_edges`];
//! * BENCH-PINNED 5: the fourth component of `semcc_dist::ShardResidue`;
//! * BENCH-PINNED 6–7: [`notify::CompletionHub`] with [`DisciplineDeps::hub`],
//!   [`lock::entry::LockEntry::retained`];
//! * BENCH-PINNED 8: `semcc_dist::ShardNode::new`'s second parameter.

pub mod config;
pub mod deadlock;
pub mod discipline;
pub mod engine;
pub mod fault;
pub mod hist;
pub mod history;
pub mod ids;
pub mod inline_vec;
pub mod journal;
pub mod kernel;
pub mod lock;
pub mod notify;
pub mod speculate; // BENCH-PINNED: benchmark/src/probes.rs:19
pub mod stats;
pub mod tree;
pub mod wal;

pub use config::ProtocolConfig;
pub use deadlock::WaitsForGraph;
pub use discipline::DisciplineDeps;
pub use discipline::{AcquireRequest, Discipline, GrantInfo};
pub use engine::{
    backoff_duration, panic_message, Engine, EngineBuilder, FnProgram, TransactionProgram,
    TxnOutcome,
};
pub use fault::{
    injected_panic, silence_injected_panics, FaultPlan, FaultSite, FaultSpec, FaultyStorage,
    InjectedPanic, IoFaultPoint,
};
pub use hist::{HistogramSummary, LatencyHistogram};
pub use history::{Event, HistorySink, MemorySink, NullSink, Stamped};
pub use ids::{NodeRef, TopId};
pub use inline_vec::InlineVec;
pub use journal::{validate_json_line, EventJournal, JournalKind, JournalRecord, JOURNAL_FIELDS};
pub use kernel::{
    ConcurrencyKernel, EntryMode, KernelGuard, KernelPolicy, KernelRequest, LockKey, LockTableDump,
    Outcome, RwLockPolicy, RwMode,
};
pub use lock::SemanticLockManager;
pub use stats::{Stats, StatsSnapshot};
pub use tree::{Chain, ChainLink, NodeState, Registry, TxnTree};
pub use wal::checkpoint::{CheckpointImage, TopInfo};
pub use wal::recovery::{recover_image, RecoveryReport};
pub use wal::{
    read_image, AppendInfo, CheckpointOutcome, FsyncPolicy, LogImage, ParsedLog, RedoOp,
    SegmentImage, WalConfig, WalError, WalRecord, WalWriter,
};
