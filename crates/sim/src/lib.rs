//! # semcc-sim
//!
//! Execution harness for the experiments: a multi-threaded workload
//! executor with metrics ([`executor`]), a registry of all concurrency
//! control protocols under test ([`protocols`]), deterministic scenario
//! utilities — gates, event waits, the test watchdog and seed window —
//! used to reproduce the paper's figures ([`scenario`]), and the audit
//! harnesses: one [`rig`] that builds, runs and recovers an engine under a
//! seeded fault plan, the fault sweeps built on it ([`chaos`],
//! [`saturate`]), and the oracles they and the test suites hold a run
//! against ([`validate`]):
//!
//! * [`check_state_equivalence`] — the ground truth for small histories:
//!   does *some* serial order of the committed transactions reproduce the
//!   observed final state and every transaction's return value?
//!   (Behavioral equivalence in the paper's sense, projected onto the
//!   canonical observable state: identifiers of freshly created objects
//!   are normalized away.) Exact for the deterministic
//!   [`TxnSpec`](semcc_orderentry::TxnSpec) programs.
//! * [`check_semantic_graph`] — from the recorded history, an edge
//!   `A → B` for each pair of actions of different transactions on the
//!   same object that do not commute and are *not absorbed by a
//!   commutative ancestor pair* (the Figure-9 criterion the protocol
//!   itself enforces); a cycle is a non-(semantically-)serializable
//!   execution. This is the detector that flags the Figure-5 anomaly of
//!   the unsafe no-retention protocol.
//! * [`check_snapshot_reads`] — the lock-free snapshot read path: every
//!   committed snapshot transaction observed exactly the state produced
//!   by the transactions with smaller commit-sequence numbers (a *prefix*
//!   of the committed serial order).
//! * [`check_committed_prefix`] — what survived (a crash and recovery, a
//!   poisoned log, a fleet recovery) equals the serial replay of the
//!   committed prefix, in commit order, on a fresh initial state.
//! * [`check_acked_durable`] — acknowledged and durable are the same set
//!   of transactions, in both directions (fsyncgate).
//! * [`Residue`] — a quiescent engine holds nothing: no live transaction,
//!   lock entry or waits-for state.
//! * [`check_no_failed_undo`] — no compensation or in-place restore failed
//!   for good.

pub mod chaos;
pub mod executor;
pub mod metrics;
pub mod protocols;
pub mod rig;
pub mod saturate;
pub mod scenario;
pub mod treeview;
pub mod validate;

pub use chaos::{
    audit_checkpoint_parity, audit_every_cut, audit_fleet_cuts, crash_mixes, enumerate_log_faults,
    fault_mixes, run_chaos, run_fleet_crash_recover, run_fsync_failure, ChaosReport, CutReport,
    FleetCutReport, FleetParams, FleetReport, LogFaultReport,
};
pub use executor::{run_workload, CommittedTxn, LockTableSample, RunOutcome, RunParams};
pub use metrics::RunMetrics;
pub use protocols::{build_engine, ProtocolKind};
pub use rig::AuditParams;
pub use saturate::{run_saturation, SaturationParams, SaturationReport};
pub use scenario::Gate;
pub use treeview::TreeView;
pub use validate::{
    canonical_shard_state, check_acked_durable, check_committed_prefix, check_no_failed_undo,
    check_semantic_graph, check_snapshot_reads, check_state_equivalence, GraphReport, Residue,
    SnapshotReport,
};
