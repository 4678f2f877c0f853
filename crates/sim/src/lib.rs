//! # semcc-sim
//!
//! Execution harness for the experiments: a multi-threaded workload
//! executor with metrics, a registry of all concurrency control protocols
//! under test, deterministic scenario utilities (gates + event waits) used
//! to reproduce the paper's figures, and two independent serializability
//! validators:
//!
//! * **state/return-value equivalence** — re-execute the committed
//!   transactions serially (in some permutation) on a snapshot of the
//!   initial state and compare the final observable state and every
//!   transaction's return value; exact for the deterministic
//!   [`TxnSpec`](semcc_orderentry::TxnSpec) programs, used with small
//!   transaction counts;
//! * **semantic serialization graph** — from the recorded history, an edge
//!   `A → B` is drawn for each semantically conflicting action pair that is
//!   *not absorbed by a commutative ancestor pair* (the same criterion the
//!   protocol enforces); a cycle indicates a non-(semantically-)serializable
//!   execution. This is the detector that flags the Figure-5 anomaly of the
//!   unsafe no-retention protocol.
//!
//! A third, specialized oracle — [`check_snapshot_reads`] — covers the
//! lock-free snapshot read path: every committed snapshot transaction must
//! observe exactly the state produced by the transactions with smaller
//! engine commit-sequence numbers (a *prefix* of the committed serial
//! order), verified by serial replay and return-value comparison.

pub mod chaos;
pub mod executor;
pub mod metrics;
pub mod protocols;
pub mod saturate;
pub mod scenario;
pub mod treeview;
pub mod validate;

pub use chaos::{
    crash_mixes, crash_points, fault_mixes, run_chaos, run_checkpoint_parity, run_crash_recover,
    run_fleet_crash_recover, run_fsync_failure, run_fsync_failure_at, run_torture, ChaosParams,
    ChaosReport, CrashParams, CrashReport, FleetParams, FleetReport, TortureParams, TortureReport,
};
pub use executor::{run_workload, CommittedTxn, LockTableSample, RunOutcome, RunParams};
pub use metrics::RunMetrics;
pub use protocols::{build_engine, ProtocolKind};
pub use saturate::{run_saturation, SaturationParams, SaturationReport};
pub use scenario::Gate;
pub use treeview::TreeView;
pub use validate::{
    canonical_shard_state, check_semantic_graph, check_snapshot_reads, check_state_equivalence,
    GraphReport, SnapshotReport,
};
