//! # semcc-dist — sharded multi-engine deployment
//!
//! Partitions the order-entry object store across N independent engine
//! instances (hash on primary key) and routes each transaction's
//! subtransactions to their owning shards. Two cross-shard commit
//! protocols are provided:
//!
//! | protocol | cross-shard window covered by | abort path |
//! |---|---|---|
//! | semantic open-nested | retained *semantic* locks of early-committed pieces | compensation, replayed from the durable participant log |
//! | presumed-abort 2PC | *low-level* locks held on every shard until the decision | classic rollback before locks release |
//!
//! Robustness machinery:
//!
//! - every shard runs its own WAL + recovery (the PR-5/7 machinery,
//!   unchanged) plus a separate **participant log** of prepared pieces;
//! - the coordinator durably logs commit decisions before any shard or
//!   client learns them, so in-doubt pieces on a crashed shard resolve
//!   deterministically at recovery (commit ⇒ keep, absence ⇒ presumed
//!   abort ⇒ compensate);
//! - every coordinator→shard call goes through a typed retry/timeout/
//!   backoff seam ([`rpc::ShardLink`]) with injectable faults
//!   ([`semcc_core::ShardFaultPoint`]): dropped/delayed/failed requests,
//!   shard crashes before prepare or after decision, and coordinator
//!   crashes mid-commit.

pub mod coordinator;
mod dispatch;
pub mod partition;
pub mod rpc;
pub mod shard;

pub use coordinator::{CommitProtocol, Coordinator, FleetConfig};
pub use partition::PartitionMap;
pub use rpc::{FleetFaults, RetryPolicy, RpcError, RpcVerdict, ShardLink};
pub use shard::{
    merge_snapshots, DecisionGate, PieceAck, ShardConfig, ShardNode, ShardRecoveryReport,
};
