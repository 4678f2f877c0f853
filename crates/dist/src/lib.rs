//! # semcc-dist — sharded multi-engine deployment
//!
//! Partitions the order-entry object store across N independent engine
//! instances (hash on primary key) and routes each transaction's
//! subtransactions to their owning shards. Two cross-shard commit
//! protocols are provided:
//!
//! | protocol | cross-shard window covered by | abort path |
//! |---|---|---|
//! | semantic open-nested | retained *semantic* locks of early-committed pieces | compensation, replayed from the piece's `Prepared` record in the shard's log |
//! | presumed-abort 2PC | *low-level* locks held on every shard from the vote until every sibling voted | rollback before locks release; compensation for a piece that committed before a sibling failed |
//!
//! Robustness machinery:
//!
//! - every shard runs one WAL and the engine's own recovery; a piece's
//!   participant record and its resolution marker are two frame kinds of
//!   that log (`Prepared`, `Resolved`), which generic recovery skips and
//!   shard recovery reads its in-doubt pieces from;
//! - both protocols share one commit function: the coordinator durably
//!   logs the decision once every piece has returned, before any shard or
//!   client learns it, so in-doubt pieces on a crashed shard resolve
//!   deterministically at recovery (commit ⇒ keep, absence ⇒ presumed
//!   abort ⇒ compensate);
//! - every coordinator→shard call goes through a typed retry/timeout/
//!   backoff seam ([`rpc::ShardLink`]) with injectable transport faults
//!   ([`rpc::ShardFaultPoint`]): dropped, delayed and failed requests;
//! - a shard dies one way, [`ShardNode::crash`], and recovers through
//!   [`shard::recover_logs`], the function the fleet cut audit of
//!   `sim::chaos` drives on every consistent cut of a finished run.

pub mod coordinator;
mod dispatch;
pub mod partition;
pub mod rpc;
pub mod shard;

pub use coordinator::{parse_decisions, CommitProtocol, Coordinator, FleetConfig};
pub use partition::PartitionMap;
pub use rpc::{FleetFaults, RetryPolicy, RpcError, ShardFaultPoint, ShardLink};
pub use shard::{
    merge_snapshots, recover_logs, PieceAck, ShardConfig, ShardNode, ShardRecoveryReport,
    ShardStack,
};
