//! Saturation driver: thousands of concurrent sessions over a bounded
//! core pool.
//!
//! Where [`crate::executor::run_workload`] is thread-per-worker (its
//! concurrency *is* its thread count), this driver pushes an order of
//! magnitude more **sessions** than there are OS threads through the
//! [`semcc_service::Service`] front-end — the ≥10k-in-flight regime the
//! group-commit WAL exists for. Every session is an order-entry
//! [`TxnSpec`] submitted as a parked continuation; a fixed pool of core
//! threads drains them, and durable commits ride the WAL's group-commit
//! barrier.
//!
//! The run is audited with the same fsyncgate discipline as
//! [`crate::chaos::run_fsync_failure`] (the rig's `check_fsyncgate`),
//! end-to-end through the service: an *acknowledged* update session (its
//! ticket resolved `Ok`) must have a durable `TopCommit` record, exactly
//! once — zero lost acks, zero duplicate acks — and the live store must
//! equal the serial replay of the durable winners in log order. With an
//! injected fsync fault the same invariant holds on the poisoned log's
//! surviving prefix.

use crate::executor::CommittedTxn;
use crate::rig::{AuditParams, Rig};
use semcc_core::{FaultSpec, FsyncPolicy, IoFaultPoint, WalConfig};
use semcc_semantics::SemccError;
use semcc_service::{Service, ServiceConfig, Ticket};
use std::sync::Arc;
use std::time::Duration;

/// Lock-wait backstop of a saturation run.
const LOCK_WAIT_TIMEOUT: Duration = Duration::from_secs(5);

/// One saturation run's configuration.
#[derive(Clone, Copy, Debug)]
pub struct SaturationParams {
    /// Sessions to submit (the in-flight target; the service admits them
    /// all, so the feeder parks every session at once).
    pub sessions: usize,
    /// Fixed core pool size — the only threads running transactions.
    pub core_threads: usize,
    /// Inject [`IoFaultPoint::FsyncError`] at this sync ordinal, turning
    /// the run into a batch-fsyncgate audit. `None`: clean run.
    pub fsync_fault_at: Option<u64>,
}

impl Default for SaturationParams {
    fn default() -> Self {
        SaturationParams { sessions: 10_000, core_threads: 8, fsync_fault_at: None }
    }
}

/// What one saturation run measured (the audit already passed if you
/// hold one of these).
#[derive(Clone, Copy, Debug)]
pub struct SaturationReport {
    /// Sessions whose ticket resolved `Ok` (acknowledged commits).
    pub committed: u64,
    /// Sessions whose ticket resolved `Err`.
    pub failed: u64,
    /// Highest queued+executing count observed — the proof the run
    /// actually reached the saturation regime.
    pub peak_in_flight: usize,
    /// Device syncs the log performed (group-commit leaders).
    pub fsyncs: u64,
}

/// Run the saturation workload and audit it. `Err` describes the first
/// violated invariant.
pub fn run_saturation(params: &SaturationParams) -> Result<SaturationReport, String> {
    let faults = match params.fsync_fault_at {
        Some(nth) => FaultSpec::default().with_io(IoFaultPoint::FsyncError { nth }),
        None => FaultSpec::default(),
    };
    let staged = AuditParams {
        txns: params.sessions,
        faults,
        fsync: FsyncPolicy::OnCommit,
        ..Default::default()
    };
    let config = WalConfig { segment_bytes: 16 << 10, ..WalConfig::default() };
    let (rig, builder) = Rig::stage(&staged, Some(config), false);
    let svc = Service::start(
        builder.lock_wait_timeout(LOCK_WAIT_TIMEOUT).build(),
        ServiceConfig {
            core_threads: params.core_threads,
            max_in_flight: usize::MAX,
            max_retries: 1000,
        },
    );

    let mut peak_in_flight = 0;
    let tickets: Vec<Ticket> = rig
        .batch
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let ticket = svc.submit(Arc::new(spec.clone()));
            if i % 512 == 0 {
                peak_in_flight = peak_in_flight.max(svc.in_flight());
            }
            ticket
        })
        .collect();
    peak_in_flight = peak_in_flight.max(svc.in_flight());

    let mut failed = 0u64;
    let mut acked: Vec<CommittedTxn> = Vec::new();
    for (input_idx, (spec, ticket)) in rig.batch.iter().zip(tickets).enumerate() {
        match ticket.wait().0 {
            Ok(out) => acked.push(CommittedTxn {
                input_idx,
                spec: spec.clone(),
                top: out.top,
                value: out.value,
                snapshot: out.snapshot,
                commit_seq: out.commit_seq,
            }),
            Err(SemccError::Cancelled) => return Err("service cancelled a session".into()),
            Err(_) => failed += 1,
        }
    }
    svc.shutdown();

    rig.check_fsyncgate(svc.engine(), &acked)?;
    Ok(SaturationReport {
        committed: acked.len() as u64,
        failed,
        peak_in_flight,
        fsyncs: rig.wal().fsyncs(),
    })
}
