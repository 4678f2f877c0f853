//! Session front-end saturation smoke.
//!
//! The bounded service (DESIGN.md §12) multiplexes many more sessions
//! than there are core threads; these runs push a few hundred sessions
//! through the public facade and lean on the driver's built-in audit:
//! zero lost acknowledgments, zero duplicates, and live-store equality
//! with the serial replay of the durable winners. Every run is
//! watchdog-guarded — a parked continuation that is never resolved is a
//! service bug and must surface as a test failure, not a hung job.

use semcc::sim::scenario::guarded;
use semcc::sim::{run_saturation, SaturationParams};

/// Hundreds of sessions over a four-thread core pool, durable log at
/// `fsync=oncommit`: every ticket resolves exactly once and the
/// acknowledged set equals the durable set (audited inside the driver).
#[test]
fn saturated_sessions_resolve_exactly_once_with_durable_acks() {
    let params = SaturationParams { sessions: 400, core_threads: 4, ..Default::default() };
    let report =
        guarded("saturation/clean", move || run_saturation(&params)).expect("saturation audit");
    assert_eq!(report.committed + report.failed, 400);
    assert!(report.committed > 0, "{report:?}");
    assert!(report.fsyncs > 0, "durable commits must sync: {report:?}");
    assert!(report.peak_in_flight > 4, "sessions must outnumber the core pool: {report:?}");
}

/// The same cell with an injected fsync failure: the poisoned log fails
/// sessions loudly, and the audit still finds no session that was
/// acknowledged without a durable commit record — the batch-fsyncgate
/// invariant through the whole service stack.
#[test]
fn saturated_sessions_survive_a_poisoned_log_with_no_lost_acks() {
    let params = SaturationParams { sessions: 300, core_threads: 4, fsync_fault_at: Some(8) };
    let report = guarded("saturation/fsync-fault", move || run_saturation(&params))
        .expect("faulted saturation audit");
    assert!(report.failed > 0, "the poisoned log must fail sessions: {report:?}");
    assert_eq!(report.committed + report.failed, 300);
}
