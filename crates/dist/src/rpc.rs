//! The coordinator→shard call seam: typed errors, bounded seeded-backoff
//! retries, and injectable transport faults.
//!
//! Every message the coordinator sends to a shard goes through
//! [`ShardLink::call`]. The link consults the fleet's [`FleetFaults`] for
//! a verdict before each delivery attempt: a **dropped** request never
//! reaches the shard, a **failed** request errors at the transport, and a
//! **delayed** request is the nasty one — the shard processes it but the
//! reply is lost, so the retried duplicate must be absorbed idempotently
//! on the shard side (piece executions deduplicate on `gtid`, resolutions
//! are naturally idempotent). Fault points are ordinal-based and fire
//! exactly once, so a bounded retry loop always converges.
//!
//! The transport is all that is injected. A node of the fleet crashes
//! one way, [`ShardNode::crash`](crate::ShardNode::crash), and every
//! image a crash of the fleet can leave is a consistent cut of its logs,
//! which `sim::chaos` enumerates for a finished run.

use semcc_core::{backoff_duration, Stats};
use semcc_semantics::SemccError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A coordinator→shard call outcome.
#[derive(Debug)]
pub enum RpcError {
    /// The request was dropped on the wire; the shard never saw it.
    Dropped,
    /// The shard processed the request but the reply was lost.
    ReplyLost,
    /// The transport failed the request before delivery.
    Failed,
    /// The shard is down (crashed and not yet recovered).
    ShardDown,
    /// The shard executed the piece and it failed at the engine level
    /// (contention abort, durability refusal, application error).
    App(SemccError),
}

impl RpcError {
    /// Transient transport outcomes that a retry can fix once the fault
    /// point has fired.
    pub fn is_transient(&self) -> bool {
        matches!(self, RpcError::Dropped | RpcError::ReplyLost | RpcError::Failed)
    }

    /// Engine-level outcomes worth re-running the piece for (deadlock
    /// victim, lock-wait timeout).
    pub fn is_retryable_app(&self) -> bool {
        matches!(self, RpcError::App(e) if e.is_retryable())
    }
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Dropped => write!(f, "request dropped"),
            RpcError::ReplyLost => write!(f, "reply lost"),
            RpcError::Failed => write!(f, "transport failure"),
            RpcError::ShardDown => write!(f, "shard down"),
            RpcError::App(e) => write!(f, "shard error: {e}"),
        }
    }
}

/// Retry budget of one logical call.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Delivery attempts per call (≥ 1).
    pub max_attempts: u32,
    /// Base backoff between attempts; doubled per attempt with jitter.
    pub base_backoff: Duration,
    /// Hard ceiling on a single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(2),
        }
    }
}

/// A deterministic transport fault of the coordinator→shard seam. The
/// ordinal counts requests fleet-wide, as [`FleetFaults`] sees them, so a
/// point is meaningful independent of shard count and interleaving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardFaultPoint {
    /// The `nth` request is dropped on the wire: the shard never sees it
    /// and the caller retries.
    DropRequest {
        /// 0-based request ordinal.
        nth: u64,
    },
    /// The `nth` request is delayed past the caller's timeout: the shard
    /// processed it, the *reply* is what the caller never saw in time. The
    /// retry seam must tolerate the duplicate.
    DelayRequest {
        /// 0-based request ordinal.
        nth: u64,
    },
    /// The `nth` request fails with a transport error (connection reset);
    /// retried like a drop.
    FailRequest {
        /// 0-based request ordinal.
        nth: u64,
    },
}

/// Fleet-wide fault state: the (single) injected [`ShardFaultPoint`] plus
/// the request counter that decides when it fires.
pub struct FleetFaults {
    point: Option<ShardFaultPoint>,
    calls: AtomicU64,
}

impl FleetFaults {
    /// A fault plan for the fleet (use `None` for a healthy fleet).
    pub fn new(point: Option<ShardFaultPoint>) -> Arc<FleetFaults> {
        Arc::new(FleetFaults { point, calls: AtomicU64::new(0) })
    }

    /// The fault that strikes the next request, if any (counts one call
    /// ordinal).
    pub fn strike(&self) -> Option<ShardFaultPoint> {
        let point = self.point?;
        let (ShardFaultPoint::DropRequest { nth }
        | ShardFaultPoint::DelayRequest { nth }
        | ShardFaultPoint::FailRequest { nth }) = point;
        (self.calls.fetch_add(1, Ordering::Relaxed) == nth).then_some(point)
    }
}

/// One retried, fault-checked call to a shard. Generic over the operation
/// so piece execution and decision notification share the seam.
pub struct ShardLink<'a> {
    /// Fleet fault state.
    pub faults: &'a FleetFaults,
    /// Retry budget.
    pub policy: RetryPolicy,
    /// Coordinator counters (`shard_rpc_retries`).
    pub stats: &'a Stats,
    /// Backoff seed (decorrelate concurrent callers).
    pub seed: u64,
}

impl ShardLink<'_> {
    /// Run `op` through the transport with retries. `op` is invoked once
    /// per *delivered* attempt; dropped and failed attempts never invoke
    /// it, delayed attempts invoke it and discard the result.
    pub fn call<T>(&self, mut op: impl FnMut() -> Result<T, RpcError>) -> Result<T, RpcError> {
        let mut attempt: u32 = 0;
        loop {
            let outcome = match self.faults.strike() {
                None => op(),
                Some(ShardFaultPoint::DropRequest { .. }) => Err(RpcError::Dropped),
                Some(ShardFaultPoint::FailRequest { .. }) => Err(RpcError::Failed),
                Some(ShardFaultPoint::DelayRequest { .. }) => {
                    let _ = op();
                    Err(RpcError::ReplyLost)
                }
            };
            match outcome {
                Err(e) if e.is_transient() && attempt + 1 < self.policy.max_attempts => {
                    attempt += 1;
                    Stats::bump(&self.stats.shard_rpc_retries);
                    std::thread::sleep(backoff_duration(
                        self.policy.base_backoff,
                        self.seed,
                        attempt,
                        self.policy.max_backoff,
                    ));
                }
                other => return other,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link<'a>(faults: &'a FleetFaults, stats: &'a Stats) -> ShardLink<'a> {
        ShardLink { faults, policy: RetryPolicy::default(), stats, seed: 7 }
    }

    #[test]
    fn healthy_link_delivers_first_try() {
        let faults = FleetFaults::new(None);
        let stats = Stats::default();
        let mut calls = 0;
        let out = link(&faults, &stats).call(|| {
            calls += 1;
            Ok::<_, RpcError>(42)
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(calls, 1);
        assert_eq!(stats.snapshot().shard_rpc_retries, 0);
    }

    #[test]
    fn dropped_request_is_retried_and_never_reaches_the_shard() {
        let faults = FleetFaults::new(Some(ShardFaultPoint::DropRequest { nth: 0 }));
        let stats = Stats::default();
        let mut calls = 0;
        let out = link(&faults, &stats).call(|| {
            calls += 1;
            Ok::<_, RpcError>(1)
        });
        assert_eq!(out.unwrap(), 1);
        assert_eq!(calls, 1, "the dropped attempt never invoked the shard");
        assert_eq!(stats.snapshot().shard_rpc_retries, 1);
    }

    #[test]
    fn delayed_request_executes_twice_demanding_idempotence() {
        let faults = FleetFaults::new(Some(ShardFaultPoint::DelayRequest { nth: 0 }));
        let stats = Stats::default();
        let mut calls = 0;
        let out = link(&faults, &stats).call(|| {
            calls += 1;
            Ok::<_, RpcError>(calls)
        });
        assert_eq!(out.unwrap(), 2, "the duplicate delivery is the one that answers");
        assert_eq!(calls, 2);
    }

    #[test]
    fn shard_down_fails_fast_without_retries() {
        let faults = FleetFaults::new(None);
        let stats = Stats::default();
        let out = link(&faults, &stats).call(|| Err::<(), _>(RpcError::ShardDown));
        assert!(matches!(out, Err(RpcError::ShardDown)));
        assert_eq!(stats.snapshot().shard_rpc_retries, 0);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let faults = FleetFaults::new(None);
        let stats = Stats::default();
        let mut calls = 0;
        let out = link(&faults, &stats).call(|| {
            calls += 1;
            Err::<(), _>(RpcError::Failed)
        });
        assert!(matches!(out, Err(RpcError::Failed)));
        assert_eq!(calls, RetryPolicy::default().max_attempts);
    }
}
