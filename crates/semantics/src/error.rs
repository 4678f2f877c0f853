//! Error type shared by all crates of the workspace.

use crate::ids::{MethodId, ObjectId, TypeId};
use std::fmt;

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, SemccError>;

/// Errors raised by the object store, catalog, engine and lock manager.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SemccError {
    /// The referenced object does not exist.
    NoSuchObject(ObjectId),
    /// The referenced type is not registered in the catalog.
    NoSuchType(TypeId),
    /// The referenced method is not defined on the given type.
    NoSuchMethod(TypeId, MethodId),
    /// A tuple object has no component with the given name.
    NoSuchField(ObjectId, String),
    /// The object exists but has the wrong kind for the requested operation
    /// (e.g. `Get` on a set object).
    WrongKind { object: ObjectId, expected: &'static str },
    /// A set insert collided with an existing key.
    DuplicateKey(ObjectId, u64),
    /// A set lookup did not find the key.
    KeyNotFound(ObjectId, u64),
    /// A value had an unexpected runtime type.
    TypeMismatch { expected: &'static str, got: String },
    /// A method argument was missing or malformed.
    BadArguments(String),
    /// The transaction was chosen as a deadlock victim and must abort.
    Deadlock,
    /// The transaction was aborted (by the application or the engine).
    Aborted(String),
    /// The engine is shutting down or the transaction was cancelled.
    Cancelled,
    /// Compensation of a committed subtransaction failed irrecoverably.
    CompensationFailed(String),
    /// A method body (or transaction program) panicked; the panic was
    /// contained and converted into an ordinary abort.
    MethodPanicked(String),
    /// A lock wait exceeded the configured deadline (the backstop against
    /// missed wake-ups); the transaction aborts and may be retried.
    LockTimeout,
    /// The transaction cannot run (or continue) on the kernel-bypassing
    /// snapshot read path — it attempted a write, its storage lacks
    /// versioned reads, or an object moved between its reads. The engine
    /// transparently re-runs it as a normal locking transaction; neither an
    /// abort nor a contention retry.
    SnapshotIneligible(String),
    /// The write-ahead log could not make the transaction durable (I/O
    /// error, failed fsync, or a previously poisoned log). The transaction
    /// aborts through the normal compensation path; it is *not* retryable —
    /// the log stays poisoned until the operator intervenes, so a retry
    /// would fail identically (fsyncgate semantics: no blind retry).
    Durability(String),
    /// An escrow update's lower-bound guard failed: even in the worst case
    /// (every uncommitted positive delta aborts) the predicate would be
    /// violated. The transaction aborts; retrying blindly would fail the
    /// same way until some other transaction replenishes the quantity, so
    /// this is a logic outcome, not a contention retry.
    EscrowViolation(String),
    /// A fault injected by the chaos harness (never raised in production).
    FaultInjected(String),
    /// Any other internal invariant violation.
    Internal(String),
}

impl fmt::Display for SemccError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemccError::NoSuchObject(o) => write!(f, "no such object: {o:?}"),
            SemccError::NoSuchType(t) => write!(f, "no such type: {t:?}"),
            SemccError::NoSuchMethod(t, m) => write!(f, "no method {m:?} on type {t:?}"),
            SemccError::NoSuchField(o, n) => write!(f, "object {o:?} has no component {n:?}"),
            SemccError::WrongKind { object, expected } => {
                write!(f, "object {object:?} is not a {expected} object")
            }
            SemccError::DuplicateKey(s, k) => write!(f, "duplicate key {k} in set {s:?}"),
            SemccError::KeyNotFound(s, k) => write!(f, "key {k} not found in set {s:?}"),
            SemccError::TypeMismatch { expected, got } => {
                write!(f, "expected {expected}, got {got}")
            }
            SemccError::BadArguments(msg) => write!(f, "bad arguments: {msg}"),
            SemccError::Deadlock => write!(f, "transaction aborted: deadlock victim"),
            SemccError::Aborted(msg) => write!(f, "transaction aborted: {msg}"),
            SemccError::Cancelled => write!(f, "operation cancelled"),
            SemccError::CompensationFailed(msg) => write!(f, "compensation failed: {msg}"),
            SemccError::MethodPanicked(msg) => {
                write!(f, "transaction aborted: method panicked: {msg}")
            }
            SemccError::LockTimeout => write!(f, "transaction aborted: lock wait timed out"),
            SemccError::SnapshotIneligible(msg) => {
                write!(f, "snapshot read path ineligible: {msg}")
            }
            SemccError::Durability(msg) => {
                write!(f, "transaction aborted: durability failure: {msg}")
            }
            SemccError::EscrowViolation(msg) => {
                write!(f, "transaction aborted: escrow guard violated: {msg}")
            }
            SemccError::FaultInjected(site) => write!(f, "injected fault at {site}"),
            SemccError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for SemccError {}

impl SemccError {
    /// Whether the error means the whole top-level transaction must abort
    /// (and may be retried by the application).
    pub fn is_abort(&self) -> bool {
        matches!(
            self,
            SemccError::Deadlock
                | SemccError::Aborted(_)
                | SemccError::Cancelled
                | SemccError::MethodPanicked(_)
                | SemccError::LockTimeout
                | SemccError::Durability(_)
                | SemccError::EscrowViolation(_)
        )
    }

    /// Whether the application may transparently re-run the transaction:
    /// the abort was caused by contention (deadlock victim or lock-wait
    /// timeout), not by the program's own logic.
    pub fn is_retryable(&self) -> bool {
        matches!(self, SemccError::Deadlock | SemccError::LockTimeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SemccError::NoSuchObject(ObjectId(5));
        assert!(e.to_string().contains("o5"));
        let e = SemccError::DuplicateKey(ObjectId(1), 42);
        assert!(e.to_string().contains("42"));
        let e = SemccError::TypeMismatch { expected: "Int", got: "Bool".into() };
        assert!(e.to_string().contains("Int"));
    }

    #[test]
    fn abort_classification() {
        assert!(SemccError::Deadlock.is_abort());
        assert!(SemccError::Aborted("x".into()).is_abort());
        assert!(SemccError::Cancelled.is_abort());
        assert!(SemccError::MethodPanicked("boom".into()).is_abort());
        assert!(SemccError::LockTimeout.is_abort());
        assert!(SemccError::Durability("fsync failed".into()).is_abort());
        assert!(SemccError::EscrowViolation("QOH floor".into()).is_abort());
        assert!(!SemccError::NoSuchObject(ObjectId(1)).is_abort());
        assert!(!SemccError::Internal("x".into()).is_abort());
        assert!(!SemccError::FaultInjected("storage".into()).is_abort());
        assert!(!SemccError::SnapshotIneligible("write leaf".into()).is_abort());
    }

    #[test]
    fn retry_classification() {
        assert!(SemccError::Deadlock.is_retryable());
        assert!(SemccError::LockTimeout.is_retryable());
        // The escrow guard fails identically on an immediate retry.
        assert!(!SemccError::EscrowViolation("QOH floor".into()).is_retryable());
        assert!(!SemccError::Aborted("x".into()).is_retryable());
        assert!(!SemccError::MethodPanicked("boom".into()).is_retryable());
        // A poisoned log fails every retry identically — not retryable.
        assert!(!SemccError::Durability("fsync failed".into()).is_retryable());
        assert!(!SemccError::FaultInjected("storage".into()).is_retryable());
        assert!(!SemccError::SnapshotIneligible("write leaf".into()).is_retryable());
    }
}
