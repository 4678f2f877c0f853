//! Lock control blocks.

use crate::ids::NodeRef;
use crate::tree::Chain;
use semcc_semantics::Invocation;
use std::sync::Arc;

/// A semantic lock control block: "a lock is associated with a method name,
/// an object id on which the method operates, optionally a list of actual
/// parameters of the method, and the identification of a subtransaction"
/// (paper Section 4.2). The invocation carries method, object and
/// parameters; the node identifies the owning subtransaction; the cached
/// ancestor chain makes the Figure-9 conflict test self-contained.
#[derive(Clone)]
pub struct LockEntry {
    /// The owning action (subtransaction).
    pub node: NodeRef,
    /// Method + object + actual parameters (the lock mode).
    pub inv: Arc<Invocation>,
    /// Ancestor chain `[self, parent, …, root]` of the owner, with its
    /// per-object index. Invocations are immutable once issued, so the
    /// chain can be cached at request time; completion states are looked up
    /// live in the registry.
    pub chain: Chain,
    /// Unused — [`TxnTree::is_retained`](crate::tree::TxnTree::is_retained)
    /// is the answer. BENCH-PINNED: `benchmark/src/probes.rs:120` writes it
    /// in a struct literal.
    pub retained: bool,
}

impl std::fmt::Debug for LockEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LockEntry({} holds {})", self.node, self.inv)
    }
}
