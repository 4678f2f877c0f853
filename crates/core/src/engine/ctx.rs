//! What the two method contexts — the locking path's and the snapshot
//! read path's — share: the simulated page access, the lookup of a user
//! method's body, and the value a read leaf hands back to its caller.
//! (Their structural lookups `field` / `type_of` / `catalog` are the
//! trait's one-line forwards to [`Storage`](semcc_semantics::Storage) and
//! the catalog on either path.)

use super::Engine;
use semcc_semantics::{
    Invocation, MethodBody, MethodDef, MethodId, ObjectId, Result, SemccError, Value,
};

impl Engine {
    /// Simulated page access of a leaf operation — paid on the snapshot
    /// path too, which skips the kernel, not the I/O.
    pub(super) fn page_delay(&self) {
        if !self.op_delay.is_zero() {
            std::thread::sleep(self.op_delay);
        }
    }

    /// The definition and the executable body of user method `m` of
    /// `inv`'s type.
    pub(super) fn method(
        &self,
        inv: &Invocation,
        m: MethodId,
    ) -> Result<(&MethodDef, &dyn MethodBody)> {
        let def = self.catalog.method_def(inv.type_id, m)?;
        let body = def
            .body
            .as_deref()
            .ok_or_else(|| SemccError::Internal(format!("method {} has no body", def.name)))?;
        Ok((def, body))
    }
}

/// What `Select` (and `Remove`) return: the member, or unit when absent.
pub(super) fn member_value(found: Option<ObjectId>) -> Value {
    found.map(Value::Id).unwrap_or(Value::Unit)
}

/// What `Scan` returns: a list of `[key, member]` pairs.
pub(super) fn scan_value(pairs: Vec<(u64, ObjectId)>) -> Value {
    Value::List(
        pairs
            .into_iter()
            .map(|(k, m)| Value::List(vec![Value::Int(k as i64), Value::Id(m)]))
            .collect(),
    )
}
