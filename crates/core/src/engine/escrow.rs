//! The escrow ledger: per object, the sum of *uncommitted positive*
//! `EscrowAdd` deltas across all live transactions.
//!
//! The guard of a bounded escrow operation tests against the worst-case
//! value (current minus this sum): every pending increment might still roll
//! back, while pending decrements rolling back only raise the value — safe
//! for a lower bound.

use parking_lot::Mutex;
use semcc_semantics::{IdMap, Invocation, ObjectId, Result, SemccError, Storage, Value};
use std::cell::RefCell;

/// One transaction's own share of the ledger: the positive deltas it has
/// applied but not yet committed.
pub(super) type Reservations = RefCell<Vec<(ObjectId, i64)>>;

#[derive(Default)]
pub(super) struct EscrowLedger {
    pending: Mutex<IdMap<ObjectId, i64>>,
}

impl EscrowLedger {
    /// Apply the `EscrowAdd` leaf `inv` to the store and return its delta.
    /// A forward execution passes its transaction's `reservations`: the
    /// bound (if the invocation carries one) is checked and a positive
    /// delta is reserved. A compensation passes `None` — an inverse must
    /// always succeed and reserves nothing.
    pub(super) fn apply(
        &self,
        storage: &dyn Storage,
        inv: &Invocation,
        reservations: Option<&Reservations>,
    ) -> Result<i64> {
        let (obj, delta) = (inv.object, inv.arg_int(0)?);
        // Held across the read-modify-write: commuting EscrowAdds hold
        // their semantic locks concurrently, so this mutex is their only
        // serialization point.
        let mut pending = self.pending.lock();
        let cur = match storage.get(obj)? {
            Value::Int(i) => i,
            other => {
                return Err(SemccError::EscrowViolation(format!(
                    "escrow target {obj:?} holds non-integer {other:?}"
                )))
            }
        };
        // Worst case: every pending positive delta (this transaction's own
        // earlier ones included) might still roll back.
        if let (Some(_), Ok(lo)) = (reservations, inv.arg_int(1)) {
            let worst = cur - pending.get(&obj).copied().unwrap_or(0);
            if worst + delta < lo {
                return Err(SemccError::EscrowViolation(format!(
                    "escrow bound on {obj:?}: worst-case {worst} + {delta} < {lo}"
                )));
            }
        }
        storage.put(obj, Value::Int(cur + delta))?;
        if let Some(held) = reservations {
            if delta > 0 {
                *pending.entry(obj).or_insert(0) += delta;
                held.borrow_mut().push((obj, delta));
            }
        }
        Ok(delta)
    }

    /// Drop a finished transaction's reservations. At commit the deltas are
    /// part of the committed value; at abort the compensations (which
    /// bypass the ledger) have already restored the store — either way the
    /// reservations must go, exactly once. Idempotent: the take empties
    /// the transaction's list.
    pub(super) fn release(&self, held: &Reservations) {
        let held = held.take();
        if held.is_empty() {
            return;
        }
        let mut pending = self.pending.lock();
        for (obj, delta) in held {
            if let Some(p) = pending.get_mut(&obj) {
                *p -= delta;
                if *p <= 0 {
                    pending.remove(&obj);
                }
            }
        }
    }
}
