//! Crash recovery: repeating-history redo plus log-driven
//! abort-by-compensation.
//!
//! Recovery is deliberately a thin composition of machinery that already
//! exists. The surviving [`LogImage`] is parsed and validated (torn tail
//! truncated, mid-log corruption quarantined), the latest complete
//! checkpoint (if any) re-installs the store and seeds the analysis
//! table, and the remaining records are analyzed into winners (a
//! `TopCommit` survived), the fully-aborted (a `TopAbort` survived), and
//! **losers** (neither record survived). Then:
//!
//! 1. **Redo (repeating history)** — redo records are replayed, in LSN
//!    order, into the checkpoint store (or the deterministic initial
//!    state when no checkpoint exists). Every transaction's effects
//!    replay, winners and aborted alike, because leaf values are logged
//!    as *absolute* states: a winner's read-modify-write may embed the
//!    exposed effect of a concurrently running transaction that later
//!    aborted, so skipping the aborted transaction would diverge from the
//!    values other records carry (the ARIES "repeating history"
//!    argument). Forward effects (`LeafRedo`) replay only if their
//!    depth-1 subtree logged a `SubCommit` — an unfinished
//!    subtransaction died with its effects unexposed — while compensating
//!    effects (`CompRedo`, the logical CLR) replay unconditionally.
//! 2. **Undo by compensation** — each loser's logged compensation intent
//!    (minus the `CompApplied` progress a pre-crash abort already made)
//!    is executed reversed through [`Engine::compensate_transaction_as`],
//!    under the full semantic locking discipline — recovery *is* the
//!    paper's abort path, driven from the log instead of from an
//!    in-memory transaction tree.
//!
//! **Idempotent re-recovery.** When recovery is handed a *progress
//! writer* ([`recover_image`]'s `progress`), it logs its own work into
//! the very log it recovers: a [`WalRecord::RecoveryMark`] first, then —
//! through the engine — the ordinary `CompRedo`/`CompApplied` records of
//! each loser compensation (carrying the **loser's** transaction id via
//! the engine's alias mechanism, never the recovery wrapper's), and a
//! direct `TopAbort` once a loser is fully compensated. A crash at any
//! point mid-recovery therefore leaves a log from which a *second*
//! recovery converges to the identical state: completed compensations
//! are replayed as history and subtracted from the remaining intents,
//! resolved losers are ordinary aborted transactions, and the mark tells
//! the pass it is re-recovering. The cut audit of `sim::chaos` recovers
//! every cut of such a progress log again.

use super::checkpoint::{fold, TopInfo};
use super::segment::{LogImage, WalWriter};
use super::{RedoOp, WalRecord};
use crate::config::ProtocolConfig;
use crate::engine::Engine;
use crate::fault::FaultPlan;
use crate::journal::JournalKind;
use crate::stats::Stats;
use semcc_objstore::MemoryStore;
use semcc_semantics::{Catalog, Result, SemccError, Storage, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What a recovery pass did (one per crash).
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Records that survived in the log image (after the checkpoint).
    pub surviving_records: usize,
    /// Bytes discarded by torn-tail truncation.
    pub truncated_bytes: usize,
    /// Recovery started from this checkpoint LSN (log-start otherwise).
    pub from_checkpoint: Option<u64>,
    /// A previous recovery pass crashed against this same log: this pass
    /// is a re-recovery and must converge to the same state the crashed
    /// pass was building.
    pub rerecovery: bool,
    /// Transactions whose `TopCommit` survived.
    pub winners: usize,
    /// Transactions whose `TopAbort` survived (replayed forward *and*
    /// compensating: net effect zero, no further undo needed).
    pub aborted: usize,
    /// Uncommitted-at-crash transactions compensated by this pass.
    pub losers: usize,
    /// Redo records (forward and compensating) replayed into the store.
    pub replayed_actions: u64,
    /// Compensating invocations executed on behalf of losers.
    pub compensations: u64,
    /// Objects created by losers or aborted transactions, deleted (again)
    /// by this pass, mirroring the engine's unlogged abort-time GC.
    pub deleted_creations: u64,
    /// Compensation failures (loser id, error). Recovery continues past
    /// them — like the in-process abort path, a failed compensation is
    /// surfaced, never allowed to wedge everything else. A loser that
    /// failed gets no `TopAbort` in the progress log, so a later pass
    /// retries it.
    pub failures: Vec<(u64, String)>,
}

/// Rebuild a crashed engine's state from the surviving [`LogImage`].
///
/// `store` must hold the same deterministic initial state the crashed
/// engine started from (`Database::build` with identical parameters) —
/// when the image carries a checkpoint, the checkpointed dump replaces
/// that state. `catalog` likewise, since losers' compensations may invoke
/// user methods. The returned engine ran every recovery compensation
/// under `config`'s locking discipline and is ready for new transactions;
/// pass `faults` to inject compensation faults *into recovery itself*.
///
/// `progress`, when given, is the (resumed) log writer recovery logs its
/// own progress into, and the returned engine is built *with* it — see
/// the module docs on idempotent re-recovery.
pub fn recover_image(
    image: &LogImage,
    store: Arc<MemoryStore>,
    catalog: Arc<Catalog>,
    config: ProtocolConfig,
    faults: Option<Arc<FaultPlan>>,
    progress: Option<Arc<WalWriter>>,
) -> Result<(Arc<Engine>, RecoveryReport)> {
    let parsed = super::read_image(image).map_err(|e| SemccError::Durability(e.to_string()))?;
    let mut report = RecoveryReport {
        surviving_records: parsed.records.len(),
        truncated_bytes: parsed.truncated_bytes,
        ..Default::default()
    };

    // ---- checkpoint install -----------------------------------------
    let mut tops: BTreeMap<u64, TopInfo> = BTreeMap::new();
    if let Some(cp) = &parsed.checkpoint {
        store.load_dump(&cp.dump)?;
        tops = cp.table.clone();
        report.from_checkpoint = Some(cp.cp_lsn);
    }

    // ---- analysis ----------------------------------------------------
    let prior_passes =
        parsed.records.iter().filter(|r| matches!(r, WalRecord::RecoveryMark { .. })).count()
            as u64;
    report.rerecovery = prior_passes > 0;
    for (i, rec) in parsed.records.iter().enumerate() {
        fold(&mut tops, parsed.base_lsn + i as u64, rec);
    }
    report.winners = tops.values().filter(|t| t.committed).count();
    report.aborted = tops.values().filter(|t| t.aborted && !t.committed).count();

    // ---- subtrees the checkpoint caught open ---------------------------
    // Its dump holds their leaves. Those whose `SubCommit` survived stay
    // (the fold dropped them); redo skips the rest, so they go before
    // history repeats, version stamps first. An unexposed leaf's value
    // goes too: nobody else could write what it wrote until its method
    // ended, so undoing it here equals never doing it. An exposed one's
    // value stays, as the absolute values that later writers logged keep
    // it under redo, and its method's intent or rollback undoes it.
    for (_, inv, exposed) in tops.values().flat_map(|t| t.open_leaves.iter().rev()) {
        let (version, _) = store.object_version(inv.object)?;
        if !exposed {
            let op = RedoOp::of(inv).ok_or_else(|| {
                SemccError::Durability(format!("open-subtree undo {inv} is not a leaf update"))
            })?;
            replay(&store, &op)?;
        }
        store.force_version(inv.object, version.wrapping_sub(1))?;
    }

    let mut builder =
        Engine::builder(Arc::clone(&store) as Arc<dyn Storage>, catalog).protocol(config);
    if let Some(plan) = faults {
        builder = builder.fault_plan(plan);
    }
    if let Some(w) = &progress {
        builder = builder.wal(Arc::clone(w));
    }
    let engine = builder.build();
    // New transactions on the recovered engine (its WAL resumes this very
    // log) must never reuse a logged transaction id: a collision would
    // merge two transactions' records in a later pass's analysis.
    if let Some(max_top) = tops.keys().next_back() {
        engine.registry_ref().advance_past(*max_top);
    }
    let journal = |kind: JournalKind, top: u64, key: u64, aux: u64| {
        if let Some(j) = engine.journal() {
            j.record(kind, top, 0, 0, 0, key, aux);
        }
    };
    journal(JournalKind::RecoveryStart, 0, 0, report.surviving_records as u64);
    if report.rerecovery {
        Stats::bump(&engine.stats_ref().rerecoveries);
    }

    // Announce this pass in the progress log before doing anything, so a
    // crash below is visible to the next pass.
    if let Some(w) = &progress {
        w.append(&WalRecord::RecoveryMark { pass: prior_passes + 1 })
            .map_err(|e| SemccError::Durability(e.to_string()))?;
    }

    // ---- redo (repeating history) ------------------------------------
    for rec in &parsed.records {
        let (top, op) = match rec {
            WalRecord::LeafRedo { top, subtree, op } => {
                // A forward effect is real only if its depth-1 subtree
                // committed — anything else died with its subtransaction,
                // unexposed. No skip for aborted transactions: their
                // `CompRedo` records below cancel these exactly.
                if !tops[top].committed_subtrees.contains(subtree) {
                    // A skipped creation's id was still handed out.
                    if let Some(id) = op.created_id() {
                        store.advance_ids_past(id);
                    }
                    continue;
                }
                (top, op)
            }
            // Compensating effects always replay: they repaired state
            // other transactions went on to observe (and log absolutely).
            WalRecord::CompRedo { top, op, .. } => (top, op),
            _ => continue,
        };
        replay(&store, op)?;
        report.replayed_actions += 1;
        Stats::bump(&engine.stats_ref().replayed_actions);
        journal(JournalKind::RecoveryReplay, *top, op.object().0, 0);
    }

    // Aborted transactions' creations were GC'd in-process (the engine
    // deletes them unlogged after compensation) — possibly after the
    // checkpoint captured them, and redo re-creates the post-checkpoint
    // ones. Delete them best-effort before anything can observe them.
    let aborted_tops: Vec<u64> =
        tops.iter().filter(|(_, t)| t.aborted && !t.committed).map(|(top, _)| *top).collect();
    for top in aborted_tops {
        let created = std::mem::take(&mut tops.get_mut(&top).expect("analyzed above").creations);
        for obj in created.into_iter().rev() {
            if store.delete(obj).is_ok() {
                report.deleted_creations += 1;
            }
        }
    }

    // ---- undo by compensation ---------------------------------------
    // Newest-first, exactly like nested in-process aborts: a younger
    // loser may have built on an older one's exposed effects.
    let mut losers: Vec<u64> =
        tops.iter().filter(|(_, t)| !t.committed && !t.aborted).map(|(top, _)| *top).collect();
    losers.sort_by_key(|top| std::cmp::Reverse(tops[top].last_lsn));
    report.losers = losers.len();
    for top in losers {
        let info = tops.get_mut(&top).expect("analyzed above");
        let mut intents = std::mem::take(&mut info.intents);
        // Intents of a still-open depth-1 subtree's committed deep
        // methods (`SubIntent` records its `SubCommit` never superseded)
        // are the loser's newest undo work — the crash killed the
        // subtree after the effect was exposed but before its aggregate
        // comp reached the log. Appended last so the reversed execution
        // below runs them first, exactly as the in-process abort walks
        // the transaction tree.
        intents.extend(std::mem::take(&mut info.orphan_intents).into_iter().map(|(_, inv)| inv));
        // A crash mid-abort (or a crashed earlier recovery pass) leaves
        // `CompApplied` markers for the inverses already executed (the
        // newest ones — compensation runs in reverse, so orphan intents
        // are counted first) and redo already replayed their `CompRedo`
        // effects; only the remainder still needs running.
        let remaining = intents.len().saturating_sub(info.comp_applied as usize);
        intents.truncate(remaining);
        for inv in &intents {
            journal(JournalKind::RecoveryCompensation, top, inv.object.0, 0);
        }
        // Under a progress writer, the engine logs this compensation's
        // `CompRedo`/`CompApplied` under the *loser's* id (alias), and
        // suppresses the wrapper transaction's own resolution records.
        let alias = progress.as_ref().map(|_| top);
        match engine.compensate_transaction_as(intents, alias) {
            Ok(executed) => {
                report.compensations += executed as u64;
                Stats::add(&engine.stats_ref().recovery_compensations, executed as u64);
                // Mirror the abort path's GC: objects the loser created
                // (checkpointed or re-created by redo) disappear.
                for obj in
                    std::mem::take(&mut tops.get_mut(&top).expect("analyzed above").creations)
                        .into_iter()
                        .rev()
                {
                    if store.delete(obj).is_ok() {
                        report.deleted_creations += 1;
                    }
                }
                // Durably resolve the loser: from here on it is an
                // ordinary aborted transaction to any later pass. If the
                // record is lost, the next pass finds every inverse marked
                // applied and runs none of them again.
                if let Some(w) = &progress {
                    let _ = w.append(&WalRecord::TopAbort { top });
                }
            }
            Err(e) => {
                // Preserve the real cause; the audit decides what a
                // partially-compensated loser means for the run. No
                // `TopAbort` is logged — a later pass retries.
                let msg = match &e {
                    SemccError::CompensationFailed(m) => m.clone(),
                    other => other.to_string(),
                };
                report.failures.push((top, msg));
            }
        }
    }

    Stats::bump(&engine.stats_ref().recoveries);
    journal(JournalKind::RecoveryDone, 0, 0, report.losers as u64);
    Ok((engine, report))
}

/// Apply one redo op to the store.
fn replay(store: &MemoryStore, op: &RedoOp) -> Result<()> {
    match op {
        RedoOp::Put { obj, value } => {
            store.put(*obj, value.clone())?;
        }
        RedoOp::Insert { set, key, member } => store.set_insert(*set, *key, *member)?,
        RedoOp::Remove { set, key } => {
            store.set_remove(*set, *key)?;
        }
        RedoOp::CreateAtomic { id, type_id, value } => {
            store.restore_atomic(*id, *type_id, value.clone())?
        }
        RedoOp::CreateTuple { id, type_id, fields } => {
            store.restore_tuple(*id, *type_id, fields.clone())?
        }
        RedoOp::CreateSet { id, type_id } => store.restore_set(*id, *type_id)?,
        RedoOp::EscrowAdd { obj, delta } => {
            // Delta replay: re-apply the increment on top of whatever
            // value earlier records (absolute or delta) produced —
            // history repeats in log order.
            let cur = match store.get(*obj)? {
                Value::Int(i) => i,
                other => {
                    return Err(SemccError::Durability(format!(
                        "escrow replay target {obj:?} holds non-integer {other:?}"
                    )))
                }
            };
            store.put(*obj, Value::Int(cur + delta))?;
        }
    }
    Ok(())
}
