//! Correctness checks. The cheap ones (residue, accounting) run after
//! every rep; the oracles (serial replay, recovery) run on the reps that
//! recorded outcomes.

use crate::workloads::{Workload, FLEET_SHARDS};
use semcc_core::{recover_image, Engine, ProtocolConfig, TopId, WalWriter};
use semcc_dist::Coordinator;
use semcc_objstore::MemoryStore;
use semcc_orderentry::{Database, TxnSpec};
use semcc_semantics::Storage;
use semcc_sim::{
    canonical_shard_state, check_snapshot_reads, check_state_equivalence, validate, CommittedTxn,
};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// A quiescent engine holds nothing: no lock entries, no live
/// transactions, no waits-for or speculation state.
pub fn engine_residue(engine: &Engine) -> Result<(), String> {
    let residue = (
        engine.lock_entries(),
        engine.live_transactions(),
        engine.wfg_residue(),
        engine.speculation_edges(),
    );
    if residue == (0, 0, (0, 0, 0, 0), 0) {
        Ok(())
    } else {
        Err(format!("engine residue {residue:?} (locks, live, wfg, speculation)"))
    }
}

/// The serial-replay oracle of `sim::validate` on a rep that recorded
/// outcomes: every snapshot read observed exactly the prefix below its
/// `commit_seq`, and replaying all committed transactions serially in
/// commit order on the initial state reproduces the final state and every
/// return value.
pub fn serial_replay_oracle(
    initial: &MemoryStore,
    db: &Database,
    committed: &[CommittedTxn],
) -> Result<(), String> {
    let report = check_snapshot_reads(initial, &db.catalog, committed)?;
    if !report.ok() {
        return Err(format!(
            "{} of {} snapshot reads did not observe their commit-order prefix (first: input {})",
            report.mismatches.len(),
            report.checked,
            report.mismatches[0]
        ));
    }
    // `check_state_equivalence` tries the order of `top` first; commit
    // order is the serialization order, so present it as that.
    let in_commit_order: Vec<CommittedTxn> =
        committed.iter().map(|c| CommittedTxn { top: TopId(c.commit_seq), ..c.clone() }).collect();
    check_state_equivalence(initial, &db.catalog, db.items_set, &in_commit_order, &db.store, 0)
        .map(|_| ())
        .ok_or_else(|| {
            format!(
                "serial replay of {} committed transactions in commit order does not reproduce \
                 the final state and return values",
                committed.len()
            )
        })
}

/// Acknowledged ⇒ durable, from flushed bytes only: cut the power (which
/// discards every unflushed byte), recover the surviving log image into a
/// fresh database and compare it with the live store every acknowledged
/// transaction ran against. Returns the recovery time in milliseconds.
pub fn acked_is_durable(wal: &WalWriter, live: &Database, w: Workload) -> Result<f64, String> {
    wal.power_fail();
    let image = wal.surviving_image();
    let fresh = Database::build(&w.db_params()).map_err(|e| format!("fresh build: {e}"))?;
    let t = Instant::now();
    let (recovered, _report) = recover_image(
        &image,
        Arc::clone(&fresh.store),
        Arc::clone(&fresh.catalog),
        ProtocolConfig::semantic(),
        None,
        None,
    )
    .map_err(|e| format!("recovery failed: {e}"))?;
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    let got = validate::canonical_state(recovered.storage().as_ref(), fresh.items_set)
        .map_err(|e| format!("recovered projection: {e}"))?;
    let want = validate::canonical_state(live.store.as_ref() as &dyn Storage, live.items_set)
        .map_err(|e| format!("live projection: {e}"))?;
    if got != want {
        return Err("state recovered from flushed log bytes != live state of acked commits".into());
    }
    Ok(recover_ms)
}

/// Every shard quiescent; the gtids with a durably logged commit decision
/// are exactly those the clients saw commit, and the coordinator acked
/// nothing else.
pub fn fleet_residue(coord: &Coordinator, acked: &[(u64, u32)]) -> Result<(), String> {
    for shard in coord.shards() {
        match shard.residue() {
            Some((0, 0, (0, 0, 0, 0), 0)) => {}
            Some(r) => return Err(format!("shard {} residue {r:?}", shard.idx())),
            None => return Err(format!("shard {} is down", shard.idx())),
        }
    }
    let committed: HashSet<u64> = coord.committed_gtids().into_iter().collect();
    if let Some(lost) = coord.acked().iter().find(|g| !committed.contains(g)) {
        return Err(format!("gtid {lost} was acked without a commit decision"));
    }
    if acked.len() != committed.len() || acked.iter().any(|(g, _)| !committed.contains(g)) {
        return Err(format!(
            "{} commit decisions, but the clients saw {} commits",
            committed.len(),
            acked.len()
        ));
    }
    Ok(())
}

/// Each shard's slice of the state equals the serial replay, on a fresh
/// replica, of its pieces of the committed transactions (`acked`, which
/// [`fleet_residue`] has shown to be the committed set).
pub fn fleet_serial_replay(
    coord: &Coordinator,
    batch: &[TxnSpec],
    acked: &[(u64, u32)],
    w: Workload,
) -> Result<(), String> {
    let mut by_gtid: Vec<(u64, u32)> = acked.to_vec();
    by_gtid.sort_unstable();
    for shard in coord.shards() {
        let idx = shard.idx();
        let serial = Database::build(&w.db_params()).map_err(|e| format!("serial build: {e}"))?;
        let engine = Engine::builder(
            Arc::clone(&serial.store) as Arc<dyn Storage>,
            Arc::clone(&serial.catalog),
        )
        .build();
        for (gtid, input) in &by_gtid {
            for (s, piece) in coord.partition().split(&batch[*input as usize]) {
                if s == idx {
                    engine
                        .execute(&piece)
                        .map_err(|e| format!("replay of gtid {gtid} on shard {idx}: {e}"))?;
                }
            }
        }
        let want = canonical_shard_state(
            serial.store.as_ref() as &dyn Storage,
            serial.items_set,
            FLEET_SHARDS,
            idx,
        )
        .map_err(|e| format!("serial projection: {e}"))?;
        let got = shard
            .with_live(|engine, db| {
                canonical_shard_state(engine.storage().as_ref(), db.items_set, FLEET_SHARDS, idx)
            })
            .ok_or_else(|| format!("shard {idx} is down"))?
            .map_err(|e| format!("shard projection: {e}"))?;
        if got != want {
            return Err(format!("shard {idx} state != serial replay of its committed pieces"));
        }
    }
    Ok(())
}
