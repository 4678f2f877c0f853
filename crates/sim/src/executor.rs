//! Multi-threaded workload executor.
//!
//! Latency accounting keeps two separate [`LatencyHistogram`]s: one for
//! transactions that eventually committed, one for those that gave up after
//! exhausting retries, so a mean over commits never carries the time of a
//! transaction that failed. Retried-attempt counts are split along the
//! same line.

use crate::metrics::RunMetrics;
use parking_lot::Mutex;
use semcc_core::kernel::LockTableDump;
use semcc_core::{Engine, LatencyHistogram, TopId};
use semcc_orderentry::TxnSpec;
use semcc_semantics::Value;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parameters of one run.
#[derive(Clone, Debug)]
pub struct RunParams {
    /// Worker threads (multiprogramming level).
    pub workers: usize,
    /// Retries per transaction before giving up.
    pub max_retries: u32,
    /// Record committed transactions for validation (adds allocation
    /// overhead; disable for throughput measurements).
    pub record_outcomes: bool,
    /// Sample the engine's lock table at this interval from a dedicated
    /// observer thread (`None` = no sampling). Each sample is a full
    /// [`LockTableDump`]; keep the interval ≥ a few milliseconds.
    pub sample_every: Option<Duration>,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams { workers: 4, max_retries: 1000, record_outcomes: false, sample_every: None }
    }
}

/// A committed transaction: its program, engine-assigned id and result.
#[derive(Clone, Debug)]
pub struct CommittedTxn {
    /// Position in the input batch.
    pub input_idx: usize,
    /// The executed program.
    pub spec: TxnSpec,
    /// Engine transaction id (commit order correlates with it loosely).
    pub top: TopId,
    /// Return value.
    pub value: Value,
    /// Committed on the lock-free snapshot read path (see
    /// [`check_snapshot_reads`](crate::validate::check_snapshot_reads)).
    pub snapshot: bool,
    /// Engine-wide commit sequence number: a snapshot transaction observed
    /// exactly the effects of the transactions with smaller `commit_seq`.
    pub commit_seq: u64,
}

/// One periodic lock-table observation taken during a run.
#[derive(Clone, Debug)]
pub struct LockTableSample {
    /// Microseconds since the run started.
    pub at_us: u64,
    /// The lock-table state at that instant.
    pub dump: LockTableDump,
}

/// Result of [`run_workload`].
#[derive(Debug)]
pub struct RunOutcome {
    /// Aggregated metrics.
    pub metrics: RunMetrics,
    /// Committed transactions (empty unless `record_outcomes`).
    pub committed: Vec<CommittedTxn>,
    /// Periodic lock-table samples (empty unless `sample_every`).
    pub samples: Vec<LockTableSample>,
}

/// Execute a batch of transactions on `engine` with `params.workers`
/// threads. Each transaction is retried on deadlock up to
/// `params.max_retries` times.
pub fn run_workload(engine: &Arc<Engine>, batch: Vec<TxnSpec>, params: &RunParams) -> RunOutcome {
    let stats_before = engine.stats();
    let next = AtomicUsize::new(0);
    let batch = Arc::new(batch);
    let committed = Mutex::new(Vec::new());
    let commit_count = AtomicU64::new(0);
    let retried_then_committed = AtomicU64::new(0);
    let retried_then_failed = AtomicU64::new(0);
    let failed_count = AtomicU64::new(0);
    let commit_latency = LatencyHistogram::new();
    let failed_latency = LatencyHistogram::new();
    let done = AtomicBool::new(false);
    let samples = Mutex::new(Vec::new());

    let t0 = Instant::now();
    let elapsed = std::thread::scope(|s| {
        if let Some(every) = params.sample_every {
            let done = &done;
            let samples = &samples;
            s.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    // Sleep first so a sub-interval run yields no samples
                    // instead of one trivial all-zero dump.
                    std::thread::sleep(every);
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    samples.lock().push(LockTableSample {
                        at_us: t0.elapsed().as_micros() as u64,
                        dump: engine.lock_table(),
                    });
                }
            });
        }
        // Inner scope is the worker barrier: when it exits, the batch is
        // drained and the wall-clock measurement stops — the sampler's
        // shutdown latency never counts against throughput.
        std::thread::scope(|w| {
            for _ in 0..params.workers.max(1) {
                let batch = Arc::clone(&batch);
                let next = &next;
                let committed = &committed;
                let commit_count = &commit_count;
                let retried_then_committed = &retried_then_committed;
                let retried_then_failed = &retried_then_failed;
                let failed_count = &failed_count;
                let commit_latency = &commit_latency;
                let failed_latency = &failed_latency;
                w.spawn(move || loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = batch.get(idx) else { break };
                    let t = Instant::now();
                    let (res, retries) = engine.execute_with_retry(spec, params.max_retries);
                    let us = t.elapsed().as_micros() as u64;
                    match res {
                        Ok(out) => {
                            commit_latency.record(us);
                            commit_count.fetch_add(1, Ordering::Relaxed);
                            retried_then_committed.fetch_add(u64::from(retries), Ordering::Relaxed);
                            if params.record_outcomes {
                                committed.lock().push(CommittedTxn {
                                    input_idx: idx,
                                    spec: spec.clone(),
                                    top: out.top,
                                    value: out.value,
                                    snapshot: out.snapshot,
                                    commit_seq: out.commit_seq,
                                });
                            }
                        }
                        Err(_) => {
                            failed_latency.record(us);
                            failed_count.fetch_add(1, Ordering::Relaxed);
                            retried_then_failed.fetch_add(u64::from(retries), Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let elapsed = t0.elapsed();
        done.store(true, Ordering::Release);
        elapsed
    });

    let stats = engine.stats().delta(&stats_before);
    let committed_n = commit_count.load(Ordering::Relaxed);
    let block_ratio = if stats.lock_requests > 0 {
        stats.blocked_requests as f64 / stats.lock_requests as f64
    } else {
        0.0
    };
    let mut committed = committed.into_inner();
    committed.sort_by_key(|c| c.top);
    let commit_summary = commit_latency.summary();

    RunOutcome {
        metrics: RunMetrics {
            protocol: engine.protocol_name().to_owned(),
            workers: params.workers,
            committed: committed_n,
            aborted_attempts: retried_then_committed.load(Ordering::Relaxed),
            failed_attempts: retried_then_failed.load(Ordering::Relaxed),
            failed: failed_count.load(Ordering::Relaxed),
            elapsed_us: elapsed.as_micros() as u64,
            throughput: committed_n as f64 / elapsed.as_secs_f64().max(1e-9),
            mean_latency_us: commit_summary.mean_us(),
            block_ratio,
            commit_latency: commit_summary,
            failed_latency: failed_latency.summary(),
            stats,
        },
        committed,
        samples: samples.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{build_engine, ProtocolKind};
    use semcc_orderentry::{Database, DbParams, Workload, WorkloadConfig};

    fn small_db() -> Database {
        Database::build(&DbParams { n_items: 4, orders_per_item: 3, ..Default::default() }).unwrap()
    }

    #[test]
    fn runs_a_batch_and_counts_commits() {
        let db = small_db();
        let engine = build_engine(ProtocolKind::Semantic, &db, None);
        let mut w = Workload::new(&db, WorkloadConfig::default());
        let batch = w.batch(&db, 40);
        let out = run_workload(&engine, batch, &RunParams { workers: 4, ..Default::default() });
        assert_eq!(out.metrics.committed + out.metrics.failed, 40);
        assert_eq!(out.metrics.failed, 0);
        assert!(out.metrics.throughput > 0.0);
        assert!(out.committed.is_empty(), "outcomes not recorded by default");
        assert!(out.samples.is_empty(), "no sampler by default");
        assert_eq!(out.metrics.commit_latency.count, 40);
        assert_eq!(out.metrics.failed_latency.count, 0);
        assert!(out.metrics.elapsed_us > 0);
    }

    #[test]
    fn records_outcomes_when_asked() {
        let db = small_db();
        let engine = build_engine(ProtocolKind::Object2pl, &db, None);
        let mut w = Workload::new(&db, WorkloadConfig::default());
        let batch = w.batch(&db, 10);
        let out = run_workload(
            &engine,
            batch,
            &RunParams { workers: 2, record_outcomes: true, ..Default::default() },
        );
        assert_eq!(out.committed.len(), 10);
        // Tops are unique and sorted.
        let mut tops: Vec<_> = out.committed.iter().map(|c| c.top).collect();
        let sorted = tops.clone();
        tops.sort();
        tops.dedup();
        assert_eq!(tops.len(), 10);
        assert_eq!(tops, sorted);
        // Commit sequence numbers are assigned and unique.
        let mut seqs: Vec<_> = out.committed.iter().map(|c| c.commit_seq).collect();
        seqs.sort();
        seqs.dedup();
        assert_eq!(seqs.len(), 10, "every commit draws a distinct sequence number");
        assert!(seqs[0] >= 1);
        // Snapshot-flag consistency: only read-only specs may carry it.
        for c in &out.committed {
            assert!(!c.snapshot || !c.spec.is_update(), "update txn flagged snapshot");
        }
    }

    #[test]
    fn mean_latency_counts_committed_transactions_only() {
        use semcc_core::{Engine, FaultPlan, FaultSpec, FaultyStorage, ProtocolConfig};
        use semcc_semantics::Storage;
        let db = small_db();
        // Every storage operation fails non-retryably: all transactions
        // give up and nothing ever commits.
        let plan = FaultPlan::new(1, FaultSpec::storage(1.0));
        let store =
            FaultyStorage::new(Arc::clone(&db.store) as Arc<dyn Storage>, Arc::clone(&plan));
        let engine = Engine::builder(store as Arc<dyn Storage>, Arc::clone(&db.catalog))
            .protocol(ProtocolConfig::semantic())
            .build();
        let mut w = Workload::new(&db, WorkloadConfig::default());
        let batch = w.batch(&db, 12);
        let out = run_workload(&engine, batch, &RunParams { workers: 2, ..Default::default() });
        assert_eq!(out.metrics.committed, 0);
        assert_eq!(out.metrics.failed, 12);
        // The committed-population statistics must stay empty — failed
        // transactions used to leak into the mean's numerator.
        assert_eq!(out.metrics.commit_latency.count, 0);
        assert_eq!(out.metrics.mean_latency_us, 0.0);
        assert_eq!(out.metrics.failed_latency.count, 12);
        assert_eq!(out.metrics.aborted_attempts, 0, "no txn retried then committed");
    }

    #[test]
    fn sampler_collects_lock_table_dumps() {
        let db = small_db();
        let engine = build_engine(ProtocolKind::Semantic, &db, None);
        let mut w = Workload::new(&db, WorkloadConfig::default());
        let batch = w.batch(&db, 400);
        let out = run_workload(
            &engine,
            batch,
            &RunParams {
                workers: 4,
                sample_every: Some(Duration::from_micros(200)),
                ..Default::default()
            },
        );
        assert_eq!(out.metrics.committed, 400);
        assert!(!out.samples.is_empty(), "a 400-txn run outlasts the 200µs interval");
        for pair in out.samples.windows(2) {
            assert!(pair[0].at_us <= pair[1].at_us, "samples are in time order");
        }
        for s in &out.samples {
            assert_eq!(s.dump.per_shard_keys.iter().sum::<usize>(), s.dump.keys);
        }
        let after = engine.lock_table();
        assert_eq!((after.keys, after.waiting), (0, 0), "lock table drained after the run");
    }
}
