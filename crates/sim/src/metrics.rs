//! Run metrics.

use semcc_core::{HistogramSummary, StatsSnapshot};
use std::time::Duration;

/// Aggregated results of one workload run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunMetrics {
    /// Protocol display name.
    pub protocol: String,
    /// Worker threads (multiprogramming level).
    pub workers: usize,
    /// Committed transactions.
    pub committed: u64,
    /// Aborted attempts of transactions that eventually *committed*
    /// (deadlock / lock-timeout victims that retried successfully).
    pub aborted_attempts: u64,
    /// Aborted attempts of transactions that eventually *failed* (retries
    /// burned before the final give-up; the give-up itself is `failed`).
    pub failed_attempts: u64,
    /// Transactions that exhausted their retries or hit a
    /// non-retryable error.
    pub failed: u64,
    /// Wall-clock duration of the run, microseconds (see
    /// [`RunMetrics::elapsed`]).
    pub elapsed_us: u64,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Mean latency per **committed** transaction (µs); failed
    /// transactions are accounted in `failed_latency` instead.
    pub mean_latency_us: f64,
    /// Fraction of lock requests that had to wait.
    pub block_ratio: f64,
    /// Latency distribution of committed transactions.
    pub commit_latency: HistogramSummary,
    /// Latency distribution of failed (given-up) transactions.
    pub failed_latency: HistogramSummary,
    /// Protocol counter snapshot (deltas for this run).
    pub stats: StatsSnapshot,
}

impl RunMetrics {
    /// The run's wall-clock duration.
    pub fn elapsed(&self) -> Duration {
        Duration::from_micros(self.elapsed_us)
    }

    /// Compact single-line rendering for tables.
    pub fn row(&self) -> String {
        format!(
            "{:<22} {:>3}w  {:>8.0} txn/s  commits {:>6}  aborts {:>5}+{:<4}  block {:>5.1}%  p50 {:>6}us  p99 {:>7}us  case1 {:>5}  case2 {:>5}  rootw {:>6}",
            self.protocol,
            self.workers,
            self.throughput,
            self.committed,
            self.aborted_attempts,
            self.failed_attempts,
            self.block_ratio * 100.0,
            self.commit_latency.p50_us,
            self.commit_latency.p99_us,
            self.stats.case1_grants,
            self.stats.case2_waits,
            self.stats.root_waits,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcc_core::LatencyHistogram;

    fn sample_metrics() -> RunMetrics {
        let commit = LatencyHistogram::new();
        for v in [100, 150, 220, 5000] {
            commit.record(v);
        }
        RunMetrics {
            protocol: "semantic".into(),
            workers: 8,
            committed: 4,
            aborted_attempts: 3,
            failed_attempts: 7,
            failed: 1,
            elapsed_us: 500_123,
            throughput: 200.5,
            mean_latency_us: 1367.5,
            block_ratio: 0.25,
            commit_latency: commit.summary(),
            failed_latency: LatencyHistogram::new().summary(),
            stats: StatsSnapshot::default(),
        }
    }

    #[test]
    fn row_renders_key_figures() {
        let row = sample_metrics().row();
        assert!(row.contains("semantic"));
        assert!(row.contains("200"), "throughput: {row}");
        assert!(row.contains("25.0%"));
        assert!(row.contains("3+7"), "both abort counters rendered: {row}");
        assert!(row.contains("p99"), "percentiles rendered: {row}");
    }
}
