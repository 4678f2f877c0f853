//! Fixed-bucket log-scale latency histograms.
//!
//! A [`LatencyHistogram`] replaces the single microsecond-sum counter the
//! executor used to keep: 64 power-of-two buckets (bucket 0 holds exact
//! zeros, bucket *i* ≥ 1 covers `[2^(i-1), 2^i)` microseconds) recorded
//! with relaxed atomics, so concurrent workers pay one `fetch_add` per
//! observation and no locking. Quantiles are estimated from the bucket
//! cumulative distribution with linear interpolation inside the hit
//! bucket, clamped to the exact observed maximum — at worst a one-octave
//! overestimate, which is the standard trade for a fixed 64×8-byte
//! footprint (HdrHistogram-style systems make the same one).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: bucket 0 plus one per bit of a `u64` value.
pub const BUCKETS: usize = 64;

/// Bucket index of a microsecond value.
fn bucket_of(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive lower bound of a bucket, in microseconds.
fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Exclusive upper bound of a bucket, in microseconds.
fn bucket_hi(i: usize) -> u64 {
    if i == 0 {
        1
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// A concurrent log₂-bucket histogram of microsecond latencies.
pub struct LatencyHistogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency observation.
    pub fn record(&self, us: u64) {
        self.counts[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time summary with interpolated quantiles.
    pub fn summary(&self) -> HistogramSummary {
        let counts: Vec<u64> = self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let count: u64 = counts.iter().sum();
        let max_us = self.max_us.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            // Rank of the q-quantile observation (1-based, ceiling).
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if seen + c >= rank {
                    // Interpolate linearly within the bucket's value range.
                    let into = (rank - seen) as f64 / c as f64;
                    let lo = bucket_lo(i) as f64;
                    let hi = bucket_hi(i).min(max_us.max(1)) as f64;
                    return (lo + (hi - lo).max(0.0) * into).round() as u64;
                }
                seen += c;
            }
            max_us
        };
        HistogramSummary {
            count,
            sum_us: self.sum_us.load(Ordering::Relaxed),
            p50_us: quantile(0.50).min(max_us),
            p95_us: quantile(0.95).min(max_us),
            p99_us: quantile(0.99).min(max_us),
            max_us,
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LatencyHistogram({:?})", self.summary())
    }
}

/// Point-in-time summary of a [`LatencyHistogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations, microseconds.
    pub sum_us: u64,
    /// Estimated median, microseconds.
    pub p50_us: u64,
    /// Estimated 95th percentile, microseconds.
    pub p95_us: u64,
    /// Estimated 99th percentile, microseconds.
    pub p99_us: u64,
    /// Exact maximum, microseconds.
    pub max_us: u64,
}

impl HistogramSummary {
    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 63);
        for i in 1..BUCKETS - 1 {
            assert_eq!(bucket_of(bucket_lo(i)), i);
            assert_eq!(bucket_of(bucket_hi(i) - 1), i);
        }
    }

    #[test]
    fn empty_histogram_summarizes_to_zero() {
        let h = LatencyHistogram::new();
        let s = h.summary();
        assert_eq!(s, HistogramSummary::default());
        assert_eq!(s.mean_us(), 0.0);
    }

    #[test]
    fn single_value_dominates_every_quantile() {
        let h = LatencyHistogram::new();
        h.record(700);
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!((s.p50_us, s.p95_us, s.p99_us, s.max_us), (700, 700, 700, 700));
        assert_eq!(s.mean_us(), 700.0);
    }

    #[test]
    fn quantiles_track_a_skewed_distribution() {
        let h = LatencyHistogram::new();
        // 99 fast observations and one slow outlier.
        for _ in 0..99 {
            h.record(100);
        }
        h.record(60_000);
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.max_us, 60_000);
        // p50/p95 land in the 100 µs bucket [64, 128); p99 does too
        // (rank 99 of 100), while max shows the outlier.
        assert!((64..128).contains(&s.p50_us), "p50 = {}", s.p50_us);
        assert!((64..128).contains(&s.p95_us), "p95 = {}", s.p95_us);
        assert!(s.p99_us < 60_000);
        assert!(s.p50_us <= s.p95_us && s.p95_us <= s.p99_us && s.p99_us <= s.max_us);
    }

    #[test]
    fn quantiles_never_exceed_observed_max() {
        let h = LatencyHistogram::new();
        for v in [3, 5, 9, 1000, 1001] {
            h.record(v);
        }
        let s = h.summary();
        assert!(s.p99_us <= s.max_us);
        assert_eq!(s.max_us, 1001);
        assert_eq!(s.sum_us, 3 + 5 + 9 + 1000 + 1001);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(i % 2048);
                    }
                })
            })
            .collect();
        for t in hs {
            t.join().unwrap();
        }
        let s = h.summary();
        assert_eq!(s.count, 40_000);
        assert_eq!(s.max_us, 2047);
    }
}
