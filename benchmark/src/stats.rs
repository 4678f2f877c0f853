//! Order statistics over small samples: the reps of one run, or the runs
//! of one A/A set.

/// Median (mean of the two middle values for an even count). Panics on an
/// empty slice: every caller has at least one rep.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the *exclusive* method — the cut points
/// Python's `statistics.quantiles(values, n=4)` returns, which is what the
/// benchmark contract measures spread with. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |k: usize| {
        // Rank k(n+1)/4 (1-based); like Python, a rank outside the
        // sample extrapolates from the nearest pair.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Inter-quartile range as a share of the median: the run-to-run spread
/// the contract bounds.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Exact median of integer latencies, in place (`select_nth_unstable`).
/// Even counts return the lower middle — a real sample, and the
/// difference is below clock resolution at ≥10⁴ samples.
pub fn median_u32(values: &mut [u32]) -> u32 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mid = (values.len() - 1) / 2;
    *values.select_nth_unstable(mid).1
}

/// Exact `q`-quantile of integer latencies, in place (nearest rank).
pub fn quantile_u32(values: &mut [u32], q: f64) -> u32 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let rank = ((values.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    *values.select_nth_unstable(rank).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// `statistics.quantiles([1..=10], n=4)` is `[2.75, 5.5, 8.25]`, and
    /// for `[1, 2, 4, 8, 16]` it is `[1.5, 4.0, 12.0]`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&ten);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12, "{q1} {q3}");
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
        // Two values: Python extrapolates to [0.0, 3.0, 6.0] for [1, 5].
        assert_eq!(quartiles(&[1.0, 5.0]), (0.0, 6.0));
    }

    #[test]
    fn integer_order_statistics_are_exact() {
        let mut v = vec![9u32, 1, 8, 2, 7, 3, 6, 4, 5];
        assert_eq!(median_u32(&mut v), 5);
        assert_eq!(quantile_u32(&mut v, 1.0), 9);
        assert_eq!(quantile_u32(&mut v, 0.0), 1);
        let mut even = vec![4u32, 1, 3, 2];
        assert_eq!(median_u32(&mut even), 2, "lower middle");
    }
}
