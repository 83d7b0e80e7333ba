//! Order statistics over latency samples.

/// The `p`-th percentile (0..=100) with linear interpolation between the
/// two closest ranks. Panics on an empty slice: every caller has samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// A tail percentile is reported only when at least ten samples lie
/// beyond it; with fewer, a handful of outliers decides the value.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let beyond = samples.len() as f64 * (1.0 - p / 100.0);
    (beyond >= 10.0).then(|| percentile(samples, p))
}

/// Distance between the first and third quartile as a share of the
/// median, as Python's `statistics.quantiles(values, n=4)` cuts them
/// (exclusive method) — the spread the benchmark's acceptance uses.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |q: f64| {
        let pos = (q * (n + 1) as f64).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n);
        sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * (pos - lo as f64)
    };
    (cut(0.75) - cut(0.25)) / median(&sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 95.0), None);
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 95.0), Some(percentile(&v, 95.0)));
        assert!(tail_percentile(&v, 99.0).is_none());
        assert!(tail_percentile(&v[..20], 50.0).is_some());
    }

    #[test]
    fn iqr_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
