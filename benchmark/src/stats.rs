//! Order statistics over small samples of timings.

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), because
/// that is the rule the acceptance check applies to this benchmark's output.
/// A sample of one is its own three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of a sample.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Interquartile range as a share of the median: the spread the acceptance
/// check bounds.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The `p`-quantile (nearest rank) of an unsorted sample; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The highest of p90/p99/p99.9 that still has at least ten samples beyond
/// it, as `(label, value)`; `None` below 100 samples.
pub fn highest_supported_percentile(values: &[f64]) -> Option<(&'static str, f64)> {
    [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)]
        .into_iter()
        .find(|&(_, p)| values.len() as f64 * (1.0 - p) >= 10.0)
        .map(|(label, p)| (label, percentile(values, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 4.0, 12.0));
    }

    #[test]
    fn percentile_support_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&v), Some(("p99", 989.0)));
        assert_eq!(highest_supported_percentile(&v[..99]), None);
    }
}
