//! Order statistics over latency samples and over repetitions.

/// The percentiles a report may quote, lowest first.
const LADDER: [f64; 5] = [0.50, 0.90, 0.95, 0.99, 0.999];

/// Samples that must lie beyond a percentile before it is quoted: with
/// fewer, the "percentile" is one or two outliers and does not repeat.
const MIN_SAMPLES_BEYOND: f64 = 10.0;

/// Nearest-rank percentile of an ascending slice, `p` in `(0, 1]`.
/// An empty slice yields 0.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// True when `n` samples leave at least ten beyond percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    // The epsilon absorbs `1.0 - 0.99` not being exactly 0.01.
    n as f64 * (1.0 - p) + 1e-9 >= MIN_SAMPLES_BEYOND
}

/// The highest percentile of the ladder that `n` samples support; the
/// median when even p90 has fewer than ten samples beyond it.
pub fn highest_supported(n: usize) -> f64 {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| supports(n, p))
        .unwrap_or(0.50)
}

/// Median of a non-empty list (mean of the middle two for even counts);
/// 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile the way Python's `statistics.quantiles(v, n=4)`
/// computes them (the benchmark contract's measure of spread): positions
/// `(len + 1) / 4` and `3 (len + 1) / 4`, counted from 1, interpolated and
/// clamped to the data. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Python: j = i * (n + 1) // 4 clamped to 1..=n-1, delta = i(n+1) - 4j.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// `(min, max)` of a list; `(0, 0)` when empty.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.001), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 needs 1000 samples: 1000 × 0.01 = 10 beyond.
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert_eq!(highest_supported(1000), 0.99);
        assert_eq!(highest_supported(999), 0.95);
        assert_eq!(highest_supported(10_000), 0.999);
        assert_eq!(highest_supported(200), 0.95);
        assert_eq!(highest_supported(199), 0.90);
        assert_eq!(highest_supported(100), 0.90);
        assert_eq!(highest_supported(99), 0.50);
        assert_eq!(highest_supported(0), 0.50);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_range() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(min_max(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(min_max(&[]), (0.0, 0.0));
    }
}
