//! Order statistics over timing samples.

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` ascending; timing samples are never NaN.
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
}

/// Median of `samples` (sorts them).
pub fn median(samples: &mut [f64]) -> f64 {
    sort(samples);
    percentile(samples, 0.5)
}

/// Splits `0..n` into `parts` contiguous ranges of near-equal length.
pub fn segments(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    (0..parts).map(|k| k * n / parts..(k + 1) * n / parts).filter(|r| !r.is_empty()).collect()
}

/// `f` of each segment's samples (sorted first), and the median of those
/// values. One stall of the machine then moves one segment's value, not
/// the metric.
pub fn median_over_segments(segments: &mut [Vec<f64>], f: impl Fn(&[f64]) -> f64) -> f64 {
    let mut values: Vec<f64> = segments
        .iter_mut()
        .filter(|s| !s.is_empty())
        .map(|s| {
            sort(s);
            f(s)
        })
        .collect();
    median(&mut values)
}

/// The percentiles a report may quote, ascending.
pub const LADDER: [f64; 5] = [0.50, 0.90, 0.95, 0.99, 0.999];

/// The highest percentile of [`LADDER`] that `n` samples support: at least
/// ten samples lie beyond it. `None` below 20 samples.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().copied().rfind(|q| supports(n, *q))
}

/// Whether at least ten of `n` samples lie beyond percentile `q`.
pub fn supports(n: usize, q: f64) -> bool {
    let rank = (q * n as f64).ceil() as usize;
    n >= rank + 10
}

/// `percentile(sorted, q)` if the sample supports it, else 0: a tail
/// quoted from fewer than ten samples beyond it is noise.
pub fn percentile_if_supported(sorted: &[f64], q: f64) -> f64 {
    if supports(sorted.len(), q) {
        percentile(sorted, q)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn one_bad_segment_does_not_move_the_median_over_segments() {
        assert_eq!(segments(10, 3), [0..3, 3..6, 6..10]);
        assert_eq!(segments(2, 5).len(), 2);
        let mut segs: Vec<Vec<f64>> = (0..5).map(|_| (1..=100).map(f64::from).collect()).collect();
        segs[3].iter_mut().for_each(|v| *v += 1000.0);
        assert_eq!(median_over_segments(&mut segs, |s| percentile(s, 0.95)), 95.0);
    }

    #[test]
    fn picker_wants_ten_samples_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.50));
        assert_eq!(highest_supported(100), Some(0.90));
        assert_eq!(highest_supported(199), Some(0.90));
        assert_eq!(highest_supported(200), Some(0.95));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(9_999), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        let v: Vec<f64> = (0..3_000).map(f64::from).collect();
        assert!(percentile_if_supported(&v, 0.99) > 0.0);
        assert_eq!(percentile_if_supported(&v, 0.999), 0.0);
    }
}
