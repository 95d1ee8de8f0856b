//! Property tests of the log-linear histogram, through its public API.
//! They live outside the crate so `cargo test -p ea-trace --lib` needs
//! no `proptest`.

use ea_trace::{Histogram, HistogramSnapshot};
use proptest::prelude::*;

fn values() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..1_000_000_000, 1..200)
}

proptest! {
    #[test]
    fn percentile_is_monotone_and_bounded(vals in values()) {
        let h = Histogram::new();
        for &v in &vals { h.record(v); }
        let s = h.snapshot();
        let mut last = 0u64;
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let p = s.percentile(q);
            prop_assert!(p >= last, "quantiles must be monotone");
            prop_assert!(p >= s.min && p <= s.max);
            last = p;
        }
    }

    #[test]
    fn percentile_has_bounded_relative_error(vals in values()) {
        let h = Histogram::new();
        for &v in &vals { h.record(v); }
        let s = h.snapshot();
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.95, 0.99] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
            let exact = sorted[rank] as f64;
            let got = s.percentile(q) as f64;
            // Log-linear buckets with 16 sub-buckets: ≤ 1/16 relative
            // error (plus 1 for integer edges).
            prop_assert!(
                (got - exact).abs() <= exact / 16.0 + 1.0,
                "q={} got={} exact={}", q, got, exact
            );
        }
    }

    #[test]
    fn merge_equals_recording_everything_in_one(a in values(), b in values()) {
        let ha = Histogram::new();
        for &v in &a { ha.record(v); }
        let hb = Histogram::new();
        for &v in &b { hb.record(v); }
        let hall = Histogram::new();
        for &v in a.iter().chain(&b) { hall.record(v); }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        prop_assert_eq!(merged, hall.snapshot());
    }

    /// Cross-process merge: each "process" records its own samples,
    /// ships its histogram as sparse wire buckets, and the collector
    /// merges the decoded snapshots. Count/sum stay exact and the
    /// merged percentiles keep the 1/16 log-linear error bound
    /// against the pooled raw samples.
    #[test]
    fn cross_process_merge_preserves_counts_and_percentiles(
        procs in proptest::collection::vec(values(), 2..5)
    ) {
        let mut merged = HistogramSnapshot::empty();
        for vals in &procs {
            let h = Histogram::new();
            for &v in vals { h.record(v); }
            let s = h.snapshot();
            // Round-trip through the compact collector wire form.
            let pairs: Vec<(u32, u64)> = s.nonzero_buckets().collect();
            let decoded =
                HistogramSnapshot::from_sparse(&pairs, s.sum, s.min, s.max).unwrap();
            prop_assert_eq!(&decoded, &s);
            merged.merge(&decoded);
        }
        let mut pooled: Vec<u64> = procs.iter().flatten().copied().collect();
        pooled.sort_unstable();
        prop_assert_eq!(merged.count, pooled.len() as u64);
        prop_assert_eq!(merged.sum, pooled.iter().sum::<u64>());
        prop_assert_eq!(merged.min, pooled[0]);
        prop_assert_eq!(merged.max, *pooled.last().unwrap());
        for q in [0.5, 0.95, 0.99] {
            let rank = ((q * pooled.len() as f64).ceil() as usize).max(1) - 1;
            let exact = pooled[rank] as f64;
            let got = merged.percentile(q) as f64;
            prop_assert!(
                (got - exact).abs() <= exact / 16.0 + 1.0,
                "q={} got={} exact={}", q, got, exact
            );
        }
    }

    #[test]
    fn count_sum_min_max_are_exact(vals in values()) {
        let h = Histogram::new();
        for &v in &vals { h.record(v); }
        let s = h.snapshot();
        prop_assert_eq!(s.count, vals.len() as u64);
        prop_assert_eq!(s.sum, vals.iter().sum::<u64>());
        prop_assert_eq!(s.min, *vals.iter().min().unwrap());
        prop_assert_eq!(s.max, *vals.iter().max().unwrap());
    }
}
