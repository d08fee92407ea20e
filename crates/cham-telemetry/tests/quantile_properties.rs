//! Property tests for histogram quantile estimation against a
//! sorted-vector oracle.
//!
//! A log₂ histogram cannot reproduce exact order statistics, but it
//! *must* stay honest about which bucket they live in: for any data set,
//! the estimated percentile has to land inside the bucket containing the
//! true rank value (then clamp to the observed extremes). These
//! properties pin both the interpolation and the bucket-boundary
//! semantics — a value equal to a bucket's upper edge belongs to that
//! bucket — against randomized inputs.

use cham_telemetry::histogram::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, LiveHistogram,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// The oracle: exact rank statistic over the sorted raw values, using
/// the same rank rule as the histogram (`⌈p·n⌉` clamped to `1..=n`).
fn oracle_rank_value(sorted: &[u64], p: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

fn values() -> impl Strategy<Value = Vec<u64>> {
    // Mix tiny, mid, and huge magnitudes so every bucket regime is hit.
    vec(
        (0u64..4, any::<u64>()).prop_map(|(mode, raw)| match mode {
            0 => raw % 16,
            1 => 1 + raw % 10_000,
            2 => 1 + raw % (u64::MAX / 2),
            _ => u64::MAX,
        }),
        1..200,
    )
}

fn probability() -> impl Strategy<Value = f64> {
    // Inclusive [0, 1] in millesimal steps (the shim's f64 range is
    // half-open, and the endpoints are exactly the interesting cases).
    (0u64..=1000).prop_map(|x| x as f64 / 1000.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn percentile_lands_in_the_oracle_bucket(vals in values(), p in probability()) {
        let mut vals = vals;
        let h = LiveHistogram::new();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        let s = h.snapshot();
        let truth = oracle_rank_value(&vals, p);
        let b = bucket_index(truth);
        let est = s.percentile(p);
        let lo = bucket_lower_bound(b) as f64;
        let hi = bucket_upper_bound(b) as f64;
        prop_assert!(
            est >= lo && est <= hi,
            "p={p}: estimate {est} outside oracle bucket [{lo}, {hi}] (truth {truth})"
        );
        // And never outside the observed range.
        prop_assert!(est >= *vals.first().unwrap() as f64);
        prop_assert!(est <= *vals.last().unwrap() as f64);
    }

    #[test]
    fn percentiles_are_monotone_in_p(vals in values()) {
        let h = LiveHistogram::new();
        for &v in &vals {
            h.record(v);
        }
        let s = h.snapshot();
        let ps = [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0];
        for w in ps.windows(2) {
            prop_assert!(
                s.percentile(w[0]) <= s.percentile(w[1]),
                "percentile not monotone between {} and {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn bucket_membership_is_exact(v in any::<u64>()) {
        let b = bucket_index(v);
        prop_assert!(v <= bucket_upper_bound(b));
        if b > 0 {
            prop_assert!(v > bucket_lower_bound(b));
        }
    }
}
