//! Log₂-bucketed latency histograms.
//!
//! Durations are recorded in nanoseconds into 65 power-of-two buckets:
//! bucket 0 holds zero, and bucket *i* (for *i* ≥ 1) holds the half-open
//! power-of-two range `(2^(i−1), 2^i]` — so a value exactly equal to a
//! bucket's upper edge lands *in* that bucket, not the next one. That
//! gives ~2× resolution from 1 ns to ~580 years with a fixed,
//! allocation-free footprint — the same trick as HdrHistogram's coarsest
//! setting, and plenty for per-op latency accounting. Quantiles are
//! linearly interpolated within the containing bucket
//! ([`HistogramSnapshot::percentile`]).
//!
//! There is one histogram, [`LiveHistogram`]: caller-owned and
//! anonymous, so it lives in a struct field (the serving stack's
//! per-instance `Introspect` phase breakdown) or on a bench's stack.
//! Nothing registers it globally.

use std::sync::atomic::{AtomicU64, Ordering};

const BUCKETS: usize = 65;

/// A caller-owned, anonymous log₂ histogram.
///
/// Instance-scoped data — the serving stack's per-phase latency
/// breakdown served over the `Introspect` wire op — lives in one of
/// these per owner. It is `const`-constructible and costs five relaxed
/// atomics per record.
#[derive(Debug)]
pub struct LiveHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LiveHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LiveHistogram {
    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies out an immutable view.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_nanos: self.sum.load(Ordering::Relaxed),
            min_nanos: self.min.load(Ordering::Relaxed),
            max_nanos: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Zeroes the histogram.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Bucket index for a nanosecond value: 0 for 0, else the smallest `i`
/// with `v ≤ 2^i` — i.e. `64 − clz(v − 1)`. A value exactly equal to a
/// power of two lands in the bucket whose upper edge it is.
#[inline]
#[must_use]
pub fn bucket_index(nanos: u64) -> usize {
    if nanos <= 1 {
        nanos as usize
    } else {
        (u64::BITS - (nanos - 1).leading_zeros()) as usize
    }
}

/// Upper bound (inclusive domain edge) of bucket `idx` in nanoseconds:
/// `2^idx`, saturating to `u64::MAX` for the overflow bucket 64.
#[must_use]
pub fn bucket_upper_bound(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 64 {
        u64::MAX
    } else {
        1u64 << idx
    }
}

/// Lower bound (exclusive domain edge) of bucket `idx`: the previous
/// bucket's upper bound (0 for buckets 0 and 1).
#[must_use]
pub fn bucket_lower_bound(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else {
        bucket_upper_bound(idx - 1)
    }
}

/// Point-in-time copy of one histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of all recorded values (ns).
    pub sum_nanos: u64,
    /// Smallest recorded value (ns); `u64::MAX` when empty.
    pub min_nanos: u64,
    /// Largest recorded value (ns).
    pub max_nanos: u64,
    /// Per-bucket counts (65 log₂ buckets).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Estimate of the `p`-th percentile (`0.0 ..= 1.0`) in ns, linearly
    /// interpolated within the containing bucket.
    ///
    /// The rank-`r` value (`r = ⌈p·count⌉`, clamped to `1..=count`) falls
    /// in some bucket `(lo, hi]`; the estimate places the bucket's `c`
    /// occupants evenly across that range and reads off the `r`-th, then
    /// clamps to the observed `[min, max]` so the tails are exact.
    /// Returns 0.0 for an empty histogram.
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = bucket_lower_bound(idx) as f64;
                let hi = bucket_upper_bound(idx) as f64;
                let frac = (rank - seen) as f64 / c as f64;
                let est = lo + frac * (hi - lo);
                return est.clamp(self.min_nanos as f64, self.max_nanos as f64);
            }
            seen += c;
        }
        self.max_nanos as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 2);
        assert_eq!(bucket_upper_bound(3), 8);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        assert_eq!(bucket_lower_bound(0), 0);
        assert_eq!(bucket_lower_bound(1), 0);
        assert_eq!(bucket_lower_bound(3), 4);
    }

    #[test]
    fn exact_powers_of_two_land_on_their_own_edge() {
        // The historical off-by-one put 2^i in bucket i+1; a value must
        // land in the bucket whose upper edge it equals.
        for i in 1..64usize {
            let v = 1u64 << i;
            assert_eq!(bucket_index(v), i, "2^{i} must land in bucket {i}");
            assert_eq!(bucket_upper_bound(bucket_index(v)), v);
        }
    }

    #[test]
    fn record_and_quantiles() {
        let h = LiveHistogram::new();
        for v in [1u64, 2, 3, 100, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum_nanos, 1_001_106);
        assert_eq!(s.min_nanos, 1);
        assert_eq!(s.max_nanos, 1_000_000);
        // Median rank 3 of {1,2,3,100,1000,1e6} is 3, alone in bucket
        // (2,4]: interpolation reads that bucket's upper edge.
        assert_eq!(s.percentile(0.5), 4.0);
        assert_eq!(s.percentile(1.0), 1_000_000.0);
    }

    #[test]
    fn live_histogram_is_anonymous_and_resettable() {
        let h = LiveHistogram::new();
        for v in [8u64, 8, 8, 8] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum_nanos, 32);
        assert_eq!(s.min_nanos, 8);
        assert_eq!(s.max_nanos, 8);
        // All mass on a single value: every percentile is that value.
        assert_eq!(s.percentile(0.5), 8.0);
        assert_eq!(s.percentile(0.99), 8.0);
        h.reset();
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn percentile_interpolates_and_clamps() {
        let h = LiveHistogram::new();
        // 10 values spread across bucket (64,128].
        for v in [65u64, 70, 80, 90, 100, 110, 115, 120, 125, 128] {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = s.percentile(0.5);
        // Interpolated midpoint of (64,128] with half the mass seen.
        assert!((64.0..=128.0).contains(&p50), "p50 {p50} outside bucket");
        // Tails clamp to the observed extremes, not the bucket edges.
        assert!(s.percentile(0.0) >= 65.0);
        assert!(s.percentile(0.0) <= p50);
        assert_eq!(s.percentile(1.0), 128.0);
        assert_eq!(LiveHistogram::new().snapshot().percentile(0.5), 0.0);
    }
}
