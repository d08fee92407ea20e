//! Log₂-bucketed latency histograms.
//!
//! Durations are recorded in nanoseconds into 65 power-of-two buckets:
//! bucket 0 holds zero, and bucket *i* (for *i* ≥ 1) holds the half-open
//! power-of-two range `(2^(i−1), 2^i]` — so a value exactly equal to a
//! bucket's upper edge lands *in* that bucket, not the next one. That
//! gives ~2× resolution from 1 ns to ~580 years with a fixed,
//! allocation-free footprint — the same trick as HdrHistogram's coarsest
//! setting, and plenty for per-op latency accounting. Quantiles are
//! reported either as the upper bound of the containing bucket
//! ([`HistogramSnapshot::quantile_upper_nanos`]) or linearly interpolated
//! within it ([`HistogramSnapshot::percentile`]).
//!
//! There is one histogram body, [`LiveHistogram`]: caller-owned and
//! anonymous, so it can live in a struct field (the serving stack's
//! per-instance `Introspect` phase breakdown). A [`Histogram`] is a
//! `static` name and unit around one, registered globally on first
//! record so run records can enumerate it. The registry is keyed by
//! name: [`snapshot`] merges same-named statics (one per
//! [`time_scope!`](crate::time_scope) call site) bucket-wise.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

const BUCKETS: usize = 65;

/// A named, globally registered log₂ histogram. The default domain is
/// nanoseconds (scoped timers); [`Histogram::with_unit`] repurposes the
/// same machinery for other non-negative integer quantities (e.g. noise
/// bits).
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    unit: &'static str,
    live: LiveHistogram,
    registered: AtomicBool,
}

impl Histogram {
    /// Creates a histogram named `name` (`<crate>.<module>.<op>`).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self::with_unit(name, "ns")
    }

    /// Creates a histogram over a non-time domain (`unit` is a short
    /// label such as `"bits"`).
    #[must_use]
    pub const fn with_unit(name: &'static str, unit: &'static str) -> Self {
        Self {
            name,
            unit,
            live: LiveHistogram::new(),
            registered: AtomicBool::new(false),
        }
    }

    /// The histogram's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The histogram's value unit (`"ns"` for timers).
    #[must_use]
    pub fn unit(&self) -> &'static str {
        self.unit
    }

    /// Records one value (nanoseconds unless built
    /// [`with_unit`](Self::with_unit)).
    #[inline]
    pub fn record(&'static self, value: u64) {
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
        self.live.record(value);
    }

    #[cold]
    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::AcqRel) {
            registry()
                .lock()
                .expect("histogram registry poisoned")
                .push(self);
        }
    }

    /// Copies out an immutable view of this static's state (not the
    /// per-name merge).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.live.snapshot(self.name, self.unit)
    }
}

/// A caller-owned, anonymous log₂ histogram.
///
/// Instance-scoped data — the serving stack's per-phase latency
/// breakdown served over the `Introspect` wire op — lives in one of
/// these per owner. It is `const`-constructible, never registers itself
/// globally, and costs five relaxed atomics per record.
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

    /// Copies out an immutable view, labelled `name`/`unit` (the
    /// histogram itself is anonymous so it can live in struct fields).
    #[must_use]
    pub fn snapshot(&self, name: &'static str, unit: &'static str) -> HistogramSnapshot {
        HistogramSnapshot {
            name,
            unit,
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
    /// Histogram name.
    pub name: &'static str,
    /// Value unit (`"ns"` for timers).
    pub unit: &'static str,
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
    /// Folds `other` (same name, same bucket layout) into `self`.
    fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self.min_nanos = self.min_nanos.min(other.min_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Mean recorded value in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_nanos as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`) in ns.
    ///
    /// Returns 0 for an empty histogram. The estimate is the containing
    /// bucket's upper edge, so it over-reports by at most 2×.
    #[must_use]
    pub fn quantile_upper_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(idx).min(self.max_nanos);
            }
        }
        self.max_nanos
    }

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

fn registry() -> &'static Mutex<Vec<&'static Histogram>> {
    static REGISTRY: OnceLock<Mutex<Vec<&'static Histogram>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Snapshots of every registered histogram name, sorted by name, with
/// same-named statics merged bucket-wise into one entry. Histograms are
/// registered on first record.
#[must_use]
pub fn snapshot() -> Vec<HistogramSnapshot> {
    let mut out: Vec<HistogramSnapshot> = registry()
        .lock()
        .expect("histogram registry poisoned")
        .iter()
        .map(|h| h.snapshot())
        .collect();
    out.sort_by_key(|s| s.name);
    out.dedup_by(|later, kept| {
        let same = later.name == kept.name;
        if same {
            kept.merge(later);
        }
        same
    });
    out
}

/// Zeroes every registered histogram (keeps registrations).
pub fn reset() {
    for h in registry()
        .lock()
        .expect("histogram registry poisoned")
        .iter()
    {
        h.live.reset();
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
        let _guard = crate::test_guard();
        static H: Histogram = Histogram::new("cham_telemetry.histogram.test_unit");
        for v in [1u64, 2, 3, 100, 1000, 1_000_000] {
            H.record(v);
        }
        let s = H.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum_nanos, 1_001_106);
        assert_eq!(s.min_nanos, 1);
        assert_eq!(s.max_nanos, 1_000_000);
        assert!(s.mean_nanos() > 0.0);
        // Median rank 3 of {1,2,3,100,1000,1e6} is 3 → bucket (2,4].
        assert_eq!(s.quantile_upper_nanos(0.5), 4);
        assert_eq!(s.quantile_upper_nanos(1.0), 1_000_000);
        assert!(snapshot().iter().any(|x| x.name == s.name));
    }

    #[test]
    fn same_named_statics_merge_bucket_wise() {
        let _guard = crate::test_guard();
        static A: Histogram = Histogram::new("cham_telemetry.histogram.test_twin");
        static B: Histogram = Histogram::new("cham_telemetry.histogram.test_twin");
        reset();
        A.record(3);
        A.record(100);
        B.record(4);
        B.record(1_000);
        let all = snapshot();
        let twins: Vec<_> = all.iter().filter(|s| s.name == A.name()).collect();
        assert_eq!(twins.len(), 1, "one entry per name");
        let s = twins[0];
        assert_eq!((s.count, s.sum_nanos), (4, 1_107));
        assert_eq!((s.min_nanos, s.max_nanos), (3, 1_000));
        // 3 and 4 share bucket (2,4]: the merge adds bucket counts.
        assert_eq!(s.buckets[bucket_index(4)], 2);
    }

    #[test]
    fn live_histogram_is_anonymous_and_resettable() {
        let h = LiveHistogram::new();
        for v in [8u64, 8, 8, 8] {
            h.record(v);
        }
        let s = h.snapshot("cham_telemetry.histogram.test_live", "ns");
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
        let s = h.snapshot("cham_telemetry.histogram.test_pct", "ns");
        let p50 = s.percentile(0.5);
        // Interpolated midpoint of (64,128] with half the mass seen.
        assert!((64.0..=128.0).contains(&p50), "p50 {p50} outside bucket");
        // Tails clamp to the observed extremes, not the bucket edges.
        assert!(s.percentile(0.0) >= 65.0);
        assert!(s.percentile(0.0) <= p50);
        assert_eq!(s.percentile(1.0), 128.0);
        assert_eq!(
            LiveHistogram::new().snapshot("e", "ns").percentile(0.5),
            0.0
        );
    }
}
