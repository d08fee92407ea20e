//! RAII scoped timers.
//!
//! A [`ScopedTimer`] measures the wall time between its construction and
//! drop and records it into its [`Histogram`]. Scopes may nest; each
//! records its own inclusive time.

use crate::histogram::Histogram;
use std::time::Instant;

/// An RAII span: times from construction to drop.
///
/// Usually created via [`time_scope!`](crate::time_scope), which supplies
/// the per-call-site static histogram.
#[derive(Debug)]
pub struct ScopedTimer {
    hist: &'static Histogram,
    start: Instant,
}

impl ScopedTimer {
    /// Opens a span recording into `hist` (named after the span).
    #[inline]
    #[must_use]
    pub fn new(hist: &'static Histogram) -> Self {
        Self {
            hist,
            start: Instant::now(),
        }
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.hist.record(nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record() {
        let _guard = crate::test_guard();
        static OUTER: Histogram = Histogram::new("cham_telemetry.timer.test_outer");
        static INNER: Histogram = Histogram::new("cham_telemetry.timer.test_inner");
        {
            let _outer = ScopedTimer::new(&OUTER);
            {
                let _inner = ScopedTimer::new(&INNER);
                std::hint::black_box(42);
            }
            assert_eq!(INNER.snapshot().count, 1, "inner closed first");
            assert_eq!(OUTER.snapshot().count, 0, "outer still open");
        }
        let (outer, inner) = (OUTER.snapshot(), INNER.snapshot());
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(
            outer.sum_nanos >= inner.sum_nanos,
            "outer time is inclusive"
        );
    }
}
