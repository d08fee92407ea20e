//! Process-wide named counters.
//!
//! A [`Counter`] is one relaxed atomic with a name. The first increment
//! registers it in a global registry so exporters can enumerate every
//! counter the process has ever touched; after that an increment is one
//! relaxed flag load plus one `fetch_add`. Counts are exact, ordering
//! between counters is not guaranteed (nor needed for op accounting).
//!
//! The registry is keyed by **name**, not by static: each
//! [`counter_add!`](crate::counter_add) call site owns its own static, so
//! an event booked from several sites (`cham_he.ops.rescale` from the
//! oracle and from the fused row tail) is several statics of one name,
//! and [`snapshot`] reports their sum as one entry.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A named monotonically increasing counter.
///
/// Construct via [`Counter::new`] in a `static` (the
/// [`counter_add!`](crate::counter_add) macro does this for you).
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Creates a counter named `name` (`<crate>.<module>.<op>`).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The counter's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[cold]
    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::AcqRel) {
            registry()
                .lock()
                .expect("counter registry poisoned")
                .push(self);
        }
    }

    /// Current value of this static (not the per-name sum).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

fn registry() -> &'static Mutex<Vec<&'static Counter>> {
    static REGISTRY: OnceLock<Mutex<Vec<&'static Counter>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Snapshot of every registered counter name, sorted by name, with the
/// values of same-named statics summed into one entry.
///
/// Counters that were never incremented in this process do not appear
/// (registration happens on first increment).
#[must_use]
pub fn snapshot() -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = registry()
        .lock()
        .expect("counter registry poisoned")
        .iter()
        .map(|c| (c.name(), c.get()))
        .collect();
    out.sort_unstable_by_key(|&(name, _)| name);
    out.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 += later.1;
        }
        same
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value_of(name: &str) -> Option<u64> {
        let snap = snapshot();
        let mut hits = snap.iter().filter(|&&(n, _)| n == name);
        let first = hits.next().map(|&(_, v)| v);
        assert!(hits.next().is_none(), "{name} listed twice");
        first
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        static C: Counter = Counter::new("cham_telemetry.counters.test_unit");
        let before = C.get();
        C.add(3);
        C.add(4);
        assert_eq!(C.get(), before + 7);
        assert_eq!(value_of("cham_telemetry.counters.test_unit"), Some(C.get()));
    }

    #[test]
    fn same_named_statics_sum_into_one_entry() {
        static A: Counter = Counter::new("cham_telemetry.counters.test_twin");
        static B: Counter = Counter::new("cham_telemetry.counters.test_twin");
        // Register both, then read the one entry's delta.
        A.add(1);
        B.add(1);
        let before = value_of("cham_telemetry.counters.test_twin").expect("registered");
        A.add(859);
        B.add(121);
        let after = value_of("cham_telemetry.counters.test_twin").expect("registered");
        assert_eq!(after - before, 980);
        assert_eq!(after, A.get() + B.get());
    }
}
