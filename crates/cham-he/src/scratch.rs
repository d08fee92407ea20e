//! Per-worker scratch buffers for the fused HMVP kernels.
//!
//! Everything after the input lift — the row MAC, the rescale→extract
//! tail, the key-switch inside every `PACKTWOLWES` — works in caller-owned
//! flat buffers: the row MAC's two `u128` deferred-reduction accumulators
//! and a `u64` area for key-switch digits and pre-rescale polynomials. Backing
//! those with fresh vectors would put a dozen heap allocations on every
//! row and every pack step; instead, workers check a [`DotScratch`] out of
//! a small pool keyed by the `cham-pool` worker index, so the steady state
//! recycles one scratch per worker with no locking contention (each worker
//! hits its own slot).
//!
//! Ownership rules:
//! * a scratch is owned exclusively for the duration of one
//!   [`ScratchPool::with`] call and returned to the caller's slot
//!   afterwards,
//! * buffers are size-matched, never resized — a request for an unseen
//!   `(degree, limbs)` shape allocates (a *miss*) and the buffer joins the
//!   pool on release,
//! * slot depth is bounded ([`MAX_PER_SLOT`]); excess buffers are dropped
//!   rather than hoarded.
//!
//! Hit/miss counts are kept per pool instance (so a test can watch a
//! private pool no sibling test touches) and in the process-wide
//! `cham_he.hmvp.scratch.{hit,miss}` counters that [`scratch_stats`] and
//! run records read.

use cham_math::rns::RnsContext;
use cham_telemetry::Counter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Upper bound on buffers parked per worker slot.
const MAX_PER_SLOT: usize = 4;

/// Reusable working memory for one row or one pack subtree over an
/// augmented basis of `limbs × degree` lanes.
pub(crate) struct DotScratch {
    /// The row MAC's deferred-reduction accumulators for the `b` and `a`
    /// components, `lanes` each.
    pub(crate) b_acc: Vec<u128>,
    pub(crate) a_acc: Vec<u128>,
    /// `max(limbs − 1, 2) · lanes` words: the key-switch digits (and, once
    /// the digit product has consumed them, its two sums), or a row tail's
    /// `a` limbs and `b₀` residues (`lanes + 2 · limbs ≤ 2 · lanes`).
    pub(crate) words: Vec<u64>,
    degree: usize,
}

impl DotScratch {
    fn new(ctx: &RnsContext) -> Self {
        let (lanes, degree) = (ctx.len() * ctx.degree(), ctx.degree());
        let digits = (ctx.len() - 1).max(2);
        Self {
            b_acc: vec![0; lanes],
            a_acc: vec![0; lanes],
            words: vec![0; digits * lanes],
            degree,
        }
    }

    fn fits(&self, ctx: &RnsContext) -> bool {
        self.b_acc.len() == ctx.len() * ctx.degree() && self.degree == ctx.degree()
    }
}

/// A pool of [`DotScratch`] buffers, one stack per `cham-pool` worker.
pub(crate) struct ScratchPool {
    /// Slot 0 serves non-pool threads; slot `i + 1` serves pool worker `i`.
    slots: Vec<Mutex<Vec<DotScratch>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

static HITS: Counter = Counter::new("cham_he.hmvp.scratch.hit");
static MISSES: Counter = Counter::new("cham_he.hmvp.scratch.miss");

impl ScratchPool {
    /// A pool with `slots` worker stacks (at least one).
    pub(crate) fn new(slots: usize) -> Self {
        Self {
            slots: (0..slots.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The pool every kernel entry point draws from, sized off the
    /// `cham-pool` pool current at first use.
    pub(crate) fn global() -> &'static Self {
        static POOL: OnceLock<ScratchPool> = OnceLock::new();
        POOL.get_or_init(|| Self::new(cham_pool::current_threads() + 1))
    }

    /// This pool's `(hits, misses)`.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// The calling thread's slot. Worker indices from a private
    /// (non-global) pool may exceed the slot count sized off the global
    /// pool — the modulo keeps them valid at worst sharing a slot.
    fn slot_index(&self) -> usize {
        cham_pool::current_worker_index().map_or(0, |i| (i + 1) % self.slots.len())
    }

    /// Runs `f` with a checked-out scratch shaped for `ctx` (the augmented
    /// basis), returning the buffer to the worker's slot afterwards.
    pub(crate) fn with<T>(&self, ctx: &RnsContext, f: impl FnOnce(&mut DotScratch) -> T) -> T {
        let idx = self.slot_index();
        let mut scratch = {
            let mut stack = self.slots[idx].lock().expect("scratch slot poisoned");
            match stack.iter().position(|s| s.fits(ctx)) {
                Some(pos) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    HITS.add(1);
                    stack.swap_remove(pos)
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    MISSES.add(1);
                    DotScratch::new(ctx)
                }
            }
        };
        let out = f(&mut scratch);
        // Return to the slot we took it from; a worker migrating between
        // calls only costs a future miss, never correctness.
        let mut stack = self.slots[idx].lock().expect("scratch slot poisoned");
        if stack.len() < MAX_PER_SLOT {
            stack.push(scratch);
        }
        out
    }
}

/// Scratch hit and miss totals `(hits, misses)` since process start, over
/// every pool instance. A flat miss count across repeated multiplies is
/// the zero-allocation steady-state witness reported in run records.
#[must_use]
pub fn scratch_stats() -> (u64, u64) {
    (HITS.get(), MISSES.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cham_math::modulus::{Q0, Q1, SPECIAL_P};

    fn ctx(n: usize) -> RnsContext {
        RnsContext::new(n, &[Q0, Q1, SPECIAL_P]).unwrap()
    }

    #[test]
    fn reuse_is_a_hit_and_misses_stay_flat() {
        // A private pool: sibling tests hammer the global one in parallel.
        let pool = ScratchPool::new(1);
        let c = ctx(16);
        pool.with(&c, |s| {
            assert_eq!(s.b_acc.len(), 48);
            assert_eq!(s.a_acc.len(), 48);
            assert_eq!(s.words.len(), 2 * 48);
        });
        assert_eq!(pool.stats(), (0, 1), "first call was a miss");
        // Every subsequent same-shape call on this thread reuses the buffer.
        for _ in 0..10 {
            pool.with(&c, |_| {});
        }
        assert_eq!(pool.stats(), (10, 1), "steady state must not allocate");
        // The process totals saw at least this pool's traffic.
        let (hits, misses) = scratch_stats();
        assert!(hits >= 10 && misses >= 1);
    }

    #[test]
    fn distinct_shapes_do_not_alias() {
        let pool = ScratchPool::new(1);
        let (small, big) = (ctx(16), ctx(32));
        pool.with(&small, |s| s.b_acc.fill(7));
        pool.with(&big, |s| assert_eq!(s.b_acc.len(), 96));
        // The 16-degree buffer is still pooled and comes back dirty —
        // callers (FusedAccumulator::new) never read before writing.
        pool.with(&small, |s| {
            assert_eq!(s.b_acc.len(), 48);
            assert!(s.b_acc.iter().all(|&x| x == 7));
        });
        assert_eq!(pool.stats(), (1, 2));
    }

    #[test]
    fn nested_checkouts_get_distinct_buffers() {
        let pool = ScratchPool::new(1);
        let c = ctx(16);
        pool.with(&c, |outer| {
            outer.words.fill(1);
            pool.with(&c, |inner| inner.words.fill(2));
            assert!(outer.words.iter().all(|&w| w == 1));
        });
        assert_eq!(pool.stats(), (0, 2));
    }
}
