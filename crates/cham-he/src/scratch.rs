//! Pooled scratch buffers for the fused HMVP kernels.
//!
//! Every working buffer of a product is a `DotScratch` from one shared
//! `ScratchPool`, one per row block or pack subtree: one flat `u64` area
//! for a block's canonical `a` sums and `b₀` residues (the row MAC and the
//! key-switch's digit product sum in registers and keep no accumulator
//! plane), or a key-switch's digits and their two sums — together with
//! the pack's spare ciphertexts. The input needs no buffer: it arrives in
//! NTT form and the MAC reads its limbs in place.
//!
//! Backing these with fresh vectors would put heap allocations, and page
//! faults, on every product, every row block and every pack step; instead
//! a call checks its buffers out of the pool and puts them back when done,
//! so the steady state recycles as many buffers as were ever checked out
//! at once and allocates nothing but its result.
//!
//! Ownership rules:
//! * a buffer is owned exclusively for the duration of one
//!   `ScratchPool::with` call and returned to the free list afterwards,
//! * a `DotScratch` is size-matched, never resized — a request for an
//!   unseen `(degree, limbs)` shape allocates (a *miss*) and the buffer
//!   joins the list on release,
//! * the list holds at most the peak number of concurrent checkouts per
//!   shape: a buffer is only created when every fitting one is out.
//!
//! Hit/miss counts are kept per pool instance (so a test can watch a
//! private pool no sibling test touches) and in the process-wide
//! `cham_he.hmvp.scratch.{hit,miss}` counters that [`scratch_stats`]
//! reads.

use crate::ciphertext::RlweCiphertext;
use crate::hmvp::ROW_BLOCK;
use cham_math::rns::RnsContext;
use cham_telemetry::Counter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Reusable working memory for one row block or one pack subtree over an
/// augmented basis of `limbs × degree` lanes.
pub(crate) struct DotScratch {
    /// `max(max(limbs − 1, 2) · limbs · lanes, ROW_BLOCK · limbs ·
    /// (lanes + 2))` words: the key-switch digits (and, once the digit
    /// product has consumed them, its two sums), or a row block's `a`
    /// planes followed by its `b₀` residues.
    pub(crate) words: Vec<u64>,
    /// Normal-basis ciphertexts a pack subtree consumed, kept as the next
    /// subtree's leaf storage.
    pub(crate) spare: Vec<RlweCiphertext>,
    degree: usize,
}

impl DotScratch {
    /// The length of `words` for `ctx`.
    fn words_for(ctx: &RnsContext) -> usize {
        let (n, limbs) = (ctx.degree(), ctx.len());
        ((limbs - 1).max(2) * limbs * n).max(ROW_BLOCK * limbs * (n + 2))
    }

    fn new(ctx: &RnsContext) -> Self {
        Self {
            words: vec![0; Self::words_for(ctx)],
            spare: Vec::new(),
            degree: ctx.degree(),
        }
    }

    fn fits(&self, ctx: &RnsContext) -> bool {
        self.words.len() == Self::words_for(ctx) && self.degree == ctx.degree()
    }
}

/// A free list of [`DotScratch`] shared by every thread.
pub(crate) struct ScratchPool {
    free: Mutex<Vec<DotScratch>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

static HITS: Counter = Counter::new("cham_he.hmvp.scratch.hit");
static MISSES: Counter = Counter::new("cham_he.hmvp.scratch.miss");

impl ScratchPool {
    /// An empty pool.
    pub(crate) const fn new() -> Self {
        Self {
            free: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The pool every kernel entry point draws from.
    pub(crate) fn global() -> &'static Self {
        static POOL: ScratchPool = ScratchPool::new();
        &POOL
    }

    /// This pool's `(hits, misses)`.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    fn book(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            HITS.add(1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            MISSES.add(1);
        }
    }

    /// Runs `f` with a checked-out scratch shaped for `ctx` (the augmented
    /// basis), returning the buffer to the free list afterwards.
    pub(crate) fn with<T>(&self, ctx: &RnsContext, f: impl FnOnce(&mut DotScratch) -> T) -> T {
        let mut scratch = {
            let mut free = self.free.lock().expect("scratch list poisoned");
            let pos = free.iter().position(|s| s.fits(ctx));
            self.book(pos.is_some());
            match pos {
                Some(pos) => free.swap_remove(pos),
                None => DotScratch::new(ctx),
            }
        };
        let out = f(&mut scratch);
        self.free
            .lock()
            .expect("scratch list poisoned")
            .push(scratch);
        out
    }
}

/// Scratch hit and miss totals `(hits, misses)` since process start, over
/// every pool instance. A flat miss count across repeated multiplies is
/// the zero-allocation steady-state witness `bench_all` reports.
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
        let pool = ScratchPool::new();
        let c = ctx(16);
        pool.with(&c, |s| assert_eq!(s.words.len(), ROW_BLOCK * 3 * 18));
        assert_eq!(pool.stats(), (0, 1), "first call was a miss");
        // Every subsequent same-shape call reuses the buffer.
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
        let pool = ScratchPool::new();
        let (small, big) = (ctx(16), ctx(32));
        pool.with(&small, |s| s.words.fill(7));
        pool.with(&big, |s| assert_eq!(s.words.len(), ROW_BLOCK * 3 * 34));
        // The 16-degree buffer is still pooled and comes back dirty —
        // callers never read a word before writing it.
        pool.with(&small, |s| {
            assert_eq!(s.words.len(), ROW_BLOCK * 3 * 18);
            assert!(s.words.iter().all(|&x| x == 7));
        });
        assert_eq!(pool.stats(), (1, 2));
    }

    #[test]
    fn nested_checkouts_get_distinct_buffers() {
        let pool = ScratchPool::new();
        let c = ctx(16);
        pool.with(&c, |outer| {
            outer.words.fill(1);
            pool.with(&c, |inner| inner.words.fill(2));
            assert!(outer.words.iter().all(|&w| w == 1));
        });
        assert_eq!(pool.stats(), (0, 2));
    }
}
