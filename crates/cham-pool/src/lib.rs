//! # cham-pool — the workspace's one fan-out: a capped, scoped, order-preserving map
//!
//! CHAM's host side (PAPER.md §III-C) needs only a few coarse threads
//! around one pipeline, and Intel HEXL ships its kernels single-threaded
//! and leaves threading to the caller. This crate is that caller-side
//! threading, and it is one function: [`map_capped`] computes
//! `out[i] = f(i, &items[i])` on `min(len, cap)` threads under
//! `std::thread::scope`. The caller runs one share itself and spawns the
//! rest for the call; every thread claims the next unclaimed index from
//! one atomic counter, results are put back in index order, and every
//! spawned thread is joined before the call returns. Nothing is queued, no
//! task spawns a task, and no thread outlives its fan-out, so an idle
//! process holds no pool thread.
//!
//! Its callers fan out one request's column tiles and its rows / pack
//! subtrees under the cap that request was given; nothing smaller (a limb
//! transform, a digit) is worth a thread. The result is bit-identical to
//! the sequential loop at every cap (see
//! `cham-he/tests/parallel_equivalence.rs`).
//!
//! ## The thread budget
//!
//! The cap *is* the thread count, and [`map_capped`] reads no process
//! state. Entry points that have no caller cap (`Hmvp::multiply`,
//! `pack_lwes`, a server's per-request share, `cham-bench --threads`) read
//! the process budget [`current_threads`], fixed once by the first of:
//!
//! 1. [`configure_global`] — an explicit count from the program,
//! 2. the `CHAM_POOL_THREADS` environment variable,
//! 3. `available_parallelism`.
//!
//! ## Example
//!
//! ```
//! let doubled = cham_pool::map_capped(&[1u64, 2, 3, 4], 2, |_, &x| x * 2);
//! assert_eq!(doubled, vec![2, 4, 6, 8]);
//! ```

#![warn(missing_docs)]

use cham_telemetry::span;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Environment variable setting the process thread budget when no
/// [`configure_global`] call came first.
pub const ENV_THREADS: &str = "CHAM_POOL_THREADS";

static BUDGET: OnceLock<usize> = OnceLock::new();
static TASKS: AtomicU64 = AtomicU64::new(0);

/// Fan-out activity since process start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// The process thread budget ([`current_threads`]).
    pub threads: usize,
    /// Threads [`map_capped`] spawned (each caller's own share is not one).
    pub tasks: u64,
    /// Always 0: nothing steals. Kept for readers of the old field.
    #[doc(hidden)]
    pub steals: u64,
    /// Always 0: nothing parks. Kept for readers of the old field.
    #[doc(hidden)]
    pub parks: u64,
    /// Always 0: no thread idles. Kept for readers of the old field.
    #[doc(hidden)]
    pub idle_ns: u64,
}

/// Parses a thread-count string (used for `CHAM_POOL_THREADS`): positive
/// integers pass through, anything else yields `None`.
#[must_use]
pub fn parse_threads(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Fixes the process thread budget at `threads` (min 1) if nothing has
/// fixed it yet, ahead of `CHAM_POOL_THREADS`. Returns `false` when it was
/// already fixed (its value is then unchanged — first use wins).
pub fn configure_global(threads: usize) -> bool {
    BUDGET.set(threads.max(1)).is_ok()
}

/// The process thread budget: the [`configure_global`] count, else
/// `CHAM_POOL_THREADS`, else `available_parallelism`, fixed on first read.
#[must_use]
pub fn current_threads() -> usize {
    *BUDGET.get_or_init(|| {
        parse_threads(std::env::var(ENV_THREADS).ok().as_deref()).unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    })
}

/// Fan-out stats **without** fixing the budget: `None` while nothing has
/// configured or read it.
#[must_use]
pub fn global_stats() -> Option<PoolStats> {
    BUDGET.get().map(|&threads| PoolStats {
        threads,
        tasks: TASKS.load(Ordering::Relaxed),
        steals: 0,
        parks: 0,
        idle_ns: 0,
    })
}

/// Order-preserving parallel map, `out[i] = f(i, &items[i])`, on
/// `min(items.len(), cap)` threads: the caller runs one share and spawns
/// the others, each thread takes the next unclaimed index until none is
/// left (so four items at a cap of 3 keep three threads busy), and the
/// results are put back in index order.
///
/// Bit-identical to the sequential loop at every cap (each `f` call sees
/// exactly one item; the schedule only decides which thread computes it).
/// A cap of 1 or a slice of at most one item runs the plain loop inline
/// and spawns nothing. Spans recorded inside `f` attribute to the caller's
/// request recorder, booked as the fan-out's wall time; a panic in `f` on
/// any thread is re-raised here once every thread has been joined.
pub fn map_capped<T, U, F>(items: &[T], cap: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let workers = items.len().min(cap);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let next = AtomicUsize::new(0);
    let share = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(x) = items.get(i) else { return done };
            done.push((i, f(i, x)));
        }
    };
    let mut done = span::fan_out(|| {
        // Inside `fan_out`, so the spawned shares record into its
        // side-by-side recorder, as the caller's share does.
        let recorder = span::current_recorder();
        std::thread::scope(|s| {
            let spawned: Vec<_> = (1..workers)
                .map(|_| {
                    let recorder = recorder.clone();
                    s.spawn(move || span::with_maybe(recorder, share))
                })
                .collect();
            TASKS.fetch_add(spawned.len() as u64, Ordering::Relaxed);
            let mut done = share();
            for handle in spawned {
                match handle.join() {
                    Ok(theirs) => done.extend(theirs),
                    Err(payload) => resume_unwind(payload),
                }
            }
            done
        })
    });
    // Each index was claimed exactly once: put the results back in order.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, y)| y).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 2 ")), Some(2));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("-3")), None);
        assert_eq!(parse_threads(Some("many")), None);
        assert_eq!(parse_threads(None), None);
    }

    #[test]
    fn spawned_tasks_inherit_the_spawner_span_recorder() {
        use cham_telemetry::span::{SpanRecorder, TraceId};
        let rec = Arc::new(SpanRecorder::new(TraceId(42)));
        span::with_recorder(Arc::clone(&rec), || {
            map_capped(&[(); 8], 3, |_, _| {
                let current = span::current_recorder()
                    .expect("every share must inherit the caller's recorder");
                assert_eq!(current.trace_id(), TraceId(42));
                current.record("pool_task", 1);
            })
        });
        // All 8 items attributed to the one recorder, and the caller was
        // left clean (no recorder leaks past the fan-out).
        let spans = rec.finish();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].count, 8);
        assert!(span::current_recorder().is_none());
        map_capped(&[(); 4], 4, |_, _| {
            assert!(span::current_recorder().is_none())
        });
    }

    #[test]
    fn map_matches_sequential_at_every_thread_count() {
        for len in [0usize, 1, 2, 5, 97] {
            let items: Vec<u64> = (0..len as u64).collect();
            let expect: Vec<(usize, u64)> = items
                .iter()
                .enumerate()
                .map(|(i, &x)| (i, x * x + 1))
                .collect();
            for cap in [1usize, 2, 3, 7, 8, 64] {
                let got = map_capped(&items, cap, |i, &x| (i, x * x + 1));
                assert_eq!(got, expect, "len={len} cap={cap}");
            }
        }
    }

    #[test]
    fn map_capped_respects_cap_of_one() {
        // A cap of 1 (or one item) is the plain loop on the calling thread.
        // Each item takes long enough that a spawned thread would claim one.
        let caller = std::thread::current().id();
        let on_caller = |i: usize, &x: &u32| {
            std::thread::sleep(Duration::from_millis(2));
            assert_eq!(std::thread::current().id(), caller, "a thread was spawned");
            x + i as u32
        };
        assert_eq!(map_capped(&[1u32, 2, 3], 1, on_caller), vec![1, 3, 5]);
        assert_eq!(map_capped(&[7u32], 8, on_caller), vec![7]);
    }

    #[test]
    fn map_capped_books_task_spans_as_wall_time() {
        use cham_telemetry::span::{phase, Span, SpanRecorder, TraceId};
        let rec = Arc::new(SpanRecorder::new(TraceId(7)));
        let started = Instant::now();
        span::with_recorder(Arc::clone(&rec), || {
            map_capped(&[(); 4], 4, |_, _| {
                let _span = Span::enter(phase::DOT);
                std::thread::sleep(Duration::from_millis(5));
            })
        });
        let elapsed = started.elapsed().as_nanos() as u64;
        // Four 5 ms spans side by side are ≈ 5 ms of the request, not 20.
        let spans = rec.finish();
        assert_eq!((spans.len(), spans[0].count), (1, 4));
        assert!(spans[0].dur_ns <= elapsed, "{spans:?} in {elapsed} ns");
    }

    #[test]
    fn panicking_task_does_not_kill_workers_and_rethrows_at_join() {
        for cap in [2usize, 4] {
            let payload = std::panic::catch_unwind(|| {
                map_capped(&[0u32, 1, 2, 3], cap, |i, _| {
                    if i == 2 {
                        panic!("boom in item 2");
                    }
                })
            })
            .expect_err("the item's panic must reach the caller");
            // The original payload, not the scope's generic one.
            let msg = payload.downcast_ref::<&str>();
            assert_eq!(msg, Some(&"boom in item 2"), "cap={cap}");
        }
        // Nothing is left behind: the next fan-out runs normally.
        assert_eq!(map_capped(&[1u32, 2, 3, 4], 4, |_, &x| x), [1, 2, 3, 4]);
    }
}
