//! The admission gate: who may run a kernel, and who waits.
//!
//! A connection thread runs its own request's multiply, and it does so
//! holding one of the gate's `permits`. Everything the service promises
//! about load is stated here, once:
//!
//! * **Backpressure**: at most `capacity` requests wait for a permit; one
//!   more is [`ServeError::Busy`] at once. The line never grows past its
//!   bound, so a spike degrades into fast rejections, not collapsing
//!   latency.
//! * **Order**: permits are granted oldest waiter first.
//! * **Deadlines**: a waiter sleeps until the permit is its to take or its
//!   own deadline passes, whichever is first, and leaves
//!   [`ServeError::TimedOut`] *at* the deadline — not when a permit next
//!   frees up. A deadline already past on arrival is `TimedOut` even with
//!   a permit free: the server never computes for a client that has
//!   stopped waiting.
//!
//! Shutdown needs no state here: [`crate::server::Server::shutdown`] joins
//! the connection threads, so a request already admitted — running or
//! waiting — completes.

use crate::stats::ServeStats;
use crate::{Result, ServeError};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

struct Line {
    /// Permits currently held.
    running: usize,
    /// Tickets of the waiters, oldest first.
    waiting: VecDeque<u64>,
    next_ticket: u64,
}

/// `permits` concurrent holders in front of a line of at most `capacity`
/// waiters.
pub struct Gate {
    line: Mutex<Line>,
    /// Signalled whenever the head of the line may have changed hands: a
    /// permit came back, or a waiter was granted or left.
    turn: Condvar,
    permits: usize,
    capacity: usize,
    stats: Arc<ServeStats>,
}

/// One of a [`Gate`]'s permits; dropping it hands the slot to the oldest
/// waiter.
#[must_use = "the permit is released when dropped"]
pub struct Permit<'a> {
    gate: &'a Gate,
}

impl Gate {
    /// A gate with `permits` slots and room for `capacity` waiters, booking
    /// admissions, rejections and expiries into `stats`.
    ///
    /// # Panics
    /// When `permits` or `capacity` is zero.
    #[must_use]
    pub fn new(permits: usize, capacity: usize, stats: Arc<ServeStats>) -> Self {
        assert!(permits > 0, "the gate needs at least one permit");
        assert!(capacity > 0, "the gate's line needs room for one waiter");
        Self {
            line: Mutex::new(Line {
                running: 0,
                waiting: VecDeque::with_capacity(capacity),
                next_ticket: 0,
            }),
            turn: Condvar::new(),
            permits,
            capacity,
            stats,
        }
    }

    /// Requests waiting for a permit right now (racy by nature; for
    /// reporting). One that was granted on arrival never counts.
    #[must_use]
    pub fn waiting(&self) -> usize {
        self.lock().waiting.len()
    }

    /// Every update under the lock leaves the line valid, so a holder
    /// that panicked elsewhere must not wedge the gate.
    fn lock(&self) -> MutexGuard<'_, Line> {
        self.line.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes a permit, waiting in line for one until `deadline`.
    ///
    /// # Errors
    /// [`ServeError::Busy`] when the line is full, [`ServeError::TimedOut`]
    /// when `deadline` passes first (or already has).
    pub fn acquire(&self, deadline: Option<Instant>) -> Result<Permit<'_>> {
        let mut line = self.lock();
        let free = line.running < self.permits && line.waiting.is_empty();
        if !free && line.waiting.len() >= self.capacity {
            drop(line);
            self.stats.on_rejected_busy();
            return Err(ServeError::Busy);
        }
        let ticket = line.next_ticket;
        line.next_ticket += 1;
        line.waiting.push_back(ticket);
        self.stats
            .on_accepted(line.waiting.len() - usize::from(free));
        loop {
            let now = Instant::now();
            if deadline.is_some_and(|d| d <= now) {
                line.waiting.retain(|&t| t != ticket);
                drop(line);
                // The head may have been this ticket: whoever is next
                // has to look again.
                self.turn.notify_all();
                self.stats.on_timed_out();
                return Err(ServeError::TimedOut);
            }
            if line.running < self.permits && line.waiting.front() == Some(&ticket) {
                line.waiting.pop_front();
                line.running += 1;
                if line.running < self.permits && !line.waiting.is_empty() {
                    self.turn.notify_all();
                }
                return Ok(Permit { gate: self });
            }
            line = match deadline {
                Some(d) => {
                    self.turn
                        .wait_timeout(line, d.saturating_duration_since(now))
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self.turn.wait(line).unwrap_or_else(PoisonError::into_inner),
            };
        }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        // Runs during unwinding when the holder's kernel panicked: the
        // slot still goes to the next waiter, and nothing here panics.
        self.gate.lock().running -= 1;
        self.gate.turn.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn gate(permits: usize, capacity: usize) -> (Arc<Gate>, Arc<ServeStats>) {
        let stats = Arc::new(ServeStats::new());
        (
            Arc::new(Gate::new(permits, capacity, Arc::clone(&stats))),
            stats,
        )
    }

    /// Blocks until `n` requests wait at `gate`.
    fn until_waiting(gate: &Gate, n: usize) {
        while gate.waiting() != n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn full_line_rejects_with_busy() {
        let (g, stats) = gate(1, 1);
        let held = g.acquire(None).unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| g.acquire(None).map(drop));
            until_waiting(&g, 1);
            assert!(matches!(g.acquire(None), Err(ServeError::Busy)));
            drop(held);
            assert!(waiter.join().unwrap().is_ok());
        });
        let snap = stats.snapshot();
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.rejected_busy, 1);
        // The holder never waited; the one waiter did.
        assert_eq!(snap.peak_queue_depth, 1);
        assert_eq!(g.waiting(), 0);
    }

    #[test]
    fn grants_are_fifo() {
        let (g, _) = gate(1, 8);
        let held = g.acquire(None).unwrap();
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for i in 0..3 {
                let order = &order;
                let g = &g;
                s.spawn(move || {
                    let _permit = g.acquire(None).unwrap();
                    order.lock().unwrap().push(i);
                });
                // The next waiter arrives only once this one is in line.
                until_waiting(g, i + 1);
            }
            drop(held);
        });
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn waiter_times_out_at_its_own_deadline_while_the_permit_is_held() {
        let (g, stats) = gate(1, 4);
        let held = g.acquire(None).unwrap();
        let wait = Duration::from_millis(50);
        let started = Instant::now();
        let r = g.acquire(Some(started + wait));
        let waited = started.elapsed();
        assert!(matches!(r, Err(ServeError::TimedOut)));
        assert!(
            waited >= wait && waited < wait + Duration::from_secs(2),
            "left after {waited:?}"
        );
        assert_eq!(g.waiting(), 0, "a waiter that leaves takes its ticket");
        assert_eq!(stats.snapshot().timed_out, 1);
        drop(held);
    }

    #[test]
    fn expired_deadline_is_timed_out_with_a_permit_free() {
        let (g, stats) = gate(1, 4);
        let r = g.acquire(Some(Instant::now()));
        assert!(matches!(r, Err(ServeError::TimedOut)));
        let snap = stats.snapshot();
        assert_eq!((snap.accepted, snap.timed_out), (1, 1));
        // …and the permit is still there for the next request.
        assert!(g.acquire(None).is_ok());
    }

    #[test]
    fn waiter_without_a_deadline_wakes_on_release() {
        let (g, _) = gate(1, 4);
        let held = g.acquire(None).unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| g.acquire(None).map(drop));
            until_waiting(&g, 1);
            drop(held);
            // No timeout to fall back on: only the release can end this.
            assert!(waiter.join().unwrap().is_ok());
        });
    }

    #[test]
    fn permit_dropped_by_a_panic_frees_its_slot() {
        let (g, _) = gate(1, 4);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _permit = g.acquire(None).unwrap();
            panic!("kernel panicked while holding the permit");
        }));
        assert!(unwound.is_err());
        assert!(g.acquire(None).is_ok());
    }

    #[test]
    fn two_permits_run_two_holders_and_queue_the_third() {
        let (g, stats) = gate(2, 4);
        let a = g.acquire(None).unwrap();
        let b = g.acquire(None).unwrap();
        assert_eq!(g.waiting(), 0);
        std::thread::scope(|s| {
            let third = s.spawn(|| g.acquire(None).map(drop));
            until_waiting(&g, 1);
            drop(a);
            assert!(third.join().unwrap().is_ok());
        });
        drop(b);
        let snap = stats.snapshot();
        assert_eq!((snap.accepted, snap.peak_queue_depth), (3, 1));
    }
}
