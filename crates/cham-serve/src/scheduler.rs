//! Bounded batching scheduler with deadlines and backpressure.
//!
//! Requests enter a bounded FIFO queue. Workers pull *batches*: the
//! oldest live request plus every other queued request against the same
//! `(key set, matrix)` pair, up to `max_batch` — one worker runs them
//! back to back against the same resident NTT-form matrix. Two policies
//! are deliberately explicit rather than emergent:
//!
//! * **Backpressure**: a submit against a full queue fails immediately
//!   with [`ServeError::Busy`]. The queue never grows past its bound, so
//!   a traffic spike degrades into fast rejections instead of unbounded
//!   memory growth and collapsing latency.
//! * **Deadlines**: each request may carry a deadline. Expired requests
//!   are answered [`ServeError::TimedOut`] at batch-formation time — the
//!   moment a worker would otherwise start computing for a client that
//!   has stopped waiting.
//!
//! There is no separate batcher thread: workers block on the scheduler's
//! condvar and form batches themselves. That keeps the accounting exact —
//! "in flight" is precisely the set of requests workers hold, so with
//! `workers = 1, capacity = 1` the Busy/TimedOut semantics are
//! deterministic enough to assert in integration tests.
//!
//! Shutdown is graceful: already-queued requests drain (workers keep
//! receiving batches), new submits fail with [`ServeError::Shutdown`],
//! and workers get `None` only once the queue is empty.

use crate::faults::{Fault, FaultInjector};
use crate::stats::ServeStats;
use crate::{Result, ServeError};
use cham_he::ciphertext::RlweCiphertext;
use cham_he::hmvp::{EncodedMatrix, HmvpResult};
use cham_he::keys::GaloisKeys;
use cham_telemetry::flight::{FlightEventKind, FlightRecorder};
use cham_telemetry::span::{phase, SpanRecorder};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Bounded sleep for idle workers when no queued job carries a deadline
/// to wake for — a liveness backstop, not a polling interval (submits
/// wake workers via the condvar immediately).
const IDLE_WAIT: Duration = Duration::from_millis(500);

/// One queued HMVP request, carrying everything a worker needs: resolved
/// cache handles (so eviction after enqueue cannot fail the request), the
/// encrypted input, the deadline, and the reply channel back to the
/// submitting connection.
pub struct HmvpJob {
    /// Content id of the key set (batch coalescing key, part 1).
    pub key_id: u64,
    /// Content id of the matrix (batch coalescing key, part 2).
    pub matrix_id: u64,
    /// Resolved Galois keys.
    pub keys: Arc<GaloisKeys>,
    /// Resolved NTT-form matrix.
    pub matrix: Arc<EncodedMatrix>,
    /// Encrypted input vector, one ciphertext per column tile.
    pub cts: Vec<RlweCiphertext>,
    /// Absolute expiry; `None` means wait forever.
    pub deadline: Option<Instant>,
    /// When the job entered the queue (for wait-time telemetry).
    pub enqueued: Instant,
    /// The request's phase recorder — shared with the connection thread,
    /// which folds it into the phase histograms and flight recorder once
    /// the reply is written.
    pub trace: Arc<SpanRecorder>,
    /// Where the outcome goes.
    pub reply: mpsc::Sender<Result<HmvpResult>>,
}

impl HmvpJob {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }
}

struct Inner {
    queue: VecDeque<HmvpJob>,
    shutdown: bool,
}

/// The shared queue workers and connection threads meet at.
pub struct Scheduler {
    inner: Mutex<Inner>,
    available: Condvar,
    capacity: usize,
    max_batch: usize,
    stats: Arc<ServeStats>,
    faults: Option<Arc<FaultInjector>>,
    flight: Option<Arc<FlightRecorder>>,
}

impl Scheduler {
    /// Builds a scheduler with the given queue bound and batch ceiling.
    ///
    /// # Panics
    /// When `capacity` or `max_batch` is zero.
    #[must_use]
    pub fn new(capacity: usize, max_batch: usize, stats: Arc<ServeStats>) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        assert!(max_batch > 0, "max batch must be positive");
        Self {
            inner: Mutex::new(Inner {
                queue: VecDeque::with_capacity(capacity),
                shutdown: false,
            }),
            available: Condvar::new(),
            capacity,
            max_batch,
            stats,
            faults: None,
            flight: None,
        }
    }

    /// Arms fault injection (spurious `Busy` at submit time). Builder
    /// style so existing `Scheduler::new` call sites stay unchanged.
    #[must_use]
    pub fn with_faults(mut self, faults: Option<Arc<FaultInjector>>) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches a flight recorder so injected faults leave an event in
    /// the dumped timeline.
    #[must_use]
    pub fn with_flight(mut self, flight: Option<Arc<FlightRecorder>>) -> Self {
        self.flight = flight;
        self
    }

    /// The queue bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The batch ceiling.
    #[must_use]
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Current queue depth (racy by nature; for reporting).
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.inner.lock().expect("scheduler poisoned").queue.len()
    }

    /// Enqueues a job, or rejects it without blocking.
    ///
    /// # Errors
    /// [`ServeError::Busy`] when the queue is at capacity,
    /// [`ServeError::Shutdown`] when the scheduler is draining.
    pub fn submit(&self, job: HmvpJob) -> Result<()> {
        if let Some(f) = &self.faults {
            if f.should(Fault::SpuriousBusy) {
                self.stats.on_fault_injected();
                self.stats.on_rejected_busy();
                if let Some(flight) = &self.flight {
                    flight.record_event(
                        FlightEventKind::Fault,
                        "spurious_busy",
                        Some(job.trace.trace_id()),
                    );
                }
                return Err(ServeError::Busy);
            }
        }
        let mut inner = self.inner.lock().expect("scheduler poisoned");
        if inner.shutdown {
            return Err(ServeError::Shutdown);
        }
        if inner.queue.len() >= self.capacity {
            drop(inner);
            self.stats.on_rejected_busy();
            return Err(ServeError::Busy);
        }
        inner.queue.push_back(job);
        let depth = inner.queue.len();
        drop(inner);
        self.stats.on_accepted(depth);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until a batch is available, then returns the oldest live
    /// job coalesced with every queued job sharing its `(key, matrix)`
    /// pair, up to `max_batch`. Expired jobs encountered along the way
    /// are answered `TimedOut` and dropped. Returns `None` only when the
    /// scheduler is shut down *and* the queue has drained.
    #[must_use]
    pub fn next_batch(&self) -> Option<Vec<HmvpJob>> {
        let mut inner = self.inner.lock().expect("scheduler poisoned");
        loop {
            // Expire stale jobs before deciding whether to sleep: each
            // expired job is answered TimedOut (the client is told, not
            // silently dropped) and removed from the queue.
            let now = Instant::now();
            let mut i = 0;
            while i < inner.queue.len() {
                if inner.queue[i].expired(now) {
                    let job = inner.queue.remove(i).expect("index in bounds");
                    self.stats.on_timed_out();
                    let _ = job.reply.send(Err(ServeError::TimedOut));
                } else {
                    i += 1;
                }
            }

            if let Some(head) = inner.queue.pop_front() {
                let mut batch = Vec::with_capacity(self.max_batch);
                let (key_id, matrix_id) = (head.key_id, head.matrix_id);
                batch.push(head);
                let mut i = 0;
                while batch.len() < self.max_batch && i < inner.queue.len() {
                    if inner.queue[i].key_id == key_id && inner.queue[i].matrix_id == matrix_id {
                        let job = inner.queue.remove(i).expect("index in bounds");
                        batch.push(job);
                    } else {
                        i += 1;
                    }
                }
                drop(inner);
                self.stats.on_batch(batch.len());
                let now = Instant::now();
                for job in &batch {
                    // Queue time is the one phase no Span can cover (the
                    // job sits in a queue, not on a thread), so it goes
                    // straight into the request's recorder.
                    let wait = now.duration_since(job.enqueued).as_nanos() as u64;
                    job.trace.record(phase::QUEUE, wait);
                }
                return Some(batch);
            }
            if inner.shutdown {
                return None;
            }
            // Sleep exactly until the nearest pending deadline would
            // expire (so a TimedOut answer is never later than the
            // deadline by more than scheduling noise), or a bounded
            // fallback when nothing is queued — submits wake us via the
            // condvar either way, so this is a backstop, not a poll.
            let now = Instant::now();
            let wait = inner
                .queue
                .iter()
                .filter_map(|j| j.deadline)
                .min()
                .map_or(IDLE_WAIT, |d| d.saturating_duration_since(now));
            inner = self
                .available
                .wait_timeout(inner, wait)
                .expect("scheduler condvar poisoned")
                .0;
        }
    }

    /// Begins graceful shutdown: new submits fail, queued work drains.
    pub fn shutdown(&self) {
        self.inner.lock().expect("scheduler poisoned").shutdown = true;
        self.available.notify_all();
    }

    /// Whether shutdown has begun.
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.inner.lock().expect("scheduler poisoned").shutdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cham_he::encoding::CoeffEncoder;
    use cham_he::encrypt::Encryptor;
    use cham_he::hmvp::{Hmvp, Matrix};
    use cham_he::keys::SecretKey;
    use cham_he::params::ChamParams;
    use rand::SeedableRng;
    use std::sync::mpsc::Receiver;
    use std::time::Duration;

    struct Fixture {
        keys: Arc<GaloisKeys>,
        matrix_a: Arc<EncodedMatrix>,
        matrix_b: Arc<EncodedMatrix>,
        ct: RlweCiphertext,
    }

    fn fixture() -> Fixture {
        let params = Arc::new(ChamParams::insecure_test_default().unwrap());
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let sk = SecretKey::generate(&params, &mut rng);
        let keys = Arc::new(GaloisKeys::generate_for_packing(&sk, 1, &mut rng).unwrap());
        let hmvp = Hmvp::from_arc(Arc::clone(&params));
        let t = params.plain_modulus().value();
        let a = Matrix::random(2, 3, t, &mut rng);
        let b = Matrix::random(2, 3, t, &mut rng);
        let enc = Encryptor::new(&params, &sk);
        let coder = CoeffEncoder::from_arc(Arc::clone(&params));
        let ct = enc.encrypt_augmented(&coder.encode_vector(&[1, 2, 3]).unwrap(), &mut rng);
        Fixture {
            keys,
            matrix_a: Arc::new(hmvp.encode_matrix(&a).unwrap()),
            matrix_b: Arc::new(hmvp.encode_matrix(&b).unwrap()),
            ct,
        }
    }

    impl Fixture {
        fn job(
            &self,
            matrix_id: u64,
            deadline: Option<Instant>,
        ) -> (HmvpJob, Receiver<Result<HmvpResult>>) {
            let (tx, rx) = mpsc::channel();
            let matrix = if matrix_id == 1 {
                &self.matrix_a
            } else {
                &self.matrix_b
            };
            (
                HmvpJob {
                    key_id: 7,
                    matrix_id,
                    keys: Arc::clone(&self.keys),
                    matrix: Arc::clone(matrix),
                    cts: vec![self.ct.clone()],
                    deadline,
                    enqueued: Instant::now(),
                    trace: Arc::new(SpanRecorder::new(cham_telemetry::span::TraceId::generate())),
                    reply: tx,
                },
                rx,
            )
        }
    }

    #[test]
    fn full_queue_rejects_with_busy() {
        let f = fixture();
        let stats = Arc::new(ServeStats::new());
        let s = Scheduler::new(2, 4, Arc::clone(&stats));
        let (j1, _r1) = f.job(1, None);
        let (j2, _r2) = f.job(1, None);
        let (j3, _r3) = f.job(1, None);
        s.submit(j1).unwrap();
        s.submit(j2).unwrap();
        assert!(matches!(s.submit(j3), Err(ServeError::Busy)));
        let snap = stats.snapshot();
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.rejected_busy, 1);
        assert_eq!(snap.peak_queue_depth, 2);
    }

    #[test]
    fn batches_coalesce_by_key_and_matrix() {
        let f = fixture();
        let stats = Arc::new(ServeStats::new());
        let s = Scheduler::new(8, 8, Arc::clone(&stats));
        // Interleave matrices: A, B, A, A → first batch must be the three
        // A-jobs (coalesced past the B in between), second batch the B.
        for matrix_id in [1u64, 2, 1, 1] {
            let (j, rx) = f.job(matrix_id, None);
            s.submit(j).unwrap();
            std::mem::forget(rx);
        }
        let batch = s.next_batch().unwrap();
        assert_eq!(batch.len(), 3);
        assert!(batch.iter().all(|j| j.matrix_id == 1));
        let batch = s.next_batch().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].matrix_id, 2);
        assert_eq!(stats.snapshot().batches, 2);
        assert!((stats.snapshot().avg_batch_size() - 2.0).abs() < f64::EPSILON);
    }

    #[test]
    fn max_batch_caps_coalescing() {
        let f = fixture();
        let s = Scheduler::new(8, 2, Arc::new(ServeStats::new()));
        for _ in 0..3 {
            let (j, rx) = f.job(1, None);
            s.submit(j).unwrap();
            std::mem::forget(rx);
        }
        assert_eq!(s.next_batch().unwrap().len(), 2);
        assert_eq!(s.next_batch().unwrap().len(), 1);
    }

    #[test]
    fn expired_jobs_are_answered_timed_out() {
        let f = fixture();
        let stats = Arc::new(ServeStats::new());
        let s = Scheduler::new(8, 8, Arc::clone(&stats));
        let (dead, dead_rx) = f.job(1, Some(Instant::now() - Duration::from_millis(1)));
        let (live, live_rx) = f.job(2, None);
        s.submit(dead).unwrap();
        s.submit(live).unwrap();
        let batch = s.next_batch().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].matrix_id, 2);
        assert!(matches!(
            dead_rx.recv_timeout(Duration::from_secs(1)),
            Ok(Err(ServeError::TimedOut))
        ));
        assert_eq!(stats.snapshot().timed_out, 1);
        drop(live_rx);
    }

    #[test]
    fn spurious_busy_fault_injects_typed_rejection() {
        let f = fixture();
        let stats = Arc::new(ServeStats::new());
        let injector = Arc::new(FaultInjector::new(crate::faults::FaultConfig {
            spurious_busy: 1.0,
            ..crate::faults::FaultConfig::default()
        }));
        let s = Scheduler::new(8, 8, Arc::clone(&stats)).with_faults(Some(Arc::clone(&injector)));
        let (j, _rx) = f.job(1, None);
        assert!(matches!(s.submit(j), Err(ServeError::Busy)));
        let snap = stats.snapshot();
        assert_eq!(snap.faults_injected, 1);
        assert_eq!(snap.rejected_busy, 1);
        assert_eq!(snap.accepted, 0);
        assert_eq!(injector.injected(Fault::SpuriousBusy), 1);
    }

    #[test]
    fn idle_workers_wake_on_submit_not_poll() {
        let f = fixture();
        let s = Arc::new(Scheduler::new(8, 8, Arc::new(ServeStats::new())));
        let worker = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let started = Instant::now();
                let batch = s.next_batch();
                (batch.map(|b| b.len()), started.elapsed())
            })
        };
        // Give the worker time to enter the idle wait, then submit: the
        // condvar (not the bounded fallback sleep) must wake it.
        std::thread::sleep(Duration::from_millis(50));
        let (j, _rx) = f.job(1, None);
        s.submit(j).unwrap();
        let (len, waited) = worker.join().unwrap();
        assert_eq!(len, Some(1));
        assert!(
            waited < IDLE_WAIT,
            "worker should wake on submit, waited {waited:?}"
        );
    }

    #[test]
    fn shutdown_drains_then_stops() {
        let f = fixture();
        let s = Scheduler::new(8, 8, Arc::new(ServeStats::new()));
        let (j, rx) = f.job(1, None);
        s.submit(j).unwrap();
        s.shutdown();
        assert!(s.is_shutdown());
        // Queued work still drains…
        assert_eq!(s.next_batch().unwrap().len(), 1);
        // …then workers are released…
        assert!(s.next_batch().is_none());
        // …and new submits are refused.
        let (j2, _rx2) = f.job(1, None);
        assert!(matches!(s.submit(j2), Err(ServeError::Shutdown)));
        drop(rx);
    }
}
