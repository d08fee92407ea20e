//! Fixed-size worker pool over `std::thread`.
//!
//! Each worker blocks on [`Scheduler::next_batch`], runs the batch's
//! requests one after another through
//! [`Hmvp::multiply_parallel`](cham_he::hmvp::Hmvp::multiply_parallel)
//! (every request in a batch shares the cached NTT-form matrix and key
//! set), and sends each job's result down its `mpsc` reply channel.
//! Workers exit when the scheduler is shut down and its queue has
//! drained, so `join` is a graceful drain, not an abort.
//!
//! **Panic safety.** A panic inside batch execution (an HE-layer bug, an
//! injected [`Fault::WorkerPanic`]) must not take the reply channels down
//! with it — a dropped `mpsc::Sender` would hang every connection thread
//! blocked on that batch until its socket times out. Execution therefore
//! runs under `catch_unwind` with the reply senders cloned out first: a
//! panic is converted into a typed [`ServeError::Internal`] answer to
//! every job in the batch, the worker survives, and the panic payload's
//! message travels to the client for diagnosis.
//!
//! **Composition with the kernel pool.** A batch is a loop on the worker
//! that dequeued it; the only pool tasks a request creates are its own
//! column tiles and rows / pack subtrees, under the cap
//! `max(1, pool threads / workers)` ([`WorkerPool::spawn`]). That cap is 1
//! — fully inline, the worker thread *is* the kernel thread — whenever
//! `workers` already covers the shared `cham-pool` pool, whose size is
//! fixed process-wide (`CHAM_POOL_THREADS`, default
//! `available_parallelism`), so kernel concurrency never exceeds
//! workers + pool threads however many batches run at once.

use crate::cache::SessionCache;
use crate::faults::{Fault, FaultInjector};
use crate::scheduler::{HmvpJob, Scheduler};
use crate::stats::ServeStats;
use crate::ServeError;
use cham_telemetry::flight::{FlightEventKind, FlightRecorder};
use cham_telemetry::span::{self, phase};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Everything a worker thread needs besides the scheduler: the cache it
/// resolves nothing from (jobs carry resolved handles) but whose `Hmvp`
/// engine it executes on, the counters, the fault harness, and the
/// flight recorder it reports panics to.
#[derive(Clone)]
pub struct WorkerContext {
    /// Shared session cache (for its `Hmvp` engine).
    pub cache: Arc<SessionCache>,
    /// Live service counters.
    pub stats: Arc<ServeStats>,
    /// Seeded fault injection, when armed.
    pub faults: Option<Arc<FaultInjector>>,
    /// Flight recorder receiving panic/fault events.
    pub flight: Arc<FlightRecorder>,
    /// When set, the flight recorder dumps its Chrome-trace JSON here on
    /// a caught worker panic (the "what were the last requests doing"
    /// artifact).
    pub dump_path: Option<Arc<PathBuf>>,
}

/// Handle to a spawned pool; dropping it without [`WorkerPool::join`]
/// detaches the threads (they still exit on scheduler shutdown).
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads executing batches from `scheduler`.
    ///
    /// Each request a worker runs may fan its tiles and rows out into at
    /// most `max(1, pool threads / workers)` kernel-pool tasks: 1 (no
    /// dispatch at all) when the workers cover the pool, more when few
    /// workers sit in front of a wide pool.
    ///
    /// `ctx.faults`, when set, arms the worker-layer injection sites
    /// ([`Fault::SlowBatch`], [`Fault::WorkerPanic`]).
    #[must_use]
    pub fn spawn(scheduler: Arc<Scheduler>, workers: usize, ctx: WorkerContext) -> Self {
        assert!(workers > 0, "worker pool must have at least one thread");
        // The workers are plain threads, so the pool their kernels
        // resolve is the global one.
        let threads = (cham_pool::global().threads() / workers).max(1);
        let handles = (0..workers)
            .map(|i| {
                let scheduler = Arc::clone(&scheduler);
                let ctx = ctx.clone();
                std::thread::Builder::new()
                    .name(format!("cham-serve-worker-{i}"))
                    .spawn(move || {
                        worker_loop(&scheduler, &ctx, threads);
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        Self { handles }
    }

    /// Waits for every worker to exit (call after `Scheduler::shutdown`).
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }

    /// Pool size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Whether the pool is empty (never true for a spawned pool).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }
}

fn worker_loop(scheduler: &Scheduler, ctx: &WorkerContext, threads: usize) {
    while let Some(batch) = scheduler.next_batch() {
        execute_batch(ctx, batch, threads);
    }
}

/// Renders a `catch_unwind` payload into the message clients see.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker panicked: {s}")
    } else {
        "worker panicked".to_string()
    }
}

/// Runs one coalesced batch and replies to every job in it — on success,
/// on HE failure, and on panic alike. The invariant the chaos suite
/// leans on: once a batch leaves the scheduler, every reply channel in
/// it receives exactly one message. `threads` caps each request's own
/// tile/row fan-out; the batch itself is a loop on this thread.
fn execute_batch(ctx: &WorkerContext, batch: Vec<HmvpJob>, threads: usize) {
    let stats = &ctx.stats;
    let faults = ctx.faults.as_deref();
    let batch_started = Instant::now();
    // Pre-execution deadline check: batch formation already filtered
    // expired jobs, but a long predecessor batch may have aged these.
    let now = Instant::now();
    let (live, expired): (Vec<_>, Vec<_>) = batch
        .into_iter()
        .partition(|j| j.deadline.is_none_or(|d| d > now));
    for job in expired {
        stats.on_timed_out();
        let _ = job.reply.send(Err(ServeError::TimedOut));
    }
    if live.is_empty() {
        return;
    }

    if let Some(f) = faults {
        if f.should(Fault::SlowBatch) {
            stats.on_fault_injected();
            ctx.flight.record_event(
                FlightEventKind::Fault,
                "slow_batch",
                Some(live[0].trace.trace_id()),
            );
            std::thread::sleep(f.delay());
        }
    }

    // All jobs in a batch share (key_id, matrix_id) by construction.
    let keys = Arc::clone(&live[0].keys);
    let matrix = Arc::clone(&live[0].matrix);
    // Clone the reply senders out *before* entering the unwind boundary:
    // whatever execution does, the replies survive to carry the outcome.
    let replies: Vec<_> = live.iter().map(|j| j.reply.clone()).collect();
    // Batch prep (deadline partition, reply clones, injected batch
    // delays) charges every live request equally.
    let prep_ns = u64::try_from(batch_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    for job in &live {
        job.trace.record(phase::BATCH, prep_ns);
    }
    let hmvp = ctx.cache.hmvp();
    // Replies only go out once the whole batch has finished, so every
    // job's latency spans the full execution window. Snapshot what each
    // trace has attributed so far: the window time *not* spent in a
    // job's own kernel phases is batching-induced wait (its siblings'
    // turns in the loop) and is charged to `batch` below — without it,
    // coalesced requests lose their wait time and the phase-coverage
    // invariant fails for every batch of two or more.
    let recorded_before: Vec<u64> = live.iter().map(|j| j.trace.total_recorded_ns()).collect();
    let exec_started = Instant::now();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if let Some(f) = faults {
            if f.should(Fault::WorkerPanic) {
                stats.on_fault_injected();
                ctx.flight.record_event(
                    FlightEventKind::Fault,
                    "worker_panic",
                    Some(live[0].trace.trace_id()),
                );
                panic!("injected worker panic");
            }
        }
        // Each job's span recorder is installed around its own multiply,
        // so the kernel phase spans (encode/dot/keyswitch/rescale)
        // attribute to the right request; the first failing input fails
        // the batch.
        live.iter()
            .map(|job| {
                span::with_recorder(Arc::clone(&job.trace), || {
                    hmvp.multiply_parallel(&matrix, &job.cts, &keys, threads)
                })
            })
            .collect::<Result<Vec<_>, _>>()
    }));
    let exec_ns = u64::try_from(exec_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    if outcome.is_ok() {
        for (job, before) in live.iter().zip(&recorded_before) {
            let own_ns = job.trace.total_recorded_ns().saturating_sub(*before);
            job.trace
                .record(phase::BATCH, exec_ns.saturating_sub(own_ns));
        }
    }
    match outcome {
        Ok(Ok(results)) => {
            debug_assert_eq!(results.len(), live.len());
            stats.on_completed(live.len());
            for (job, result) in live.into_iter().zip(results) {
                let _ = job.reply.send(Ok(result));
            }
        }
        Ok(Err(e)) => {
            stats.on_failed(live.len());
            for job in live {
                let _ = job.reply.send(Err(ServeError::He(e.clone())));
            }
        }
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            stats.on_internal_error(replies.len());
            ctx.flight.record_event(
                FlightEventKind::Panic,
                message.clone(),
                Some(live[0].trace.trace_id()),
            );
            // A worker panic is exactly the moment the flight recorder
            // exists for: dump what the last requests were doing.
            if let Some(path) = &ctx.dump_path {
                let _ = ctx.flight.dump_to(path.as_ref());
            }
            for reply in replies {
                let _ = reply.send(Err(ServeError::Internal(message.clone())));
            }
        }
    }
}
