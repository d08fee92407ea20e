//! # cham-pool — the workspace's shared work-stealing thread pool
//!
//! CHAM's FPGA runs the HMVP pipeline stages in parallel functional units;
//! on the CPU side the tile/row-level decomposition wants a *single
//! bounded* set of threads shared by every kernel, instead of per-call
//! `thread::spawn` bursts. This crate provides that substrate:
//!
//! * **work stealing** — every worker owns a deque; tasks spawned from a
//!   worker go to its own queue, external submissions land in a shared
//!   injector, and idle workers steal from the tail of their siblings'
//!   queues,
//! * **scoped execution** — [`scope`] lets tasks borrow stack data, waits
//!   for all of them before returning, and *helps* (runs queued tasks)
//!   while waiting so nested scopes never deadlock even on a single-thread
//!   pool,
//! * **panic isolation** — a panicking task never takes a worker down; the
//!   first panic payload is captured and re-thrown at the scope's join
//!   point, exactly like `std::thread::scope`,
//! * **Condvar parking** — idle workers block (no busy spin); park count
//!   and idle nanoseconds are tracked,
//! * **configuration** — the process-global pool sizes itself from the
//!   `CHAM_POOL_THREADS` environment variable (falling back to
//!   `available_parallelism`), and [`ThreadPool::builder`] builds private
//!   pools for tests and embedders,
//! * **stats** — tasks executed, sibling-deque steals, parks, and idle
//!   time are kept in relaxed atomics on the pool instance
//!   ([`ThreadPool::stats`], [`global_stats`] for the process-global pool)
//!   — a process may hold several pools, so nothing is booked process-wide.
//!
//! The one data-parallel helper kernels use is [`map_capped`] — a
//! deterministic, order-preserving map whose result is bit-identical to
//! the sequential loop at every thread count and every cap (see
//! `cham-he/tests/parallel_equivalence.rs`). Its callers fan out one
//! request's column tiles and its rows / pack subtrees under the cap that
//! request was given; nothing smaller (a limb transform, a digit) is worth
//! a task, so there is no uncapped or in-place variant.
//!
//! ## Pool resolution
//!
//! The free functions resolve "the current pool" in this order:
//!
//! 1. the pool owning the current worker thread (so nested parallelism
//!    stays on one pool),
//! 2. a pool activated on this thread via [`ThreadPool::install`],
//! 3. the process-global pool ([`global`]), created on first use.
//!
//! ## Example
//!
//! ```
//! let pool = cham_pool::ThreadPool::builder().threads(3).build();
//! let doubled = pool.install(|| cham_pool::map_capped(&[1u64, 2, 3, 4], 2, |_, &x| x * 2));
//! assert_eq!(doubled, vec![2, 4, 6, 8]);
//! ```

#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Environment variable sizing the process-global pool (first use wins).
pub const ENV_THREADS: &str = "CHAM_POOL_THREADS";

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Per-pool counters (relaxed atomics, incremented per *task*, so the
/// cost is negligible at kernel grain).
#[derive(Debug, Default)]
struct StatsInner {
    tasks: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
    idle_ns: AtomicU64,
}

/// A snapshot of pool activity since the pool was built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads in the pool.
    pub threads: usize,
    /// Tasks executed to completion (including panicked ones).
    pub tasks: u64,
    /// Tasks popped from a *sibling worker's deque* — i.e. work a pool
    /// worker spawned that another thread ran. A task submitted from a
    /// non-pool thread (every served request's fan-out) travels through the
    /// shared injector and is never a steal, whoever runs it, so this is
    /// not "tasks that crossed threads": it stays near 0 unless pool tasks
    /// themselves spawn.
    pub steals: u64,
    /// Times a thread parked on the condvar with nothing to run.
    pub parks: u64,
    /// Total nanoseconds spent parked.
    pub idle_ns: u64,
}

struct Shared {
    /// External submissions (from non-worker threads).
    injector: Mutex<VecDeque<Task>>,
    /// One deque per worker; workers push/pop their own at the front and
    /// thieves take from the back.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Parking lot: the mutex protects nothing but the sleep/wake
    /// handshake; `pending` is the fast-path occupancy check.
    park: Mutex<()>,
    cv: Condvar,
    /// Queued-but-not-yet-popped task count.
    pending: AtomicUsize,
    shutdown: AtomicBool,
    threads: usize,
    stats: StatsInner,
}

thread_local! {
    /// Set on pool worker threads: (owning pool, worker index).
    static WORKER: RefCell<Option<(Arc<Shared>, usize)>> = const { RefCell::new(None) };
    /// Stack of pools activated via `ThreadPool::install`.
    static INSTALLED: RefCell<Vec<Arc<Shared>>> = const { RefCell::new(Vec::new()) };
}

impl Shared {
    /// Pops a task: own deque first (when on a worker), then the
    /// injector, then steals from sibling deques.
    fn find_task(&self, own: Option<usize>) -> Option<Task> {
        if let Some(i) = own {
            if let Some(t) = self.queues[i].lock().ok()?.pop_front() {
                self.pending.fetch_sub(1, Ordering::AcqRel);
                return Some(t);
            }
        }
        if let Some(t) = self.injector.lock().ok()?.pop_front() {
            self.pending.fetch_sub(1, Ordering::AcqRel);
            // The injector is common property: popping it is not a steal.
            return Some(t);
        }
        let start = own.map_or(0, |i| i + 1);
        for k in 0..self.queues.len() {
            let j = (start + k) % self.queues.len();
            if Some(j) == own {
                continue;
            }
            // `try_lock` keeps thieves from convoying behind a busy owner.
            if let Ok(mut q) = self.queues[j].try_lock() {
                if let Some(t) = q.pop_back() {
                    self.pending.fetch_sub(1, Ordering::AcqRel);
                    self.stats.steals.fetch_add(1, Ordering::Relaxed);
                    return Some(t);
                }
            }
        }
        None
    }

    /// Queues a task (to the current worker's deque when called from one
    /// of this pool's workers, else to the injector) and wakes sleepers.
    fn push_task(self: &Arc<Self>, task: Task) {
        let own = WORKER.with(|w| {
            w.borrow()
                .as_ref()
                .filter(|(p, _)| Arc::ptr_eq(p, self))
                .map(|(_, i)| *i)
        });
        match own {
            Some(i) => self.queues[i]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push_back(task),
            None => self
                .injector
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push_back(task),
        }
        self.pending.fetch_add(1, Ordering::AcqRel);
        // Empty critical section: a sleeper is either before its occupancy
        // re-check (sees pending > 0) or inside `wait` (gets notified).
        drop(
            self.park
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        self.cv.notify_all();
    }

    fn run_task(&self, task: Task) {
        self.stats.tasks.fetch_add(1, Ordering::Relaxed);
        task();
    }

    /// Parks the current thread until work arrives, a scope completes, or
    /// the timeout backstop fires. Returns immediately when `pending > 0`.
    fn park(&self) {
        let guard = self
            .park
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if self.pending.load(Ordering::Acquire) > 0 || self.shutdown.load(Ordering::Acquire) {
            return;
        }
        self.stats.parks.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        // The timeout is a liveness backstop only — every push and every
        // scope completion notifies the condvar.
        let _unused = self.cv.wait_timeout(guard, Duration::from_millis(100));
        let ns = t0.elapsed().as_nanos() as u64;
        self.stats.idle_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn notify_all(&self) {
        drop(
            self.park
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        self.cv.notify_all();
    }

    fn snapshot(&self) -> PoolStats {
        PoolStats {
            threads: self.threads,
            tasks: self.stats.tasks.load(Ordering::Relaxed),
            steals: self.stats.steals.load(Ordering::Relaxed),
            parks: self.stats.parks.load(Ordering::Relaxed),
            idle_ns: self.stats.idle_ns.load(Ordering::Relaxed),
        }
    }
}

fn worker_main(shared: Arc<Shared>, index: usize) {
    WORKER.with(|w| *w.borrow_mut() = Some((Arc::clone(&shared), index)));
    loop {
        if let Some(task) = shared.find_task(Some(index)) {
            shared.run_task(task);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        shared.park();
    }
    WORKER.with(|w| *w.borrow_mut() = None);
}

/// Configures a [`ThreadPool`] before building it.
#[derive(Debug, Default)]
pub struct Builder {
    threads: Option<usize>,
    name_prefix: Option<String>,
}

impl Builder {
    /// Number of worker threads (min 1). Defaults to the
    /// `CHAM_POOL_THREADS` environment variable, then to
    /// `available_parallelism`.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Worker thread name prefix (default `cham-pool`).
    #[must_use]
    pub fn name_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.name_prefix = Some(prefix.into());
        self
    }

    /// Spawns the workers and returns the pool.
    ///
    /// # Panics
    /// Panics if the OS refuses to spawn a worker thread.
    #[must_use]
    pub fn build(self) -> ThreadPool {
        let threads = self.threads.unwrap_or_else(default_threads).max(1);
        let prefix = self.name_prefix.unwrap_or_else(|| "cham-pool".into());
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            park: Mutex::new(()),
            cv: Condvar::new(),
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            threads,
            stats: StatsInner::default(),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{prefix}-{i}"))
                    .spawn(move || worker_main(shared, i))
                    .expect("spawn pool worker thread")
            })
            .collect();
        ThreadPool { shared, handles }
    }
}

/// Parses a thread-count string (used for `CHAM_POOL_THREADS`): positive
/// integers pass through, anything else yields `None`.
#[must_use]
pub fn parse_threads(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

fn default_threads() -> usize {
    parse_threads(std::env::var(ENV_THREADS).ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// A fixed-size work-stealing pool. Dropping the pool shuts the workers
/// down and joins them (outstanding [`scope`]s always finish first, since
/// `scope` blocks its caller until every spawned task completed).
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.shared.threads)
            .field("stats", &self.shared.snapshot())
            .finish()
    }
}

impl ThreadPool {
    /// Starts configuring a pool.
    #[must_use]
    pub fn builder() -> Builder {
        Builder::default()
    }

    /// A pool with exactly `threads` workers.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self::builder().threads(threads).build()
    }

    /// Worker thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Activity counters since the pool was built.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        self.shared.snapshot()
    }

    /// Runs `f` with this pool as the current pool on this thread: every
    /// [`scope`]/[`map_capped`] call inside resolves to it.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Guard;
        impl Drop for Guard {
            fn drop(&mut self) {
                INSTALLED.with(|s| {
                    s.borrow_mut().pop();
                });
            }
        }
        INSTALLED.with(|s| s.borrow_mut().push(Arc::clone(&self.shared)));
        let _guard = Guard;
        f()
    }

    /// [`scope`] pinned to this pool regardless of the thread-local
    /// resolution order.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'env>) -> R,
    {
        scope_on(&self.shared, f)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-global pool, created on first use with
/// [`ENV_THREADS`]-then-`available_parallelism` sizing.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| ThreadPool::builder().build())
}

/// Sizes the process-global pool to `threads` workers, if it has not been
/// created yet. Returns `false` when the global pool already existed (its
/// size is then unchanged — first use wins).
pub fn configure_global(threads: usize) -> bool {
    GLOBAL.set(ThreadPool::new(threads.max(1))).is_ok()
}

/// Stats of the global pool **without** creating it: `None` when nothing
/// has used the pool yet.
#[must_use]
pub fn global_stats() -> Option<PoolStats> {
    GLOBAL.get().map(ThreadPool::stats)
}

fn with_current<R>(f: impl FnOnce(&Arc<Shared>) -> R) -> R {
    let worker = WORKER.with(|w| w.borrow().as_ref().map(|(p, _)| Arc::clone(p)));
    if let Some(shared) = worker {
        return f(&shared);
    }
    let installed = INSTALLED.with(|s| s.borrow().last().cloned());
    if let Some(shared) = installed {
        return f(&shared);
    }
    f(&global().shared)
}

/// Worker-thread count of the current pool (resolution order: owning
/// worker pool → installed pool → global pool).
#[must_use]
pub fn current_threads() -> usize {
    with_current(|s| s.threads)
}

/// Index of the pool worker the calling thread is, or `None` when called
/// from a thread that is not a pool worker (e.g. the main thread or a
/// serve worker). Lets callers key per-worker scratch storage without a
/// hash on the thread id.
#[must_use]
pub fn current_worker_index() -> Option<usize> {
    WORKER.with(|w| w.borrow().as_ref().map(|(_, i)| *i))
}

/// Per-scope join state: outstanding task count plus the first panic.
struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A spawn handle tied to the enclosing [`scope`] call; spawned closures
/// may borrow anything that outlives that call.
pub struct Scope<'env> {
    shared: Arc<Shared>,
    state: Arc<ScopeState>,
    /// Invariant in `'env` (same trick as `crossbeam::scope`): prevents
    /// the caller from shrinking borrow lifetimes to less than the scope.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Queues `f` on the pool. The closure runs at most once; a panic
    /// inside it is captured and re-thrown when the scope joins.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        let shared = Arc::clone(&self.shared);
        // Capture the spawner's request-span recorder (if any) so work
        // executed on a pool worker still attributes to the request that
        // fanned it out — e.g. per-row dot kernels inside a traced HMVP.
        let span_ctx = cham_telemetry::span::propagate();
        let f = move || cham_telemetry::span::with_maybe(span_ctx, f);
        let boxed: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: `scope_on` joins every spawned task before returning on
        // all paths (including panics in the scope body), so the closure —
        // and everything it borrows with lifetime 'env — outlives its
        // execution. The lifetime is erased only to cross the queue.
        let boxed: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(boxed)
        };
        let task: Task = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(boxed)) {
                let mut slot = state
                    .panic
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            if state.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                shared.notify_all();
            }
        });
        self.shared.push_task(task);
    }
}

fn scope_on<'env, F, R>(shared: &Arc<Shared>, f: F) -> R
where
    F: FnOnce(&Scope<'env>) -> R,
{
    let scope = Scope {
        shared: Arc::clone(shared),
        state: Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
        }),
        _env: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
    // Join: help run queued tasks while waiting, so a scope entered from a
    // worker (nested parallelism) or on a saturated pool cannot deadlock.
    let own = WORKER.with(|w| {
        w.borrow()
            .as_ref()
            .filter(|(p, _)| Arc::ptr_eq(p, shared))
            .map(|(_, i)| *i)
    });
    while scope.state.pending.load(Ordering::Acquire) > 0 {
        match shared.find_task(own) {
            Some(task) => shared.run_task(task),
            None => {
                if scope.state.pending.load(Ordering::Acquire) == 0 {
                    break;
                }
                shared.park();
            }
        }
    }
    let panic = scope
        .state
        .panic
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take();
    match (result, panic) {
        (Ok(r), None) => r,
        (_, Some(payload)) => resume_unwind(payload),
        (Err(payload), None) => resume_unwind(payload),
    }
}

/// Runs `f(&scope)` on the current pool, waiting for every task the scope
/// spawned. Panics from tasks are isolated from the workers and re-thrown
/// here; the first one wins.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'env>) -> R,
{
    with_current(|shared| scope_on(shared, f))
}

/// How many tasks a data-parallel loop of `len` items should split into:
/// a small multiple of the worker count so stealing can rebalance, capped
/// by `cap` (the caller's requested parallelism) and by `len`.
fn task_count(len: usize, cap: usize, threads: usize) -> usize {
    len.min(cap).min(threads.saturating_mul(4)).max(1)
}

/// Order-preserving parallel map, `out[i] = f(i, &items[i])`, split into
/// at most `cap` chunks (the caller's requested parallelism).
///
/// Bit-identical to the sequential loop at every thread count (each `f`
/// call sees exactly one item; chunk boundaries only affect scheduling).
/// Runs the plain loop inline — no task is queued — when `cap` is 1, on a
/// single-thread pool, or on a one-item input.
pub fn map_capped<T, U, F>(items: &[T], cap: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let len = items.len();
    let threads = current_threads();
    let tasks = task_count(len, cap, threads);
    if len <= 1 || tasks <= 1 || threads <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let chunk = len.div_ceil(tasks);
    let mut out: Vec<Option<U>> = Vec::with_capacity(len);
    out.resize_with(len, || None);
    let f = &f;
    // The chunks of one request run side by side: `fan_out` books the
    // spans they record as the fan-out's wall time, not its CPU time.
    cham_telemetry::span::fan_out(|| {
        scope(|s| {
            for (ci, (in_chunk, out_chunk)) in
                items.chunks(chunk).zip(out.chunks_mut(chunk)).enumerate()
            {
                s.spawn(move || {
                    let base = ci * chunk;
                    for (j, (x, slot)) in in_chunk.iter().zip(out_chunk.iter_mut()).enumerate() {
                        *slot = Some(f(base + j, x));
                    }
                });
            }
        });
    });
    out.into_iter()
        .map(|slot| slot.expect("scope joined every chunk"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

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
        use cham_telemetry::span::{self, SpanRecorder, TraceId};
        let pool = ThreadPool::new(3);
        let rec = Arc::new(SpanRecorder::new(TraceId(42)));
        span::with_recorder(Arc::clone(&rec), || {
            pool.scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        let current = span::current_recorder()
                            .expect("pool task must inherit the spawner's recorder");
                        assert_eq!(current.trace_id(), TraceId(42));
                        current.record("pool_task", 1);
                    });
                }
            });
        });
        // All 8 tasks attributed to the one recorder, and the worker
        // threads were left clean (no recorder leaks past the task).
        let spans = rec.finish();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].count, 8);
        pool.scope(|s| {
            s.spawn(|| assert!(span::current_recorder().is_none()));
        });
    }

    #[test]
    fn scope_runs_all_tasks_and_borrows_stack_data() {
        let pool = ThreadPool::new(3);
        let counter = AtomicU32::new(0);
        pool.scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert!(pool.stats().tasks >= 64);
    }

    #[test]
    fn map_matches_sequential_at_every_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1usize, 2, 3, 7, 8] {
            let pool = ThreadPool::new(threads);
            let got = pool.install(|| map_capped(&items, usize::MAX, |_, &x| x * x + 1));
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn map_capped_respects_cap_of_one() {
        let pool = ThreadPool::new(4);
        let before = pool.stats().tasks;
        let got = pool.install(|| map_capped(&[1u32, 2, 3], 1, |i, &x| x + i as u32));
        assert_eq!(got, vec![1, 3, 5]);
        // cap=1 must not queue pool tasks at all (inline fast path).
        assert_eq!(pool.stats().tasks, before);
    }

    #[test]
    fn map_capped_books_task_spans_as_wall_time() {
        use cham_telemetry::span::{self, phase, Span, SpanRecorder, TraceId};
        let pool = ThreadPool::new(4);
        let rec = Arc::new(SpanRecorder::new(TraceId(7)));
        let started = Instant::now();
        span::with_recorder(Arc::clone(&rec), || {
            pool.install(|| {
                map_capped(&[(); 4], 4, |_, _| {
                    let _span = Span::enter(phase::DOT);
                    std::thread::sleep(Duration::from_millis(5));
                })
            })
        });
        let elapsed = started.elapsed().as_nanos() as u64;
        // Four 5 ms spans side by side are ≈ 5 ms of the request, not 20.
        let spans = rec.finish();
        assert_eq!((spans.len(), spans[0].count), (1, 4));
        assert!(spans[0].dur_ns <= elapsed, "{spans:?} in {elapsed} ns");
    }

    #[test]
    fn nested_scopes_complete_on_a_single_thread_pool() {
        // threads=1 exercises the help-while-waiting join path: the inner
        // scopes' tasks must run even though the lone worker may be busy.
        let pool = ThreadPool::new(1);
        let total = AtomicU32::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                outer.spawn(|| {
                    scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn panicking_task_does_not_kill_workers_and_rethrows_at_join() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom in task"));
                s.spawn(|| {});
            });
        }));
        assert!(result.is_err(), "scope must rethrow the task panic");
        // The pool is still functional afterwards.
        let got = pool.install(|| map_capped(&[1u32, 2, 3, 4], 4, |_, &x| x));
        assert_eq!(got, [1, 2, 3, 4]);
    }

    #[test]
    fn install_stack_resolves_innermost_pool() {
        let outer = ThreadPool::new(2);
        let inner = ThreadPool::new(5);
        outer.install(|| {
            assert_eq!(current_threads(), 2);
            inner.install(|| assert_eq!(current_threads(), 5));
            assert_eq!(current_threads(), 2);
        });
    }

    #[test]
    fn stealing_happens_under_imbalance() {
        // All tasks enter via the injector; with several workers racing,
        // at least the task counter must add up and the pool must not lose
        // work. (Steal counts are scheduling-dependent, so only sanity-
        // checked for type, not magnitude.)
        let pool = ThreadPool::new(4);
        let counter = AtomicU32::new(0);
        pool.scope(|s| {
            for _ in 0..256 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 256);
        let stats = pool.stats();
        assert_eq!(stats.threads, 4);
        assert!(stats.tasks >= 256);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(3);
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| std::thread::sleep(Duration::from_millis(1)));
            }
        });
        drop(pool); // must not hang or leak
    }

    #[test]
    fn scope_body_panic_still_joins_spawned_tasks() {
        let pool = ThreadPool::new(2);
        let ran = Arc::new(AtomicU32::new(0));
        let ran2 = Arc::clone(&ran);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(move |s| {
                let ran3 = Arc::clone(&ran2);
                s.spawn(move || {
                    std::thread::sleep(Duration::from_millis(5));
                    ran3.fetch_add(1, Ordering::Relaxed);
                });
                panic!("scope body panics after spawning");
            });
        }));
        assert!(result.is_err());
        // The task must have completed before scope() unwound.
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }
}
