//! The blocking TCP server.
//!
//! One accept thread and one thread per connection, plus — once the first
//! upload spills — the segment store's one writer thread.
//! A connection thread parses a frame, resolves its cache handles, and
//! runs the request's multiply itself while holding a permit of the
//! shared admission [`Gate`] — so a connection issues one HMVP at a time,
//! concurrency comes from multiple connections, and at most `workers`
//! kernels run at once.
//!
//! Shutdown order matters and is encoded in [`Server::shutdown`]:
//! 1. flip the shutdown flag (connection threads stop reading new work
//!    and briefly drain late arrivals with typed `Shutdown` errors),
//! 2. self-connect to wake the blocking `accept`, join the accept thread,
//! 3. join connection threads — a request already past the gate's `Busy`
//!    check, running or waiting for a permit, completes and is answered,
//! 4. close the segment store: its writer lands every queued spill and
//!    is joined.
//!
//! **Failure posture.** Every way a request can go wrong maps to a typed
//! `Error` frame, never a silent hang: a panic inside the kernel call
//! becomes `Internal` (caught on the connection thread, which survives),
//! oversized frames and malformed bodies become `BadFrame` (followed by a
//! connection close, since framing may be desynced), and requests racing
//! shutdown get `Shutdown` during a bounded grace window instead of a
//! slammed socket. The one deliberate exception is a transport-layer
//! fault (torn write, reset) — those surface client-side as I/O errors,
//! which [`crate::ClusterClient`] treats as reconnect-and-retry.

use crate::cache::SessionCache;
use crate::faults::{Fault, FaultInjector};
use crate::gate::Gate;
use crate::protocol::{self, FrameKind, Hello, HmvpBody, HmvpHead, Response};
use crate::shard::{ClusterIdentity, ShardSpec};
use crate::stats::{IntrospectSnapshot, PhaseHistograms, ServeStats, StatsSnapshot};
use crate::store::SegmentStore;
use crate::{Result, ServeError};
use cham_he::ciphertext::RlweCiphertext;
use cham_he::params::ChamParams;
use cham_telemetry::flight::{FlightEventKind, FlightRecorder, RequestTrace};
use cham_telemetry::span::{self, phase, SpanRecorder, TraceId};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown as NetShutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// LRU bound on cached Galois key sets (one per client secret key).
const KEY_CACHE: usize = 4;

/// How many completed request traces the flight recorder retains.
const FLIGHT_CAPACITY: usize = 64;

/// Serving shape: concurrent kernels, waiter bound and cache limits.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Kernels that may run at once — the admission gate's permits. A
    /// request runs on the connection thread that read it and may fan its
    /// tiles and rows out over at most
    /// `max(1, process thread budget / workers)` threads, itself included.
    pub workers: usize,
    /// Bound on requests waiting for a permit (one more gets `Busy`).
    pub queue_capacity: usize,
    /// LRU bound on cached NTT-form matrices.
    pub matrix_cache: usize,
    /// How long each connection keeps answering late requests with typed
    /// `Shutdown` errors after the shutdown flag flips, instead of
    /// closing the socket on them mid-flight.
    pub shutdown_grace: Duration,
    /// Seeded fault injection (`None` on a production server — every
    /// fault site then costs one null check and nothing else).
    pub faults: Option<Arc<FaultInjector>>,
    /// Cluster membership (`None` = standalone). A shard-configured
    /// server enforces ring ownership: matrix uploads and `Hmvp` requests
    /// whose content hash it does not own are answered with a typed
    /// [`ServeError::WrongShard`] carrying the ring epoch, so stale
    /// clients refresh their topology instead of retrying blindly.
    /// Galois key uploads are exempt — every shard needs the keys.
    pub shard: Option<ShardSpec>,
    /// Node id surfaced in introspection (`0` = unset); the
    /// `cham-serve` binary derives a cluster node's from the hash of its
    /// `--addr`.
    pub node_id: u64,
    /// When set, every cached matrix's upload body persists to a
    /// crash-safe [`SegmentStore`] at this directory, and a restarted
    /// server restores a matrix by reading its body and encoding it —
    /// no re-upload (`None` = RAM only).
    pub store_dir: Option<PathBuf>,
    /// Byte cap on the persistent store's live segments (`0` =
    /// unbounded); past it the least recently used segments are evicted.
    pub store_cap_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            matrix_cache: 8,
            shutdown_grace: Duration::from_millis(300),
            faults: None,
            shard: None,
            node_id: 0,
            store_dir: None,
            store_cap_bytes: 0,
        }
    }
}

/// Everything connection threads share: caches, the admission gate,
/// counters, the phase histograms, the flight recorder, and the config
/// that shaped them. One `Arc<ServerShared>` per server, cloned per
/// connection.
struct ServerShared {
    cache: Arc<SessionCache>,
    gate: Arc<Gate>,
    /// Cap on one request's own tile/row fan-out:
    /// `max(1, thread budget / workers)` — 1 (fully inline, the connection
    /// thread *is* the kernel thread) whenever `workers` already covers
    /// the process budget (`cham_pool::current_threads`), so kernel
    /// threads never exceed `workers × kernel_threads`.
    kernel_threads: usize,
    stats: Arc<ServeStats>,
    phases: Arc<PhaseHistograms>,
    flight: Arc<FlightRecorder>,
    config: ServerConfig,
    shutdown: AtomicBool,
}

impl ServerShared {
    /// The counters `Introspect` serves: the request-path [`ServeStats`]
    /// plus the uploads the cache reaped and the store errors it
    /// swallowed.
    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            reaped_uploads: self.cache.uploads().reaped(),
            spill_errors: self.cache.spill_errors(),
            decode_errors: self.cache.decode_errors(),
            ..self.stats.snapshot()
        }
    }

    /// Builds the structured snapshot the `Introspect` op serves.
    fn introspect(&self) -> IntrospectSnapshot {
        let (key_cache_len, matrix_cache_len) = self.cache.lens();
        let pool = cham_pool::global_stats();
        let (flight_traces, flight_dropped) = self.flight.lens();
        let simd = cham_math::simd_stats();
        let (simd_vector_elems, simd_tail_elems) = simd.totals();
        IntrospectSnapshot {
            stats: self.stats(),
            queue_depth: self.gate.waiting() as u32,
            queue_capacity: self.config.queue_capacity as u32,
            workers: self.config.workers as u32,
            key_cache_len: key_cache_len as u32,
            matrix_cache_len: matrix_cache_len as u32,
            pool_threads: pool.as_ref().map_or(0, |p| p.threads as u32),
            pool_tasks: pool.as_ref().map_or(0, |p| p.tasks),
            flight_traces: flight_traces as u32,
            flight_dropped,
            node_id: self.config.node_id,
            shard_index: self
                .config
                .shard
                .as_ref()
                .map_or(0, |s| u32::from(s.shard_index)),
            shard_count: self
                .config
                .shard
                .as_ref()
                .map_or(0, |s| u32::from(s.ring.nodes())),
            simd_backend: u32::from(simd.backend.code()),
            simd_lanes: simd.backend.lanes() as u32,
            simd_vector_elems,
            simd_tail_elems,
            phases: self.phases.snapshot(),
        }
    }

    /// The identity block a hello response advertises (`None` when this
    /// server is standalone).
    fn cluster_identity(&self) -> Option<ClusterIdentity> {
        self.config.shard.as_ref().map(|s| ClusterIdentity {
            shard_index: s.shard_index,
            shard_count: s.ring.nodes(),
            epoch: s.epoch,
        })
    }

    /// A fault site: `fault`'s draw when an injector is armed. A firing is
    /// booked and put on the flight timeline here, and the injector comes
    /// back for the sites that also draw a delay.
    fn inject(&self, fault: Fault, trace_id: Option<TraceId>) -> Option<&FaultInjector> {
        let fired = self.config.faults.as_deref().filter(|f| f.should(fault));
        if fired.is_some() {
            self.stats.on_fault_injected();
            self.flight
                .record_event(FlightEventKind::Fault, fault.name(), trace_id);
        }
        fired
    }

    /// Rejects a content hash this shard does not own.
    fn check_owned(&self, id: u64) -> Result<()> {
        match &self.config.shard {
            Some(s) if !s.ring.owns(id, s.shard_index) => Err(ServeError::WrongShard {
                epoch: s.epoch,
                shard_index: s.shard_index,
                shard_count: s.ring.nodes(),
            }),
            _ => Ok(()),
        }
    }
}

/// A running server. Dropping without [`Server::shutdown`] leaks the
/// threads until process exit; call `shutdown` for a graceful drain.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept_handle: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds `addr` (use `"127.0.0.1:0"` for an ephemeral port), spawns
    /// the accept thread, and returns the handle.
    ///
    /// # Errors
    /// Bind failures.
    pub fn start(addr: &str, params: Arc<ChamParams>, config: &ServerConfig) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ServeStats::new());
        let phases = Arc::new(PhaseHistograms::new());
        let flight = Arc::new(FlightRecorder::new(FLIGHT_CAPACITY));
        let gate = Arc::new(Gate::new(
            config.workers,
            config.queue_capacity,
            Arc::clone(&stats),
        ));
        let store = match &config.store_dir {
            Some(dir) => Some(Arc::new(
                SegmentStore::open(dir, config.store_cap_bytes)?
                    .with_faults(config.faults.clone())
                    .with_phases(Some(Arc::clone(&phases))),
            )),
            None => None,
        };
        let cache = Arc::new(
            SessionCache::new(params, KEY_CACHE, config.matrix_cache)
                .with_telemetry(Some(Arc::clone(&phases)), Some(Arc::clone(&flight)))
                .with_store(store),
        );
        let shared = Arc::new(ServerShared {
            cache,
            gate,
            kernel_threads: (cham_pool::current_threads() / config.workers).max(1),
            stats,
            phases,
            flight,
            config: config.clone(),
            shutdown: AtomicBool::new(false),
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_handle = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("cham-serve-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shared.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let shared = Arc::clone(&shared);
                        let handle = std::thread::Builder::new()
                            .name("cham-serve-conn".into())
                            .spawn(move || {
                                let _ = handle_connection(stream, &shared);
                            })
                            .expect("spawn connection thread");
                        // Reap the connections that have ended, so the
                        // list (and the stacks unjoined threads keep
                        // mapped) is bounded by the live ones.
                        let mut conns = conns.lock().expect("conn list poisoned");
                        for ended in conns.extract_if(.., |h| h.is_finished()) {
                            let _ = ended.join();
                        }
                        conns.push(handle);
                    }
                })
                .expect("spawn accept thread")
        };

        Ok(Self {
            addr,
            shared,
            accept_handle: Some(accept_handle),
            conns,
        })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Structured introspection snapshot — the same data the `Introspect`
    /// wire op serves, available in-process without a socket.
    #[must_use]
    pub fn introspect(&self) -> IntrospectSnapshot {
        self.shared.introspect()
    }

    /// The flight recorder (for in-process dumps and tests).
    #[must_use]
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.shared.flight
    }

    /// The shared session cache (for in-process serving and tests).
    #[must_use]
    pub fn cache(&self) -> &Arc<SessionCache> {
        &self.shared.cache
    }

    /// The admission gate. A test that holds a permit decides exactly
    /// when the server has room to run a request.
    #[must_use]
    pub fn gate(&self) -> &Arc<Gate> {
        &self.shared.gate
    }

    /// Gracefully stops the server: refuses new work (with typed
    /// `Shutdown` errors during a bounded grace window), lets admitted
    /// requests finish, drains the store's spill queue, joins every
    /// thread, and returns the final counters.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept() so the accept thread sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().expect("conn list poisoned"));
        for h in conns {
            let _ = h.join();
        }
        // No upload can queue a spill any more: land the queued ones.
        if let Some(store) = self.shared.cache.store() {
            store.close();
        }
        // The last thing a request will ever have recorded is now in the
        // ring — stamp the shutdown on the timeline.
        self.shared
            .flight
            .record_event(FlightEventKind::Shutdown, "graceful shutdown", None);
        self.shared.stats()
    }
}

/// What one interruptible read produced.
enum ReadOutcome {
    /// A frame's kind and body length; the body is still on the socket.
    Frame(FrameKind, usize),
    /// Clean EOF — the peer is gone; close without ceremony.
    Eof,
    /// The shutdown flag flipped while idle — enter the grace drain.
    ShuttingDown,
}

/// Reads one frame's head, polling the shutdown flag while idle.
///
/// Idleness is a `peek` under a 250 ms timeout, which consumes nothing;
/// once a frame's first byte is there, its head is read by
/// [`protocol::read_frame_head`] and the timeout raised to a long one for
/// the body the caller reads next, so a slow client mid-frame is not
/// mistaken for an idle one. Length prefixes beyond
/// [`protocol::MAX_FRAME_BYTES`] are rejected before any allocation.
fn read_frame_interruptible(stream: &mut TcpStream, shutdown: &AtomicBool) -> Result<ReadOutcome> {
    stream.set_read_timeout(Some(Duration::from_millis(250)))?;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(ReadOutcome::ShuttingDown);
        }
        match stream.peek(&mut [0u8; 1]) {
            Ok(0) => return Ok(ReadOutcome::Eof),
            Ok(_) => break,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(ServeError::Io(e)),
        }
    }
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let (kind, len) = protocol::read_frame_head(stream)?;
    Ok(ReadOutcome::Frame(kind, len))
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn send_error(stream: &mut TcpStream, e: &ServeError) -> Result<()> {
    protocol::write_frame(stream, FrameKind::Error, &protocol::error_body(e))
}

/// Answers requests that race shutdown with typed `Shutdown` errors for
/// a bounded window, then closes. Without this, a request written just
/// before the flag flipped would see a slammed socket and could not
/// distinguish "server going away, try another" from a crash.
fn drain_shutdown(stream: &mut TcpStream, stats: &ServeStats, grace: Duration) -> Result<()> {
    let deadline = Instant::now() + grace;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break;
        }
        // Idle until the window closes, the peer leaves, or a frame
        // starts; then the frame is read whole, as outside the drain.
        stream.set_read_timeout(Some(remaining))?;
        if !matches!(stream.peek(&mut [0u8; 1]), Ok(n) if n > 0) {
            break;
        }
        stream.set_read_timeout(Some(Duration::from_secs(1)))?;
        if protocol::read_frame(stream).is_err() {
            break;
        }
        stats.on_rejected_shutdown();
        if send_error(stream, &ServeError::Shutdown).is_err() {
            break;
        }
    }
    let _ = stream.shutdown(NetShutdown::Both);
    Ok(())
}

/// A response plus, for traced HMVP requests, the handles needed to
/// close out the trace after the reply hits the wire: the recorder, the
/// wall-clock start, and the flight-epoch start offset.
struct FrameOutcome {
    response: Response,
    trace: Option<(Arc<SpanRecorder>, Instant, u64)>,
}

impl FrameOutcome {
    fn plain(response: Response) -> Self {
        Self {
            response,
            trace: None,
        }
    }
}

/// Serves one connection until EOF, shutdown, or a framing fault.
fn handle_connection(mut stream: TcpStream, shared: &ServerShared) -> Result<()> {
    stream.set_nodelay(true)?;
    let config = &shared.config;
    let stats = &shared.stats;
    loop {
        let (kind, len) = match read_frame_interruptible(&mut stream, &shared.shutdown) {
            Ok(ReadOutcome::Frame(kind, len)) => (kind, len),
            Ok(ReadOutcome::Eof) => return Ok(()),
            Ok(ReadOutcome::ShuttingDown) => {
                return drain_shutdown(&mut stream, stats, config.shutdown_grace)
            }
            Err(e) => {
                // Tell the peer *why* before closing — an oversized or
                // malformed header earns a typed BadFrame, not a silent
                // reset (transport errors get no reply; the stream is
                // already gone).
                if matches!(e, ServeError::BadFrame(_)) {
                    let _ = send_error(&mut stream, &e);
                }
                let _ = stream.shutdown(NetShutdown::Both);
                return Err(e);
            }
        };
        if let Some(f) = shared.inject(Fault::DelayedRead, None) {
            std::thread::sleep(f.delay());
        }
        let corrupt = len > 0 && shared.inject(Fault::CorruptFrame, None).is_some();
        // A body that does not arrive leaves the stream gone or desynced:
        // it is closed with no reply.
        let handled = if kind == FrameKind::Hmvp {
            match recv_hmvp(&mut stream, len, corrupt, shared) {
                Err(e @ ServeError::Io(_)) => {
                    let _ = stream.shutdown(NetShutdown::Both);
                    return Err(e);
                }
                received => received.and_then(|request| serve_hmvp(request, shared)),
            }
        } else {
            match protocol::read_frame_body(&mut stream, len) {
                Err(e) => {
                    let _ = stream.shutdown(NetShutdown::Both);
                    return Err(e);
                }
                Ok(mut body) => {
                    if corrupt {
                        body.pop();
                    }
                    handle_frame(kind, &body, shared)
                }
            }
        };
        match handled {
            Ok(outcome) => {
                let trace_id = outcome.trace.as_ref().map(|(rec, _, _)| rec.trace_id());
                if shared.inject(Fault::ConnReset, trace_id).is_some() {
                    let _ = stream.shutdown(NetShutdown::Both);
                    return Ok(());
                }
                if shared.inject(Fault::TornWrite, trace_id).is_some() {
                    let mut wire = Vec::new();
                    let _ = protocol::write_frame(
                        &mut wire,
                        FrameKind::Result,
                        &outcome.response.to_bytes(),
                    );
                    let _ = stream.write_all(&wire[..wire.len() / 2]);
                    let _ = stream.flush();
                    let _ = stream.shutdown(NetShutdown::Both);
                    return Ok(());
                }
                let body = match outcome.trace {
                    Some((rec, started, start_ns)) => {
                        // Serialize the reply under the last attributed
                        // phase and close out the trace *before* the
                        // bytes hit the socket: once the peer holds the
                        // reply, the trace is already in the histograms
                        // and the flight recorder — an introspection
                        // probe right after a response never races its
                        // own request.
                        let body = span::with_recorder(Arc::clone(&rec), || {
                            let _sp = span::Span::enter(phase::SERIALIZE);
                            outcome.response.to_bytes()
                        });
                        let total_ns = elapsed_ns(started);
                        let spans = rec.finish();
                        shared.phases.record_request(&spans, total_ns);
                        shared.flight.record_trace(RequestTrace {
                            trace_id: rec.trace_id(),
                            start_ns,
                            total_ns,
                            phases: spans,
                        });
                        body
                    }
                    None => outcome.response.to_bytes(),
                };
                protocol::write_frame(&mut stream, FrameKind::Result, &body)?;
            }
            Err(e) => {
                send_error(&mut stream, &e)?;
                // A framing fault may have desynced the stream — close.
                if matches!(e, ServeError::BadFrame(_)) {
                    let _ = stream.shutdown(NetShutdown::Both);
                    return Err(e);
                }
            }
        }
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

/// Serves one request frame whose body was read whole: every kind but
/// `Hmvp`, whose body [`recv_hmvp`] streams.
fn handle_frame(kind: FrameKind, body: &[u8], shared: &ServerShared) -> Result<FrameOutcome> {
    let cache = &shared.cache;
    match kind {
        FrameKind::Hello => {
            Hello::from_bytes(body)?.check(cache.params())?;
            Ok(FrameOutcome::plain(Response::Hello {
                version: protocol::PROTOCOL_VERSION,
                cluster: shared.cluster_identity(),
            }))
        }
        FrameKind::Introspect => {
            if !body.is_empty() {
                return Err(ServeError::BadFrame("introspect frame with a body"));
            }
            Ok(FrameOutcome::plain(Response::IntrospectReport {
                snapshot: shared.introspect(),
            }))
        }
        FrameKind::FlightDump => {
            if !body.is_empty() {
                return Err(ServeError::BadFrame("flight-dump frame with a body"));
            }
            Ok(FrameOutcome::plain(Response::FlightDump {
                snapshot: shared.flight.snapshot(),
            }))
        }
        FrameKind::LoadKeys => {
            let key_id = cache.put_keys_bytes(body)?;
            Ok(FrameOutcome::plain(Response::KeysLoaded { key_id }))
        }
        FrameKind::MatrixChunkStart => {
            let start = protocol::MatrixChunkStart::from_bytes(body)?;
            // Ownership is enforced before a byte of assembly memory is
            // spent: a misrouted upload costs the cluster nothing but
            // this frame, and the typed reply tells the client which map
            // revision to refresh against.
            shared.check_owned(start.matrix_id)?;
            let bitmap = cache.uploads().start(cache, start, Instant::now())?;
            Ok(FrameOutcome::plain(Response::ChunkAck {
                matrix_id: start.matrix_id,
                chunk_count: start.chunk_count,
                bitmap,
            }))
        }
        FrameKind::MatrixChunk => {
            let (matrix_id, index, checksum, data) = protocol::matrix_chunk_from_bytes(body)?;
            let (chunk_count, bitmap) =
                cache
                    .uploads()
                    .chunk(matrix_id, index, checksum, data, Instant::now())?;
            Ok(FrameOutcome::plain(Response::ChunkAck {
                matrix_id,
                chunk_count,
                bitmap,
            }))
        }
        FrameKind::MatrixChunkCommit => {
            let matrix_id = protocol::matrix_chunk_commit_from_bytes(body)?;
            let (rows, cols) = cache.uploads().commit(cache, matrix_id)?;
            Ok(FrameOutcome::plain(Response::MatrixLoaded {
                matrix_id,
                rows: rows as u32,
                cols: cols as u32,
            }))
        }
        FrameKind::StoreList => {
            if !body.is_empty() {
                return Err(ServeError::BadFrame("store-list frame with a body"));
            }
            Ok(FrameOutcome::plain(Response::StoreListReport {
                ids: cache.matrix_inventory(),
            }))
        }
        FrameKind::StoreFetch => {
            let store_id = protocol::store_fetch_from_bytes(body)?;
            let bytes = cache.segment_bytes(store_id)?;
            Ok(FrameOutcome::plain(Response::SegmentData {
                store_id,
                bytes,
            }))
        }
        FrameKind::Result | FrameKind::Error => {
            Err(ServeError::BadFrame("response frame sent to server"))
        }
        FrameKind::Hmvp => unreachable!("an Hmvp body is streamed by recv_hmvp"),
    }
}

/// An `Hmvp` request off the wire, with the trace it opened.
struct Received {
    head: HmvpHead,
    cts: Vec<RlweCiphertext>,
    trace: Arc<SpanRecorder>,
    /// When the trace opened — the head was in — and the request's
    /// end-to-end clock started.
    started: Instant,
    /// The same moment on the flight recorder's clock.
    start_ns: u64,
}

/// Reads an `Hmvp` body of `len` bytes off `stream`: the head first,
/// which opens the request's trace under its id, then the ciphertexts,
/// read straight into their limbs under the `recv` phase. A `corrupt`
/// body is decoded without its last byte, which is read after, so the
/// decoder sees a body cut short and the stream stays in step.
///
/// # Errors
/// Those of [`HmvpBody`]: a `BadFrame`, an `He` after which the body has
/// been drained, or a transport error.
fn recv_hmvp(
    stream: &mut TcpStream,
    len: usize,
    corrupt: bool,
    shared: &ServerShared,
) -> Result<Received> {
    let received = read_hmvp(stream, len - usize::from(corrupt), shared);
    if corrupt && !matches!(received, Err(ServeError::Io(_))) {
        stream.read_exact(&mut [0u8; 1])?;
    }
    received
}

fn read_hmvp(stream: &mut TcpStream, len: usize, shared: &ServerShared) -> Result<Received> {
    let mut body = HmvpBody::new(stream, len);
    let head = body.head()?;
    // A client-stamped id continues the client's trace; an unset one gets
    // a server-side id so every request shows up in the flight recorder
    // either way.
    let trace_id = TraceId::from_wire(head.trace_id).unwrap_or_else(TraceId::generate);
    let trace = Arc::new(SpanRecorder::new(trace_id));
    let started = Instant::now();
    let start_ns = shared.flight.now_ns();
    let cts = span::with_recorder(Arc::clone(&trace), || {
        let _sp = span::Span::enter(phase::RECV);
        body.ciphertexts(shared.cache.params())
    })?;
    Ok(Received {
        head,
        cts,
        trace,
        started,
        start_ns,
    })
}

/// Serves one received `Hmvp` request: ownership, lookups, the admission
/// gate, the kernel.
fn serve_hmvp(request: Received, shared: &ServerShared) -> Result<FrameOutcome> {
    let Received {
        head: req,
        cts,
        trace,
        started,
        start_ns,
    } = request;
    let cache = &shared.cache;
    let stats = &shared.stats;
    shared.check_owned(req.matrix_id)?;
    let trace_id = trace.trace_id();
    // The deadline runs from here, once the request is decoded and
    // owned: a lookup that sat behind a disk restore has already spent
    // the client's time.
    let decoded = Instant::now();
    let inject = |fault| shared.inject(fault, Some(trace_id));
    if inject(Fault::ForcedEviction).is_some() {
        // Evict the referenced entries just before the lookup —
        // the client must recover via re-upload (idempotent
        // thanks to content addressing).
        let _ = cache.evict_keys(req.key_id);
        let _ = cache.evict_matrix(req.matrix_id);
    }
    let keys = cache.get_keys(req.key_id)?;
    let matrix = cache.get_matrix(req.matrix_id)?;
    if cts.len() != matrix.col_tiles() {
        return Err(ServeError::Incompatible(
            "ciphertext count does not match the matrix's column tiles",
        ));
    }
    let deadline = (req.deadline_ms != protocol::DEADLINE_NONE)
        .then(|| decoded + Duration::from_millis(u64::from(req.deadline_ms)));
    if inject(Fault::SpuriousBusy).is_some() {
        stats.on_rejected_busy();
        return Err(ServeError::Busy);
    }
    let entered = Instant::now();
    let permit = shared.gate.acquire(deadline)?;
    if let Some(f) = inject(Fault::SlowBatch) {
        // A straggler: the delay is spent holding the permit.
        std::thread::sleep(f.delay());
    }
    // No span can cover a wait, so it goes straight into the
    // recorder.
    trace.record(phase::QUEUE, elapsed_ns(entered));
    let recorded_before = trace.total_recorded_ns();
    let kernel_started = Instant::now();
    // The unwind boundary: whatever the kernel does, this thread
    // survives to give the permit back and answer the client.
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if inject(Fault::WorkerPanic).is_some() {
            panic!("injected worker panic");
        }
        span::with_recorder(Arc::clone(&trace), || {
            cache
                .hmvp()
                .multiply_parallel(&matrix, &cts, &keys, shared.kernel_threads)
        })
    }));
    drop(permit);
    // What no kernel span covers of the permit-held window: thread
    // spawn and join when the request fans out, result
    // assembly. Booked so the phases still sum to end-to-end.
    let own_ns = trace.total_recorded_ns().saturating_sub(recorded_before);
    trace.record(
        phase::DISPATCH,
        elapsed_ns(kernel_started).saturating_sub(own_ns),
    );
    let result = match outcome {
        Ok(Ok(result)) => {
            stats.on_completed(1);
            result
        }
        Ok(Err(e)) => {
            stats.on_failed(1);
            return Err(ServeError::He(e));
        }
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            stats.on_internal_error(1);
            shared
                .flight
                .record_event(FlightEventKind::Panic, message.clone(), Some(trace_id));
            return Err(ServeError::Internal(message));
        }
    };
    Ok(FrameOutcome {
        response: Response::HmvpDone {
            len: result.len as u64,
            packed: result.packed,
        },
        trace: Some((trace, started, start_ns)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;

    /// The accept loop joins the connections that have ended, so a peer
    /// that connects and leaves (a health probe does, every interval)
    /// costs nothing once it is gone.
    #[test]
    fn ended_connections_are_reaped() {
        let params = Arc::new(ChamParams::insecure_test_default().unwrap());
        let server = Server::start("127.0.0.1:0", Arc::clone(&params), &ServerConfig::default())
            .expect("bind loopback");
        let cycle = || {
            drop(ServeClient::connect(
                server.local_addr(),
                Arc::clone(&params),
            ))
        };
        for _ in 0..64 {
            cycle();
        }
        // A connection's thread ends a moment after its peer hangs up and
        // is joined at the next accept: keep knocking until the list has
        // caught up. Without the reaping it only grows.
        let retained = || server.conns.lock().unwrap().len();
        let give_up = Instant::now() + Duration::from_secs(20);
        while retained() > 4 && Instant::now() < give_up {
            cycle();
        }
        assert!(retained() <= 4, "{} handles retained", retained());
        server.shutdown();
    }
}
