//! # cham-serve — the HMVP service layer
//!
//! The paper's end-to-end claims (§V, Fig. 7) are about *serving*
//! HMVP-heavy workloads — HeteroLR iterations and Beaver triple batches —
//! not single-shot kernels. This crate turns the `cham-he` library into a
//! system that accepts concurrent clients over TCP and amortizes the
//! expensive precomputation (NTT-form matrix encoding, Galois key
//! material) across requests, the same way Intel HEXL amortizes operand
//! forms and per-modulus tables:
//!
//! * [`protocol`] — a length-prefixed framed wire protocol
//!   (`Hello`/`LoadKeys`/`MatrixChunk*`/`Hmvp`/`Result`/`Error`) whose
//!   ciphertext payloads reuse `cham_he::wire`,
//! * [`cache`] — a content-addressed session cache: Galois key sets and
//!   NTT-form [`cham_he::hmvp::EncodedMatrix`] encodings are stored once
//!   per distinct content hash with an LRU eviction bound,
//! * [`gate`] — the admission gate: `workers` permits in front of a
//!   bounded FIFO line of waiters with per-request deadlines; a full line
//!   rejects with [`ServeError::Busy`] instead of growing,
//! * [`server`] / [`client`] — the blocking TCP server (a request's
//!   `Hmvp::multiply_parallel` runs on the connection thread that read it,
//!   holding a permit) and [`ServeClient`]: one connection, one request
//!   at a time, no policy,
//! * [`shard`] — the consistent-hash ring, a server's [`ShardSpec`], and
//!   the [`Topology`] that says which address serves which ring slot,
//! * [`cluster`] — [`ClusterClient`], the one resilient client, over a
//!   [`Topology`] of any size (a single server is a one-slot topology):
//!   bounded exponential backoff with deterministic jitter,
//!   reconnect-and-re-handshake on transport faults, replay of evicted
//!   keys/matrices, replica failover, row-band fan-out, topology refresh
//!   on `WrongShard`, and a total deadline budget across attempts,
//! * [`faults`] — the seeded, deterministic fault-injection harness the
//!   chaos soak test drives (zero-cost when disabled),
//! * [`store`] — the crash-safe persistent tier: a file-backed,
//!   content-addressed segment store (write-temp + fsync + atomic
//!   rename, CRC-guarded headers, quarantine-on-corruption recovery)
//!   spilling NTT-form encodings under the LRU so restarts come back
//!   warm with zero re-encodes,
//! * [`stats`] — per-instance service counters, per-phase latency
//!   histograms, and the [`stats::IntrospectSnapshot`] served by the
//!   `Introspect` wire op.
//!
//! Every request is traced end to end: clients stamp a
//! `cham_telemetry::span::TraceId` into the `Hmvp` frame, the server
//! propagates it through permit wait → kernel phases → serialization
//! via a [`cham_telemetry::span::SpanRecorder`], and the completed
//! breakdown lands in both the per-phase histograms (`Introspect`) and
//! the bounded [`cham_telemetry::flight::FlightRecorder`] ring
//! (`FlightDump`, Perfetto-loadable JSON).
//!
//! ```text
//!   clients ──TCP──▶ conn thread ──▶ gate.acquire ──▶ multiply_parallel
//!      ◀──── reply ────── (same       (`workers` permits;   (on the conn
//!                          thread)     Busy when the line    thread, under
//!                                      is full, TimedOut     the permit)
//!                                      at the deadline)
//! ```
//!
//! See `DESIGN.md` § Serving for the frame layout and admission policy,
//! and `README.md` § Serving for a quick-start.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod cluster;
pub mod faults;
pub mod gate;
pub mod protocol;
pub mod server;
pub mod shard;
pub mod stats;
pub mod store;

use std::error::Error;
use std::fmt;

pub use cache::SessionCache;
pub use client::{ChunkUpload, ClientConfig, ServeClient, ServerInfo};
pub use cluster::{Band, ClientStats, ClusterClient, RetryPolicy, ShardedMatrix};
pub use faults::{Fault, FaultConfig, FaultInjector};
pub use gate::{Gate, Permit};
pub use server::{Server, ServerConfig};
pub use shard::{ClusterIdentity, HashRing, ShardSpec, Topology};
pub use stats::{IntrospectSnapshot, PhaseHistograms, PhaseStat, ServeStats, StatsSnapshot};
pub use store::{SegmentStore, StoreStats};

/// Errors from the serving layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The line of requests waiting to run is full; retry later (explicit
    /// backpressure).
    Busy,
    /// The request's deadline passed before it could run.
    TimedOut,
    /// A frame or payload failed to parse.
    BadFrame(&'static str),
    /// The referenced Galois key set is not (or no longer) cached.
    UnknownKey(u64),
    /// The referenced matrix is not (or no longer) cached.
    UnknownMatrix(u64),
    /// Client and server parameter sets (or protocol revisions) differ.
    Incompatible(&'static str),
    /// The server is shutting down.
    Shutdown,
    /// The request was routed to a server that does not own the
    /// referenced content hash under its shard ring. Carries the
    /// server's ring epoch so a stale client refreshes its topology
    /// instead of retrying blindly.
    WrongShard {
        /// The server's topology epoch.
        epoch: u64,
        /// The slot the answering server serves.
        shard_index: u16,
        /// Total slots in the server's ring.
        shard_count: u16,
    },
    /// A matrix chunk failed its content check:
    /// the chunk's FNV checksum disagreed with its data, or a commit's
    /// reassembled bytes hashed to something other than the declared
    /// matrix id. Carries the upload and chunk so the client re-sends
    /// exactly the corrupted piece.
    ChunkMismatch {
        /// The streamed upload's declared content hash.
        matrix_id: u64,
        /// The failing chunk index; [`protocol::CHUNK_INDEX_NONE`] when
        /// the whole reassembled body mismatched at commit.
        index: u32,
    },
    /// The server failed internally — a panic caught around the kernel.
    /// The request may be retried; the input was never at fault.
    Internal(String),
    /// An HE-layer failure while executing the request.
    He(cham_he::HeError),
    /// A transport failure.
    Io(std::io::Error),
    /// An error frame from the remote peer that maps to no local variant.
    Remote {
        /// The wire error code.
        code: protocol::ErrorCode,
        /// The server's message.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Busy => write!(f, "server busy: request queue is full"),
            ServeError::TimedOut => write!(f, "request deadline expired before execution"),
            ServeError::BadFrame(m) => write!(f, "bad frame: {m}"),
            ServeError::UnknownKey(id) => write!(f, "unknown key set {id:#018x}"),
            ServeError::UnknownMatrix(id) => write!(f, "unknown matrix {id:#018x}"),
            ServeError::Incompatible(m) => write!(f, "incompatible peer: {m}"),
            ServeError::Shutdown => write!(f, "server is shutting down"),
            ServeError::WrongShard {
                epoch,
                shard_index,
                shard_count,
            } => write!(
                f,
                "wrong shard: this node serves slot {shard_index}/{shard_count} \
                 (ring epoch {epoch}); refresh the cluster topology"
            ),
            ServeError::ChunkMismatch { matrix_id, index } => {
                if *index == protocol::CHUNK_INDEX_NONE {
                    write!(f, "chunk mismatch: matrix {matrix_id:#018x} body hash")
                } else {
                    write!(f, "chunk mismatch: matrix {matrix_id:#018x} chunk {index}")
                }
            }
            ServeError::Internal(m) => write!(f, "internal server error: {m}"),
            ServeError::He(e) => write!(f, "he error: {e}"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Remote { code, message } => {
                write!(f, "remote error {code:?}: {message}")
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::He(e) => Some(e),
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cham_he::HeError> for ServeError {
    fn from(e: cham_he::HeError) -> Self {
        ServeError::He(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
