//! Blocking client for the cham-serve wire protocol.
//!
//! One [`ServeClient`] wraps one TCP connection and issues one request at
//! a time (the protocol is strictly request/response per connection).
//! Open several clients from several threads to run requests
//! concurrently — that is exactly what the loopback integration tests do.
//!
//! Every socket operation is bounded by [`ClientConfig`] timeouts, so a
//! dead or wedged server surfaces as a timely [`ServeError::Io`] instead
//! of an indefinite hang. This type carries no policy: for automatic
//! recovery from transient failures (resets, torn writes, `Busy`,
//! evictions) use [`crate::ClusterClient`] — a single server is its
//! one-slot case — which drives connections of this type.

use crate::cache::content_hash;
use crate::protocol::{
    self, FrameKind, Hello, MatrixChunkStart, Response, DEADLINE_NONE, PROTOCOL_VERSION,
};
use crate::stats::{IntrospectSnapshot, StatsSnapshot};
use crate::{Result, ServeError};
use cham_he::ciphertext::RlweCiphertext;
use cham_he::hmvp::{HmvpResult, Matrix};
use cham_he::keys::GaloisKeys;
use cham_he::params::ChamParams;
use cham_he::wire;
use cham_telemetry::span::TraceId;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// Socket timeout policy for one client connection.
///
/// The defaults are deliberately generous (connect 5 s, read/write 30 s):
/// HMVPs at production sizes take real compute time, and a read
/// timeout that fires mid-computation desyncs the stream for no benefit.
/// `None` disables the corresponding timeout entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Bound on establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Bound on each blocking read (covers the whole response wait).
    pub read_timeout: Option<Duration>,
    /// Bound on each blocking write.
    pub write_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Outcome of one chunked matrix upload: the content id plus how many
/// chunks actually crossed the wire. `chunks_skipped` counts chunks the
/// server's received-bitmap already held — nonzero exactly when a
/// resumed upload avoided re-sending data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkUpload {
    /// The matrix's content id.
    pub matrix_id: u64,
    /// Chunks sent over the wire by this call.
    pub chunks_sent: u32,
    /// Chunks skipped because the server already held them.
    pub chunks_skipped: u32,
}

/// Server shape reported in the hello exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerInfo {
    /// Kernels the server runs at once.
    pub workers: u16,
    /// Bound on requests waiting to run.
    pub queue_capacity: u32,
    /// The server's cluster identity (`None` from a standalone server).
    pub cluster: Option<crate::shard::ClusterIdentity>,
}

/// A connected, hello-verified client.
pub struct ServeClient {
    stream: TcpStream,
    params: Arc<ChamParams>,
    info: ServerInfo,
}

impl ServeClient {
    /// Connects with the default timeout policy and performs the hello
    /// exchange, verifying that both sides run the same parameter set
    /// and protocol revision. One connection, one hello: a mismatch is
    /// not retried.
    ///
    /// # Errors
    /// Transport errors, or [`ServeError::Incompatible`] on mismatch.
    pub fn connect(addr: impl ToSocketAddrs, params: Arc<ChamParams>) -> Result<Self> {
        Self::connect_with(addr, params, &ClientConfig::default())
    }

    /// Connects under an explicit timeout policy.
    ///
    /// The address may resolve to several socket addresses; each is tried
    /// in order with `config.connect_timeout`, and the last error is
    /// returned if none accepts.
    ///
    /// # Errors
    /// Transport errors, or [`ServeError::Incompatible`] on mismatch.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        params: Arc<ChamParams>,
        config: &ClientConfig,
    ) -> Result<Self> {
        let mut last_err: Option<std::io::Error> = None;
        let mut stream = None;
        for sock_addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sock_addr, config.connect_timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let Some(stream) = stream else {
            return Err(ServeError::Io(last_err.unwrap_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "address resolved to no socket addresses",
                )
            })));
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(config.read_timeout)?;
        stream.set_write_timeout(config.write_timeout)?;
        let mut client = Self {
            stream,
            params,
            info: ServerInfo {
                workers: 0,
                queue_capacity: 0,
                cluster: None,
            },
        };
        let hello = Hello::for_params(&client.params);
        let resp = client.roundtrip(FrameKind::Hello, &hello.to_bytes())?;
        let Response::Hello {
            workers,
            queue_capacity,
            max_batch: _,
            version,
            cluster,
        } = resp
        else {
            return Err(ServeError::BadFrame("hello answered with wrong response"));
        };
        if version != PROTOCOL_VERSION {
            return Err(ServeError::Incompatible("protocol revision mismatch"));
        }
        client.info = ServerInfo {
            workers,
            queue_capacity,
            cluster,
        };
        Ok(client)
    }

    /// The serving shape the server reported at connect time.
    #[must_use]
    pub fn server_info(&self) -> ServerInfo {
        self.info
    }

    /// Health check: round-trips an empty `Ping` frame and returns the
    /// server's live counter snapshot. Cheap enough to poll — it touches
    /// no cache and takes no permit.
    ///
    /// # Errors
    /// Transport errors.
    pub fn ping(&mut self) -> Result<StatsSnapshot> {
        match self.roundtrip(FrameKind::Ping, &[])? {
            Response::Pong { stats } => Ok(stats),
            _ => Err(ServeError::BadFrame("ping answered with wrong response")),
        }
    }

    /// Uploads a Galois key set and returns its content id. `indices`
    /// selects which automorphism keys to ship (usually the packing
    /// ladder `2^j + 1`).
    ///
    /// # Errors
    /// Transport or server-side validation errors.
    pub fn load_keys(&mut self, keys: &GaloisKeys, indices: &[usize]) -> Result<u64> {
        let bytes = wire::galois_keys_to_bytes(keys, indices)?;
        self.load_keys_bytes(&bytes)
    }

    /// Uploads an already-serialized Galois key set.
    ///
    /// # Errors
    /// Transport or server-side validation errors.
    pub fn load_keys_bytes(&mut self, bytes: &[u8]) -> Result<u64> {
        match self.roundtrip(FrameKind::LoadKeys, bytes)? {
            Response::KeysLoaded { key_id } => Ok(key_id),
            _ => Err(ServeError::BadFrame(
                "load-keys answered with wrong response",
            )),
        }
    }

    /// Uploads a plaintext matrix in [`protocol::DEFAULT_CHUNK_BYTES`]
    /// chunks; the server encodes it to NTT form once and caches it under
    /// the returned content id.
    ///
    /// # Errors
    /// Transport or server-side validation errors.
    pub fn load_matrix(&mut self, matrix: &Matrix) -> Result<u64> {
        self.load_matrix_streamed(matrix, protocol::DEFAULT_CHUNK_BYTES)
            .map(|u| u.matrix_id)
    }

    /// Uploads a matrix in `chunk_bytes`-sized chunks: declares the
    /// upload, reads the server's received-bitmap, sends only the chunks
    /// the server lacks, and commits. On a fresh upload every chunk is
    /// sent; on a resume after a disconnect the bitmap makes the
    /// re-upload incremental — the returned [`ChunkUpload`] counts both.
    ///
    /// # Errors
    /// [`ServeError::ChunkMismatch`] when the server refuses a chunk's
    /// content check, transport or server-side validation errors.
    pub fn load_matrix_streamed(
        &mut self,
        matrix: &Matrix,
        chunk_bytes: usize,
    ) -> Result<ChunkUpload> {
        let body = protocol::matrix_to_bytes(matrix);
        let shape = (matrix.rows() as u32, matrix.cols() as u32);
        // The upload id of a matrix body is its matrix id.
        let (upload, loaded) = self.stream_body(&body, chunk_bytes, shape)?;
        if loaded != (upload.matrix_id, shape.0, shape.1) {
            return Err(ServeError::BadFrame("server committed a different matrix"));
        }
        Ok(upload)
    }

    /// Lists the server's matrix inventory — every content id resident
    /// in RAM or the persistent store. The repair planner diffs this
    /// against the ring's expected replica set.
    ///
    /// # Errors
    /// Transport errors.
    pub fn store_list(&mut self) -> Result<Vec<u64>> {
        match self.roundtrip(FrameKind::StoreList, &[])? {
            Response::StoreListReport { ids } => Ok(ids),
            _ => Err(ServeError::BadFrame(
                "store-list answered with wrong response",
            )),
        }
    }

    /// Fetches one encoded segment's bytes by content id — the source
    /// side of a replica→replica repair transfer.
    ///
    /// # Errors
    /// [`ServeError::UnknownMatrix`] when the server holds no such
    /// segment, transport errors.
    pub fn store_fetch(&mut self, store_id: u64) -> Result<Vec<u8>> {
        match self.roundtrip(
            FrameKind::StoreFetch,
            &protocol::store_fetch_to_bytes(store_id),
        )? {
            Response::SegmentData {
                store_id: id,
                bytes,
            } => {
                if id != store_id {
                    return Err(ServeError::BadFrame("server fetched a different segment"));
                }
                Ok(bytes)
            }
            _ => Err(ServeError::BadFrame(
                "store-fetch answered with wrong response",
            )),
        }
    }

    /// Streams an already-encoded segment to this server under its
    /// store id — the target side of a repair transfer. Rides the
    /// resumable chunked-upload path end to end: the body is
    /// `[store_id][segment bytes]`, the synthetic upload id is that
    /// body's content hash, so per-chunk checksums, the received-bitmap
    /// resume, and the whole-body verification all apply unchanged.
    ///
    /// # Errors
    /// [`ServeError::WrongShard`] when the target does not own the id,
    /// [`ServeError::ChunkMismatch`] on a failed content check,
    /// transport or server-side validation errors.
    pub fn load_segment_streamed(
        &mut self,
        store_id: u64,
        segment: &[u8],
        chunk_bytes: usize,
    ) -> Result<ChunkUpload> {
        let body = protocol::segment_body_to_bytes(store_id, segment);
        // (0, 0) is the segment-mode shape sentinel.
        let (mut upload, (loaded_id, _, _)) = self.stream_body(&body, chunk_bytes, (0, 0))?;
        if loaded_id != store_id {
            return Err(ServeError::BadFrame("server installed a different segment"));
        }
        upload.matrix_id = store_id;
        Ok(upload)
    }

    /// The chunked upload both body kinds share: declare `body` under
    /// its content hash with the given `(rows, cols)`, send the chunks
    /// the server's bitmap lacks, commit. Returns the chunk counts
    /// (`matrix_id` holding the upload id) and the `(id, rows, cols)` the
    /// server reported loading, which the caller checks.
    fn stream_body(
        &mut self,
        body: &[u8],
        chunk_bytes: usize,
        (rows, cols): (u32, u32),
    ) -> Result<(ChunkUpload, (u64, u32, u32))> {
        // Clamp the chunk size into the protocol's bounds, growing it if
        // needed so the count stays under MAX_CHUNK_COUNT (the caps
        // guarantee a compliant size always exists for a legal body).
        let chunk_bytes = chunk_bytes
            .max(body.len().div_ceil(protocol::MAX_CHUNK_COUNT))
            .clamp(1, protocol::MAX_CHUNK_BYTES);
        let upload_id = content_hash(body);
        let start = MatrixChunkStart::new(upload_id, body.len(), chunk_bytes, rows, cols);
        let mut bitmap = self.chunk_ack(FrameKind::MatrixChunkStart, &start.to_bytes(), &start)?;
        let mut upload = ChunkUpload {
            matrix_id: upload_id,
            chunks_sent: 0,
            chunks_skipped: 0,
        };
        for index in 0..start.chunk_count {
            if protocol::bitmap_get(&bitmap, index as usize) {
                upload.chunks_skipped += 1;
                continue;
            }
            let off = index as usize * chunk_bytes;
            let data = &body[off..off + start.len_of_chunk(index)];
            let frame = protocol::matrix_chunk_to_bytes(upload_id, index, content_hash(data), data);
            bitmap = self.chunk_ack(FrameKind::MatrixChunk, &frame, &start)?;
            upload.chunks_sent += 1;
        }
        match self.roundtrip(
            FrameKind::MatrixChunkCommit,
            &protocol::matrix_chunk_commit_to_bytes(upload_id),
        )? {
            Response::MatrixLoaded {
                matrix_id,
                rows,
                cols,
            } => Ok((upload, (matrix_id, rows, cols))),
            _ => Err(ServeError::BadFrame(
                "chunk commit answered with wrong response",
            )),
        }
    }

    /// One chunk-op round trip expecting a [`Response::ChunkAck`] that
    /// matches `start`'s declaration; returns the received-bitmap.
    fn chunk_ack(
        &mut self,
        kind: FrameKind,
        body: &[u8],
        start: &MatrixChunkStart,
    ) -> Result<Vec<u8>> {
        match self.roundtrip(kind, body)? {
            Response::ChunkAck {
                matrix_id,
                chunk_count,
                bitmap,
            } => {
                if matrix_id != start.matrix_id || chunk_count != start.chunk_count {
                    return Err(ServeError::BadFrame(
                        "chunk ack disagrees with the declared upload",
                    ));
                }
                Ok(bitmap)
            }
            _ => Err(ServeError::BadFrame(
                "chunk op answered with wrong response",
            )),
        }
    }

    /// Runs one HMVP against cached keys + matrix. `deadline` bounds how
    /// long the request may wait server-side before it is dropped with
    /// [`ServeError::TimedOut`]; `None` waits as long as it takes
    /// (encoded as the [`DEADLINE_NONE`] sentinel on the wire — sub-
    /// millisecond deadlines are rounded up to 1 ms, since the wire
    /// rejects a literal zero).
    ///
    /// # Errors
    /// [`ServeError::Busy`] under backpressure, [`ServeError::TimedOut`]
    /// past the deadline, [`ServeError::UnknownKey`]/
    /// [`ServeError::UnknownMatrix`] after eviction, transport errors.
    pub fn hmvp(
        &mut self,
        key_id: u64,
        matrix_id: u64,
        cts: &[RlweCiphertext],
        deadline: Option<Duration>,
    ) -> Result<HmvpResult> {
        // Every request carries a fresh trace id so the server-side
        // flight recorder can attribute it.
        let trace_id = TraceId::generate().as_u64();
        self.hmvp_traced(key_id, matrix_id, cts, deadline, trace_id)
    }

    /// [`Self::hmvp`] with an explicit trace id (to continue a trace the
    /// caller already started; `0` lets the server assign one).
    ///
    /// # Errors
    /// Same as [`Self::hmvp`].
    pub fn hmvp_traced(
        &mut self,
        key_id: u64,
        matrix_id: u64,
        cts: &[RlweCiphertext],
        deadline: Option<Duration>,
        trace_id: u64,
    ) -> Result<HmvpResult> {
        let deadline_ms = deadline.map_or(DEADLINE_NONE, |d| {
            u32::try_from(d.as_millis())
                .unwrap_or(DEADLINE_NONE - 1)
                .clamp(1, DEADLINE_NONE - 1)
        });
        let body = protocol::hmvp_request_to_bytes(key_id, matrix_id, deadline_ms, trace_id, cts);
        match self.roundtrip(FrameKind::Hmvp, &body)? {
            Response::HmvpDone { len, packed } => Ok(HmvpResult {
                packed,
                len: len as usize,
            }),
            _ => Err(ServeError::BadFrame("hmvp answered with wrong response")),
        }
    }

    /// Fetches the server's structured introspection snapshot: live
    /// counters, queue/pool occupancy, and per-phase latency histograms.
    ///
    /// # Errors
    /// Transport errors.
    pub fn introspect(&mut self) -> Result<IntrospectSnapshot> {
        match self.roundtrip(FrameKind::Introspect, &[])? {
            Response::IntrospectReport { snapshot } => Ok(snapshot),
            _ => Err(ServeError::BadFrame(
                "introspect answered with wrong response",
            )),
        }
    }

    /// Fetches the server's flight recorder as Chrome-trace JSON (load
    /// it in Perfetto, or parse with `cham_telemetry::trace_reader`).
    ///
    /// # Errors
    /// Transport errors.
    pub fn flight_dump(&mut self) -> Result<String> {
        match self.roundtrip(FrameKind::FlightDump, &[])? {
            Response::FlightDump { json } => Ok(json),
            _ => Err(ServeError::BadFrame(
                "flight-dump answered with wrong response",
            )),
        }
    }

    /// Sends one frame and parses the response, turning `Error` frames
    /// back into their local [`ServeError`] variants.
    fn roundtrip(&mut self, kind: FrameKind, body: &[u8]) -> Result<Response> {
        protocol::write_frame(&mut self.stream, kind, body)?;
        let (kind, body) = protocol::read_frame(&mut self.stream)?;
        match kind {
            FrameKind::Result => Response::from_bytes(&body, &self.params),
            FrameKind::Error => {
                let (code, message) = protocol::error_from_body(&body)?;
                Err(protocol::wire_to_error(code, message))
            }
            _ => Err(ServeError::BadFrame("server sent a request frame")),
        }
    }
}
