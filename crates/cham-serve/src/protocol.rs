//! The framed wire protocol.
//!
//! Every message is one length-prefixed frame over the TCP stream:
//!
//! ```text
//! [len u32 LE] [kind u8] [body: len−1 bytes]
//! ```
//!
//! `len` counts the kind byte plus the body, so an empty body frames as
//! `len = 1`. Ciphertext and key payloads inside bodies reuse the
//! `cham_he::wire` codecs unchanged, so the serving layer inherits their
//! parameter validation (foreign modulus chains, out-of-range
//! coefficients and truncation are rejected at the payload layer, not
//! re-implemented here).
//!
//! | kind | direction | body |
//! |------|-----------|------|
//! | `Hello` (1) | c→s | `[revision u16] [degree u32] [t u64] [n u8] [ct primes u64×n] [special u64]` |
//! | `LoadKeys` (2) | c→s | `cham_he::wire::galois_keys_to_bytes` payload |
//! | (3) | — | retired (the single-frame matrix upload); rejected as an unknown kind |
//! | `Hmvp` (4) | c→s | `[key_id u64] [matrix_id u64] [deadline_ms u32] [trace_id u64] [k u16] ([len u32] [rlwe bytes])×k`, each ciphertext an NTT-form `RlweNtt` payload |
//! | `Result` (5) | s→c | `[tag u8] [tag-specific payload]` (see [`Response`]) |
//! | `Error` (6) | s→c | `[code u8] [that code's fields]` (see below) |
//! | (7) | — | retired (the `Ping` health check; `Introspect` serves the same counters); rejected as an unknown kind |
//! | `Introspect` (8) | c→s | empty — answered with a [`Response::IntrospectReport`] snapshot |
//! | `FlightDump` (9) | c→s | empty — answered with a [`Response::FlightDump`] flight snapshot |
//! | `MatrixChunkStart` (10) | c→s | `[matrix_id u64] [total_len u64] [chunk_size u32] [chunk_count u32] [rows u32] [cols u32]` |
//! | `MatrixChunk` (11) | c→s | `[matrix_id u64] [index u32] [checksum u64] [data]` |
//! | `MatrixChunkCommit` (12) | c→s | `[matrix_id u64]` |
//! | `StoreList` (13) | c→s | empty — segment inventory; answered with a [`Response::StoreListReport`] |
//! | `StoreFetch` (14) | c→s | `[store_id u64]` — answered with a [`Response::SegmentData`] matrix body |
//!
//! A `Result` answering `Hello` is
//! `[tag u8] [revision u16] [presence u8] ([shard_index u16] [shard_count u16] [epoch u64])`,
//! the bracketed cluster block present only when the presence byte is 1.
//!
//! A `Result` answering `FlightDump` carries the flight recorder's
//! records, not rendered text; the client renders the Perfetto file
//! itself ([`FlightSnapshot::to_chrome_trace`]):
//!
//! | part | layout |
//! |------|--------|
//! | head | `[tag u8 = 7] [dropped_traces u64] [traces u16]` |
//! | per trace | `[trace_id u64] [start_ns u64] [total_ns u64] [phases u8]` |
//! | per phase | `[name] [start_ns u64] [dur_ns u64] [count u64]` |
//! | tail | `[events u16]`, then per event `[kind u8] [trace_id u64, 0 = none] [ts_ns u64] [detail]` |
//!
//! `[name]` and `[detail]` are the error message's `[len u16] [utf-8]`
//! string. A phase name outside `span::phase::ALL`, an event kind past
//! `FlightEventKind::ALL`, a zero trace id on a trace, a count the bytes
//! left cannot hold (checked before allocating) or text that is not
//! UTF-8 is a `BadFrame`.
//!
//! An `Error` body is its [`ErrorCode`] followed by that code's fields,
//! so every typed error crosses the wire typed ([`error_body`] /
//! [`error_from_body`]); a body of any other length is a `BadFrame`:
//!
//! | code | fields |
//! |------|--------|
//! | `UnknownKey` / `UnknownMatrix` | `[id u64]` |
//! | `WrongShard` | `[epoch u64] [shard_index u16] [shard_count u16]` |
//! | `ChunkMismatch` | `[matrix_id u64] [index u32]` |
//! | `BadFrame` / `Incompatible` / `Internal` | `[len u16] [utf-8 message]` |
//! | `Busy` / `TimedOut` / `Shutdown` | none |
//!
//! There is one revision, [`PROTOCOL_VERSION`]: a hello carrying any
//! other value is answered with one `Incompatible` error, and a client
//! that reads any other value back in the hello response gives up with
//! the same error after that one connection attempt.
//!
//! Request ciphertexts cross in the form they were encrypted in, NTT
//! (`cham_he::wire`'s `RlweNtt` kind): the server's product reads their
//! limbs in place, and refuses a coefficient-form input with a typed
//! `Incompatible`. A `HmvpDone` reply's packed ciphertexts are
//! coefficient-form `Rlwe` payloads.
//!
//! ## Matrix uploads
//!
//! A matrix travels as its *declared body* —
//! `[rows u32] [cols u32] [values u64 × rows·cols]`
//! ([`matrix_to_bytes`]) — cut into chunks. `MatrixChunkStart` declares
//! the body (its FNV-1a content hash **is** the `matrix_id`), then
//! `MatrixChunk` frames carry bounded slices of it — each with its own
//! FNV checksum, validated *before* any copy into the assembly buffer —
//! and `MatrixChunkCommit` checks the reassembled body against the id
//! and encodes. One server-side owner, `cache::Uploads` in the session
//! cache, holds every assembly: it answers the start, checks and places
//! each chunk, and commits the body. It hashes each body once: a chunk
//! that lands at the next in-order offset is folded into the body hash in
//! the pass that checks its checksum, and the commit folds the rest.
//! Start and every chunk are acknowledged with a [`Response::ChunkAck`]
//! carrying the received-chunk bitmap, which is what makes re-upload
//! resumable: after a disconnect the client replays `MatrixChunkStart`,
//! reads the bitmap, and sends only the missing chunks. Chunks may arrive
//! in any order and duplicates are idempotent.
//!
//! ## Anti-entropy repair
//!
//! `StoreList` answers with every content id resident in RAM or on disk,
//! and `StoreFetch` returns that id's matrix body — the exact bytes the
//! id hashes, which is all a node keeps of a matrix outside its RAM
//! encoding. A repair is then an ordinary upload of that body to the
//! replica that lacks it, so the target checks ownership and the content
//! hash exactly as it does for a client. Nothing else can install a
//! matrix under an id.
//!
//! ## Deadlines and ids
//!
//! `deadline_ms` uses an explicit sentinel: [`DEADLINE_NONE`]
//! (`u32::MAX`) means "no deadline". A literal `0` is **rejected** as a
//! `BadFrame` — an already-expired deadline is always a client bug. Key
//! and matrix ids are content hashes (FNV-1a 64 of the raw payload
//! bytes), so retransmitting the same material from any connection
//! resolves to the same cache entry — which is what makes uploads
//! idempotent and therefore safe for [`crate::ClusterClient`] to
//! replay after an eviction.

use crate::shard::ClusterIdentity;
use crate::stats::{IntrospectSnapshot, PhaseStat};
use crate::{Result, ServeError};
use cham_he::ciphertext::RlweCiphertext;
use cham_he::hmvp::Matrix;
use cham_he::pack::PackedRlwe;
use cham_he::params::ChamParams;
use cham_he::wire;
use cham_telemetry::flight::{FlightEvent, FlightEventKind, FlightSnapshot, RequestTrace};
use cham_telemetry::span::{phase, PhaseSpan, TraceId};
use std::io::{Read, Write};

/// The one protocol revision this crate speaks; both ends refuse any
/// other value.
pub const PROTOCOL_VERSION: u16 = 10;

/// Wire sentinel for "no deadline" in `Hmvp` frames. Any other value is
/// a deadline in milliseconds; `0` is rejected as malformed.
pub const DEADLINE_NONE: u32 = u32::MAX;

/// Upper bound on a single frame; larger length prefixes are rejected
/// before any allocation (a malicious peer cannot OOM the server with one
/// header).
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// Upper bound on one matrix chunk's data slice. Bounds the server's
/// per-chunk working memory no matter what the peer declares; oversize
/// chunks are rejected before allocation.
pub const MAX_CHUNK_BYTES: usize = 4 << 20;

/// Upper bound on the chunk count one streamed upload may declare. Caps
/// the received-bitmap a [`Response::ChunkAck`] carries at 8 KiB and the
/// per-upload bookkeeping the server must hold.
pub const MAX_CHUNK_COUNT: usize = 1 << 16;

/// Default chunk size a streaming client uses when the caller does not
/// pick one: large enough to amortize the per-chunk round trip, small
/// enough that sender and receiver stay bounded-memory.
pub const DEFAULT_CHUNK_BYTES: usize = 1 << 20;

/// Frame discriminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client hello: protocol version + parameter fingerprint.
    Hello = 1,
    /// Galois key set upload.
    LoadKeys = 2,
    /// One HMVP request against cached keys + matrix.
    Hmvp = 4,
    /// Success response (tagged by request kind).
    Result = 5,
    /// Failure response.
    Error = 6,
    /// Live introspection: empty body, answered with a structured
    /// snapshot of stats, queue/pool occupancy, and per-phase latency
    /// histograms.
    Introspect = 8,
    /// On-demand flight-recorder dump: empty body, answered with the
    /// recorder's Chrome-trace JSON.
    FlightDump = 9,
    /// Opens (or resumes) a matrix upload: declares the body's content
    /// hash, length, shape, and chunking; answered with a
    /// [`Response::ChunkAck`] received-bitmap.
    MatrixChunkStart = 10,
    /// One chunk of a matrix upload, FNV-checksummed individually.
    MatrixChunk = 11,
    /// Finishes an upload: the server reassembles, verifies the
    /// whole-body hash, encodes, and answers `MatrixLoaded`.
    MatrixChunkCommit = 12,
    /// Asks for the node's segment inventory — every matrix content id
    /// resident in RAM or the persistent store; empty body, answered
    /// with a [`Response::StoreListReport`].
    StoreList = 13,
    /// Pulls one matrix body back off the node for replica→replica
    /// repair; answered with a [`Response::SegmentData`].
    StoreFetch = 14,
}

impl FrameKind {
    /// Parses a frame-kind byte.
    ///
    /// # Errors
    /// [`ServeError::BadFrame`] for unknown discriminators (including
    /// the retired kinds 3 and 7).
    pub fn from_u8(v: u8) -> Result<Self> {
        match v {
            1 => Ok(FrameKind::Hello),
            2 => Ok(FrameKind::LoadKeys),
            4 => Ok(FrameKind::Hmvp),
            5 => Ok(FrameKind::Result),
            6 => Ok(FrameKind::Error),
            8 => Ok(FrameKind::Introspect),
            9 => Ok(FrameKind::FlightDump),
            10 => Ok(FrameKind::MatrixChunkStart),
            11 => Ok(FrameKind::MatrixChunk),
            12 => Ok(FrameKind::MatrixChunkCommit),
            13 => Ok(FrameKind::StoreList),
            14 => Ok(FrameKind::StoreFetch),
            _ => Err(ServeError::BadFrame("unknown frame kind")),
        }
    }
}

/// Wire error codes carried by `Error` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Queue full — retry with backoff.
    Busy = 1,
    /// Deadline expired before execution.
    TimedOut = 2,
    /// Malformed frame or payload.
    BadFrame = 3,
    /// Key id not cached.
    UnknownKey = 4,
    /// Matrix id not cached.
    UnknownMatrix = 5,
    /// Parameter or version mismatch.
    Incompatible = 6,
    /// Server shutting down.
    Shutdown = 7,
    /// HE-layer or other internal failure.
    Internal = 8,
    /// The content hash is not owned by this shard (the body carries
    /// the server's ring epoch and slot so the client can refresh its
    /// topology).
    WrongShard = 9,
    /// A matrix chunk failed its content check — per-chunk
    /// checksum mismatch, or a commit whose reassembled bytes hash to
    /// something other than the declared `matrix_id`. The body
    /// carries the id and chunk index so the client re-sends exactly
    /// the bad chunk.
    ChunkMismatch = 10,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Result<Self> {
        match v {
            1 => Ok(ErrorCode::Busy),
            2 => Ok(ErrorCode::TimedOut),
            3 => Ok(ErrorCode::BadFrame),
            4 => Ok(ErrorCode::UnknownKey),
            5 => Ok(ErrorCode::UnknownMatrix),
            6 => Ok(ErrorCode::Incompatible),
            7 => Ok(ErrorCode::Shutdown),
            8 => Ok(ErrorCode::Internal),
            9 => Ok(ErrorCode::WrongShard),
            10 => Ok(ErrorCode::ChunkMismatch),
            _ => Err(ServeError::BadFrame("unknown error code")),
        }
    }
}

/// Writes one frame: [`write_frame_vectored`] over one part.
///
/// # Errors
/// Propagates transport errors; rejects oversized bodies.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, body: &[u8]) -> Result<()> {
    write_frame_vectored(w, kind, &[body])
}

/// Writes one frame whose body is scattered across `parts`, using
/// `write_vectored` so the header and the pieces reach the kernel in one
/// call without first being gathered into one contiguous buffer — the
/// copy the `HmvpDone` reply would otherwise pay per packed ciphertext,
/// and a request its shared ciphertext payload. On the wire the result
/// is the header followed by the concatenated parts.
///
/// # Errors
/// Propagates transport errors; rejects oversized bodies.
pub fn write_frame_vectored(w: &mut impl Write, kind: FrameKind, parts: &[&[u8]]) -> Result<()> {
    let body_len: usize = parts.iter().map(|p| p.len()).sum();
    if body_len + 1 > MAX_FRAME_BYTES {
        return Err(ServeError::BadFrame("frame exceeds MAX_FRAME_BYTES"));
    }
    let len = (body_len + 1) as u32;
    let mut header = [0u8; 5];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4] = kind as u8;
    // Flatten to one buffer list, skipping empty parts (a zero-length
    // IoSlice is legal but wastes an iovec slot).
    let bufs: Vec<&[u8]> = std::iter::once(&header[..])
        .chain(parts.iter().copied())
        .filter(|p| !p.is_empty())
        .collect();
    // write_vectored may accept any prefix of the total; resume from the
    // first unwritten byte until everything is down.
    let mut idx = 0;
    let mut offset = 0;
    while idx < bufs.len() {
        let mut slices = Vec::with_capacity(bufs.len() - idx);
        slices.push(std::io::IoSlice::new(&bufs[idx][offset..]));
        for buf in &bufs[idx + 1..] {
            slices.push(std::io::IoSlice::new(buf));
        }
        let mut n = w.write_vectored(&slices)?;
        if n == 0 {
            return Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "vectored frame write stalled",
            )));
        }
        while idx < bufs.len() && n >= bufs[idx].len() - offset {
            n -= bufs[idx].len() - offset;
            idx += 1;
            offset = 0;
        }
        offset += n;
    }
    w.flush()?;
    Ok(())
}

/// Reads one frame (blocking) whose length prefix is at most
/// [`MAX_FRAME_BYTES`]. A zero or larger prefix is rejected before the
/// body is allocated or read.
///
/// # Errors
/// Transport errors, zero/oversized length prefixes, unknown kinds.
pub fn read_frame(r: &mut impl Read) -> Result<(FrameKind, Vec<u8>)> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 {
        return Err(ServeError::BadFrame("zero-length frame"));
    }
    if len > MAX_FRAME_BYTES {
        return Err(ServeError::BadFrame(
            "frame exceeds the reader's size bound",
        ));
    }
    let mut kind_buf = [0u8; 1];
    r.read_exact(&mut kind_buf)?;
    let kind = FrameKind::from_u8(kind_buf[0])?;
    let mut body = vec![0u8; len - 1];
    r.read_exact(&mut body)?;
    Ok((kind, body))
}

/// Little-endian cursor over a frame body.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.data.len() {
            return Err(ServeError::BadFrame("truncated frame body"));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Reads a [`put_str`] string; `not_utf8` is the refusal when its
    /// bytes are not UTF-8.
    fn str(&mut self, not_utf8: &'static str) -> Result<&'a str> {
        let len = usize::from(self.u16()?);
        std::str::from_utf8(self.take(len)?).map_err(|_| ServeError::BadFrame(not_utf8))
    }

    /// `n` when the bytes left can hold `n` records of at least `min_len`
    /// bytes each — the check a count passes before anything is sized by
    /// it.
    fn bounded(&self, n: usize, min_len: usize, what: &'static str) -> Result<usize> {
        if n.checked_mul(min_len).is_none_or(|b| b > self.remaining()) {
            return Err(ServeError::BadFrame(what));
        }
        Ok(n)
    }

    fn done(&self) -> Result<()> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(ServeError::BadFrame("trailing bytes in frame body"))
        }
    }
}

// ---------------------------------------------------------------- Hello

/// Parameter fingerprint sent in a `Hello` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Protocol revision the client speaks.
    pub version: u16,
    /// Ring degree `N`.
    pub degree: u64,
    /// Plaintext modulus `t`.
    pub plain_modulus: u64,
    /// Ciphertext prime chain (without the special prime).
    pub ct_primes: Vec<u64>,
    /// The special (key-switching) prime.
    pub special_prime: u64,
}

impl Hello {
    /// The fingerprint of a parameter set.
    #[must_use]
    pub fn for_params(params: &ChamParams) -> Self {
        Self {
            version: PROTOCOL_VERSION,
            degree: params.degree() as u64,
            plain_modulus: params.plain_modulus().value(),
            ct_primes: params
                .ciphertext_context()
                .moduli()
                .iter()
                .map(cham_math::Modulus::value)
                .collect(),
            special_prime: params.special_prime(),
        }
    }

    /// Checks the revision and the fingerprint against a local parameter
    /// set.
    ///
    /// # Errors
    /// [`ServeError::Incompatible`] naming the first mismatching field.
    pub fn check(&self, params: &ChamParams) -> Result<()> {
        if self.version != PROTOCOL_VERSION {
            return Err(ServeError::Incompatible("protocol revision mismatch"));
        }
        let local = Self::for_params(params);
        if self.degree != local.degree {
            return Err(ServeError::Incompatible("ring degree mismatch"));
        }
        if self.plain_modulus != local.plain_modulus {
            return Err(ServeError::Incompatible("plaintext modulus mismatch"));
        }
        if self.ct_primes != local.ct_primes {
            return Err(ServeError::Incompatible("ciphertext prime chain mismatch"));
        }
        if self.special_prime != local.special_prime {
            return Err(ServeError::Incompatible("special prime mismatch"));
        }
        Ok(())
    }

    /// Serializes the hello body.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(23 + 8 * self.ct_primes.len());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(self.degree as u32).to_le_bytes());
        out.extend_from_slice(&self.plain_modulus.to_le_bytes());
        out.push(self.ct_primes.len() as u8);
        for &q in &self.ct_primes {
            out.extend_from_slice(&q.to_le_bytes());
        }
        out.extend_from_slice(&self.special_prime.to_le_bytes());
        out
    }

    /// Parses a hello body.
    ///
    /// # Errors
    /// [`ServeError::BadFrame`] for truncated or trailing bytes.
    pub fn from_bytes(body: &[u8]) -> Result<Self> {
        let mut r = Reader::new(body);
        let version = r.u16()?;
        let degree = u64::from(r.u32()?);
        let plain_modulus = r.u64()?;
        let n = r.u8()? as usize;
        let mut ct_primes = Vec::with_capacity(n);
        for _ in 0..n {
            ct_primes.push(r.u64()?);
        }
        let special_prime = r.u64()?;
        r.done()?;
        Ok(Self {
            version,
            degree,
            plain_modulus,
            ct_primes,
            special_prime,
        })
    }
}

// ---------------------------------------------------------- matrix body

/// Serializes a matrix into the body a chunked upload declares and
/// slices: `[rows u32] [cols u32] [values u64 × rows·cols]`.
#[must_use]
pub fn matrix_to_bytes(m: &Matrix) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 8 * m.rows() * m.cols());
    out.extend_from_slice(&(m.rows() as u32).to_le_bytes());
    out.extend_from_slice(&(m.cols() as u32).to_le_bytes());
    for i in 0..m.rows() {
        for &v in m.row(i) {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// The byte length of a `rows × cols` matrix body, `8 + 8·rows·cols`, or
/// a `BadFrame` for a zero dimension or a body beyond [`MAX_FRAME_BYTES`]
/// — never an overflow. Every reader of a declared shape calls it.
pub(crate) fn matrix_body_len(rows: u32, cols: u32) -> Result<usize> {
    if rows == 0 || cols == 0 {
        return Err(ServeError::BadFrame("empty matrix"));
    }
    (u64::from(rows) * u64::from(cols))
        .checked_mul(8)
        .and_then(|values| values.checked_add(8))
        .filter(|&len| len <= MAX_FRAME_BYTES as u64)
        .map(|len| len as usize)
        .ok_or(ServeError::BadFrame("matrix exceeds frame bound"))
}

/// Parses a matrix body — a reassembled upload, a stored segment or a
/// body fetched for repair. Entries must be below the plaintext modulus.
///
/// # Errors
/// [`ServeError::BadFrame`] for truncation, trailing bytes, implausible
/// shapes, or out-of-range entries.
pub fn matrix_from_bytes(body: &[u8], params: &ChamParams) -> Result<Matrix> {
    // Checked before the entries are allocated: a declared shape never
    // reserves more than the body actually carries.
    let (rows, cols) = matrix_shape(body)?;
    let (rows, cols) = (rows as usize, cols as usize);
    let t = params.plain_modulus().value();
    let mut data = Vec::with_capacity(rows * cols);
    for v in body[8..].chunks_exact(8) {
        let v = u64::from_le_bytes(v.try_into().expect("len 8"));
        if v >= t {
            return Err(ServeError::BadFrame("matrix entry exceeds the modulus"));
        }
        data.push(v);
    }
    Matrix::from_data(rows, cols, data).map_err(ServeError::He)
}

/// The `(rows, cols)` a matrix body's header declares, checked against
/// the body's length.
pub(crate) fn matrix_shape(body: &[u8]) -> Result<(u32, u32)> {
    let mut r = Reader::new(body);
    let (rows, cols) = (r.u32()?, r.u32()?);
    if body.len() != matrix_body_len(rows, cols)? {
        return Err(ServeError::BadFrame(
            "matrix body length disagrees with its shape",
        ));
    }
    Ok((rows, cols))
}

// ------------------------------------------------------ upload chunks

/// Sentinel chunk index in a [`ServeError::ChunkMismatch`]: the whole
/// reassembled body mismatched at commit, not any single chunk.
pub const CHUNK_INDEX_NONE: u32 = u32::MAX;

/// A parsed `MatrixChunkStart` body: the declaration that opens (or
/// resumes) a matrix upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixChunkStart {
    /// FNV-1a 64 content hash of the full body — the id the matrix is
    /// cached under.
    pub matrix_id: u64,
    /// Exact byte length of the body.
    pub total_len: u64,
    /// Bytes per chunk (every chunk but the last is exactly this size).
    pub chunk_size: u32,
    /// Number of chunks (`⌈total_len / chunk_size⌉`).
    pub chunk_count: u32,
    /// Declared row count (validated against `total_len` up front).
    pub rows: u32,
    /// Declared column count.
    pub cols: u32,
}

impl MatrixChunkStart {
    /// Builds the declaration for a body of `total_len` bytes split into
    /// `chunk_size`-byte chunks.
    #[must_use]
    pub fn new(matrix_id: u64, total_len: usize, chunk_size: usize, rows: u32, cols: u32) -> Self {
        Self {
            matrix_id,
            total_len: total_len as u64,
            chunk_size: chunk_size as u32,
            chunk_count: total_len.div_ceil(chunk_size) as u32,
            rows,
            cols,
        }
    }

    /// The byte length chunk `index` must carry.
    #[must_use]
    pub fn len_of_chunk(&self, index: u32) -> usize {
        let start = u64::from(index) * u64::from(self.chunk_size);
        let end = (start + u64::from(self.chunk_size)).min(self.total_len);
        end.saturating_sub(start) as usize
    }

    /// Serializes the body.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(&self.matrix_id.to_le_bytes());
        out.extend_from_slice(&self.total_len.to_le_bytes());
        out.extend_from_slice(&self.chunk_size.to_le_bytes());
        out.extend_from_slice(&self.chunk_count.to_le_bytes());
        out.extend_from_slice(&self.rows.to_le_bytes());
        out.extend_from_slice(&self.cols.to_le_bytes());
        out
    }

    /// Parses and validates a body. Every structural bound is checked
    /// here — before the server allocates a single assembly byte.
    ///
    /// # Errors
    /// [`ServeError::BadFrame`] for truncation, trailing bytes, a
    /// zero/oversize chunk size, a chunk count disagreeing with
    /// `total_len`, more than [`MAX_CHUNK_COUNT`] chunks, a total beyond
    /// [`MAX_FRAME_BYTES`], or a shape that does not produce `total_len`.
    pub fn from_bytes(body: &[u8]) -> Result<Self> {
        let mut r = Reader::new(body);
        let start = Self {
            matrix_id: r.u64()?,
            total_len: r.u64()?,
            chunk_size: r.u32()?,
            chunk_count: r.u32()?,
            rows: r.u32()?,
            cols: r.u32()?,
        };
        r.done()?;
        if start.total_len == 0 || start.total_len > MAX_FRAME_BYTES as u64 {
            return Err(ServeError::BadFrame("chunked upload total out of bounds"));
        }
        if start.chunk_size == 0 || start.chunk_size as usize > MAX_CHUNK_BYTES {
            return Err(ServeError::BadFrame("chunk size out of bounds"));
        }
        let expect_count = start.total_len.div_ceil(u64::from(start.chunk_size));
        if u64::from(start.chunk_count) != expect_count {
            return Err(ServeError::BadFrame("chunk count disagrees with total"));
        }
        if start.chunk_count as usize > MAX_CHUNK_COUNT {
            return Err(ServeError::BadFrame("too many chunks"));
        }
        if start.total_len != matrix_body_len(start.rows, start.cols)? as u64 {
            return Err(ServeError::BadFrame("chunked shape disagrees with total"));
        }
        Ok(start)
    }
}

/// Serializes a `MatrixChunk` body: `[matrix_id][index][checksum][data]`.
/// `checksum` is the FNV-1a 64 hash of `data` alone.
#[must_use]
pub fn matrix_chunk_to_bytes(matrix_id: u64, index: u32, checksum: u64, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(20 + data.len());
    out.extend_from_slice(&matrix_id.to_le_bytes());
    out.extend_from_slice(&index.to_le_bytes());
    out.extend_from_slice(&checksum.to_le_bytes());
    out.extend_from_slice(data);
    out
}

/// Parses a `MatrixChunk` body, borrowing the data slice (no copy — the
/// caller validates checksum and placement against its `Start` record
/// before the bytes land anywhere).
///
/// # Errors
/// [`ServeError::BadFrame`] for truncation or a data slice beyond
/// [`MAX_CHUNK_BYTES`].
pub fn matrix_chunk_from_bytes(body: &[u8]) -> Result<(u64, u32, u64, &[u8])> {
    let mut r = Reader::new(body);
    let matrix_id = r.u64()?;
    let index = r.u32()?;
    let checksum = r.u64()?;
    let data = r.take(r.remaining())?;
    if data.is_empty() {
        return Err(ServeError::BadFrame("empty matrix chunk"));
    }
    if data.len() > MAX_CHUNK_BYTES {
        return Err(ServeError::BadFrame("chunk exceeds MAX_CHUNK_BYTES"));
    }
    Ok((matrix_id, index, checksum, data))
}

/// Serializes a `MatrixChunkCommit` body.
#[must_use]
pub fn matrix_chunk_commit_to_bytes(matrix_id: u64) -> Vec<u8> {
    matrix_id.to_le_bytes().to_vec()
}

/// Parses a `MatrixChunkCommit` body.
///
/// # Errors
/// [`ServeError::BadFrame`] for truncation or trailing bytes.
pub fn matrix_chunk_commit_from_bytes(body: &[u8]) -> Result<u64> {
    let mut r = Reader::new(body);
    let matrix_id = r.u64()?;
    r.done()?;
    Ok(matrix_id)
}

// ---------------------------------------------------- repair transfers

/// Serializes a `StoreFetch` body.
#[must_use]
pub fn store_fetch_to_bytes(store_id: u64) -> Vec<u8> {
    store_id.to_le_bytes().to_vec()
}

/// Parses a `StoreFetch` body.
///
/// # Errors
/// [`ServeError::BadFrame`] for truncation or trailing bytes.
pub fn store_fetch_from_bytes(body: &[u8]) -> Result<u64> {
    let mut r = Reader::new(body);
    let store_id = r.u64()?;
    r.done()?;
    Ok(store_id)
}

/// Reads bit `i` of a received-chunk bitmap.
#[must_use]
pub fn bitmap_get(bitmap: &[u8], i: usize) -> bool {
    bitmap.get(i / 8).is_some_and(|b| b & (1 << (i % 8)) != 0)
}

/// Sets bit `i` of a received-chunk bitmap.
pub fn bitmap_set(bitmap: &mut [u8], i: usize) {
    if let Some(b) = bitmap.get_mut(i / 8) {
        *b |= 1 << (i % 8);
    }
}

// ----------------------------------------------------------------- Hmvp

/// A parsed `Hmvp` request body.
#[derive(Debug, Clone)]
pub struct HmvpRequest {
    /// Content hash of the Galois key set to use.
    pub key_id: u64,
    /// Content hash of the matrix to multiply by.
    pub matrix_id: u64,
    /// Deadline in milliseconds from receipt; [`DEADLINE_NONE`] = none.
    pub deadline_ms: u32,
    /// Client-stamped trace id (`0` = unset: the server assigns one).
    pub trace_id: u64,
    /// The encrypted vector, one ciphertext per column tile.
    pub cts: Vec<RlweCiphertext>,
}

/// Serializes an `Hmvp` request body (`trace_id` 0 = "unset", letting
/// the server assign one): [`hmvp_request_head`] followed by
/// [`hmvp_request_payload`].
#[must_use]
pub fn hmvp_request_to_bytes(
    key_id: u64,
    matrix_id: u64,
    deadline_ms: u32,
    trace_id: u64,
    cts: &[RlweCiphertext],
) -> Vec<u8> {
    let head = hmvp_request_head(key_id, matrix_id, deadline_ms, trace_id);
    [&head[..], &hmvp_request_payload(cts)].concat()
}

/// The per-request head of an `Hmvp` body:
/// `[key_id u64][matrix_id u64][deadline_ms u32][trace_id u64]`.
#[must_use]
pub fn hmvp_request_head(key_id: u64, matrix_id: u64, deadline_ms: u32, trace_id: u64) -> [u8; 28] {
    let mut head = [0u8; 28];
    head[..8].copy_from_slice(&key_id.to_le_bytes());
    head[8..16].copy_from_slice(&matrix_id.to_le_bytes());
    head[16..20].copy_from_slice(&deadline_ms.to_le_bytes());
    head[20..].copy_from_slice(&trace_id.to_le_bytes());
    head
}

/// The ciphertext payload that follows the head of an `Hmvp` body:
/// `[k u16]([len u32][rlwe])×k`. It depends on the vector alone, so one
/// encoding serves every band and every retry of a request.
#[must_use]
pub fn hmvp_request_payload(cts: &[RlweCiphertext]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(cts.len() as u16).to_le_bytes());
    for ct in cts {
        let bytes = wire::rlwe_to_bytes(ct);
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&bytes);
    }
    out
}

/// Parses an `Hmvp` request body (ciphertexts validated against
/// `params`).
///
/// # Errors
/// [`ServeError::BadFrame`] for framing faults; [`ServeError::He`] for a
/// well-framed ciphertext payload the HE codec refuses (foreign modulus,
/// out-of-range residue). A body without the trace-id field desyncs the
/// count and lengths behind it and ends in whichever comes first.
pub fn hmvp_request_from_bytes(body: &[u8], params: &ChamParams) -> Result<HmvpRequest> {
    let mut r = Reader::new(body);
    let key_id = r.u64()?;
    let matrix_id = r.u64()?;
    let deadline_ms = r.u32()?;
    if deadline_ms == 0 {
        // An already-expired deadline is always a client bug; reading it
        // as "no deadline" would be worse than loud.
        return Err(ServeError::BadFrame(
            "deadline_ms = 0 (use DEADLINE_NONE for no deadline)",
        ));
    }
    let trace_id = r.u64()?;
    let k = r.u16()? as usize;
    if k == 0 {
        return Err(ServeError::BadFrame("hmvp request with no ciphertexts"));
    }
    let mut cts = Vec::with_capacity(k);
    for _ in 0..k {
        let len = r.u32()? as usize;
        let bytes = r.take(len)?;
        cts.push(wire::rlwe_from_bytes(bytes, params)?);
    }
    r.done()?;
    Ok(HmvpRequest {
        key_id,
        matrix_id,
        deadline_ms,
        trace_id,
        cts,
    })
}

// ------------------------------------------------------------- Response

/// Tag byte of a `Result` frame, matching the request kind it answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum ResponseTag {
    Hello = 1,
    KeysLoaded = 2,
    MatrixLoaded = 3,
    HmvpDone = 4,
    // 5 is retired (`Pong`, the answer to the retired `Ping`).
    IntrospectReport = 6,
    FlightDump = 7,
    ChunkAck = 8,
    StoreListReport = 9,
    SegmentData = 10,
}

/// Appends a self-describing scalar list:
/// `[count u8] ([name_len u8] [name] [value u64])×count`. The names come
/// from the field tables in [`crate::stats`], so adding a counter there
/// is not a protocol event.
fn put_named(out: &mut Vec<u8>, fields: impl Iterator<Item = (&'static str, u64)>) {
    let count_at = out.len();
    out.push(0);
    for (name, value) in fields {
        out[count_at] += 1;
        out.push(name.len() as u8);
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&value.to_le_bytes());
    }
}

/// Reads a [`put_named`] list, handing each pair to `set` (which skips
/// names it does not know; names it never sees keep their zero).
fn read_named(r: &mut Reader<'_>, mut set: impl FnMut(&str, u64)) -> Result<()> {
    for _ in 0..r.u8()? {
        let len = r.u8()? as usize;
        let name = r.take(len)?;
        let value = r.u64()?;
        if let Ok(name) = std::str::from_utf8(name) {
            set(name, value);
        }
    }
    Ok(())
}

/// Appends `[len u16] [utf-8]`, cut at the last char boundary the length
/// holds.
fn put_str(out: &mut Vec<u8>, s: &str) {
    let mut take = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(take) {
        take -= 1;
    }
    out.extend_from_slice(&(take as u16).to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..take]);
}

/// Appends a `FlightDump` body after its tag (the module's flight table).
/// The recorder's rings keep every count inside its field; past it the
/// list is cut like a string.
fn put_flight(out: &mut Vec<u8>, snap: &FlightSnapshot) {
    let traces = &snap.traces[..snap.traces.len().min(u16::MAX.into())];
    out.extend_from_slice(&snap.dropped_traces.to_le_bytes());
    out.extend_from_slice(&(traces.len() as u16).to_le_bytes());
    for t in traces {
        for v in [t.trace_id.as_u64(), t.start_ns, t.total_ns] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        let phases = &t.phases[..t.phases.len().min(u8::MAX.into())];
        out.push(phases.len() as u8);
        for p in phases {
            put_str(out, p.name);
            for v in [p.start_ns, p.dur_ns, p.count] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    let events = &snap.events[..snap.events.len().min(u16::MAX.into())];
    out.extend_from_slice(&(events.len() as u16).to_le_bytes());
    for e in events {
        out.push(e.kind as u8);
        out.extend_from_slice(&e.trace_id.map_or(0, TraceId::as_u64).to_le_bytes());
        out.extend_from_slice(&e.ts_ns.to_le_bytes());
        put_str(out, &e.detail);
    }
}

/// Reads a [`put_flight`] body. Phase names map back to the
/// `&'static str`s of `phase::ALL`. Each count is bounded by its
/// record's smallest size: 25 bytes for a trace with no phases, 26 for a
/// phase and 19 for an event with empty text.
fn read_flight(r: &mut Reader<'_>) -> Result<FlightSnapshot> {
    let dropped_traces = r.u64()?;
    let n = usize::from(r.u16()?);
    let traces = (0..r.bounded(n, 25, "flight trace count out of bounds")?)
        .map(|_| {
            let trace_id = TraceId::from_wire(r.u64()?)
                .ok_or(ServeError::BadFrame("flight trace with a zero id"))?;
            let (start_ns, total_ns) = (r.u64()?, r.u64()?);
            let n = usize::from(r.u8()?);
            let phases = (0..r.bounded(n, 26, "flight phase count out of bounds")?)
                .map(|_| {
                    let name = r.str("flight phase name is not UTF-8")?;
                    Ok(PhaseSpan {
                        name: phase::ALL
                            .into_iter()
                            .find(|p| *p == name)
                            .ok_or(ServeError::BadFrame("unknown flight phase name"))?,
                        start_ns: r.u64()?,
                        dur_ns: r.u64()?,
                        count: r.u64()?,
                    })
                })
                .collect::<Result<_>>()?;
            Ok(RequestTrace {
                trace_id,
                start_ns,
                total_ns,
                phases,
            })
        })
        .collect::<Result<_>>()?;
    let n = usize::from(r.u16()?);
    let events = (0..r.bounded(n, 19, "flight event count out of bounds")?)
        .map(|_| {
            Ok(FlightEvent {
                kind: *FlightEventKind::ALL
                    .get(usize::from(r.u8()?))
                    .ok_or(ServeError::BadFrame("unknown flight event kind"))?,
                trace_id: TraceId::from_wire(r.u64()?),
                ts_ns: r.u64()?,
                detail: r.str("flight event detail is not UTF-8")?.to_owned(),
            })
        })
        .collect::<Result<_>>()?;
    Ok(FlightSnapshot {
        traces,
        events,
        dropped_traces,
    })
}

/// A parsed `Result` frame.
#[derive(Debug, Clone)]
pub enum Response {
    /// Answer to `Hello`: the revision the server speaks and its place
    /// in a cluster.
    Hello {
        /// The server's protocol revision; the client refuses anything
        /// but [`PROTOCOL_VERSION`].
        version: u16,
        /// Cluster identity of the answering server (`None` on a
        /// standalone server), serialized as a presence byte + fields.
        cluster: Option<ClusterIdentity>,
    },
    /// Answer to `LoadKeys`: the content hash the set is cached under.
    KeysLoaded {
        /// Content hash id.
        key_id: u64,
    },
    /// Answer to `MatrixChunkCommit`: the content hash + accepted shape.
    MatrixLoaded {
        /// Content hash id.
        matrix_id: u64,
        /// Accepted row count.
        rows: u32,
        /// Accepted column count.
        cols: u32,
    },
    /// Answer to `Hmvp`: the packed output ciphertexts.
    HmvpDone {
        /// Total output entries (`m`).
        len: u64,
        /// Packed outputs, each covering up to `N` entries.
        packed: Vec<PackedRlwe>,
    },
    /// Answer to `Introspect`: the full structured snapshot.
    IntrospectReport {
        /// Live stats, occupancy, and per-phase latency breakdown.
        snapshot: IntrospectSnapshot,
    },
    /// Answer to `FlightDump`: the flight recorder's records, which the
    /// client renders ([`FlightSnapshot::to_chrome_trace`]).
    FlightDump {
        /// The recorder's traces and events, oldest first.
        snapshot: FlightSnapshot,
    },
    /// Answer to `MatrixChunkStart` and `MatrixChunk`: the server's view
    /// of the upload so far. The bitmap (bit `i` = chunk `i` received) is
    /// what makes re-upload resumable — a client resuming after a
    /// disconnect reads it off the `Start` ack and sends only the zero
    /// bits.
    ChunkAck {
        /// The upload's declared content hash.
        matrix_id: u64,
        /// Declared chunk count (fixes the bitmap length).
        chunk_count: u32,
        /// Received-chunk bitmap, `⌈chunk_count/8⌉` bytes, LSB-first.
        bitmap: Vec<u8>,
    },
    /// Answer to `StoreList`: every matrix content id this node can
    /// serve — RAM cache and persistent store combined. The repair
    /// planner diffs these inventories against the ring's expected
    /// replica sets.
    StoreListReport {
        /// Resident content ids, sorted ascending.
        ids: Vec<u64>,
    },
    /// Answer to `StoreFetch`: one matrix body pulled for
    /// replica→replica repair.
    SegmentData {
        /// The content id the body is stored under.
        store_id: u64,
        /// The matrix body ([`matrix_to_bytes`]); its content hash is
        /// `store_id`.
        bytes: Vec<u8>,
    },
}

impl Response {
    /// Serializes the response into a `Result` frame body.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_parts().concat()
    }

    /// Serializes the response as a sequence of buffers suitable for
    /// [`write_frame_vectored`]; concatenated, they are the frame body.
    /// `HmvpDone` (the data-plane reply) scatters into a head plus, per
    /// packed ciphertext, its bookkeeping and its payload, so no payload
    /// is re-copied into one contiguous body. Every other variant is a
    /// single part.
    #[must_use]
    pub fn to_parts(&self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        match self {
            Response::Hello { version, cluster } => {
                out.push(ResponseTag::Hello as u8);
                out.extend_from_slice(&version.to_le_bytes());
                match cluster {
                    Some(id) => {
                        out.push(1);
                        out.extend_from_slice(&id.shard_index.to_le_bytes());
                        out.extend_from_slice(&id.shard_count.to_le_bytes());
                        out.extend_from_slice(&id.epoch.to_le_bytes());
                    }
                    None => out.push(0),
                }
            }
            Response::KeysLoaded { key_id } => {
                out.push(ResponseTag::KeysLoaded as u8);
                out.extend_from_slice(&key_id.to_le_bytes());
            }
            Response::MatrixLoaded {
                matrix_id,
                rows,
                cols,
            } => {
                out.push(ResponseTag::MatrixLoaded as u8);
                out.extend_from_slice(&matrix_id.to_le_bytes());
                out.extend_from_slice(&rows.to_le_bytes());
                out.extend_from_slice(&cols.to_le_bytes());
            }
            Response::HmvpDone { len, packed } => {
                out.push(ResponseTag::HmvpDone as u8);
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(&(packed.len() as u16).to_le_bytes());
                let mut parts = Vec::with_capacity(1 + 2 * packed.len());
                parts.push(out);
                for p in packed {
                    let bytes = wire::rlwe_to_bytes(&p.ciphertext);
                    let mut meta = Vec::with_capacity(9);
                    meta.push(p.log_count as u8);
                    meta.extend_from_slice(&(p.count as u32).to_le_bytes());
                    meta.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                    parts.push(meta);
                    parts.push(bytes);
                }
                return parts;
            }
            Response::IntrospectReport { snapshot } => {
                out.push(ResponseTag::IntrospectReport as u8);
                put_named(&mut out, snapshot.named());
                out.push(snapshot.phases.len() as u8);
                for p in &snapshot.phases {
                    let name = p.name.as_bytes();
                    let take = name.len().min(u8::MAX as usize);
                    out.push(take as u8);
                    out.extend_from_slice(&name[..take]);
                    for v in [p.count, p.sum_ns, p.p50_ns, p.p99_ns, p.p999_ns, p.max_ns] {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
            Response::FlightDump { snapshot } => {
                out.push(ResponseTag::FlightDump as u8);
                put_flight(&mut out, snapshot);
            }
            Response::ChunkAck {
                matrix_id,
                chunk_count,
                bitmap,
            } => {
                out.push(ResponseTag::ChunkAck as u8);
                out.extend_from_slice(&matrix_id.to_le_bytes());
                out.extend_from_slice(&chunk_count.to_le_bytes());
                out.extend_from_slice(bitmap);
            }
            Response::StoreListReport { ids } => {
                out.push(ResponseTag::StoreListReport as u8);
                out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
                for id in ids {
                    out.extend_from_slice(&id.to_le_bytes());
                }
            }
            Response::SegmentData { store_id, bytes } => {
                out.push(ResponseTag::SegmentData as u8);
                out.extend_from_slice(&store_id.to_le_bytes());
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
        }
        vec![out]
    }

    /// Parses a `Result` frame body.
    ///
    /// # Errors
    /// [`ServeError::BadFrame`] for framing faults; HE-layer errors for
    /// invalid ciphertext payloads.
    pub fn from_bytes(body: &[u8], params: &ChamParams) -> Result<Self> {
        let mut r = Reader::new(body);
        let tag = r.u8()?;
        let resp = match tag {
            t if t == ResponseTag::Hello as u8 => {
                let version = r.u16()?;
                let cluster = match r.u8()? {
                    0 => None,
                    1 => Some(ClusterIdentity {
                        shard_index: r.u16()?,
                        shard_count: r.u16()?,
                        epoch: r.u64()?,
                    }),
                    _ => return Err(ServeError::BadFrame("bad cluster presence byte")),
                };
                Response::Hello { version, cluster }
            }
            t if t == ResponseTag::KeysLoaded as u8 => Response::KeysLoaded { key_id: r.u64()? },
            t if t == ResponseTag::MatrixLoaded as u8 => Response::MatrixLoaded {
                matrix_id: r.u64()?,
                rows: r.u32()?,
                cols: r.u32()?,
            },
            t if t == ResponseTag::HmvpDone as u8 => {
                let len = r.u64()?;
                let count = r.u16()? as usize;
                let mut packed = Vec::with_capacity(count);
                for _ in 0..count {
                    let log_count = u32::from(r.u8()?);
                    let filled = r.u32()? as usize;
                    // Bounded here so no later shift or index can be
                    // driven out of range by a forged reply.
                    if log_count > params.max_pack_log() {
                        return Err(ServeError::BadFrame("packed log_count exceeds log2 N"));
                    }
                    if filled > 1 << log_count {
                        return Err(ServeError::BadFrame("packed count exceeds 2^log_count"));
                    }
                    let ct_len = r.u32()? as usize;
                    let bytes = r.take(ct_len)?;
                    packed.push(PackedRlwe {
                        ciphertext: wire::rlwe_from_bytes(bytes, params)?,
                        log_count,
                        count: filled,
                    });
                }
                Response::HmvpDone { len, packed }
            }
            t if t == ResponseTag::IntrospectReport as u8 => {
                let mut snapshot = IntrospectSnapshot::default();
                read_named(&mut r, |name, v| snapshot.set_named(name, v))?;
                let n = r.u8()? as usize;
                let mut phases = Vec::with_capacity(n);
                for _ in 0..n {
                    let name_len = r.u8()? as usize;
                    let name = String::from_utf8_lossy(r.take(name_len)?).into_owned();
                    phases.push(PhaseStat {
                        name,
                        count: r.u64()?,
                        sum_ns: r.u64()?,
                        p50_ns: r.u64()?,
                        p99_ns: r.u64()?,
                        p999_ns: r.u64()?,
                        max_ns: r.u64()?,
                    });
                }
                snapshot.phases = phases;
                Response::IntrospectReport { snapshot }
            }
            t if t == ResponseTag::FlightDump as u8 => Response::FlightDump {
                snapshot: read_flight(&mut r)?,
            },
            t if t == ResponseTag::ChunkAck as u8 => {
                let matrix_id = r.u64()?;
                let chunk_count = r.u32()?;
                if chunk_count == 0 || chunk_count as usize > MAX_CHUNK_COUNT {
                    return Err(ServeError::BadFrame("chunk ack count out of bounds"));
                }
                let bitmap = r.take((chunk_count as usize).div_ceil(8))?.to_vec();
                Response::ChunkAck {
                    matrix_id,
                    chunk_count,
                    bitmap,
                }
            }
            t if t == ResponseTag::StoreListReport as u8 => {
                let n = r.u32()? as usize;
                let count = r.bounded(n, 8, "store list count out of bounds")?;
                let mut ids = Vec::with_capacity(count);
                for _ in 0..count {
                    ids.push(r.u64()?);
                }
                Response::StoreListReport { ids }
            }
            t if t == ResponseTag::SegmentData as u8 => {
                let store_id = r.u64()?;
                let len = r.u32()? as usize;
                let bytes = r.take(len)?.to_vec();
                if bytes.is_empty() {
                    return Err(ServeError::BadFrame("segment data carries no bytes"));
                }
                Response::SegmentData { store_id, bytes }
            }
            _ => return Err(ServeError::BadFrame("unknown response tag")),
        };
        r.done()?;
        Ok(resp)
    }
}

/// Serializes an `Error` frame body: the code, then that code's own
/// fields. A failure with no wire code of its own (`He`, `Io`) travels as
/// `Internal` with its rendered text.
#[must_use]
pub fn error_body(e: &ServeError) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    let mut message = |code: ErrorCode, m: &str| {
        out.push(code as u8);
        put_str(&mut out, m);
    };
    match e {
        ServeError::BadFrame(m) => message(ErrorCode::BadFrame, m),
        ServeError::Incompatible(m) => message(ErrorCode::Incompatible, m),
        ServeError::Internal(m) => message(ErrorCode::Internal, m),
        ServeError::Remote {
            code: code @ (ErrorCode::BadFrame | ErrorCode::Incompatible),
            message: m,
        } => message(*code, m),
        ServeError::Busy => out.push(ErrorCode::Busy as u8),
        ServeError::TimedOut => out.push(ErrorCode::TimedOut as u8),
        ServeError::Shutdown => out.push(ErrorCode::Shutdown as u8),
        ServeError::UnknownKey(id) => {
            out.push(ErrorCode::UnknownKey as u8);
            out.extend_from_slice(&id.to_le_bytes());
        }
        ServeError::UnknownMatrix(id) => {
            out.push(ErrorCode::UnknownMatrix as u8);
            out.extend_from_slice(&id.to_le_bytes());
        }
        ServeError::WrongShard {
            epoch,
            shard_index,
            shard_count,
        } => {
            out.push(ErrorCode::WrongShard as u8);
            out.extend_from_slice(&epoch.to_le_bytes());
            out.extend_from_slice(&shard_index.to_le_bytes());
            out.extend_from_slice(&shard_count.to_le_bytes());
        }
        ServeError::ChunkMismatch { matrix_id, index } => {
            out.push(ErrorCode::ChunkMismatch as u8);
            out.extend_from_slice(&matrix_id.to_le_bytes());
            out.extend_from_slice(&index.to_le_bytes());
        }
        other => message(ErrorCode::Internal, &other.to_string()),
    }
    out
}

/// Parses an `Error` frame body back into the [`ServeError`] it carries:
/// every code with fields comes back as its typed variant, and only a
/// remote `BadFrame` or `Incompatible` — whose local variants hold a
/// `&'static str` — as [`ServeError::Remote`].
///
/// # Errors
/// [`ServeError::BadFrame`] for an unknown code, a body longer or
/// shorter than its code's fields, or a message that is not UTF-8.
pub fn error_from_body(body: &[u8]) -> Result<ServeError> {
    let mut r = Reader::new(body);
    let code = ErrorCode::from_u8(r.u8()?)?;
    let mut message = || -> Result<String> { Ok(r.str("error message is not UTF-8")?.to_owned()) };
    let e = match code {
        ErrorCode::Busy => ServeError::Busy,
        ErrorCode::TimedOut => ServeError::TimedOut,
        ErrorCode::Shutdown => ServeError::Shutdown,
        ErrorCode::Internal => ServeError::Internal(message()?),
        ErrorCode::BadFrame | ErrorCode::Incompatible => ServeError::Remote {
            code,
            message: message()?,
        },
        ErrorCode::UnknownKey => ServeError::UnknownKey(r.u64()?),
        ErrorCode::UnknownMatrix => ServeError::UnknownMatrix(r.u64()?),
        ErrorCode::WrongShard => ServeError::WrongShard {
            epoch: r.u64()?,
            shard_index: r.u16()?,
            shard_count: r.u16()?,
        },
        ErrorCode::ChunkMismatch => ServeError::ChunkMismatch {
            matrix_id: r.u64()?,
            index: r.u32()?,
        },
    };
    r.done()?;
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StatsSnapshot;
    use cham_he::encoding::CoeffEncoder;
    use cham_he::encrypt::Encryptor;
    use cham_he::keys::SecretKey;
    use rand::SeedableRng;

    fn params() -> ChamParams {
        ChamParams::insecure_test_default().unwrap()
    }

    #[test]
    fn frame_roundtrip_and_rejections() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Hello, &[1, 2, 3]).unwrap();
        let (kind, body) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(kind, FrameKind::Hello);
        assert_eq!(body, vec![1, 2, 3]);

        // Zero length prefix.
        let zero = 0u32.to_le_bytes();
        assert!(read_frame(&mut zero.as_slice()).is_err());
        // Oversized length prefix — rejected before allocation.
        let huge = (u32::MAX).to_le_bytes();
        assert!(read_frame(&mut huge.as_slice()).is_err());
        // Unknown kinds, the retired single-frame upload (3) among them.
        for kind in [99u8, 3, 0] {
            let mut bad = Vec::new();
            bad.extend_from_slice(&2u32.to_le_bytes());
            bad.push(kind);
            bad.push(0);
            assert!(matches!(
                read_frame(&mut bad.as_slice()),
                Err(ServeError::BadFrame(_))
            ));
        }
        // Truncated body.
        assert!(read_frame(&mut buf[..6].as_ref()).is_err());
    }

    #[test]
    fn hello_roundtrip_and_check() {
        let p = params();
        let hello = Hello::for_params(&p);
        let back = Hello::from_bytes(&hello.to_bytes()).unwrap();
        assert_eq!(back, hello);
        back.check(&p).unwrap();

        // Any field mismatch is named.
        let other = cham_he::params::ChamParamsBuilder::new()
            .degree(512)
            .build()
            .unwrap();
        assert!(matches!(
            back.check(&other),
            Err(ServeError::Incompatible(_))
        ));
        // Any other revision — older or newer — is rejected outright.
        for version in [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1, 0, u16::MAX] {
            let v = Hello {
                version,
                ..hello.clone()
            };
            assert!(matches!(v.check(&p), Err(ServeError::Incompatible(_))));
        }
        let mut t = hello.clone();
        t.plain_modulus += 2;
        assert!(t.check(&p).is_err());
        let mut s = hello;
        s.special_prime += 2;
        assert!(s.check(&p).is_err());

        // Truncation / trailing garbage.
        let bytes = Hello::for_params(&p).to_bytes();
        assert!(Hello::from_bytes(&bytes[..5]).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(Hello::from_bytes(&trailing).is_err());
    }

    #[test]
    fn matrix_roundtrip_and_validation() {
        let p = params();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let m = Matrix::random(3, 7, p.plain_modulus().value(), &mut rng);
        let bytes = matrix_to_bytes(&m);
        let back = matrix_from_bytes(&bytes, &p).unwrap();
        assert_eq!(back, m);

        // Out-of-range entry.
        let mut bad = bytes.clone();
        bad[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matrix_from_bytes(&bad, &p).is_err());
        // Empty shape.
        let empty = matrix_to_bytes(&m);
        let mut z = empty;
        z[0..4].copy_from_slice(&0u32.to_le_bytes());
        assert!(matrix_from_bytes(&z, &p).is_err());
        // Truncated.
        assert!(matrix_from_bytes(&bytes[..bytes.len() - 1], &p).is_err());
        // Shape overflow guard.
        let mut of = matrix_to_bytes(&m);
        of[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        of[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matrix_from_bytes(&of, &p).is_err());
    }

    #[test]
    fn hmvp_request_roundtrip() {
        let p = params();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let sk = SecretKey::generate(&p, &mut rng);
        let enc = Encryptor::new(&p, &sk);
        let coder = CoeffEncoder::new(&p);
        let ct = enc.encrypt_augmented(&coder.encode_vector(&[1, 2, 3]).unwrap(), &mut rng);
        let body = hmvp_request_to_bytes(7, 9, 250, 0xFACE, std::slice::from_ref(&ct));
        let req = hmvp_request_from_bytes(&body, &p).unwrap();
        assert_eq!(req.key_id, 7);
        assert_eq!(req.matrix_id, 9);
        assert_eq!(req.deadline_ms, 250);
        assert_eq!(req.trace_id, 0xFACE);
        assert_eq!(req.cts.len(), 1);
        assert_eq!(req.cts[0], ct);

        // A per-band head in front of a payload encoded once is the same
        // body, byte for byte.
        let payload = hmvp_request_payload(std::slice::from_ref(&ct));
        let head = hmvp_request_head(7, 9, 250, 0xFACE);
        assert_eq!([&head[..], &payload].concat(), body);

        // The no-deadline sentinel round-trips.
        let none_body = hmvp_request_to_bytes(7, 9, DEADLINE_NONE, 0, std::slice::from_ref(&ct));
        let req = hmvp_request_from_bytes(&none_body, &p).unwrap();
        assert_eq!(req.deadline_ms, DEADLINE_NONE);
        assert_eq!(req.trace_id, 0);

        // A literal zero deadline is a malformed frame, not "no deadline".
        let zero = hmvp_request_to_bytes(7, 9, 0, 0, std::slice::from_ref(&ct));
        assert!(matches!(
            hmvp_request_from_bytes(&zero, &p),
            Err(ServeError::BadFrame(_))
        ));

        // No ciphertexts / truncation rejected.
        let none = hmvp_request_to_bytes(1, 2, DEADLINE_NONE, 0, &[]);
        assert!(hmvp_request_from_bytes(&none, &p).is_err());
        assert!(hmvp_request_from_bytes(&body[..20], &p).is_err());

        // The trace id is not optional: a body cut off inside the field
        // is malformed, and one without it desyncs — the count and the
        // first length are read as the id and the parse runs off the end
        // (here into a zero count).
        let mut without = body[..20].to_vec();
        without.extend_from_slice(&1u16.to_le_bytes());
        without.extend_from_slice(&4u32.to_le_bytes());
        without.extend_from_slice(&[0u8; 4]);
        assert!(matches!(
            hmvp_request_from_bytes(&without, &p),
            Err(ServeError::BadFrame(_))
        ));
        assert!(matches!(
            hmvp_request_from_bytes(&body[..24], &p),
            Err(ServeError::BadFrame(_))
        ));
    }

    #[test]
    fn hello_response_cluster_block() {
        let p = params();
        let id = ClusterIdentity {
            shard_index: 2,
            shard_count: 3,
            epoch: 5,
        };
        let hello = |cluster| Response::Hello {
            version: PROTOCOL_VERSION,
            cluster,
        };
        // A standalone response carries an explicit "absent" byte...
        let alone_bytes = hello(None).to_bytes();
        assert_eq!(alone_bytes.len(), 1 + 2 + 1);
        match Response::from_bytes(&alone_bytes, &p).unwrap() {
            Response::Hello { cluster, .. } => assert_eq!(cluster, None),
            other => panic!("unexpected response {other:?}"),
        }
        // ...and a clustered one round-trips the identity.
        let bytes = hello(Some(id)).to_bytes();
        assert_eq!(bytes.len(), 1 + 2 + 1 + 2 + 2 + 8);
        match Response::from_bytes(&bytes, &p).unwrap() {
            Response::Hello {
                version, cluster, ..
            } => {
                assert_eq!(version, PROTOCOL_VERSION);
                assert_eq!(cluster, Some(id));
            }
            other => panic!("unexpected response {other:?}"),
        }
        // Torn identity fields, a missing block and garbage presence
        // bytes are malformed.
        assert!(Response::from_bytes(&bytes[..bytes.len() - 1], &p).is_err());
        assert!(Response::from_bytes(&alone_bytes[..alone_bytes.len() - 1], &p).is_err());
        let mut bad = alone_bytes;
        let last = bad.len() - 1;
        bad[last] = 9;
        assert!(Response::from_bytes(&bad, &p).is_err());
    }

    /// One error of every code, each field at a value of its own.
    fn every_code() -> Vec<ServeError> {
        vec![
            ServeError::Busy,
            ServeError::TimedOut,
            ServeError::Shutdown,
            ServeError::Internal("worker panicked".into()),
            ServeError::UnknownKey(0xAB),
            ServeError::UnknownMatrix(7),
            ServeError::WrongShard {
                epoch: 12,
                shard_index: 1,
                shard_count: 3,
            },
            ServeError::ChunkMismatch {
                matrix_id: 0xAB,
                index: 3,
            },
            ServeError::Remote {
                code: ErrorCode::BadFrame,
                message: "truncated".into(),
            },
            ServeError::Remote {
                code: ErrorCode::Incompatible,
                message: "prime chain".into(),
            },
        ]
    }

    #[test]
    fn error_codes_roundtrip() {
        // Every code comes back as the variant it left as, fields and
        // message included: the rendering is the same on both ends.
        for e in every_code() {
            let back = error_from_body(&error_body(&e)).unwrap();
            assert_eq!(back.to_string(), e.to_string(), "{e:?}");
            assert_eq!(error_body(&back), error_body(&e), "{e:?}");
        }
        // A local BadFrame or Incompatible arrives as Remote with its
        // code and text; nothing typed does.
        assert!(matches!(
            error_from_body(&error_body(&ServeError::BadFrame("desync"))),
            Ok(ServeError::Remote { code: ErrorCode::BadFrame, message }) if message == "desync"
        ));
        assert!(matches!(
            error_from_body(&error_body(&ServeError::Incompatible("revision"))),
            Ok(ServeError::Remote {
                code: ErrorCode::Incompatible,
                ..
            })
        ));
        assert!(matches!(
            error_from_body(&error_body(&ServeError::UnknownKey(0xAB))),
            Ok(ServeError::UnknownKey(0xAB))
        ));
        // Unknown codes and torn bodies are malformed.
        assert!(matches!(
            error_from_body(&[42]),
            Err(ServeError::BadFrame("unknown error code"))
        ));
        assert!(error_from_body(&[]).is_err());
        assert!(error_from_body(&error_body(&ServeError::Internal("m".into()))[..2]).is_err());
    }

    #[test]
    fn typed_error_bodies_of_the_wrong_length_are_bad_frames() {
        for e in every_code() {
            let body = error_body(&e);
            let short = &body[..body.len() - 1];
            let mut long = body.clone();
            long.push(0);
            for bad in [short, &long] {
                assert!(
                    matches!(error_from_body(bad), Err(ServeError::BadFrame(_))),
                    "{e:?} decoded from {} bytes",
                    bad.len()
                );
            }
        }
    }

    #[test]
    fn error_messages_are_utf8_and_fit_their_length_field() {
        // A message that is not UTF-8 is malformed, never repaired.
        let mut body = error_body(&ServeError::Internal("ab".into()));
        body[3] = 0xFF;
        assert!(matches!(
            error_from_body(&body),
            Err(ServeError::BadFrame("error message is not UTF-8"))
        ));
        // An over-long message is cut at the last char boundary that
        // fits a u16 length: 32 767 two-byte chars, then a split one.
        let long = "é".repeat(40_000);
        let body = error_body(&ServeError::Internal(long.clone()));
        assert_eq!(body.len(), 1 + 2 + 65_534);
        match error_from_body(&body).unwrap() {
            ServeError::Internal(m) => assert_eq!(m, long[..65_534]),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn chunk_start_roundtrip_and_validation() {
        // A 3×7 matrix body: 8 + 8*21 = 176 bytes, 64-byte chunks -> 3.
        let start = MatrixChunkStart::new(0xFEED, 176, 64, 3, 7);
        assert_eq!(start.chunk_count, 3);
        assert_eq!(start.len_of_chunk(0), 64);
        assert_eq!(start.len_of_chunk(2), 48);
        let back = MatrixChunkStart::from_bytes(&start.to_bytes()).unwrap();
        assert_eq!(back, start);

        let reject = |mutate: &dyn Fn(&mut MatrixChunkStart)| {
            let mut s = start;
            mutate(&mut s);
            assert!(
                matches!(
                    MatrixChunkStart::from_bytes(&s.to_bytes()),
                    Err(ServeError::BadFrame(_))
                ),
                "{s:?} should be rejected"
            );
        };
        // Zero / oversize chunk size.
        reject(&|s| s.chunk_size = 0);
        reject(&|s| s.chunk_size = (MAX_CHUNK_BYTES + 1) as u32);
        // Count disagreeing with total.
        reject(&|s| s.chunk_count = 4);
        // Zero / overflowing totals.
        reject(&|s| s.total_len = 0);
        reject(&|s| s.total_len = (MAX_FRAME_BYTES as u64) + 1);
        // Shape not matching the total.
        reject(&|s| s.rows = 4);
        reject(&|s| s.rows = 0);
        // Truncation / trailing bytes.
        let bytes = start.to_bytes();
        assert!(MatrixChunkStart::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(MatrixChunkStart::from_bytes(&trailing).is_err());
    }

    #[test]
    fn chunk_body_roundtrip_and_bounds() {
        let data = [7u8; 48];
        let body = matrix_chunk_to_bytes(0xFEED, 2, 0xC0DE, &data);
        let (id, index, checksum, back) = matrix_chunk_from_bytes(&body).unwrap();
        assert_eq!((id, index, checksum), (0xFEED, 2, 0xC0DE));
        assert_eq!(back, data);
        // Empty data and truncated headers are malformed.
        assert!(matrix_chunk_from_bytes(&matrix_chunk_to_bytes(1, 0, 0, &[])).is_err());
        assert!(matrix_chunk_from_bytes(&body[..12]).is_err());
        // Oversize chunks are rejected before any copy.
        let huge = matrix_chunk_to_bytes(1, 0, 0, &vec![0u8; MAX_CHUNK_BYTES + 1]);
        assert!(matches!(
            matrix_chunk_from_bytes(&huge),
            Err(ServeError::BadFrame(_))
        ));
        // Commit bodies round-trip and reject trailing bytes.
        let commit = matrix_chunk_commit_to_bytes(0xFEED);
        assert_eq!(matrix_chunk_commit_from_bytes(&commit).unwrap(), 0xFEED);
        let mut bad = commit;
        bad.push(0);
        assert!(matrix_chunk_commit_from_bytes(&bad).is_err());
    }

    #[test]
    fn chunk_ack_roundtrip_and_bitmap() {
        let p = params();
        let mut bitmap = vec![0u8; 10usize.div_ceil(8)]; // 10 chunks -> 2 bytes
        bitmap_set(&mut bitmap, 0);
        bitmap_set(&mut bitmap, 9);
        let ack = Response::ChunkAck {
            matrix_id: 0xFEED,
            chunk_count: 10,
            bitmap: bitmap.clone(),
        };
        let bytes = ack.to_bytes();
        match Response::from_bytes(&bytes, &p).unwrap() {
            Response::ChunkAck {
                matrix_id,
                chunk_count,
                bitmap: back,
            } => {
                assert_eq!(matrix_id, 0xFEED);
                assert_eq!(chunk_count, 10);
                assert!(bitmap_get(&back, 0) && bitmap_get(&back, 9));
                assert!(!bitmap_get(&back, 1));
                // Out-of-range reads are false, not panics.
                assert!(!bitmap_get(&back, 500));
            }
            other => panic!("unexpected response {other:?}"),
        }
        // Truncated bitmap / implausible counts are malformed.
        assert!(Response::from_bytes(&bytes[..bytes.len() - 1], &p).is_err());
        let zero = Response::ChunkAck {
            matrix_id: 1,
            chunk_count: 0,
            bitmap: vec![],
        };
        assert!(Response::from_bytes(&zero.to_bytes(), &p).is_err());
        let huge = Response::ChunkAck {
            matrix_id: 1,
            chunk_count: (MAX_CHUNK_COUNT + 1) as u32,
            bitmap: vec![0; (MAX_CHUNK_COUNT + 1).div_ceil(8)],
        };
        assert!(Response::from_bytes(&huge.to_bytes(), &p).is_err());
    }

    #[test]
    fn chunk_mismatch_error_roundtrip() {
        let body = error_body(&ServeError::ChunkMismatch {
            matrix_id: 0xAB,
            index: 3,
        });
        assert_eq!(body[0], ErrorCode::ChunkMismatch as u8);
        assert_eq!(body[1..9], 0xABu64.to_le_bytes());
        assert_eq!(body[9..], 3u32.to_le_bytes());
        assert!(matches!(
            error_from_body(&body),
            Ok(ServeError::ChunkMismatch {
                matrix_id: 0xAB,
                index: 3,
            })
        ));
        // The commit-level sentinel survives the round trip too.
        let body = error_body(&ServeError::ChunkMismatch {
            matrix_id: 9,
            index: CHUNK_INDEX_NONE,
        });
        assert!(matches!(
            error_from_body(&body),
            Ok(ServeError::ChunkMismatch {
                matrix_id: 9,
                index: CHUNK_INDEX_NONE,
            })
        ));
        // A torn body is malformed, not an untyped remote error.
        assert!(matches!(
            error_from_body(&body[..9]),
            Err(ServeError::BadFrame(_))
        ));
    }

    #[test]
    fn zero_shape_chunk_start_is_an_empty_matrix() {
        // A zero anywhere in the declared shape is an empty matrix, the
        // `(0, 0)` shape included: no declaration skips the shape check.
        for (rows, cols) in [(0, 0), (0, 7), (3, 0)] {
            let start = MatrixChunkStart::new(1, 176, 64, rows, cols);
            assert!(matches!(
                MatrixChunkStart::from_bytes(&start.to_bytes()),
                Err(ServeError::BadFrame("empty matrix"))
            ));
        }
    }

    #[test]
    fn matrix_body_len_is_checked_for_every_reader() {
        assert_eq!(matrix_body_len(3, 7).unwrap(), 8 + 8 * 21);
        // 8·2^31·2^30 wraps u64 to 0; it is out of bounds, not 8 bytes.
        for (rows, cols) in [(0, 7), (3, 0), (1 << 31, 1 << 30), (u32::MAX, u32::MAX)] {
            assert!(matrix_body_len(rows, cols).is_err(), "{rows}x{cols}");
        }
        // A zero dimension is refused by a parsed body and by a body
        // cut for a repair alike.
        let params = ChamParams::insecure_test_default().unwrap();
        let empty = [0u8; 8].to_vec();
        assert!(matches!(
            matrix_from_bytes(&empty, &params),
            Err(ServeError::BadFrame("empty matrix"))
        ));
        assert!(matches!(
            crate::client::ChunkedBody::from_bytes(empty, DEFAULT_CHUNK_BYTES),
            Err(ServeError::BadFrame("empty matrix"))
        ));
    }

    #[test]
    fn store_fetch_body_roundtrip() {
        // StoreFetch bodies round-trip and reject short or trailing bytes.
        let fetch = store_fetch_to_bytes(0xFEED);
        assert_eq!(store_fetch_from_bytes(&fetch).unwrap(), 0xFEED);
        assert!(store_fetch_from_bytes(&fetch[..7]).is_err());
        let mut bad = fetch;
        bad.push(0);
        assert!(store_fetch_from_bytes(&bad).is_err());
    }

    #[test]
    fn store_list_report_bounds() {
        let p = params();
        // Empty inventories are legal (a cold node answers honestly).
        let empty = Response::StoreListReport { ids: vec![] };
        match Response::from_bytes(&empty.to_bytes(), &p).unwrap() {
            Response::StoreListReport { ids } => assert!(ids.is_empty()),
            other => panic!("unexpected response {other:?}"),
        }
        // A count claiming more ids than the body holds is rejected
        // before any allocation.
        let mut lying = Vec::new();
        lying.push(9u8); // StoreListReport tag
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        lying.extend_from_slice(&7u64.to_le_bytes());
        assert!(matches!(
            Response::from_bytes(&lying, &p),
            Err(ServeError::BadFrame(_))
        ));
    }

    #[test]
    fn stats_travel_by_name() {
        let p = params();
        // A hand-built report: one known counter, one this build has
        // never heard of, and a name that is not even UTF-8.
        let mut body = vec![6u8, 3]; // IntrospectReport tag, three entries
        for (name, value) in [
            (&b"completed"[..], 7u64),
            (&b"invented_later"[..], 99),
            (&[0xFF, 0xFE][..], 1),
        ] {
            body.push(name.len() as u8);
            body.extend_from_slice(name);
            body.extend_from_slice(&value.to_le_bytes());
        }
        body.push(0); // no phases
        match Response::from_bytes(&body, &p).unwrap() {
            // Unknown names are skipped; absent ones read 0.
            Response::IntrospectReport { snapshot } => assert_eq!(
                snapshot.stats,
                StatsSnapshot {
                    completed: 7,
                    ..StatsSnapshot::default()
                }
            ),
            other => panic!("unexpected response {other:?}"),
        }
        // The same rule covers the gauges, and a value too wide for its
        // field saturates.
        let mut body = vec![6u8, 3]; // IntrospectReport tag, three entries
        for (name, value) in [("workers", u64::MAX), ("timed_out", 4), ("novel_gauge", 1)] {
            body.push(name.len() as u8);
            body.extend_from_slice(name.as_bytes());
            body.extend_from_slice(&value.to_le_bytes());
        }
        body.push(0); // no phases
        match Response::from_bytes(&body, &p).unwrap() {
            Response::IntrospectReport { snapshot } => {
                let mut expect = IntrospectSnapshot {
                    workers: u32::MAX,
                    ..IntrospectSnapshot::default()
                };
                expect.stats.timed_out = 4;
                assert_eq!(snapshot, expect);
            }
            other => panic!("unexpected response {other:?}"),
        }
        // A list cut off inside an entry is malformed.
        assert!(Response::from_bytes(&body[..body.len() - 4], &p).is_err());
    }

    #[test]
    fn vectored_writes_match_contiguous_frames() {
        let p = params();
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let sk = SecretKey::generate(&p, &mut rng);
        let enc = Encryptor::new(&p, &sk);
        let coder = CoeffEncoder::new(&p);
        let ct = enc.encrypt(&coder.encode_vector(&[4]).unwrap(), &mut rng);
        let resp = Response::HmvpDone {
            len: 3,
            packed: vec![
                PackedRlwe {
                    ciphertext: ct.clone(),
                    log_count: 2,
                    count: 3,
                },
                PackedRlwe {
                    ciphertext: ct,
                    log_count: 1,
                    count: 2,
                },
            ],
        };
        // to_parts concatenates to the exact to_bytes body...
        let parts = resp.to_parts();
        assert!(parts.len() > 1, "HmvpDone should scatter");
        let concat: Vec<u8> = parts.concat();
        assert_eq!(concat, resp.to_bytes());
        // ...and the vectored writer emits the exact same frame bytes.
        let mut contiguous = Vec::new();
        write_frame(&mut contiguous, FrameKind::Result, &concat).unwrap();
        let mut vectored = Vec::new();
        let borrowed: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        write_frame_vectored(&mut vectored, FrameKind::Result, &borrowed).unwrap();
        assert_eq!(vectored, contiguous);
        // Single-part responses scatter trivially and still match.
        let pong = Response::KeysLoaded { key_id: 1 };
        let parts = pong.to_parts();
        assert_eq!(parts.concat(), pong.to_bytes());
        // A writer that dribbles one byte at a time still produces the
        // exact frame (partial-write resumption).
        struct Dribble(Vec<u8>);
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if buf.is_empty() {
                    return Ok(0);
                }
                self.0.push(buf[0]);
                Ok(1)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut dribble = Dribble(Vec::new());
        write_frame_vectored(&mut dribble, FrameKind::Result, &borrowed).unwrap();
        assert_eq!(dribble.0, contiguous);
    }

    #[test]
    fn error_body_covers_every_variant() {
        let code = |e: &ServeError| error_body(e)[0];
        assert_eq!(code(&ServeError::Busy), ErrorCode::Busy as u8);
        assert_eq!(code(&ServeError::TimedOut), ErrorCode::TimedOut as u8);
        assert_eq!(error_body(&ServeError::UnknownKey(16)).len(), 9);
        // Failures with no code of their own travel as Internal text.
        let he = ServeError::He(cham_he::HeError::NoiseBudgetExhausted);
        match error_from_body(&error_body(&he)).unwrap() {
            ServeError::Internal(m) => assert_eq!(m, he.to_string()),
            other => panic!("got {other:?}"),
        }
        match error_from_body(&error_body(&ServeError::Internal("worker panicked".into()))) {
            Ok(ServeError::Internal(m)) => assert_eq!(m, "worker panicked"),
            other => panic!("got {other:?}"),
        }
    }
}
