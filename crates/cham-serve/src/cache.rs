//! Content-addressed session cache for key material and encoded matrices.
//!
//! The expensive per-session artifacts — Galois key sets and NTT-form
//! [`EncodedMatrix`] encodings — are cached under the FNV-1a 64 hash of
//! the raw bytes the client uploaded. Content addressing gives free
//! dedup: two clients uploading the same matrix (byte-identical payload)
//! resolve to the same cache entry and the server encodes it once. Each
//! cache is bounded; inserting past the bound evicts the least recently
//! used entry, so a long-running server cannot grow without limit.
//!
//! A cached matrix keeps its upload body beside its encoding. The body is
//! the only form of a matrix that leaves RAM — it is what spills to the
//! persistent store and what a repair fetches — because it is the only
//! form its id can be checked against.

use crate::protocol::{
    bitmap_get, bitmap_set, matrix_from_bytes, MatrixChunkStart, CHUNK_INDEX_NONE,
};
use crate::stats::PhaseHistograms;
use crate::store::SegmentStore;
use crate::{Result, ServeError};
use cham_he::hmvp::{EncodedMatrix, Hmvp, Matrix};
use cham_he::keys::GaloisKeys;
use cham_he::params::ChamParams;
use cham_telemetry::flight::{FlightEventKind, FlightRecorder};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// FNV-1a 64 offset basis: the state of an empty chain.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of a byte string — the cache's content address.
#[must_use]
pub fn content_hash(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV_OFFSET, bytes)
}

/// Continues the FNV-1a 64 chain `state` over `bytes`:
/// `fnv1a_update(content_hash(a), b) == content_hash(a ++ b)`.
#[must_use]
fn fnv1a_update(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state = (state ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    state
}

/// One pass over `chunk` that advances two chains together: the body
/// chain `body` continues over it and a fresh chain hashes the chunk by
/// itself. Returns `(fnv1a_update(body, chunk), content_hash(chunk))`.
/// FNV-1a is a serial multiply chain per byte, so the second,
/// independent chain rides in the latency of the first: the pass costs
/// what one hash does.
fn fnv1a_fused(body: u64, chunk: &[u8]) -> (u64, u64) {
    let (mut body, mut own) = (body, FNV_OFFSET);
    for &b in chunk {
        let b = u64::from(b);
        body = (body ^ b).wrapping_mul(FNV_PRIME);
        own = (own ^ b).wrapping_mul(FNV_PRIME);
    }
    (body, own)
}

/// A matrix upload body beside its content id. Every constructor
/// computes the id from the bytes, so a body can never carry an id it
/// does not hash to — which is what lets [`SessionCache::put_matrix`]
/// take the id as given instead of hashing the body again.
pub struct MatrixBody {
    bytes: Vec<u8>,
    id: u64,
}

impl MatrixBody {
    /// Hashes `bytes` once.
    #[must_use]
    pub fn new(bytes: Vec<u8>) -> Self {
        let id = content_hash(&bytes);
        Self { bytes, id }
    }

    /// Hashes `bytes` and every `chunk_bytes`-sized chunk of it in one
    /// pass; returns the body and the chunks' checksums in order (the
    /// last chunk may be short).
    ///
    /// # Panics
    /// When `chunk_bytes` is zero.
    #[must_use]
    pub fn with_chunk_hashes(bytes: Vec<u8>, chunk_bytes: usize) -> (Self, Vec<u64>) {
        let mut id = FNV_OFFSET;
        let checksums = bytes
            .chunks(chunk_bytes)
            .map(|chunk| {
                let (body, own) = fnv1a_fused(id, chunk);
                id = body;
                own
            })
            .collect();
        (Self { bytes, id }, checksums)
    }

    /// The content id: the FNV-1a 64 hash of [`MatrixBody::bytes`].
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The body bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Upper bound on concurrently pending streamed uploads. With the
/// per-upload `total_len` bound it caps the server's assembly memory.
pub const MAX_PENDING_UPLOADS: usize = 4;

/// Idle age past which a pending upload may be reaped to make room: a
/// client that vanished mid-stream must not pin a slot forever.
const UPLOAD_REAP_AGE: Duration = Duration::from_secs(30);

/// An upload body being reassembled from chunks, hashed as it lands. A
/// chunk written at the offset the body hash has reached is folded into
/// that hash in the same pass that checks the chunk's own checksum;
/// [`ClaimedBody::id`] folds whatever arrived out of order. An
/// in-order upload is thus hashed once, and a shuffled or resumed one
/// gets the same whole-body check through the same code.
struct BodyAssembly {
    start: MatrixChunkStart,
    /// Shared only once claimed: the cached matrix (and the store's
    /// spill queue) keep this allocation, not a copy of it. A `Vec`
    /// behind the `Arc`, because a zeroed `Vec` costs no page until a
    /// chunk lands, where an `Arc<[u8]>` would be zero-filled up front.
    buf: Arc<Vec<u8>>,
    /// Body chain over `buf[..folded]`.
    state: u64,
    folded: usize,
    /// The chunks that have landed — the only record of which did.
    bitmap: Vec<u8>,
    touched: Instant,
    /// A commit has claimed the body and is encoding it; the assembly
    /// stays until the matrix is cached, so a second commit waits for
    /// that instead of finding nothing.
    committing: bool,
}

/// A complete body handed to its committer: the chain over
/// `bytes[..folded]` is already folded.
struct ClaimedBody {
    bytes: Arc<Vec<u8>>,
    state: u64,
    folded: usize,
}

impl ClaimedBody {
    /// Folds the bytes not yet hashed: the body's content id.
    fn id(&self) -> u64 {
        fnv1a_update(self.state, &self.bytes[self.folded..])
    }
}

impl BodyAssembly {
    /// An all-zero body of the declared length, nothing landed.
    fn new(start: MatrixChunkStart, now: Instant) -> Self {
        Self {
            start,
            // `MatrixChunkStart::from_bytes` bounds the total by
            // `MAX_FRAME_BYTES`.
            buf: Arc::new(vec![0u8; start.total_len as usize]),
            state: FNV_OFFSET,
            folded: 0,
            bitmap: vec![0u8; (start.chunk_count as usize).div_ceil(8)],
            touched: now,
            committing: false,
        }
    }

    /// Checks chunk `index`'s placement, and its bytes against
    /// `checksum`, before a byte lands. A duplicate is checked and
    /// acknowledged, not written twice.
    fn place(&mut self, index: u32, data: &[u8], checksum: u64) -> Result<()> {
        if index >= self.start.chunk_count {
            return Err(ServeError::BadFrame("chunk index out of range"));
        }
        if data.len() != self.start.len_of_chunk(index) {
            return Err(ServeError::BadFrame(
                "chunk length disagrees with declaration",
            ));
        }
        // The body chain rides along at no extra cost, and is kept when
        // a fresh chunk lands where it stands.
        let (state, own) = fnv1a_fused(self.state, data);
        if own != checksum {
            return Err(ServeError::ChunkMismatch {
                matrix_id: self.start.matrix_id,
                index,
            });
        }
        let off = index as usize * self.start.chunk_size as usize;
        if !bitmap_get(&self.bitmap, index as usize) {
            if off == self.folded {
                self.state = state;
                self.folded += data.len();
            }
            // Only a complete body is ever claimed, and a complete
            // body takes no fresh chunk: the buffer is unshared here.
            Arc::get_mut(&mut self.buf).expect("an assembly still taking chunks is unshared")
                [off..off + data.len()]
                .copy_from_slice(data);
            bitmap_set(&mut self.bitmap, index as usize);
        }
        Ok(())
    }

    /// Whether every declared chunk has landed.
    fn complete(&self) -> bool {
        let landed: u32 = self.bitmap.iter().map(|b| b.count_ones()).sum();
        landed == self.start.chunk_count
    }

    /// Marks the assembly committing and shares its body with the
    /// committer.
    fn claim(&mut self) -> ClaimedBody {
        self.committing = true;
        ClaimedBody {
            bytes: Arc::clone(&self.buf),
            state: self.state,
            folded: self.folded,
        }
    }
}

/// The streamed uploads in flight, keyed by declared matrix id: the one
/// place a streamed body becomes a cached matrix. It lives in the
/// [`SessionCache`], not a connection, so a client that reconnects after
/// a disconnect resumes the same assembly.
#[derive(Default)]
pub(crate) struct Uploads {
    pending: Mutex<HashMap<u64, BodyAssembly>>,
    /// Signalled when a committing assembly leaves `pending`.
    committed: Condvar,
    reaped: AtomicU64,
    /// Times a commit waited for another's: lets a test see the wait.
    #[cfg(test)]
    waits: AtomicU64,
}

/// Removes a claimed assembly once its commit is over — cached, refused
/// or unwound — and wakes the commits waiting on it.
struct CommitDone<'a> {
    uploads: &'a Uploads,
    matrix_id: u64,
}

impl Drop for CommitDone<'_> {
    fn drop(&mut self) {
        // Runs while a panicking commit unwinds, so it must not panic on
        // a poisoned table; every update leaves the table whole.
        let mut pending = self
            .uploads
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        pending.remove(&self.matrix_id);
        drop(pending);
        self.uploads.committed.notify_all();
    }
}

impl Uploads {
    /// Opens or resumes the upload `start` declares; returns its
    /// received-chunk bitmap, all set when `cache` already holds the
    /// matrix, so the client skips straight to commit. When the table is
    /// full the idlest assembly past the reap age is reaped, else `Busy`.
    pub(crate) fn start(
        &self,
        cache: &SessionCache,
        start: MatrixChunkStart,
        now: Instant,
    ) -> Result<Vec<u8>> {
        if cache.get_matrix(start.matrix_id).is_ok() {
            let mut bitmap = vec![0u8; (start.chunk_count as usize).div_ceil(8)];
            (0..start.chunk_count as usize).for_each(|i| bitmap_set(&mut bitmap, i));
            return Ok(bitmap);
        }
        let mut pending = self.pending.lock().expect("uploads table poisoned");
        if let Some(asm) = pending.get_mut(&start.matrix_id) {
            // A different declaration means one of the two uploads is
            // lying about the content behind this id.
            if asm.start != start {
                return Err(ServeError::BadFrame(
                    "streamed upload redeclared with different geometry",
                ));
            }
            asm.touched = now;
            return Ok(asm.bitmap.clone());
        }
        if pending.len() >= MAX_PENDING_UPLOADS {
            let stale = pending
                .iter()
                .filter(|(_, a)| {
                    !a.committing && now.saturating_duration_since(a.touched) >= UPLOAD_REAP_AGE
                })
                .min_by_key(|(_, a)| a.touched)
                .map(|(&id, _)| id)
                .ok_or(ServeError::Busy)?;
            pending.remove(&stale);
            self.reaped.fetch_add(1, Ordering::Relaxed);
        }
        let asm = BodyAssembly::new(start, now);
        let bitmap = asm.bitmap.clone();
        pending.insert(start.matrix_id, asm);
        Ok(bitmap)
    }

    /// Checks and places chunk `index` of upload `matrix_id`; returns
    /// the declared chunk count and the received-chunk bitmap.
    pub(crate) fn chunk(
        &self,
        matrix_id: u64,
        index: u32,
        checksum: u64,
        data: &[u8],
        now: Instant,
    ) -> Result<(u32, Vec<u8>)> {
        let mut pending = self.pending.lock().expect("uploads table poisoned");
        let asm = pending
            .get_mut(&matrix_id)
            .ok_or(ServeError::BadFrame("chunk for an undeclared upload"))?;
        asm.place(index, data, checksum)?;
        asm.touched = now;
        Ok((asm.start.chunk_count, asm.bitmap.clone()))
    }

    /// Commits upload `matrix_id` into `cache`; returns `(rows, cols)`.
    /// A body that does not hash to the id is dropped: some chunk lied in
    /// a way its own checksum missed. A commit that finds the body
    /// already claimed by another waits until that one is over. Without a
    /// complete assembly (the start answered from the cache, a duplicate
    /// commit, or the content came by another route) resident content
    /// makes the commit idempotent; a partial assembly is kept for its
    /// uploader.
    pub(crate) fn commit(&self, cache: &SessionCache, matrix_id: u64) -> Result<(usize, usize)> {
        let mut pending = self.pending.lock().expect("uploads table poisoned");
        while pending.get(&matrix_id).is_some_and(|a| a.committing) {
            #[cfg(test)]
            self.waits.fetch_add(1, Ordering::Relaxed);
            pending = self
                .committed
                .wait(pending)
                .expect("uploads table poisoned");
        }
        let held = pending.get(&matrix_id).map(BodyAssembly::complete);
        let Some(true) = held else {
            drop(pending);
            return cache
                .get_matrix(matrix_id)
                .map(|resident| resident.shape())
                .map_err(|e| match held {
                    Some(false) => ServeError::BadFrame("commit before every chunk was received"),
                    _ => e,
                });
        };
        let body = pending
            .get_mut(&matrix_id)
            .expect("complete assembly is pending")
            .claim();
        let _done = CommitDone {
            uploads: self,
            matrix_id,
        };
        // Hash, parse and encode outside the lock.
        drop(pending);
        if body.id() != matrix_id {
            return Err(ServeError::ChunkMismatch {
                matrix_id,
                index: CHUNK_INDEX_NONE,
            });
        }
        let matrix = matrix_from_bytes(&body.bytes, cache.params())?;
        cache.put_body(matrix_id, body.bytes, &matrix)?;
        Ok((matrix.rows(), matrix.cols()))
    }

    /// Assemblies reaped to make room; served as `reaped_uploads`.
    pub(crate) fn reaped(&self) -> u64 {
        self.reaped.load(Ordering::Relaxed)
    }
}

/// A bounded map with least-recently-used eviction.
///
/// Recency is a monotone tick bumped on every hit/insert; eviction scans
/// for the minimum tick. That scan is O(n), which is the right trade for
/// the handful-of-entries caches here (the entries themselves are
/// megabytes of key material; the scan is nanoseconds).
struct LruMap<V> {
    entries: HashMap<u64, (Arc<V>, u64)>,
    capacity: usize,
    tick: u64,
}

impl<V> LruMap<V> {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            entries: HashMap::new(),
            capacity,
            tick: 0,
        }
    }

    fn get(&mut self, id: u64) -> Option<Arc<V>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&id).map(|(v, t)| {
            *t = tick;
            Arc::clone(v)
        })
    }

    /// Inserts (or refreshes) `id`, evicting the LRU entry when full.
    /// Returns `true` when an entry was evicted.
    fn insert(&mut self, id: u64, value: Arc<V>) -> bool {
        self.tick += 1;
        let mut evicted = false;
        if !self.entries.contains_key(&id) && self.entries.len() >= self.capacity {
            if let Some(&lru) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(k, _)| k)
            {
                self.entries.remove(&lru);
                evicted = true;
            }
        }
        self.entries.insert(id, (value, self.tick));
        evicted
    }

    fn remove(&mut self, id: u64) -> bool {
        self.entries.remove(&id).is_some()
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn contains(&self, id: u64) -> bool {
        self.entries.contains_key(&id)
    }

    fn ids(&self) -> Vec<u64> {
        self.entries.keys().copied().collect()
    }
}

/// One cached matrix: the upload body its id hashes, and the NTT-form
/// encoding of that body which HMVPs read. The body is shared with the
/// store's spill queue until its write lands.
struct CachedMatrix {
    body: Arc<Vec<u8>>,
    encoded: EncodedMatrix,
}

/// Shared session state: the parameter set, the HMVP engine built on it,
/// the two content-addressed LRU caches and the streamed uploads in
/// flight.
///
/// Cheap to share (`Arc` internally); all methods take `&self`.
pub struct SessionCache {
    params: Arc<ChamParams>,
    hmvp: Hmvp,
    keys: Mutex<LruMap<GaloisKeys>>,
    matrices: Mutex<LruMap<CachedMatrix>>,
    uploads: Uploads,
    phases: Option<Arc<PhaseHistograms>>,
    flight: Option<Arc<FlightRecorder>>,
    store: Option<Arc<SegmentStore>>,
    store_restores: AtomicU64,
    decode_errors: AtomicU64,
}

impl SessionCache {
    /// Builds a cache over `params` with the given per-kind entry bounds.
    #[must_use]
    pub fn new(params: Arc<ChamParams>, key_capacity: usize, matrix_capacity: usize) -> Self {
        let hmvp = Hmvp::from_arc(Arc::clone(&params));
        Self {
            params,
            hmvp,
            keys: Mutex::new(LruMap::new(key_capacity)),
            matrices: Mutex::new(LruMap::new(matrix_capacity)),
            uploads: Uploads::default(),
            phases: None,
            flight: None,
            store: None,
            store_restores: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
        }
    }

    /// Attaches observability sinks: matrix NTT-encode durations go into
    /// `phases` (the `matrix_encode` histogram) and evictions become
    /// flight-recorder events. Builder style so plain `new` call sites
    /// stay unchanged.
    #[must_use]
    pub fn with_telemetry(
        mut self,
        phases: Option<Arc<PhaseHistograms>>,
        flight: Option<Arc<FlightRecorder>>,
    ) -> Self {
        self.phases = phases;
        self.flight = flight;
        self
    }

    /// Attaches the persistent segment store as a spill/restore tier
    /// under the matrix LRU: every freshly encoded matrix's upload body is
    /// queued to the store's writer (crash-safely, best-effort, behind
    /// the reply), and a RAM miss reads the body back and encodes it —
    /// which is what lets a restarted server serve a matrix without a
    /// re-upload.
    #[must_use]
    pub fn with_store(mut self, store: Option<Arc<SegmentStore>>) -> Self {
        self.store = store;
        self
    }

    /// The attached persistent store, when configured.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<SegmentStore>> {
        self.store.as_ref()
    }

    /// Matrices restored from the persistent store into the RAM LRU —
    /// re-uploads a warm restart saved. Each restore cost one encode.
    #[must_use]
    pub fn store_restores(&self) -> u64 {
        self.store_restores.load(Ordering::Relaxed)
    }

    /// Spills to the persistent store that failed to write.
    /// The spill is best-effort and runs on the store's writer thread,
    /// where no caller sees the failure, so this count — served as
    /// `spill_errors` in `Introspect` — is the only place a store that
    /// has stopped persisting shows up.
    #[must_use]
    pub fn spill_errors(&self) -> u64 {
        self.store.as_ref().map_or(0, |s| s.stats().spill_errors)
    }

    /// Stored bodies that passed their CRC but failed to parse against
    /// this cache's parameters; each was dropped from the store and read
    /// as a miss. Served as `decode_errors` in `Introspect`.
    #[must_use]
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors.load(Ordering::Relaxed)
    }

    /// Tries to restore matrix `id` from the persistent store into the
    /// RAM LRU: reads the stored body, parses it, and encodes it. A
    /// stored body that fails to parse against this cache's params is
    /// dropped from the store (it belongs to some other parameter set)
    /// and reads as a miss.
    fn restore_matrix(&self, id: u64) -> Option<EncodedMatrix> {
        let store = self.store.as_ref()?;
        let body = store.get(id)?;
        match matrix_from_bytes(&body, &self.params).and_then(|matrix| self.encode(&matrix)) {
            Ok(encoded) => {
                self.store_restores.fetch_add(1, Ordering::Relaxed);
                Some(self.insert_matrix(id, Arc::new(body), encoded))
            }
            Err(_) => {
                store.remove(id);
                self.decode_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// NTT-encodes a matrix (the expensive, reusable step) and books the
    /// time in the `matrix_encode` phase. An upload and a store restore
    /// both come through here.
    fn encode(&self, matrix: &Matrix) -> Result<EncodedMatrix> {
        let encode_started = Instant::now();
        let encoded = self.hmvp.encode_matrix(matrix)?;
        if let Some(phases) = &self.phases {
            phases.record_matrix_encode(
                u64::try_from(encode_started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
        Ok(encoded)
    }

    /// Caches `encoded` beside the `body` it was encoded from; returns
    /// the encoding.
    fn insert_matrix(&self, id: u64, body: Arc<Vec<u8>>, encoded: EncodedMatrix) -> EncodedMatrix {
        let entry = Arc::new(CachedMatrix {
            body,
            encoded: encoded.clone(),
        });
        let evicted = self
            .matrices
            .lock()
            .expect("matrix cache poisoned")
            .insert(id, entry);
        if evicted {
            self.on_evict("matrix (lru)".into());
        }
        encoded
    }

    fn on_evict(&self, detail: String) {
        if let Some(flight) = &self.flight {
            flight.record_event(FlightEventKind::Evict, detail, None);
        }
    }

    /// The parameter set every cached artifact belongs to.
    #[must_use]
    pub fn params(&self) -> &Arc<ChamParams> {
        &self.params
    }

    /// The streamed uploads in flight.
    pub(crate) fn uploads(&self) -> &Uploads {
        &self.uploads
    }

    /// The shared HMVP engine (borrows the same params `Arc`).
    #[must_use]
    pub fn hmvp(&self) -> &Hmvp {
        &self.hmvp
    }

    /// Caches a Galois key set uploaded as raw `cham_he::wire` bytes and
    /// returns its content id. Re-uploading identical bytes is an O(hash)
    /// no-op returning the same id.
    ///
    /// # Errors
    /// Payload validation errors from `cham_he::wire`.
    pub fn put_keys_bytes(&self, bytes: &[u8]) -> Result<u64> {
        let id = content_hash(bytes);
        {
            let mut keys = self.keys.lock().expect("keys cache poisoned");
            if keys.contains(id) {
                // Refresh recency for the dedup hit.
                let _ = keys.get(id);
                return Ok(id);
            }
        }
        let parsed = cham_he::wire::galois_keys_from_bytes(bytes, &self.params)?;
        let evicted = self
            .keys
            .lock()
            .expect("keys cache poisoned")
            .insert(id, Arc::new(parsed));
        if evicted {
            self.on_evict("keys (lru)".into());
        }
        Ok(id)
    }

    /// Looks up a cached key set.
    ///
    /// # Errors
    /// [`ServeError::UnknownKey`] when absent (or already evicted).
    pub fn get_keys(&self, id: u64) -> Result<Arc<GaloisKeys>> {
        self.keys
            .lock()
            .expect("keys cache poisoned")
            .get(id)
            .ok_or(ServeError::UnknownKey(id))
    }

    /// Encodes `matrix` to NTT form and caches it beside `body` — the
    /// upload body it was parsed from — under the body's id, which its
    /// constructor computed: nothing here hashes the body again. Returns
    /// the content id. The body is queued to spill to the persistent
    /// store, which skips an id it already holds; the call does not wait
    /// for the disk.
    ///
    /// # Errors
    /// HE-layer encoding errors.
    pub fn put_matrix(&self, body: MatrixBody, matrix: &Matrix) -> Result<u64> {
        let MatrixBody { bytes, id } = body;
        self.put_body(id, Arc::new(bytes), matrix)
    }

    /// [`SessionCache::put_matrix`] for a body already shared, whose id
    /// the caller has checked.
    fn put_body(&self, id: u64, body: Arc<Vec<u8>>, matrix: &Matrix) -> Result<u64> {
        {
            let mut matrices = self.matrices.lock().expect("matrix cache poisoned");
            if matrices.contains(id) {
                let _ = matrices.get(id);
                return Ok(id);
            }
        }
        // Encode outside the lock: this is seconds of NTT work at
        // production sizes and must not serialize unrelated lookups.
        let encoded = self.encode(matrix)?;
        self.insert_matrix(id, Arc::clone(&body), encoded);
        // Best-effort and behind the reply: a spill failure (disk full,
        // injected torn snapshot) costs durability, not correctness —
        // the RAM entry still serves.
        if let Some(store) = &self.store {
            store.spill(id, body);
        }
        Ok(id)
    }

    /// Looks up a cached encoded matrix; a RAM miss restores it from the
    /// persistent store when that holds the id.
    ///
    /// # Errors
    /// [`ServeError::UnknownMatrix`] when absent (or already evicted).
    pub fn get_matrix(&self, id: u64) -> Result<EncodedMatrix> {
        if let Some(hit) = self.matrices.lock().expect("matrix cache poisoned").get(id) {
            return Ok(hit.encoded.clone());
        }
        self.restore_matrix(id).ok_or(ServeError::UnknownMatrix(id))
    }

    /// Every matrix content id this node can serve — the RAM LRU and
    /// the persistent store (queued spills included) combined, sorted
    /// ascending. This is the
    /// inventory the `StoreList` op reports and the repair planner
    /// diffs against the ring's expected replica sets.
    #[must_use]
    pub fn matrix_inventory(&self) -> Vec<u64> {
        let mut ids = self.matrices.lock().expect("matrix cache poisoned").ids();
        if let Some(store) = &self.store {
            ids.extend(store.ids());
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The upload body of matrix `id` — the bytes `id` hashes — for a
    /// replica→replica repair transfer. Answers from the RAM entry, else
    /// from the persistent store, a queued spill included (without
    /// restoring into RAM).
    ///
    /// # Errors
    /// [`ServeError::UnknownMatrix`] when the id is resident nowhere.
    pub fn segment_bytes(&self, id: u64) -> Result<Vec<u8>> {
        if let Some(entry) = self.matrices.lock().expect("matrix cache poisoned").get(id) {
            return Ok(entry.body.as_ref().clone());
        }
        self.store
            .as_ref()
            .and_then(|store| store.get(id))
            .ok_or(ServeError::UnknownMatrix(id))
    }

    /// Evicts a cached key set by id; returns whether it was present.
    ///
    /// Eviction is always safe mid-flight: entries are handed out as
    /// `Arc`s, so in-flight work keeps its clone while the *next* lookup
    /// sees [`ServeError::UnknownKey`] and the client re-uploads (content
    /// addressing makes the re-upload idempotent). The fault-injection
    /// harness leans on exactly this property.
    pub fn evict_keys(&self, id: u64) -> bool {
        let removed = self.keys.lock().expect("keys cache poisoned").remove(id);
        if removed {
            self.on_evict(format!("keys {id:#018x}"));
        }
        removed
    }

    /// Evicts a cached encoded matrix by id; returns whether present.
    pub fn evict_matrix(&self, id: u64) -> bool {
        let removed = self
            .matrices
            .lock()
            .expect("matrix cache poisoned")
            .remove(id);
        if removed {
            self.on_evict(format!("matrix {id:#018x}"));
        }
        removed
    }

    /// `(cached key sets, cached matrices)` — for reporting.
    #[must_use]
    pub fn lens(&self) -> (usize, usize) {
        (
            self.keys.lock().expect("keys cache poisoned").len(),
            self.matrices.lock().expect("matrix cache poisoned").len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{self, matrix_to_bytes};
    use cham_he::keys::SecretKey;
    use rand::SeedableRng;

    #[test]
    fn fnv_vectors() {
        // Canonical FNV-1a 64 test vectors.
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(content_hash(b"ab"), content_hash(b"ba"));
    }

    #[test]
    fn fused_chunk_hashes_match_separate_hashes() {
        let body: Vec<u8> = (0u32..300).map(|i| (i * 7 + 3) as u8).collect();
        let len = body.len();
        for chunk_bytes in [1, 7, 64, len - 1, len, len + 5] {
            let (hashed, sums) = MatrixBody::with_chunk_hashes(body.clone(), chunk_bytes);
            assert_eq!(hashed.id(), content_hash(&body), "chunk={chunk_bytes}");
            let want: Vec<u64> = body.chunks(chunk_bytes).map(content_hash).collect();
            assert_eq!(sums, want, "chunk={chunk_bytes}");
            assert_eq!(hashed.bytes(), &body[..]);
        }
        let (empty, sums) = MatrixBody::with_chunk_hashes(Vec::new(), 7);
        assert_eq!((empty.id(), sums.len()), (content_hash(b""), 0));
        assert_eq!(MatrixBody::new(body.clone()).id(), content_hash(&body));
        let (head, tail) = body.split_at(100);
        assert_eq!(fnv1a_update(content_hash(head), tail), content_hash(&body));
    }

    #[test]
    fn body_assembly_hashes_the_whole_body_in_any_order() {
        let body: Vec<u8> = (0u32..200).map(|i| (i * 13 + 1) as u8).collect();
        let chunk_bytes = 16;
        let offsets: Vec<usize> = (0..body.len()).step_by(chunk_bytes).collect();
        let in_order = offsets.clone();
        let reversed: Vec<usize> = offsets.iter().rev().copied().collect();
        // A prefix in order, then the rest out of order: part folded as
        // it lands, part at finish.
        let mixed: Vec<usize> = offsets[..3]
            .iter()
            .chain(offsets[3..].iter().rev())
            .copied()
            .collect();
        let start = MatrixChunkStart::new(content_hash(&body), body.len(), chunk_bytes, 0, 0);
        for order in [in_order, reversed, mixed] {
            let mut asm = BodyAssembly::new(start, Instant::now());
            for &off in &order {
                let data = &body[off..(off + chunk_bytes).min(body.len())];
                let index = (off / chunk_bytes) as u32;
                // A lying checksum writes nothing and folds nothing.
                assert!(asm.place(index, data, content_hash(data) ^ 1).is_err());
                assert!(!asm.complete());
                asm.place(index, data, content_hash(data)).unwrap();
            }
            assert!(asm.complete());
            let done = asm.claim();
            assert_eq!(done.id(), content_hash(&body), "order={order:?}");
            assert_eq!(&done.bytes[..], &body[..]);
        }
    }

    /// The reap policy, on explicit clocks: past the bound a start is
    /// `Busy` until an assembly idles past the reap age; then the least
    /// recently touched one goes (and is counted), its chunks are
    /// refused as undeclared, and the survivors keep what landed.
    #[test]
    fn pending_uploads_are_bounded_and_the_idlest_is_reaped() {
        let params = Arc::new(ChamParams::insecure_test_default().unwrap());
        let cache = SessionCache::new(Arc::clone(&params), 1, 1);
        let uploads = cache.uploads();
        let t = params.plain_modulus().value();
        let bodies: Vec<Vec<u8>> = (0..=MAX_PENDING_UPLOADS as u64)
            .map(|seed| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                matrix_to_bytes(&Matrix::random(2, 3, t, &mut rng))
            })
            .collect();
        let declare =
            |body: &Vec<u8>| MatrixChunkStart::new(content_hash(body), body.len(), 8, 2, 3);
        let chunk0 = |body: &Vec<u8>, now| {
            let id = content_hash(body);
            uploads.chunk(id, 0, content_hash(&body[..8]), &body[..8], now)
        };

        // Fill the table, each upload with chunk 0 landed. A duplicate
        // chunk touches upload 0 last, which leaves upload 1, not the
        // first one started, the least recently touched.
        let t0 = Instant::now();
        for (i, body) in bodies[..MAX_PENDING_UPLOADS].iter().enumerate() {
            let at = t0 + Duration::from_secs(i as u64);
            uploads.start(&cache, declare(body), at).unwrap();
            chunk0(body, at).unwrap();
        }
        let late = t0 + Duration::from_secs(MAX_PENDING_UPLOADS as u64);
        chunk0(&bodies[0], late).unwrap();
        let extra = declare(&bodies[MAX_PENDING_UPLOADS]);
        assert!(matches!(
            uploads.start(&cache, extra, late),
            Err(ServeError::Busy)
        ));
        // Upload 1 has idled a second short of the reap age: still busy.
        let almost = t0 + UPLOAD_REAP_AGE;
        assert!(matches!(
            uploads.start(&cache, extra, almost),
            Err(ServeError::Busy)
        ));
        assert_eq!(uploads.reaped(), 0);

        // Past the age of every assembly, the idlest goes.
        let idle = late + UPLOAD_REAP_AGE;
        let bitmap = uploads.start(&cache, extra, idle).unwrap();
        assert!(bitmap.iter().all(|&b| b == 0));
        assert_eq!(uploads.reaped(), 1);
        assert!(matches!(
            chunk0(&bodies[1], idle),
            Err(ServeError::BadFrame("chunk for an undeclared upload"))
        ));
        for (i, body) in bodies[..MAX_PENDING_UPLOADS].iter().enumerate() {
            if i == 1 {
                continue;
            }
            let bitmap = uploads.start(&cache, declare(body), idle).unwrap();
            assert!(protocol::bitmap_get(&bitmap, 0));
            assert!(!protocol::bitmap_get(&bitmap, 1));
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut m: LruMap<u32> = LruMap::new(2);
        assert!(!m.insert(1, Arc::new(10)));
        assert!(!m.insert(2, Arc::new(20)));
        // Touch 1 so 2 becomes LRU.
        assert_eq!(*m.get(1).unwrap(), 10);
        assert!(m.insert(3, Arc::new(30)));
        assert!(m.get(2).is_none());
        assert!(m.get(1).is_some());
        assert!(m.get(3).is_some());
        assert_eq!(m.len(), 2);
        // Re-inserting an existing id does not evict.
        assert!(!m.insert(1, Arc::new(11)));
        assert_eq!(*m.get(1).unwrap(), 11);
    }

    #[test]
    fn session_cache_roundtrip_dedup_and_eviction() {
        let params = Arc::new(ChamParams::insecure_test_default().unwrap());
        let cache = SessionCache::new(Arc::clone(&params), 1, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);

        // Keys: insert, hit, unknown.
        let sk = SecretKey::generate(&params, &mut rng);
        let gk = GaloisKeys::generate_for_packing(&sk, 2, &mut rng).unwrap();
        let indices: Vec<usize> = (1..=2).map(|j| (1usize << j) + 1).collect();
        let gk_bytes = cham_he::wire::galois_keys_to_bytes(&gk, &indices).unwrap();
        let id = cache.put_keys_bytes(&gk_bytes).unwrap();
        assert_eq!(id, content_hash(&gk_bytes));
        // Dedup: same bytes, same id, still one entry.
        assert_eq!(cache.put_keys_bytes(&gk_bytes).unwrap(), id);
        assert_eq!(cache.lens().0, 1);
        assert!(cache.get_keys(id).is_ok());
        assert!(matches!(
            cache.get_keys(id ^ 1),
            Err(ServeError::UnknownKey(_))
        ));

        // Matrices: fill past capacity 2 and watch the LRU fall out.
        let t = params.plain_modulus().value();
        let mut ids = Vec::new();
        for seed in 0..3u64 {
            let mut mrng = rand::rngs::StdRng::seed_from_u64(seed);
            let m = Matrix::random(2, 3, t, &mut mrng);
            ids.push(
                cache
                    .put_matrix(MatrixBody::new(matrix_to_bytes(&m)), &m)
                    .unwrap(),
            );
        }
        assert_eq!(cache.lens().1, 2);
        assert!(matches!(
            cache.get_matrix(ids[0]),
            Err(ServeError::UnknownMatrix(_))
        ));
        assert!(cache.get_matrix(ids[1]).is_ok());
        assert!(cache.get_matrix(ids[2]).is_ok());

        // Forced eviction: in-flight Arcs survive, next lookup misses.
        let held = cache.get_matrix(ids[2]).unwrap();
        assert!(cache.evict_matrix(ids[2]));
        assert!(!cache.evict_matrix(ids[2]));
        assert!(matches!(
            cache.get_matrix(ids[2]),
            Err(ServeError::UnknownMatrix(_))
        ));
        assert!(held.col_tiles() >= 1);
        assert!(cache.evict_keys(id));
        assert!(matches!(cache.get_keys(id), Err(ServeError::UnknownKey(_))));
    }

    #[test]
    fn undecodable_stored_segment_is_dropped_and_counted() {
        // A segment that is sound on disk (CRC passes) but is not a
        // matrix body under these params: the restore reads as a miss,
        // the segment leaves the store, and the swallowed error is
        // counted.
        let params = Arc::new(ChamParams::insecure_test_default().unwrap());
        let dir = std::env::temp_dir().join(format!("cham-cache-decode-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(SegmentStore::open(&dir, 0).unwrap());
        store.put(7, b"not a matrix body").unwrap();
        let cache = SessionCache::new(params, 1, 2).with_store(Some(Arc::clone(&store)));
        assert!(matches!(
            cache.get_matrix(7),
            Err(ServeError::UnknownMatrix(7))
        ));
        assert_eq!(cache.decode_errors(), 1);
        assert!(!store.contains(7));
        assert_eq!((cache.spill_errors(), cache.store_restores()), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_bytes_roundtrip_between_caches() {
        // The body pulled off one cache uploads into another under the
        // same id — the replica→replica repair transfer in miniature,
        // store-less on both ends.
        let params = Arc::new(ChamParams::insecure_test_default().unwrap());
        let source = SessionCache::new(Arc::clone(&params), 1, 4);
        let target = SessionCache::new(Arc::clone(&params), 1, 4);
        let t = params.plain_modulus().value();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let m = Matrix::random(2, 3, t, &mut rng);
        let id = source
            .put_matrix(MatrixBody::new(matrix_to_bytes(&m)), &m)
            .unwrap();

        assert_eq!(source.matrix_inventory(), vec![id]);
        assert!(target.matrix_inventory().is_empty());
        let body = source.segment_bytes(id).unwrap();
        assert_eq!(body, matrix_to_bytes(&m));
        assert!(matches!(
            source.segment_bytes(id ^ 1),
            Err(ServeError::UnknownMatrix(_))
        ));
        let parsed = matrix_from_bytes(&body, &params).unwrap();
        assert_eq!(
            target
                .put_matrix(MatrixBody::new(body.clone()), &parsed)
                .unwrap(),
            id
        );
        assert_eq!(target.matrix_inventory(), vec![id]);
        assert_eq!(target.segment_bytes(id).unwrap(), body);
    }

    #[test]
    fn segment_bytes_hash_to_their_id_from_ram_and_from_the_store() {
        let params = Arc::new(ChamParams::insecure_test_default().unwrap());
        let dir = std::env::temp_dir().join(format!("cham-cache-body-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(SegmentStore::open(&dir, 0).unwrap());
        let cache =
            SessionCache::new(Arc::clone(&params), 1, 1).with_store(Some(Arc::clone(&store)));
        let t = params.plain_modulus().value();
        let mut rng = rand::rngs::StdRng::seed_from_u64(100);
        let a = Matrix::random(2, 3, t, &mut rng);
        let b = Matrix::random(3, 2, t, &mut rng);

        let id_a = cache
            .put_matrix(MatrixBody::new(matrix_to_bytes(&a)), &a)
            .unwrap();
        assert_eq!(content_hash(&cache.segment_bytes(id_a).unwrap()), id_a);
        // The one-entry LRU drops `a` for `b`; the store still holds
        // `a`'s body, and answers with the same bytes.
        cache
            .put_matrix(MatrixBody::new(matrix_to_bytes(&b)), &b)
            .unwrap();
        assert_eq!(cache.lens().1, 1);
        let stored = cache.segment_bytes(id_a).unwrap();
        assert_eq!(content_hash(&stored), id_a);
        assert_eq!(stored, matrix_to_bytes(&a));
        assert_eq!(cache.store_restores(), 0, "a fetch restores nothing");
        // A lookup restores `a` by encoding its stored body.
        assert_eq!(cache.get_matrix(id_a).unwrap().shape(), (2, 3));
        assert_eq!(cache.store_restores(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn temp_store(tag: &str) -> (std::path::PathBuf, Arc<SegmentStore>) {
        let dir = std::env::temp_dir().join(format!("cham-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(SegmentStore::open(&dir, 0).unwrap());
        (dir, store)
    }

    /// Two commits of one complete body — two clients, or a replay,
    /// uploading identical content. The first is held before its encode
    /// (the test holds the matrix cache) when the second arrives; the
    /// second waits for it instead of finding neither an assembly nor a
    /// cached matrix, or encoding the body again. Both answer the same
    /// shape, and the body is encoded and spilled once.
    #[test]
    fn a_second_commit_of_one_body_waits_for_the_first() {
        let params = Arc::new(ChamParams::insecure_test_default().unwrap());
        let (dir, store) = temp_store("commit-race");
        let phases = Arc::new(PhaseHistograms::new());
        let cache = SessionCache::new(Arc::clone(&params), 1, 8)
            .with_telemetry(Some(Arc::clone(&phases)), None)
            .with_store(Some(Arc::clone(&store)));
        let uploads = cache.uploads();
        let t = params.plain_modulus().value();
        let (rows, cols) = (8, 4096);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let body = matrix_to_bytes(&Matrix::random(rows, cols, t, &mut rng));
        let id = content_hash(&body);
        let chunk_bytes = protocol::DEFAULT_CHUNK_BYTES;
        let start = MatrixChunkStart::new(id, body.len(), chunk_bytes, rows as u32, cols as u32);
        let now = Instant::now();
        uploads.start(&cache, start, now).unwrap();
        for (i, data) in body.chunks(chunk_bytes).enumerate() {
            uploads
                .chunk(id, i as u32, content_hash(data), data, now)
                .unwrap();
        }

        let await_state = |what: &str, reached: &dyn Fn() -> bool| {
            let give_up = Instant::now() + Duration::from_secs(20);
            while !reached() {
                assert!(Instant::now() < give_up, "{what}");
                std::thread::yield_now();
            }
        };
        // Every commit stops at the cache's residency check, before it
        // encodes, until this guard drops.
        let matrices = cache.matrices.lock().unwrap();
        let answers = std::thread::scope(|s| {
            let first = s.spawn(|| uploads.commit(&cache, id));
            await_state("the first commit never claimed the body", &|| {
                uploads
                    .pending
                    .lock()
                    .unwrap()
                    .get(&id)
                    .is_some_and(|a| a.committing)
            });
            let second = s.spawn(|| uploads.commit(&cache, id));
            await_state("the second commit never waited for the first", &|| {
                uploads.waits.load(Ordering::Relaxed) > 0
            });
            drop(matrices);
            [first, second].map(|c| c.join().unwrap())
        });
        for answer in answers {
            assert_eq!(answer.unwrap(), (rows, cols));
        }
        let encodes = phases
            .snapshot()
            .into_iter()
            .find(|p| p.name == crate::stats::PHASE_MATRIX_ENCODE)
            .map_or(0, |p| p.count);
        assert_eq!(encodes, 1, "one encode for one body");
        store.flush();
        let stats = store.stats();
        assert_eq!((stats.segments, stats.bytes), (1, body.len() as u64));
        assert_eq!(cache.spill_errors(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// With the writer held, a body evicted from a one-entry cache
    /// before its spill lands is still listed, fetched and served — from
    /// the queued body — and lands once the writer runs.
    #[test]
    fn a_matrix_evicted_before_its_spill_lands_is_still_served() {
        let params = Arc::new(ChamParams::insecure_test_default().unwrap());
        let (dir, store) = temp_store("write-behind");
        let cache =
            SessionCache::new(Arc::clone(&params), 1, 1).with_store(Some(Arc::clone(&store)));
        let t = params.plain_modulus().value();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let a = Matrix::random(2, 3, t, &mut rng);
        let b = Matrix::random(3, 2, t, &mut rng);
        let seg = |id: u64| dir.join(format!("seg-{id:016x}.chs"));
        let (id_a, id_b) = {
            let _held = store.hold_writer();
            let id_a = cache
                .put_matrix(MatrixBody::new(matrix_to_bytes(&a)), &a)
                .unwrap();
            let id_b = cache
                .put_matrix(MatrixBody::new(matrix_to_bytes(&b)), &b)
                .unwrap();
            assert_eq!(cache.lens().1, 1, "`a` left RAM");
            assert!(!seg(id_a).exists(), "the held writer wrote nothing");
            let mut both = vec![id_a, id_b];
            both.sort_unstable();
            assert_eq!(cache.matrix_inventory(), both);
            assert_eq!(cache.segment_bytes(id_a).unwrap(), matrix_to_bytes(&a));
            assert_eq!(cache.get_matrix(id_a).unwrap().shape(), (2, 3));
            assert_eq!(cache.store_restores(), 1);
            (id_a, id_b)
        };
        store.flush();
        assert!(seg(id_a).exists() && seg(id_b).exists());
        assert_eq!(cache.spill_errors(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
