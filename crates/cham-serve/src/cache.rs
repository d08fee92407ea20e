//! Content-addressed session cache for key material and encoded matrices.
//!
//! The expensive per-session artifacts — Galois key sets and NTT-form
//! [`EncodedMatrix`] encodings — are cached under the FNV-1a 64 hash of
//! the raw bytes the client uploaded. Content addressing gives free
//! dedup: two clients uploading the same matrix (byte-identical payload)
//! resolve to the same cache entry and the server encodes it once. Each
//! cache is bounded; inserting past the bound evicts the least recently
//! used entry, so a long-running server cannot grow without limit.

use crate::stats::PhaseHistograms;
use crate::store::SegmentStore;
use crate::{Result, ServeError};
use cham_he::hmvp::{EncodedMatrix, Hmvp, Matrix};
use cham_he::keys::GaloisKeys;
use cham_he::params::ChamParams;
use cham_telemetry::flight::{FlightEventKind, FlightRecorder};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// FNV-1a 64-bit hash of a byte string — the cache's content address.
#[must_use]
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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

/// Shared session state: the parameter set, the HMVP engine built on it,
/// and the two content-addressed LRU caches.
///
/// Cheap to share (`Arc` internally); all methods take `&self`.
pub struct SessionCache {
    params: Arc<ChamParams>,
    hmvp: Hmvp,
    keys: Mutex<LruMap<GaloisKeys>>,
    matrices: Mutex<LruMap<EncodedMatrix>>,
    phases: Option<Arc<PhaseHistograms>>,
    flight: Option<Arc<FlightRecorder>>,
    store: Option<Arc<SegmentStore>>,
    store_restores: AtomicU64,
    spill_errors: AtomicU64,
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
            phases: None,
            flight: None,
            store: None,
            store_restores: AtomicU64::new(0),
            spill_errors: AtomicU64::new(0),
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
    /// under the matrix LRU: every freshly encoded matrix is snapshotted
    /// to the store (crash-safely, best-effort), and a RAM miss restores
    /// the NTT-form bytes from disk instead of re-encoding — which is
    /// what makes a restarted server come back warm.
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

    /// Matrices restored from the persistent store into the RAM LRU
    /// without an NTT encode — the warm-restart savings.
    #[must_use]
    pub fn store_restores(&self) -> u64 {
        self.store_restores.load(Ordering::Relaxed)
    }

    /// Spills to the persistent store that failed (serialize or write).
    /// The spill is best-effort and the failure is swallowed here, so
    /// this count — served as `spill_errors` in `Pong`/`Introspect` — is
    /// the only place a store that has stopped persisting shows up.
    #[must_use]
    pub fn spill_errors(&self) -> u64 {
        self.spill_errors.load(Ordering::Relaxed)
    }

    /// Stored segments that passed their CRC but failed to decode against
    /// this cache's parameters; each was dropped from the store and read
    /// as a miss. Served as `decode_errors` in `Pong`/`Introspect`.
    #[must_use]
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors.load(Ordering::Relaxed)
    }

    /// Tries to restore the encoded matrix `id` from the persistent
    /// store into the RAM LRU. No NTT encode happens on this path — the
    /// stored bytes are already in NTT form and deserialization is a
    /// copy plus validation. A stored payload that fails to decode
    /// against this cache's params is dropped from the store (it belongs
    /// to some other parameter set) and reads as a miss.
    fn restore_matrix(&self, id: u64) -> Option<Arc<EncodedMatrix>> {
        let store = self.store.as_ref()?;
        let bytes = store.get(id)?;
        match cham_he::wire::encoded_matrix_from_bytes(&bytes, &self.params) {
            Ok(encoded) => {
                let encoded = Arc::new(encoded);
                let evicted = self
                    .matrices
                    .lock()
                    .expect("matrix cache poisoned")
                    .insert(id, Arc::clone(&encoded));
                self.store_restores.fetch_add(1, Ordering::Relaxed);
                if evicted {
                    self.on_evict("matrix (lru, store restore)".into());
                }
                Some(encoded)
            }
            Err(_) => {
                store.remove(id);
                self.decode_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Snapshots a freshly encoded matrix to the persistent store.
    /// Best-effort: a spill failure (disk full, injected torn snapshot)
    /// costs durability, not correctness — the RAM entry still serves.
    fn spill_matrix(&self, id: u64, encoded: &EncodedMatrix) {
        let Some(store) = self.store.as_ref() else {
            return;
        };
        let spilled = cham_he::wire::encoded_matrix_to_bytes(encoded)
            .is_ok_and(|bytes| store.put(id, &bytes).is_ok());
        if !spilled {
            self.spill_errors.fetch_add(1, Ordering::Relaxed);
        }
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

    /// Encodes a plaintext matrix to NTT form (the expensive, reusable
    /// step) and caches it under the content hash of `bytes` — the raw
    /// `LoadMatrix` payload it arrived as. Returns the content id.
    ///
    /// # Errors
    /// HE-layer encoding errors.
    pub fn put_matrix(&self, bytes: &[u8], matrix: &Matrix) -> Result<u64> {
        let id = content_hash(bytes);
        {
            let mut matrices = self.matrices.lock().expect("matrix cache poisoned");
            if matrices.contains(id) {
                let _ = matrices.get(id);
                return Ok(id);
            }
        }
        // A warm store can satisfy a re-upload without any NTT work:
        // the segment is keyed by the same content hash, so identical
        // bytes restore the previously encoded form.
        if self.restore_matrix(id).is_some() {
            return Ok(id);
        }
        // Encode outside the lock: this is seconds of NTT work at
        // production sizes and must not serialize unrelated lookups.
        let encode_started = Instant::now();
        let encoded = self.hmvp.encode_matrix(matrix)?;
        if let Some(phases) = &self.phases {
            phases.record_matrix_encode(
                u64::try_from(encode_started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
        self.spill_matrix(id, &encoded);
        let evicted = self
            .matrices
            .lock()
            .expect("matrix cache poisoned")
            .insert(id, Arc::new(encoded));
        if evicted {
            self.on_evict("matrix (lru)".into());
        }
        Ok(id)
    }

    /// Looks up a cached encoded matrix.
    ///
    /// # Errors
    /// [`ServeError::UnknownMatrix`] when absent (or already evicted).
    pub fn get_matrix(&self, id: u64) -> Result<Arc<EncodedMatrix>> {
        if let Some(hit) = self.matrices.lock().expect("matrix cache poisoned").get(id) {
            return Ok(hit);
        }
        // RAM miss: the persistent tier may still hold the encoding
        // (server restart, or LRU pressure spilled it out from under us).
        self.restore_matrix(id).ok_or(ServeError::UnknownMatrix(id))
    }

    /// Every matrix content id this node can serve — the RAM LRU and
    /// the persistent store combined, sorted ascending. This is the
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

    /// The encoded (NTT-form) wire bytes of matrix `id`, for a
    /// replica→replica repair transfer. Prefers the persistent segment
    /// (already serialized, CRC-verified); a store miss re-serializes
    /// the RAM entry.
    ///
    /// # Errors
    /// [`ServeError::UnknownMatrix`] when the id is resident nowhere;
    /// HE-layer errors re-serializing a RAM entry.
    pub fn segment_bytes(&self, id: u64) -> Result<Vec<u8>> {
        if let Some(store) = &self.store {
            if let Some(bytes) = store.get(id) {
                return Ok(bytes);
            }
        }
        let encoded = self
            .matrices
            .lock()
            .expect("matrix cache poisoned")
            .get(id)
            .ok_or(ServeError::UnknownMatrix(id))?;
        cham_he::wire::encoded_matrix_to_bytes(&encoded).map_err(ServeError::He)
    }

    /// Installs an encoded matrix received from another replica (the
    /// segment-mode commit path): validates the wire bytes against this
    /// cache's params, inserts into the RAM LRU under `id`, and persists
    /// to the segment store (best-effort, like any fresh encode).
    /// Returns the accepted shape. No NTT encode happens here — that is
    /// the whole point of transferring the encoded form.
    ///
    /// # Errors
    /// HE-layer validation errors for bytes that do not decode against
    /// this parameter set.
    pub fn put_segment_bytes(&self, id: u64, bytes: &[u8]) -> Result<(usize, usize)> {
        let encoded = cham_he::wire::encoded_matrix_from_bytes(bytes, &self.params)?;
        let shape = encoded.shape();
        if let Some(store) = &self.store {
            if store.put(id, bytes).is_err() {
                self.spill_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        let evicted = self
            .matrices
            .lock()
            .expect("matrix cache poisoned")
            .insert(id, Arc::new(encoded));
        if evicted {
            self.on_evict("matrix (lru, repair install)".into());
        }
        Ok(shape)
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
            let bytes = crate::protocol::matrix_to_bytes(&m);
            ids.push(cache.put_matrix(&bytes, &m).unwrap());
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
        // A segment that is sound on disk (CRC passes) but is not an
        // encoding under these params: the restore reads as a miss, the
        // segment leaves the store, and the swallowed error is counted.
        let params = Arc::new(ChamParams::insecure_test_default().unwrap());
        let dir = std::env::temp_dir().join(format!("cham-cache-decode-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(SegmentStore::open(&dir, 0).unwrap());
        store.put(7, b"not an encoded matrix").unwrap();
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
        // A segment pulled off one cache installs into another without
        // any NTT encode — the replica→replica repair transfer in
        // miniature, store-less on both ends (RAM serialization path).
        let params = Arc::new(ChamParams::insecure_test_default().unwrap());
        let source = SessionCache::new(Arc::clone(&params), 1, 4);
        let target = SessionCache::new(Arc::clone(&params), 1, 4);
        let t = params.plain_modulus().value();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let m = Matrix::random(2, 3, t, &mut rng);
        let bytes = crate::protocol::matrix_to_bytes(&m);
        let id = source.put_matrix(&bytes, &m).unwrap();

        assert_eq!(source.matrix_inventory(), vec![id]);
        assert!(target.matrix_inventory().is_empty());
        let segment = source.segment_bytes(id).unwrap();
        assert!(matches!(
            source.segment_bytes(id ^ 1),
            Err(ServeError::UnknownMatrix(_))
        ));
        let shape = target.put_segment_bytes(id, &segment).unwrap();
        assert_eq!(shape, (2, 3));
        assert_eq!(target.matrix_inventory(), vec![id]);
        // The installed encoding is the same artifact bit for bit.
        assert_eq!(target.segment_bytes(id).unwrap(), segment);
        // Garbage bytes are rejected, not installed.
        assert!(target.put_segment_bytes(7, &[0u8; 16]).is_err());
        assert!(matches!(
            target.get_matrix(7),
            Err(ServeError::UnknownMatrix(_))
        ));
    }
}
