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

use crate::protocol::matrix_from_bytes;
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

/// One cached matrix: the upload body its id hashes, and the NTT-form
/// encoding of that body which HMVPs read.
struct CachedMatrix {
    body: Vec<u8>,
    encoded: EncodedMatrix,
}

/// Shared session state: the parameter set, the HMVP engine built on it,
/// and the two content-addressed LRU caches.
///
/// Cheap to share (`Arc` internally); all methods take `&self`.
pub struct SessionCache {
    params: Arc<ChamParams>,
    hmvp: Hmvp,
    keys: Mutex<LruMap<GaloisKeys>>,
    matrices: Mutex<LruMap<CachedMatrix>>,
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
    /// under the matrix LRU: every freshly encoded matrix's upload body is
    /// snapshotted to the store (crash-safely, best-effort), and a RAM
    /// miss reads the body back and encodes it — which is what lets a
    /// restarted server serve a matrix without a re-upload.
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
    /// The spill is best-effort and the failure is swallowed here, so
    /// this count — served as `spill_errors` in `Introspect` — is
    /// the only place a store that has stopped persisting shows up.
    #[must_use]
    pub fn spill_errors(&self) -> u64 {
        self.spill_errors.load(Ordering::Relaxed)
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
                Some(self.insert_matrix(id, body, encoded))
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
    fn insert_matrix(&self, id: u64, body: Vec<u8>, encoded: EncodedMatrix) -> EncodedMatrix {
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
    /// upload body it was parsed from — under the content hash of
    /// `body`. Returns the content id. The body spills to the persistent
    /// store, which skips an id it already holds.
    ///
    /// # Errors
    /// HE-layer encoding errors.
    pub fn put_matrix(&self, body: Vec<u8>, matrix: &Matrix) -> Result<u64> {
        let id = content_hash(&body);
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
        // Best-effort: a spill failure (disk full, injected torn
        // snapshot) costs durability, not correctness — the RAM entry
        // still serves.
        if let Some(store) = &self.store {
            if store.put(id, &body).is_err() {
                self.spill_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.insert_matrix(id, body, encoded);
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

    /// The upload body of matrix `id` — the bytes `id` hashes — for a
    /// replica→replica repair transfer. Answers from the RAM entry, else
    /// from the persistent store (without restoring into RAM).
    ///
    /// # Errors
    /// [`ServeError::UnknownMatrix`] when the id is resident nowhere.
    pub fn segment_bytes(&self, id: u64) -> Result<Vec<u8>> {
        if let Some(entry) = self.matrices.lock().expect("matrix cache poisoned").get(id) {
            return Ok(entry.body.clone());
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
    use crate::protocol::matrix_to_bytes;
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
            ids.push(cache.put_matrix(matrix_to_bytes(&m), &m).unwrap());
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
        let id = source.put_matrix(matrix_to_bytes(&m), &m).unwrap();

        assert_eq!(source.matrix_inventory(), vec![id]);
        assert!(target.matrix_inventory().is_empty());
        let body = source.segment_bytes(id).unwrap();
        assert_eq!(body, matrix_to_bytes(&m));
        assert!(matches!(
            source.segment_bytes(id ^ 1),
            Err(ServeError::UnknownMatrix(_))
        ));
        let parsed = matrix_from_bytes(&body, &params).unwrap();
        assert_eq!(target.put_matrix(body.clone(), &parsed).unwrap(), id);
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

        let id_a = cache.put_matrix(matrix_to_bytes(&a), &a).unwrap();
        assert_eq!(content_hash(&cache.segment_bytes(id_a).unwrap()), id_a);
        // The one-entry LRU drops `a` for `b`; the store still holds
        // `a`'s body, and answers with the same bytes.
        cache.put_matrix(matrix_to_bytes(&b), &b).unwrap();
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
}
