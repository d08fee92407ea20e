//! Crash-safe, file-backed segment store — the persistent tier under the
//! in-RAM session cache.
//!
//! The paper's serving economics rest on paying the NTT matrix encode
//! once and amortizing it over many HMVPs. The [`crate::cache`] LRU makes
//! that true within one process lifetime; this module keeps a matrix
//! *across* lifetimes: each matrix's upload body — the exact bytes its
//! content id hashes — spills to a segment file, and a restarted server
//! reads the body back and encodes it once instead of asking for a
//! re-upload (see the warm-restart integration test, which pins one
//! `matrix_encode` per restore and zero re-sent chunks).
//!
//! ## Segment format
//!
//! One segment per content id, named `seg-<id:016x>.chs`:
//!
//! ```text
//! offset  size  field
//!      0     4  magic "CHS2"
//!      4     8  content id (u64 LE) — must match the filename
//!     12     8  payload length (u64 LE)
//!     20     4  CRC-32 of the payload
//!     24     4  CRC-32 of bytes [0, 24) — the header guard
//!     28     …  payload (the matrix upload body, `protocol::matrix_to_bytes`)
//! ```
//!
//! A `CHS1` segment (the NTT-form encoding an older build spilled) fails
//! the magic check and is quarantined at [`SegmentStore::open`] like any
//! corrupt one.
//!
//! ## Crash-safety protocol
//!
//! Writes are *atomic-or-absent*: the segment is written to a `.tmp`
//! sibling, fsynced, then atomically renamed into place, and the
//! directory is fsynced so the rename itself is durable. A crash at any
//! point leaves either no segment or a complete one — never a partially
//! visible segment under the final name.
//!
//! A cached matrix's body spills *behind* the upload's reply
//! ([`SegmentStore::spill`]): the id is reserved in the index, the body
//! (the RAM entry's own allocation, shared) goes on a queue of at most
//! [`MAX_QUEUED_SPILLS`] bodies, and one writer thread runs the protocol
//! above for each in turn. A full queue blocks the caller — that is the
//! backpressure. Until its write lands, a queued body is served from
//! memory: [`SegmentStore::get`], [`SegmentStore::contains`] and
//! [`SegmentStore::ids`] see it as they see a segment on disk.
//! [`SegmentStore::close`] (the server's shutdown) and dropping the store
//! drain the queue and join the writer. A crash loses only the spills
//! that had not yet landed; ids are content addresses, so a lost one
//! reads as an unknown matrix and the client's re-upload is idempotent.
//!
//! Every write — queued or [`SegmentStore::put`] on the caller's thread —
//! first reserves its id in the index, so two writers of one id write
//! the body once and count its bytes once.
//!
//! Recovery ([`SegmentStore::open`]) re-establishes the invariant for
//! whatever a crash (or an injected [`Fault::TornSnapshot`]) left behind:
//! stale `.tmp` files are deleted, a segment whose file is longer than
//! its header declares has the excess tail truncated away, and a segment
//! that is torn (shorter than declared), mis-named, or header-corrupt is
//! *quarantined* — renamed to `.corrupt` so the bytes survive for
//! forensics while the store stops serving them. Payload CRCs are
//! verified on every read; a payload mismatch quarantines the same way.
//! Both paths count [`StoreStats::quarantined`].

use crate::faults::{Fault, FaultInjector};
use crate::stats::PhaseHistograms;
use crate::{Result, ServeError};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Magic bytes opening every segment header.
pub const SEGMENT_MAGIC: [u8; 4] = *b"CHS2";

/// Fixed segment header size (see the module docs for the layout).
pub const SEGMENT_HEADER_BYTES: usize = 28;

/// Filename extension of a live segment.
const SEGMENT_EXT: &str = "chs";

/// Bodies that may wait on the spill queue (the writer thread holds one
/// more while it writes). A spill past this blocks its caller.
pub const MAX_QUEUED_SPILLS: usize = 4;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB8_8320`) lookup
/// tables for slicing-by-8, built at compile time. `CRC32_TABLES[0]` is
/// the bytewise table; `CRC32_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight table reads advance the CRC over
/// eight bytes at once.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes` — the store's segment guard. Slicing-by-8:
/// each 8-byte word costs eight independent table reads instead of a
/// chain of eight dependent ones.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = u32::MAX;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = u32::from_le_bytes(word[..4].try_into().expect("slice length")) ^ crc;
        let hi = u32::from_le_bytes(word[4..].try_into().expect("slice length"));
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Point-in-time store shape, for reporting and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Live segments in the index, queued writes included.
    pub segments: usize,
    /// Total payload bytes across live segments, queued writes included.
    pub bytes: u64,
    /// Segments recovered into the index by the last [`SegmentStore::open`].
    pub recovered: u64,
    /// Segments quarantined (torn, mis-named, or CRC-corrupt) over this
    /// handle's lifetime, recovery included.
    pub quarantined: u64,
    /// Successful CRC-verified payload reads over this handle's lifetime.
    pub hits: u64,
    /// Reads that found no live (or no sound) segment.
    pub misses: u64,
    /// Queued writes that failed, or were refused after
    /// [`SegmentStore::close`], over this handle's lifetime.
    pub spill_errors: u64,
}

/// In-memory index entry for one live segment.
struct SegmentEntry {
    payload_len: u64,
    /// Monotone recency tick — the byte-cap eviction order.
    tick: u64,
    /// The body while its write has not landed; reads are served from it.
    pending: Option<Arc<Vec<u8>>>,
    /// The tick that reserved this entry: a write lands only into the
    /// reservation it was made for.
    reservation: u64,
}

struct StoreIndex {
    entries: HashMap<u64, SegmentEntry>,
    total_bytes: u64,
    tick: u64,
}

/// The index, the directory and the counters: what every handle and the
/// writer thread share. It holds no sender and no thread handle, so the
/// writer keeping it alive keeps nothing else alive.
struct StoreCore {
    dir: PathBuf,
    cap_bytes: u64,
    index: Mutex<StoreIndex>,
    /// Signalled whenever a write lands or fails.
    landed: Condvar,
    quarantined: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    spill_errors: AtomicU64,
    /// Held by a test to keep the writer from starting a write.
    #[cfg(test)]
    hold: Mutex<()>,
}

/// One body on the spill queue.
struct Spill {
    id: u64,
    reservation: u64,
    body: Arc<Vec<u8>>,
    /// The caller drew [`Fault::TornSnapshot`] for this write.
    torn: bool,
}

/// The writer thread's lifecycle: started by the first spill, ended by
/// [`SegmentStore::close`].
enum Writer {
    Idle,
    Running {
        queue: SyncSender<Spill>,
        thread: JoinHandle<()>,
    },
    Closed,
}

/// The file-backed, content-addressed segment store.
///
/// All methods take `&self`; the index lives behind a mutex, while file
/// I/O for distinct segments proceeds without holding it.
pub struct SegmentStore {
    core: Arc<StoreCore>,
    recovered: u64,
    faults: Option<Arc<FaultInjector>>,
    phases: Option<Arc<PhaseHistograms>>,
    writer: Mutex<Writer>,
}

impl SegmentStore {
    /// Opens (creating if absent) the store at `dir` and runs recovery:
    /// stale `.tmp` files are deleted, over-long segments have their
    /// excess tail truncated, and torn or header-corrupt segments are
    /// quarantined. `cap_bytes` bounds total live payload bytes
    /// (`0` = unbounded); inserting past the cap evicts the least
    /// recently used segments.
    ///
    /// # Errors
    /// I/O failures creating or scanning the directory.
    pub fn open(dir: impl Into<PathBuf>, cap_bytes: u64) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut entries = HashMap::new();
        let mut total_bytes = 0u64;
        let mut tick = 0u64;
        let mut recovered = 0u64;
        let quarantined = AtomicU64::new(0);
        for item in fs::read_dir(&dir)? {
            let item = item?;
            let path = item.path();
            if !path.is_file() {
                continue;
            }
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(".tmp") {
                // A crash between write and rename: the segment was never
                // visible, so the leftover is garbage, not data.
                let _ = fs::remove_file(&path);
                continue;
            }
            if path.extension().and_then(|e| e.to_str()) != Some(SEGMENT_EXT) {
                continue;
            }
            match recover_segment(&path) {
                Ok((id, payload_len)) => {
                    tick += 1;
                    total_bytes += payload_len;
                    entries.insert(
                        id,
                        SegmentEntry {
                            payload_len,
                            tick,
                            pending: None,
                            reservation: tick,
                        },
                    );
                    recovered += 1;
                }
                Err(_) => {
                    quarantine(&path, &quarantined);
                }
            }
        }
        Ok(Self {
            core: Arc::new(StoreCore {
                dir,
                cap_bytes,
                index: Mutex::new(StoreIndex {
                    entries,
                    total_bytes,
                    tick,
                }),
                landed: Condvar::new(),
                quarantined,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                spill_errors: AtomicU64::new(0),
                #[cfg(test)]
                hold: Mutex::new(()),
            }),
            recovered,
            faults: None,
            phases: None,
            writer: Mutex::new(Writer::Idle),
        })
    }

    /// Attaches the seeded fault injector (arms [`Fault::TornSnapshot`]).
    /// Builder style so plain `open` call sites stay unchanged.
    #[must_use]
    pub fn with_faults(mut self, faults: Option<Arc<FaultInjector>>) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches the histograms each queued write's time is booked in
    /// (the `store_spill` phase). Builder style, like
    /// [`SegmentStore::with_faults`].
    #[must_use]
    pub fn with_phases(mut self, phases: Option<Arc<PhaseHistograms>>) -> Self {
        self.phases = phases;
        self
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.core.dir
    }

    /// Whether `id` is live in the index, queued writes included (no
    /// file I/O).
    #[must_use]
    pub fn contains(&self, id: u64) -> bool {
        self.core.lock().entries.contains_key(&id)
    }

    /// Every live segment id, queued writes included, sorted ascending
    /// (no file I/O) — the node's persistent inventory as the `StoreList`
    /// op reports it.
    #[must_use]
    pub fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.core.lock().entries.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Point-in-time store shape.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let core = &self.core;
        let index = core.lock();
        StoreStats {
            segments: index.entries.len(),
            bytes: index.total_bytes,
            recovered: self.recovered,
            quarantined: core.quarantined.load(Ordering::Relaxed),
            hits: core.hits.load(Ordering::Relaxed),
            misses: core.misses.load(Ordering::Relaxed),
            spill_errors: core.spill_errors.load(Ordering::Relaxed),
        }
    }

    /// Whether the caller's next write draws the injected torn write.
    fn draw_torn(&self) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.should(Fault::TornSnapshot))
    }

    /// Persists `payload` under `id` on the caller's thread with the
    /// write-temp → fsync → atomic-rename protocol, and returns once it
    /// has landed. Idempotent: an id already live or queued is a no-op.
    ///
    /// # Errors
    /// I/O failures; an injected [`Fault::TornSnapshot`] surfaces as an
    /// I/O error after tearing the segment file on disk (the crash the
    /// recovery path must then clean up).
    pub fn put(&self, id: u64, payload: &[u8]) -> Result<()> {
        let body = Arc::new(payload.to_vec());
        let Some(reservation) = self.core.reserve(id, &body) else {
            return Ok(());
        };
        let written = self.core.write(id, reservation, &body, self.draw_torn());
        self.core.land(id, reservation, written.is_ok());
        written
    }

    /// Queues `body` to persist under `id` on the writer thread and
    /// returns without waiting for the disk; the id is served from
    /// `body` until the write lands. Blocks while [`MAX_QUEUED_SPILLS`]
    /// bodies already wait. An id already live or queued is a no-op.
    /// Best-effort: a write that fails — or a spill after
    /// [`SegmentStore::close`] — is counted in
    /// [`StoreStats::spill_errors`] and the id leaves the index.
    pub fn spill(&self, id: u64, body: Arc<Vec<u8>>) {
        let Some(queue) = self.queue() else {
            self.core.spill_errors.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let Some(reservation) = self.core.reserve(id, &body) else {
            return;
        };
        let spill = Spill {
            id,
            reservation,
            body,
            torn: self.draw_torn(),
        };
        if queue.send(spill).is_err() {
            self.core.spill_errors.fetch_add(1, Ordering::Relaxed);
            self.core.land(id, reservation, false);
        }
    }

    /// The spill queue, starting the writer thread on first use; `None`
    /// once the store is closed or when no thread could be started.
    fn queue(&self) -> Option<SyncSender<Spill>> {
        let mut writer = self.writer.lock().expect("store writer poisoned");
        if matches!(*writer, Writer::Idle) {
            let (queue, spills) = sync_channel::<Spill>(MAX_QUEUED_SPILLS);
            let core = Arc::clone(&self.core);
            let phases = self.phases.clone();
            let thread = std::thread::Builder::new()
                .name("cham-store-writer".into())
                .spawn(move || core.run_writer(&spills, phases.as_deref()))
                .ok()?;
            *writer = Writer::Running { queue, thread };
        }
        match &*writer {
            Writer::Running { queue, .. } => Some(queue.clone()),
            Writer::Idle | Writer::Closed => None,
        }
    }

    /// Blocks until every write accepted so far has landed or failed.
    pub fn flush(&self) {
        let mut index = self.core.lock();
        while index.entries.values().any(|e| e.pending.is_some()) {
            index = self.core.landed.wait(index).expect("store index poisoned");
        }
    }

    /// Drains the spill queue and joins the writer thread. Later spills
    /// are refused and counted as errors; reads and [`SegmentStore::put`]
    /// still work. Dropping the store closes it.
    pub fn close(&self) {
        // Called from `drop`, so it must not panic; every writer state is
        // whole whenever the lock is released.
        let writer = std::mem::replace(
            &mut *self.writer.lock().unwrap_or_else(PoisonError::into_inner),
            Writer::Closed,
        );
        if let Writer::Running { queue, thread } = writer {
            drop(queue);
            // The writer panics only on a poisoned index, which has
            // already panicked the thread that poisoned it.
            let _ = thread.join();
        }
    }

    /// Reads and CRC-verifies the payload for `id` — from memory while
    /// its write is queued. A corrupt segment is quarantined (renamed to
    /// `.corrupt`, dropped from the index, counted in
    /// [`StoreStats::quarantined`]) and reads as a miss, so one bad
    /// sector degrades to a re-upload, never a wrong answer.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<Vec<u8>> {
        let core = &self.core;
        let (payload_len, reservation, pending) = {
            let mut index = core.lock();
            index.tick += 1;
            let tick = index.tick;
            match index.entries.get_mut(&id) {
                Some(entry) => {
                    entry.tick = tick;
                    (entry.payload_len, entry.reservation, entry.pending.clone())
                }
                None => {
                    core.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
        };
        if let Some(body) = pending {
            core.hits.fetch_add(1, Ordering::Relaxed);
            return Some(body.as_ref().clone());
        }
        let path = core.segment_path(id);
        match read_segment(&path, id, payload_len) {
            Ok(payload) => {
                core.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            Err(_) => {
                let mut index = core.lock();
                // Quarantine only the segment this read was of: one
                // removed and written again meanwhile is not corrupt.
                if index
                    .entries
                    .get(&id)
                    .is_some_and(|e| e.reservation == reservation)
                {
                    index.drop_entry(id);
                    quarantine(&path, &core.quarantined);
                }
                core.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Removes `id` from the store (index and file); returns whether it
    /// was live. A queued write of `id` deletes its file when it lands.
    pub fn remove(&self, id: u64) -> bool {
        let mut index = self.core.lock();
        let was_live = index.drop_entry(id);
        if was_live {
            let _ = fs::remove_file(self.core.segment_path(id));
        }
        was_live
    }
}

#[cfg(test)]
impl SegmentStore {
    /// Keeps the writer from starting another write until the guard
    /// drops.
    pub(crate) fn hold_writer(&self) -> MutexGuard<'_, ()> {
        self.core.hold.lock().expect("writer hold poisoned")
    }
}

impl Drop for SegmentStore {
    fn drop(&mut self) {
        self.close();
    }
}

impl StoreIndex {
    fn drop_entry(&mut self, id: u64) -> bool {
        match self.entries.remove(&id) {
            Some(entry) => {
                self.total_bytes -= entry.payload_len;
                true
            }
            None => false,
        }
    }
}

impl StoreCore {
    fn lock(&self) -> MutexGuard<'_, StoreIndex> {
        self.index.lock().expect("store index poisoned")
    }

    fn segment_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("seg-{id:016x}.{SEGMENT_EXT}"))
    }

    /// The writer thread: lands each queued body in turn, booking its
    /// write in `store_spill`, until every sender is gone.
    fn run_writer(&self, spills: &Receiver<Spill>, phases: Option<&PhaseHistograms>) {
        for spill in spills {
            #[cfg(test)]
            drop(self.hold.lock().expect("writer hold poisoned"));
            let started = Instant::now();
            let written = self.write(spill.id, spill.reservation, &spill.body, spill.torn);
            if let Some(phases) = phases {
                phases.record_store_spill(
                    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                );
            }
            if written.is_err() {
                self.spill_errors.fetch_add(1, Ordering::Relaxed);
            }
            self.land(spill.id, spill.reservation, written.is_ok());
        }
    }

    /// Reserves `id` for a write of `body`, counting its bytes; returns
    /// the reservation, or `None` when `id` is already live or queued.
    fn reserve(&self, id: u64, body: &Arc<Vec<u8>>) -> Option<u64> {
        let mut index = self.lock();
        if index.entries.contains_key(&id) {
            return None;
        }
        index.tick += 1;
        let tick = index.tick;
        index.total_bytes += body.len() as u64;
        index.entries.insert(
            id,
            SegmentEntry {
                payload_len: body.len() as u64,
                tick,
                pending: Some(Arc::clone(body)),
                reservation: tick,
            },
        );
        Some(tick)
    }

    /// Writes segment `id` with the write-temp → fsync → atomic-rename
    /// protocol; the temp name carries the reservation, so no two writes
    /// share one. `torn` writes the injected torn segment instead.
    fn write(&self, id: u64, reservation: u64, payload: &[u8], torn: bool) -> Result<()> {
        let mut header = [0u8; SEGMENT_HEADER_BYTES];
        header[..4].copy_from_slice(&SEGMENT_MAGIC);
        header[4..12].copy_from_slice(&id.to_le_bytes());
        header[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        header[20..24].copy_from_slice(&crc32(payload).to_le_bytes());
        let header_crc = crc32(&header[..24]);
        header[24..].copy_from_slice(&header_crc.to_le_bytes());

        let path = self.segment_path(id);
        if torn {
            // Simulate dying mid-snapshot with no rename protection:
            // the *final* file holds a header promising more payload
            // than follows. Recovery must quarantine it.
            let mut file = File::create(&path)?;
            file.write_all(&header)?;
            file.write_all(&payload[..payload.len() / 2])?;
            let _ = file.sync_all();
            return Err(ServeError::Io(std::io::Error::other(
                "torn snapshot fault injected",
            )));
        }
        let tmp = self
            .dir
            .join(format!("seg-{id:016x}.{SEGMENT_EXT}.{reservation}.tmp"));
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&header)?;
            file.write_all(payload)?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        // Make the rename itself durable. Some platforms refuse to open
        // a directory for sync; treat that as best-effort, not fatal.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Ends reservation `reservation` of `id`. A landed write stops
    /// being served from memory and evicts past the byte cap; a failed
    /// one leaves the index. A write whose id was removed meanwhile
    /// deletes its file. Files go under the index lock, so no later
    /// write of the same id can be deleted in their place.
    fn land(&self, id: u64, reservation: u64, written: bool) {
        let mut index = self.lock();
        match index.entries.get_mut(&id) {
            Some(entry) if entry.reservation == reservation => {
                if written {
                    entry.pending = None;
                    self.evict_past_cap(&mut index, id);
                } else {
                    index.drop_entry(id);
                }
            }
            None if written => {
                let _ = fs::remove_file(self.segment_path(id));
            }
            _ => {}
        }
        drop(index);
        self.landed.notify_all();
    }

    /// Evicts least recently used landed segments other than `keep`
    /// until the live bytes fit the cap.
    fn evict_past_cap(&self, index: &mut StoreIndex, keep: u64) {
        if self.cap_bytes == 0 {
            return;
        }
        while index.total_bytes > self.cap_bytes {
            let Some(&lru) = index
                .entries
                .iter()
                .filter(|(&k, e)| k != keep && e.pending.is_none())
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k)
            else {
                break;
            };
            index.drop_entry(lru);
            let _ = fs::remove_file(self.segment_path(lru));
        }
    }
}

/// Validates one segment during recovery. Returns `(id, payload_len)`
/// when the segment is sound (truncating an over-long tail in place);
/// errs when it must be quarantined.
fn recover_segment(path: &Path) -> Result<(u64, u64)> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    let file_len = file.metadata()?.len();
    let mut header = [0u8; SEGMENT_HEADER_BYTES];
    if file_len < SEGMENT_HEADER_BYTES as u64 {
        return Err(ServeError::BadFrame("segment shorter than its header"));
    }
    file.read_exact(&mut header)?;
    let (id, payload_len) = check_header(&header)?;
    let expected: [u8; 8] = header[4..12].try_into().expect("slice length");
    let name_id = path
        .file_stem()
        .and_then(|n| n.to_str())
        .and_then(|n| n.strip_prefix("seg-"))
        .and_then(|n| u64::from_str_radix(n, 16).ok());
    if name_id != Some(u64::from_le_bytes(expected)) {
        return Err(ServeError::BadFrame("segment filename disagrees with id"));
    }
    let expected_len = SEGMENT_HEADER_BYTES as u64 + payload_len;
    if file_len < expected_len {
        // Torn tail: the header promises payload that never hit disk.
        return Err(ServeError::BadFrame("torn segment tail"));
    }
    if file_len > expected_len {
        // Excess tail (e.g. a crash mid-append by some future writer):
        // everything past the declared length is garbage by definition.
        file.set_len(expected_len)?;
    }
    Ok((id, payload_len))
}

/// Parses and CRC-checks a segment header. Returns `(id, payload_len)`.
fn check_header(header: &[u8; SEGMENT_HEADER_BYTES]) -> Result<(u64, u64)> {
    if header[..4] != SEGMENT_MAGIC {
        return Err(ServeError::BadFrame("segment magic mismatch"));
    }
    let stored_crc = u32::from_le_bytes(header[24..28].try_into().expect("slice length"));
    if crc32(&header[..24]) != stored_crc {
        return Err(ServeError::BadFrame("segment header CRC mismatch"));
    }
    let id = u64::from_le_bytes(header[4..12].try_into().expect("slice length"));
    let payload_len = u64::from_le_bytes(header[12..20].try_into().expect("slice length"));
    Ok((id, payload_len))
}

/// Reads one segment end to end, verifying header and payload CRCs.
/// The header must name `id` and declare the `payload_len` the index
/// holds for it, and the file must be long enough to carry that payload,
/// all before a payload byte is allocated: a header whose CRC passes
/// still cannot make a read reserve more than the index admitted.
fn read_segment(path: &Path, id: u64, payload_len: u64) -> Result<Vec<u8>> {
    let mut file = File::open(path)?;
    let mut header = [0u8; SEGMENT_HEADER_BYTES];
    file.read_exact(&mut header)?;
    if check_header(&header)? != (id, payload_len) {
        return Err(ServeError::BadFrame(
            "segment header disagrees with the index",
        ));
    }
    if file.metadata()?.len() < SEGMENT_HEADER_BYTES as u64 + payload_len {
        return Err(ServeError::BadFrame("torn segment tail"));
    }
    let payload_len = usize::try_from(payload_len)
        .map_err(|_| ServeError::BadFrame("segment payload length overflows"))?;
    let mut payload = vec![0u8; payload_len];
    file.read_exact(&mut payload)?;
    let stored_crc = u32::from_le_bytes(header[20..24].try_into().expect("slice length"));
    if crc32(&payload) != stored_crc {
        return Err(ServeError::BadFrame("segment payload CRC mismatch"));
    }
    Ok(payload)
}

/// Renames a bad segment to `.corrupt` (best-effort delete as fallback)
/// and counts it.
fn quarantine(path: &Path, counter: &AtomicU64) {
    let mut target = path.as_os_str().to_owned();
    target.push(".corrupt");
    if fs::rename(path, PathBuf::from(&target)).is_err() {
        let _ = fs::remove_file(path);
    }
    counter.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;
    use crate::stats::PHASE_STORE_SPILL;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cham-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The bytewise CRC-32 loop: the oracle the sliced one must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_loop() {
        let bytes: Vec<u8> = (0u32..512 * 1024 + 16)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        // Every length around the 8-byte word, from every alignment.
        for start in 0..8 {
            for len in 0..=70 {
                let s = &bytes[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start={start} len={len}");
            }
        }
        for start in [0, 3] {
            let s = &bytes[start..start + 512 * 1024];
            assert_eq!(crc32(s), crc32_bytewise(s), "512 KiB from {start}");
        }
    }

    #[test]
    fn crc32_vectors() {
        // Canonical IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_ne!(crc32(b"ab"), crc32(b"ba"));
    }

    #[test]
    fn put_get_survives_reopen() {
        let dir = temp_dir("roundtrip");
        let store = SegmentStore::open(&dir, 0).unwrap();
        let payload: Vec<u8> = (0u32..4096).flat_map(|i| i.to_le_bytes()).collect();
        store.put(7, &payload).unwrap();
        store.put(7, &payload).unwrap(); // idempotent
        assert_eq!(store.get(7).as_deref(), Some(payload.as_slice()));
        assert!(store.get(8).is_none());
        assert_eq!(store.stats().segments, 1);
        store.put(3, b"second segment").unwrap();
        assert_eq!(store.ids(), vec![3, 7]);
        assert!(store.remove(3));
        drop(store);

        let reopened = SegmentStore::open(&dir, 0).unwrap();
        assert_eq!(reopened.stats().recovered, 1);
        assert_eq!(reopened.get(7).as_deref(), Some(payload.as_slice()));
        assert!(reopened.remove(7));
        assert!(!reopened.remove(7));
        assert!(reopened.get(7).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_quarantines_torn_and_corrupt_segments() {
        let dir = temp_dir("recovery");
        let store = SegmentStore::open(&dir, 0).unwrap();
        store.put(1, b"intact segment one").unwrap();
        store
            .put(2, b"this segment will be torn mid-write")
            .unwrap();
        store
            .put(3, b"this one gets a flipped payload byte")
            .unwrap();
        store.put(4, b"this one grows an excess tail").unwrap();
        let seg = |id: u64| dir.join(format!("seg-{id:016x}.chs"));
        drop(store);

        // Tear 2: drop the last 10 bytes the header still promises.
        let torn = fs::read(seg(2)).unwrap();
        fs::write(seg(2), &torn[..torn.len() - 10]).unwrap();
        // Corrupt 3's payload (header stays valid → caught on read).
        let mut bad = fs::read(seg(3)).unwrap();
        bad[SEGMENT_HEADER_BYTES] ^= 0x40;
        fs::write(seg(3), &bad).unwrap();
        // Grow 4 past its declared length.
        let mut long = fs::read(seg(4)).unwrap();
        let good_len = long.len();
        long.extend_from_slice(b"garbage tail");
        fs::write(seg(4), &long).unwrap();
        // And leave a stale tmp from a phantom crashed writer.
        fs::write(dir.join("seg-00000000000000ff.chs.tmp"), b"half").unwrap();

        let store = SegmentStore::open(&dir, 0).unwrap();
        // 1, 3 (not yet read), 4 recovered; 2 quarantined at open.
        assert_eq!(store.stats().recovered, 3);
        assert_eq!(store.stats().quarantined, 1);
        assert!(store.get(2).is_none());
        assert!(seg(2).with_extension("chs.corrupt").exists());
        // The corrupt payload is caught and quarantined on first read.
        assert!(store.contains(3));
        assert!(store.get(3).is_none());
        assert!(!store.contains(3));
        assert_eq!(store.stats().quarantined, 2);
        // The excess tail was truncated; the segment reads clean.
        assert_eq!(fs::metadata(seg(4)).unwrap().len(), good_len as u64);
        assert!(store.get(4).is_some());
        assert!(store.get(1).is_some());
        assert!(!dir.join("seg-00000000000000ff.chs.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_declaring_a_huge_payload_is_quarantined_before_allocating() {
        // After open, the segment is swapped for one whose header CRC is
        // sound but declares 2^40 payload bytes. The read must check the
        // length against the index before it allocates: a miss and one
        // quarantine, not an abort.
        let dir = temp_dir("huge");
        let store = SegmentStore::open(&dir, 0).unwrap();
        store.put(6, b"a small honest payload").unwrap();
        drop(store);
        let store = SegmentStore::open(&dir, 0).unwrap();
        let seg = dir.join(format!("seg-{:016x}.chs", 6));
        let mut bytes = fs::read(&seg).unwrap();
        bytes[12..20].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let header_crc = crc32(&bytes[..24]);
        bytes[24..28].copy_from_slice(&header_crc.to_le_bytes());
        fs::write(&seg, &bytes).unwrap();

        assert!(store.get(6).is_none());
        assert_eq!(store.stats().quarantined, 1);
        assert!(!store.contains(6));
        assert!(seg.with_extension("chs.corrupt").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn previous_format_segment_is_quarantined_at_open() {
        // A segment written under the `CHS1` magic is sound in every other
        // respect (header CRC, name, length), yet it carries a payload this
        // build does not read: open() quarantines it.
        let dir = temp_dir("chs1");
        let store = SegmentStore::open(&dir, 0).unwrap();
        store.put(5, b"an encoding an older build spilled").unwrap();
        drop(store);
        let seg = dir.join(format!("seg-{:016x}.chs", 5));
        let mut bytes = fs::read(&seg).unwrap();
        bytes[..4].copy_from_slice(b"CHS1");
        let header_crc = crc32(&bytes[..24]);
        bytes[24..28].copy_from_slice(&header_crc.to_le_bytes());
        fs::write(&seg, &bytes).unwrap();

        let store = SegmentStore::open(&dir, 0).unwrap();
        assert_eq!(store.stats().recovered, 0);
        assert_eq!(store.stats().quarantined, 1);
        assert!(!store.contains(5));
        assert!(seg.with_extension("chs.corrupt").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_cap_evicts_least_recently_used() {
        let dir = temp_dir("cap");
        let store = SegmentStore::open(&dir, 64).unwrap();
        store.put(1, &[1u8; 30]).unwrap();
        store.put(2, &[2u8; 30]).unwrap();
        // Touch 1 so 2 is the LRU when 3 overflows the cap.
        assert!(store.get(1).is_some());
        store.put(3, &[3u8; 30]).unwrap();
        assert!(store.contains(1));
        assert!(!store.contains(2));
        assert!(store.contains(3));
        assert!(store.stats().bytes <= 64);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_snapshot_fault_tears_the_write_and_recovery_cleans_up() {
        let dir = temp_dir("fault");
        let faults = Arc::new(FaultInjector::new(
            FaultConfig::parse("torn_snapshot=1.0").unwrap(),
        ));
        let store = SegmentStore::open(&dir, 0)
            .unwrap()
            .with_faults(Some(Arc::clone(&faults)));
        let err = store.put(9, &[9u8; 100]).unwrap_err();
        assert!(matches!(err, ServeError::Io(_)));
        assert_eq!(faults.injected(Fault::TornSnapshot), 1);
        assert!(!store.contains(9));
        // The torn file is on disk under the final name — exactly what a
        // crash without rename protection leaves.
        let seg = dir.join(format!("seg-{:016x}.chs", 9));
        // Torn halfway through the payload.
        let len = fs::metadata(&seg).unwrap().len();
        assert_eq!(len, SEGMENT_HEADER_BYTES as u64 + 50);

        let reopened = SegmentStore::open(&dir, 0).unwrap();
        assert_eq!(reopened.stats().recovered, 0);
        assert_eq!(reopened.stats().quarantined, 1);
        assert!(reopened.get(9).is_none());
        // A clean retry of the same id succeeds against the recovered dir.
        reopened.put(9, &[9u8; 100]).unwrap();
        assert_eq!(reopened.get(9).as_deref(), Some(&[9u8; 100][..]));
        let _ = fs::remove_dir_all(&dir);
    }

    /// The satellite race: two threads put one id at once. The id is
    /// reserved before the write, so the body is written once, counted
    /// once, and neither caller errs.
    #[test]
    fn concurrent_puts_of_one_id_write_it_once() {
        let dir = temp_dir("race");
        let payload: Vec<u8> = (0u32..512 * 1024).map(|i| (i * 7) as u8).collect();
        let store = SegmentStore::open(&dir, 0).unwrap();
        for id in 1..=8u64 {
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                let racers: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            store.put(id, &payload)
                        })
                    })
                    .collect();
                for racer in racers {
                    racer.join().unwrap().unwrap();
                }
            });
            let stats = store.stats();
            assert_eq!(stats.segments, id as usize);
            assert_eq!(stats.bytes, id * payload.len() as u64);
            assert_eq!(store.get(id).as_deref(), Some(payload.as_slice()));
        }
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 8, "one file per id, no temp left: {names:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A queued body is served from memory until its write lands; a
    /// flush waits for the landing, and a drop drains what is queued.
    #[test]
    fn queued_spills_serve_from_memory_and_land_on_flush_or_drop() {
        let dir = temp_dir("queued");
        let store = SegmentStore::open(&dir, 0).unwrap();
        let seg = |id: u64| dir.join(format!("seg-{id:016x}.chs"));
        let body = |id: u64| Arc::new(vec![id as u8; 1000 + id as usize]);
        {
            let _held = store.hold_writer();
            for id in 1..=3 {
                store.spill(id, body(id));
            }
            // Queued again while pending: a no-op, counted once.
            store.spill(2, body(2));
            assert_eq!(store.ids(), vec![1, 2, 3]);
            assert!(store.contains(2));
            assert_eq!(store.get(2).as_deref(), Some(&body(2)[..]));
            assert_eq!(store.stats().bytes, 1001 + 1002 + 1003);
            assert!(!seg(3).exists(), "the held writer wrote nothing");
        }
        store.flush();
        assert!((1..=3).all(|id| seg(id).exists()));
        assert_eq!(store.get(3).as_deref(), Some(&body(3)[..]));

        // Spills queued right before the drop still land.
        for id in 4..=9 {
            store.spill(id, body(id));
        }
        let core = Arc::downgrade(&store.core);
        drop(store);
        assert!(
            core.upgrade().is_none(),
            "the writer thread outlived its store"
        );
        let reopened = SegmentStore::open(&dir, 0).unwrap();
        assert_eq!(reopened.stats().recovered, 9);
        assert_eq!(reopened.stats().quarantined, 0);
        assert_eq!(reopened.get(9).as_deref(), Some(&body(9)[..]));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A torn write on the writer thread is counted where no caller can
    /// see it, and the id leaves the index; a spill after `close` is
    /// refused and counted the same way.
    #[test]
    fn writer_errors_and_closed_spills_are_counted() {
        let dir = temp_dir("writer-fault");
        let faults = Arc::new(FaultInjector::new(
            FaultConfig::parse("torn_snapshot=1.0").unwrap(),
        ));
        let phases = Arc::new(PhaseHistograms::new());
        let store = SegmentStore::open(&dir, 0)
            .unwrap()
            .with_faults(Some(faults))
            .with_phases(Some(Arc::clone(&phases)));
        store.spill(9, vec![9u8; 100].into());
        store.flush();
        let stats = store.stats();
        assert_eq!((stats.spill_errors, stats.segments, stats.bytes), (1, 0, 0));
        assert!(!store.contains(9));
        let spills = phases.snapshot();
        assert_eq!(spills.len(), 1);
        assert_eq!(
            (spills[0].name.as_str(), spills[0].count),
            (PHASE_STORE_SPILL, 1)
        );

        store.close();
        store.spill(10, vec![10u8; 100].into());
        assert_eq!(store.stats().spill_errors, 2);
        assert!(!store.contains(10));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A segment removed while its write is queued does not come back
    /// when the write lands.
    #[test]
    fn removing_a_queued_spill_deletes_its_file_when_it_lands() {
        let dir = temp_dir("remove-queued");
        let store = SegmentStore::open(&dir, 0).unwrap();
        {
            let _held = store.hold_writer();
            store.spill(5, vec![5u8; 64].into());
            assert!(store.remove(5));
            assert!(store.get(5).is_none());
        }
        store.close();
        assert!(!store.contains(5));
        assert_eq!(store.stats().bytes, 0);
        assert!(!dir.join(format!("seg-{:016x}.chs", 5)).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
