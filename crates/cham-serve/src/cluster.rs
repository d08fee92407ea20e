//! [`ClusterClient`] — the one resilient client: bounded retry with
//! deterministic jittered backoff, reconnect-and-re-handshake on
//! transport faults, replay of evicted key/matrix material, replica
//! failover, content-id routing, row-band fan-out and topology refresh,
//! over a [`Topology`] of any size. A single server is a one-slot
//! topology ([`ClusterClient::connect`]); a replicated fleet is the same
//! type over more slots.
//!
//! **State is per node, not per replica set.** The client holds one
//! table indexed by ring slot — at most one [`ServeClient`] connection
//! and one quarantine deadline per node — plus *one* replay store of
//! everything it uploaded, one counter set and one seeded jitter stream.
//! Whatever replica set an operation addresses, it reads and writes that
//! one table, so a failure learned by one request is known to the next.
//! That table is the fleet's one failure detector: a node is condemned
//! by the first attempt that fails on it, not by a separate probe loop.
//!
//! **Routing** is by content id. Keys broadcast to every node (any shard
//! may be asked to rotate with them); a matrix goes to the `R` replicas
//! the ring assigns its id; an HMVP follows its matrix id. Large
//! matrices are split into row *bands* — each band its own
//! content-addressed object on its own replica set — and an HMVP against
//! a sharded matrix fans one sub-request per band out across the fleet,
//! reassembling the packed outputs in row order. The fan-out runs on the
//! calling thread in waves — write one band to every serving node, then
//! read those replies — so the nodes compute in parallel while the client
//! holds no thread of its own. Bands are aligned to
//! multiples of the ring dimension `N`, so each band's packed
//! ciphertexts are bit-identical to the corresponding slice of a
//! single-node result: sharding changes *where* rows are computed,
//! never *what* is computed.
//!
//! **Failure handling** splits by *what the error proves*
//! (`ClusterClient::recover`):
//!
//! * **Transport faults** ([`ServeError::Io`], client-side
//!   [`ServeError::BadFrame`], remote `BadFrame`, a failed dial) prove
//!   the stream can no longer be trusted — that node's connection is
//!   dropped, the node is quarantined for a cooldown, and the next
//!   attempt goes to the operation's next replica (the same node, after
//!   its cooldown, when the operation has no other).
//! * **Backpressure** ([`ServeError::Busy`]), server-side failures
//!   ([`ServeError::Internal`], e.g. a caught worker panic) and a failed
//!   chunk check prove nothing about the request — it is retried in
//!   place after backoff.
//! * **Evictions** ([`ServeError::UnknownKey`], [`ServeError::UnknownMatrix`])
//!   are recovered by replaying the material this client previously
//!   uploaded onto the node that answered. Ids are content hashes, so
//!   the replay is idempotent and lands on exactly the id the failed
//!   request referenced — which is also why failover to a replica that
//!   never saw our uploads works: the eviction path replays them there.
//! * **[`ServeError::Shutdown`]** is terminal when the operation has one
//!   replica (the server asked us to go away), a failover signal when it
//!   has more.
//! * **[`ServeError::WrongShard`]** proves the *address map* is stale:
//!   it surfaces through the retry loop untouched, and
//!   `ClusterClient::rerouted` answers it with one
//!   [`ClusterClient::refresh_topology`] and one replay of the
//!   operation. Blind retry would hammer the same wrong shard forever.
//! * **Semantic errors** ([`ServeError::Incompatible`], [`ServeError::He`],
//!   [`ServeError::TimedOut`]) would fail identically on retry — they
//!   surface immediately.
//!
//! Backoff doubles from [`RetryPolicy::base_backoff`] up to
//! [`RetryPolicy::max_backoff`], scaled by a jitter factor in
//! `[0.5, 1.0]` drawn from a seeded SplitMix64 stream — deterministic
//! for a fixed [`RetryPolicy::jitter_seed`], so chaos-test schedules are
//! replayable. [`RetryPolicy::total_deadline`] is one budget per
//! operation, fixed when the operation starts — for an HMVP, when its
//! fan-out starts, so the first attempts and every band's recovery draw
//! on the same budget. Once it is spent the last error surfaces rather
//! than another sleep starting.

use crate::client::{ChunkedBody, ClientConfig, ServeClient};
use crate::faults::SplitMix64;
use crate::protocol::{self, ErrorCode};
use crate::shard::{HashRing, Topology};
use crate::{Result, ServeError};
use cham_he::ciphertext::RlweCiphertext;
use cham_he::hmvp::{HmvpResult, Matrix};
use cham_he::keys::GaloisKeys;
use cham_he::params::ChamParams;
use cham_he::wire;
use cham_telemetry::span::TraceId;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retry shape: attempt bound, backoff range, jitter seed, total budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per operation (the first try counts as one).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each subsequent retry.
    pub base_backoff: Duration,
    /// Cap on a single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
    /// Bound on the total wall-clock an operation may spend across all
    /// attempts and sleeps — for an HMVP, across all its bands; `None`
    /// bounds only by `max_attempts`.
    pub total_deadline: Option<Duration>,
    /// How long a failed node sits out of rotation before it is
    /// dialed again — long enough that a dead replica is not hot-looped
    /// on every reconnect, short enough that a restarted one rejoins
    /// promptly. Scaled by jitter in `[1.0, 1.5]` at quarantine time so
    /// a fleet of clients does not re-dial a recovering node in
    /// lockstep.
    pub quarantine: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(2),
            jitter_seed: 0,
            total_deadline: None,
            quarantine: Duration::from_millis(500),
        }
    }
}

/// The backoff before retry number `attempt` (0-based): exponential
/// growth capped at `max_backoff`, scaled by jitter in `[0.5, 1.0]`.
fn backoff_for(policy: &RetryPolicy, rng: &mut SplitMix64, attempt: u32) -> Duration {
    let doubled = policy
        .base_backoff
        .saturating_mul(2u32.saturating_pow(attempt.min(20)));
    let capped = doubled.min(policy.max_backoff);
    capped.mul_f64(0.5 + 0.5 * rng.next_f64())
}

/// What an eviction of `id` replays from `store`. Normally the evicted
/// id is one we uploaded; if it is not (a corrupted frame can reference
/// a garbage id), everything we have, so the *correct* retried request
/// finds its entry.
fn replay_set<V>(store: &HashMap<u64, V>, id: u64) -> Vec<&V> {
    store
        .get(&id)
        .map_or_else(|| store.values().collect(), |entry| vec![entry])
}

/// One row band of a sharded matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Band {
    /// Content id of this band's sub-matrix.
    pub id: u64,
    /// First full-matrix row this band covers.
    pub start_row: usize,
    /// Rows in this band (a multiple of `N` except possibly the last).
    pub rows: usize,
    /// Replica slots holding the band at upload time.
    pub replicas: Vec<u16>,
}

/// A matrix split into row bands spread across the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedMatrix {
    /// Full-matrix rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Bands in row order (contiguous, covering every row once).
    pub bands: Vec<Band>,
}

/// Counters describing what a [`ClusterClient`] had to do so far.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Retry attempts made (errors that led to another try).
    pub retries: u64,
    /// Connections re-established (beyond each node's first).
    pub reconnects: u64,
    /// Key/matrix re-uploads after an eviction.
    pub reuploads: u64,
    /// Errors absorbed by operations that ultimately succeeded — the
    /// client-side measure of faults *recovered from*, as opposed to the
    /// server's count of faults injected.
    pub faults_recovered: u64,
    /// Replica switches: times a failure moved an operation off the
    /// node it was on toward a different replica.
    pub failovers: u64,
    /// Matrix chunks actually sent over the wire by uploads.
    pub chunks_sent: u64,
    /// Matrix chunks an upload skipped because the server's
    /// received-bitmap already held them — the measure of how much a
    /// resumable re-upload saved versus whole-matrix replay.
    pub chunks_skipped: u64,
    /// Topology refreshes triggered by `WrongShard` answers (or called
    /// explicitly).
    pub refreshes: u64,
    /// Successful HMVP sub-requests attributed to the shard slot that
    /// answered — the balance a bench asserts on.
    pub per_node_requests: Vec<u64>,
}

/// What the client knows about one ring slot's node.
#[derive(Default)]
struct Node {
    conn: Option<ServeClient>,
    quarantined_until: Option<Instant>,
    /// Successful dials so far; every one past the first is a reconnect.
    connects: u64,
}

/// A client that survives transient failures, for a single server or a
/// sharded, replicated fleet.
///
/// Stores every key set and matrix body it uploads — once — so it can replay
/// them after a server-side eviction, or onto a failover replica that
/// never saw them. The memory cost mirrors what the caller already holds
/// (the material had to exist to be uploaded); callers that cannot
/// afford it should use [`ServeClient`] and recover manually.
pub struct ClusterClient {
    topology: Topology,
    ring: HashRing,
    params: Arc<ChamParams>,
    config: ClientConfig,
    policy: RetryPolicy,
    /// Indexed by ring slot.
    nodes: Vec<Node>,
    keys: HashMap<u64, Vec<u8>>,
    matrices: HashMap<u64, ChunkedBody>,
    rng: SplitMix64,
    stats: ClientStats,
}

impl ClusterClient {
    /// Builds a client over `topology` with default timeouts and retry
    /// policy. No connection is made until the first operation.
    #[must_use]
    pub fn new(topology: Topology, params: Arc<ChamParams>) -> Self {
        Self::with_config(
            topology,
            params,
            ClientConfig::default(),
            RetryPolicy::default(),
        )
    }

    /// Builds a client with explicit timeouts and retry policy. No
    /// connection is made until the first operation.
    #[must_use]
    pub fn with_config(
        topology: Topology,
        params: Arc<ChamParams>,
        config: ClientConfig,
        policy: RetryPolicy,
    ) -> Self {
        let ring = topology.ring();
        let fleet = topology.len();
        Self {
            topology,
            ring,
            params,
            config,
            policy,
            nodes: (0..fleet).map(|_| Node::default()).collect(),
            keys: HashMap::new(),
            matrices: HashMap::new(),
            rng: SplitMix64::new(policy.jitter_seed),
            stats: ClientStats {
                per_node_requests: vec![0; fleet],
                ..ClientStats::default()
            },
        }
    }

    /// A client for one standalone server — a one-slot topology — with
    /// default timeouts and policy, connected eagerly (retrying connect
    /// failures under that policy).
    ///
    /// # Errors
    /// The last error once the policy's attempts/budget are exhausted.
    pub fn connect(addr: impl Into<String>, params: Arc<ChamParams>) -> Result<Self> {
        Self::connect_with(
            addr,
            params,
            ClientConfig::default(),
            RetryPolicy::default(),
        )
    }

    /// [`Self::connect`] with explicit timeouts and policy.
    ///
    /// # Errors
    /// The last error once the policy's attempts/budget are exhausted.
    pub fn connect_with(
        addr: impl Into<String>,
        params: Arc<ChamParams>,
        config: ClientConfig,
        policy: RetryPolicy,
    ) -> Result<Self> {
        let topology = Topology::new(vec![addr.into()])?;
        let mut client = Self::with_config(topology, params, config, policy);
        client.run(client.budget(), &[0], None, |_| Ok(()))?;
        Ok(client)
    }

    /// The topology currently routed against.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The ring currently routed with.
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// What this client has had to recover from, and who served it.
    #[must_use]
    pub fn stats(&self) -> ClientStats {
        ClientStats {
            reconnects: self
                .nodes
                .iter()
                .map(|n| n.connects.saturating_sub(1))
                .sum(),
            ..self.stats.clone()
        }
    }

    /// Uploads a Galois key set to *every* node — any shard may be
    /// asked to rotate with it — and remembers its bytes for replay
    /// after an eviction. Returns the content id (identical on every
    /// node: ids are content hashes).
    ///
    /// # Errors
    /// The first node whose upload exhausts the retry policy.
    pub fn load_keys(&mut self, keys: &GaloisKeys, indices: &[usize]) -> Result<u64> {
        let bytes = wire::galois_keys_to_bytes(keys, indices)?;
        let give_up = self.budget();
        let mut id = 0;
        for slot in 0..self.nodes.len() as u16 {
            (_, id) = self.run(give_up, &[slot], None, |c| c.load_keys_bytes(&bytes))?;
        }
        self.keys.insert(id, bytes);
        Ok(id)
    }

    /// Uploads a matrix to the `R` replicas its content id maps to (the
    /// one server, on a one-slot topology) and remembers it for replay
    /// after an eviction. Returns the content id;
    /// `self.ring().replicas(id)` names its homes.
    ///
    /// # Errors
    /// Upload failures after retry, or a server disagreeing about the
    /// content id (a corrupted transfer).
    pub fn load_matrix(&mut self, matrix: &Matrix) -> Result<u64> {
        // The id is the hash of the wire encoding — computable locally,
        // which is what lets the client route *before* uploading. The
        // body is cut and hashed once; every replica gets the same one.
        let upload = ChunkedBody::new(matrix, protocol::DEFAULT_CHUNK_BYTES);
        let id = upload.id();
        let give_up = self.budget();
        self.rerouted(|this| {
            for slot in this.ring.replicas(id) {
                let (_, up) = this.run(give_up, &[slot], None, |c| c.upload_chunked(&upload))?;
                this.stats.chunks_sent += u64::from(up.chunks_sent);
                this.stats.chunks_skipped += u64::from(up.chunks_skipped);
                if up.matrix_id != id {
                    return Err(ServeError::BadFrame(
                        "server reported a different matrix id than the upload hashes to",
                    ));
                }
            }
            Ok(())
        })?;
        self.matrices.insert(id, upload);
        Ok(id)
    }

    /// Splits `matrix` into row bands of about `band_rows` rows —
    /// rounded up to a multiple of the ring dimension `N`, so each
    /// band's packed outputs are bit-identical to the corresponding
    /// single-node slice — and uploads each band to its own replica
    /// set. Each band uploads as resumable chunks (see
    /// [`ServeClient::load_matrix_streamed`]), so a mid-band
    /// disconnect re-sends only the missing pieces.
    ///
    /// # Errors
    /// Any band upload failing after retry.
    pub fn load_matrix_sharded(
        &mut self,
        matrix: &Matrix,
        band_rows: usize,
    ) -> Result<ShardedMatrix> {
        let degree = self.params.degree();
        let band_rows = band_rows.max(1).div_ceil(degree) * degree;
        let mut bands = Vec::new();
        let mut start = 0;
        while start < matrix.rows() {
            let rows = band_rows.min(matrix.rows() - start);
            let mut data = Vec::with_capacity(rows * matrix.cols());
            for r in start..start + rows {
                data.extend_from_slice(matrix.row(r));
            }
            let sub = Matrix::from_data(rows, matrix.cols(), data)?;
            let id = self.load_matrix(&sub)?;
            bands.push(Band {
                id,
                start_row: start,
                rows,
                replicas: self.ring.replicas(id),
            });
            start += rows;
        }
        Ok(ShardedMatrix {
            rows: matrix.rows(),
            cols: matrix.cols(),
            bands,
        })
    }

    /// Runs one HMVP with full recovery: backoff on `Busy`, reconnect on
    /// transport faults, re-upload on eviction, retry on `Internal`,
    /// failover to the matrix's next replica, one topology refresh on
    /// `WrongShard`. `deadline` is the *server-side* queue deadline per
    /// attempt; [`RetryPolicy::total_deadline`] bounds the whole
    /// operation.
    ///
    /// # Errors
    /// Non-retryable errors immediately; otherwise the last error once
    /// the policy's attempts/budget are exhausted.
    pub fn hmvp(
        &mut self,
        key_id: u64,
        matrix_id: u64,
        cts: &[RlweCiphertext],
        deadline: Option<Duration>,
    ) -> Result<HmvpResult> {
        let mut done = self.rerouted(|this| this.fan_out(key_id, &[matrix_id], cts, deadline))?;
        Ok(done.pop().expect("one result per requested id"))
    }

    /// One HMVP against a sharded matrix: fans one sub-request per band
    /// out across the fleet (bands served by one node share its
    /// connection, one band per wave), reassembles the packed outputs in
    /// row order. On any band answering `WrongShard`, refreshes the
    /// topology and replays the whole fan-out once.
    ///
    /// # Errors
    /// The first band error that recovery could not absorb.
    pub fn hmvp_sharded(
        &mut self,
        key_id: u64,
        sharded: &ShardedMatrix,
        cts: &[RlweCiphertext],
        deadline: Option<Duration>,
    ) -> Result<HmvpResult> {
        let ids: Vec<u64> = sharded.bands.iter().map(|b| b.id).collect();
        let done = self.rerouted(|this| this.fan_out(key_id, &ids, cts, deadline))?;
        // Bands are contiguous row ranges aligned to N, so concatenating
        // their packed outputs yields exactly the single-node packing.
        Ok(HmvpResult {
            packed: done.into_iter().flat_map(|r| r.packed).collect(),
            len: sharded.rows,
        })
    }

    /// Rebuilds the slot→address assignment from the fleet's own hello
    /// answers: every reachable node reports the `shard_index` it
    /// enforces, the client adopts that placement and the highest
    /// advertised epoch, and resets the node table (its connections and
    /// quarantines were keyed by slots that may now name other
    /// addresses). Unreachable nodes keep their current slot. Called
    /// automatically when a server answers `WrongShard`.
    ///
    /// # Errors
    /// [`ServeError::BadFrame`] when no node is reachable, a node
    /// disagrees about the fleet size, or two nodes claim one slot.
    pub fn refresh_topology(&mut self) -> Result<()> {
        let fleet = self.topology.len();
        let mut placed: Vec<Option<String>> = vec![None; fleet];
        let mut epoch = self.topology.epoch();
        let mut reachable = 0usize;
        for addr in self.topology.nodes() {
            let Ok(client) =
                ServeClient::connect_with(addr.as_str(), Arc::clone(&self.params), &self.config)
            else {
                continue;
            };
            reachable += 1;
            let Some(identity) = client.cluster() else {
                // A standalone (unsharded) server: nothing to learn.
                continue;
            };
            if usize::from(identity.shard_count) != fleet {
                return Err(ServeError::BadFrame(
                    "a node disagrees about the cluster size",
                ));
            }
            let slot = usize::from(identity.shard_index);
            if let Some(prior) = &placed[slot] {
                if prior != addr {
                    return Err(ServeError::BadFrame("two nodes claim the same shard slot"));
                }
            }
            placed[slot] = Some(addr.clone());
            epoch = epoch.max(identity.epoch);
        }
        if reachable == 0 {
            return Err(ServeError::BadFrame(
                "no cluster node answered the topology refresh",
            ));
        }
        let nodes: Vec<String> = placed
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.clone()
                    .unwrap_or_else(|| self.topology.addr(i as u16).to_string())
            })
            .collect();
        self.topology = Topology::new(nodes)?
            .with_epoch(epoch)
            .with_vnodes(self.ring.vnodes())
            .with_replication(self.topology.replication());
        self.ring = self.topology.ring();
        for node in &mut self.nodes {
            node.conn = None;
            node.quarantined_until = None;
        }
        self.stats.refreshes += 1;
        Ok(())
    }

    /// Misrouting: a `WrongShard` answer proves the address map is
    /// stale, so refresh it and run `f` once more against the fresh one.
    fn rerouted<T>(&mut self, mut f: impl FnMut(&mut Self) -> Result<T>) -> Result<T> {
        match f(self) {
            Err(ServeError::WrongShard { .. }) => {
                self.refresh_topology()?;
                f(self)
            }
            other => other,
        }
    }

    /// Which replica an attempt goes to: the first of `slots` that is
    /// out of quarantine *and* connected, else the first out of
    /// quarantine, else the one whose quarantine ends soonest — the
    /// table never refuses; the retry policy decides when to give up.
    /// Preferring a connected replica is what makes failover sticky: a
    /// node that failed is not re-dialed every `quarantine` by requests
    /// that have a connected replica to go to, only when an operation
    /// targets it alone or its stand-in fails too.
    fn pick(&self, slots: &[u16]) -> u16 {
        let now = Instant::now();
        let until = |s: u16| self.nodes[usize::from(s)].quarantined_until;
        let live = |s: u16| until(s).is_none_or(|t| t <= now);
        let connected = |s: u16| self.nodes[usize::from(s)].conn.is_some();
        let slots = || slots.iter().copied();
        slots()
            .find(|&s| live(s) && connected(s))
            .or_else(|| slots().find(|&s| live(s)))
            .or_else(|| slots().min_by_key(|&s| until(s)))
            .expect("a replica list is never empty")
    }

    /// HMVPs `ids` (one matrix, or the bands of one) under a single
    /// trace id and a single retry budget, returning one result per id
    /// in order. The ciphertexts are encoded once; every band and every
    /// retry sends that payload behind its own head.
    ///
    /// First attempts run in waves on the calling thread: a wave writes
    /// the next band of every serving node's group (dialing if needed),
    /// then reads those replies in the order it wrote them, so the nodes
    /// compute side by side while the client waits on the first. No
    /// connection ever has two requests outstanding and each server
    /// reads a whole frame before it answers, so a wave cannot deadlock.
    /// A band whose write or read fails ends its node's group: it and
    /// the rest of that group continue through [`Self::run`] one band at
    /// a time, the failure counting as the band's first attempt — so
    /// recovery exists in one place.
    fn fan_out(
        &mut self,
        key_id: u64,
        ids: &[u64],
        cts: &[RlweCiphertext],
        deadline: Option<Duration>,
    ) -> Result<Vec<HmvpResult>> {
        let give_up = self.budget();
        // Every band and every retry of one logical request carries the
        // same id into the fleet's flight recorders.
        let trace_id = TraceId::generate().as_u64();
        let payload = protocol::hmvp_request_payload(cts);
        // Replica sets under the *current* ring (which after a refresh
        // may differ from upload time), grouped by the node `pick` sends
        // each first attempt to.
        let replicas: Vec<Vec<u16>> = ids.iter().map(|&id| self.ring.replicas(id)).collect();
        let mut groups: Vec<VecDeque<usize>> = vec![VecDeque::new(); self.nodes.len()];
        for (band, slots) in replicas.iter().enumerate() {
            groups[usize::from(self.pick(slots))].push_back(band);
        }
        let mut first: Vec<Option<(u16, Result<HmvpResult>)>> = ids.iter().map(|_| None).collect();
        let mut stale = None;
        loop {
            let mut wave = Vec::new();
            for (slot, group) in groups.iter_mut().enumerate() {
                let Some(band) = group.pop_front() else {
                    continue;
                };
                let slot = slot as u16;
                let sent = self
                    .connected(slot)
                    .and_then(|c| c.send_hmvp(key_id, ids[band], deadline, trace_id, &payload));
                wave.push((slot, band, sent));
            }
            if wave.is_empty() {
                break;
            }
            for (slot, band, sent) in wave {
                let r = sent.and_then(|()| {
                    let conn = self.nodes[usize::from(slot)].conn.as_mut();
                    conn.expect("the wave wrote on it").recv_hmvp()
                });
                if r.is_err() {
                    // The rest of the group waits for the sequential
                    // pass: recovery may move it to another node.
                    groups[usize::from(slot)].clear();
                }
                match r {
                    Err(e @ ServeError::WrongShard { .. }) => stale = Some(e),
                    r => first[band] = Some((slot, r)),
                }
            }
        }
        // A stale map is the one failure recovery cannot absorb and the
        // caller can: it outranks every other band's error.
        if let Some(wrong_shard) = stale {
            return Err(wrong_shard);
        }
        let mut done = Vec::with_capacity(ids.len());
        for ((&id, slots), attempt) in ids.iter().zip(&replicas).zip(first) {
            let op = |c: &mut ServeClient| {
                c.send_hmvp(key_id, id, deadline, trace_id, &payload)?;
                c.recv_hmvp()
            };
            let (slot, result) = match attempt {
                Some((slot, Ok(result))) => (slot, result),
                Some((slot, Err(e))) => self.run(give_up, slots, Some((slot, e)), op)?,
                None => self.run(give_up, slots, None, op)?,
            };
            self.stats.per_node_requests[usize::from(slot)] += 1;
            done.push(result);
        }
        Ok(done)
    }

    /// When an operation starting now must give up: the policy's
    /// [`RetryPolicy::total_deadline`] from now, if it sets one.
    fn budget(&self) -> Option<Instant> {
        self.policy.total_deadline.map(|d| Instant::now() + d)
    }

    /// Node `slot`'s live connection, dialing it first when there is
    /// none.
    fn connected(&mut self, slot: u16) -> Result<&mut ServeClient> {
        let node = &mut self.nodes[usize::from(slot)];
        if node.conn.is_none() {
            let addr = self.topology.addr(slot);
            node.conn = Some(ServeClient::connect_with(
                addr,
                Arc::clone(&self.params),
                &self.config,
            )?);
            node.connects += 1;
        }
        Ok(node.conn.as_mut().expect("connection just ensured"))
    }

    /// The retry loop every operation runs under: attempts `op` on the
    /// replica [`Self::pick`] names until it succeeds,
    /// [`Self::recover`] says the error is final, the policy's attempts
    /// run out, or `give_up` passes — the operation's budget, fixed by
    /// the caller when the operation started ([`Self::budget`]). `first`,
    /// when given, is an attempt the caller already made (and on which
    /// slot). Returns the slot that answered beside the value.
    fn run<T>(
        &mut self,
        give_up: Option<Instant>,
        slots: &[u16],
        mut first: Option<(u16, ServeError)>,
        mut op: impl FnMut(&mut ServeClient) -> Result<T>,
    ) -> Result<(u16, T)> {
        let mut absorbed: u64 = 0;
        let mut attempt: u32 = 0;
        loop {
            let (slot, result) = match first.take() {
                Some((slot, e)) => (slot, Err(e)),
                None => {
                    let slot = self.pick(slots);
                    (slot, self.connected(slot).and_then(&mut op))
                }
            };
            match result {
                Ok(v) => {
                    self.stats.faults_recovered += absorbed;
                    return Ok((slot, v));
                }
                Err(e) => {
                    attempt += 1;
                    if attempt >= self.policy.max_attempts
                        || !self.recover(slot, slots.len() > 1, &e)
                    {
                        return Err(e);
                    }
                    absorbed += 1;
                    self.stats.retries += 1;
                    let mut sleep = backoff_for(&self.policy, &mut self.rng, attempt - 1);
                    if let Some(hard) = give_up {
                        let now = Instant::now();
                        if now >= hard {
                            return Err(e);
                        }
                        sleep = sleep.min(hard - now);
                    }
                    if !sleep.is_zero() {
                        std::thread::sleep(sleep);
                    }
                }
            }
        }
    }

    /// Classifies the error `e` that node `slot` produced and performs
    /// its recovery side effect; `multi` says the operation has another
    /// replica to go to. Returns whether another attempt is worthwhile.
    fn recover(&mut self, slot: u16, multi: bool, e: &ServeError) -> bool {
        match e {
            // Backpressure / transient server failure: same connection,
            // just wait and go again. A chunk (or the reassembled body)
            // that failed its content check mid-stream is the same: the
            // next attempt replays the upload, and the server's
            // received-bitmap scopes it to what is missing.
            ServeError::Busy | ServeError::Internal(_) | ServeError::ChunkMismatch { .. } => true,
            // The stream is dead or desynced, or the dial failed:
            // quarantine the node and go (elsewhere, if there is an
            // elsewhere).
            ServeError::Io(_)
            | ServeError::BadFrame(_)
            | ServeError::Remote {
                code: ErrorCode::BadFrame,
                ..
            } => {
                self.fail(slot, multi);
                true
            }
            // A draining server is a failover signal when replicas
            // exist, terminal otherwise (the catch-all).
            ServeError::Shutdown if multi => {
                self.fail(slot, multi);
                true
            }
            // Eviction: replay the uploaded material (content-addressed,
            // so it lands back on the exact id the request referenced).
            ServeError::UnknownKey(id) => {
                self.replay_keys(slot, *id);
                true
            }
            ServeError::UnknownMatrix(id) => {
                self.replay_matrix(slot, *id);
                true
            }
            // Misrouting (`rerouted` answers it with a refresh — a retry
            // here would hammer the same wrong shard), version/parameter
            // mismatch, HE failure, expired deadline: retrying proves
            // nothing.
            _ => false,
        }
    }

    /// Drops node `slot`'s connection and quarantines it for the
    /// policy's per-failure cooldown, scaled by a seeded factor in
    /// `[1.0, 1.5]` so the clients of one fleet do not re-dial a dead
    /// node in lockstep. Counts a failover when the operation can move.
    fn fail(&mut self, slot: u16, multi: bool) {
        let cooldown = self
            .policy
            .quarantine
            .mul_f64(1.0 + 0.5 * self.rng.next_f64());
        let node = &mut self.nodes[usize::from(slot)];
        node.conn = None;
        node.quarantined_until = Some(Instant::now() + cooldown);
        if multi {
            self.stats.failovers += 1;
        }
    }

    /// Best-effort replay of uploaded key material onto the node that
    /// reported it missing. Errors are deliberately swallowed — the
    /// retry loop re-runs the operation, which re-triggers recovery if
    /// needed.
    fn replay_keys(&mut self, slot: u16, id: u64) {
        let Some(conn) = self.nodes[usize::from(slot)].conn.as_mut() else {
            return;
        };
        for bytes in replay_set(&self.keys, id) {
            if conn.load_keys_bytes(bytes).is_ok() {
                self.stats.reuploads += 1;
            }
        }
    }

    /// Best-effort replay of an uploaded matrix onto the node that
    /// reported it missing. The replay is *resumable*: the server's
    /// received-bitmap (which survives reconnects) scopes it to the
    /// chunks actually missing.
    fn replay_matrix(&mut self, slot: u16, id: u64) {
        let Some(conn) = self.nodes[usize::from(slot)].conn.as_mut() else {
            return;
        };
        for upload in replay_set(&self.matrices, id) {
            if let Ok(up) = conn.upload_chunked(upload) {
                self.stats.reuploads += 1;
                self.stats.chunks_sent += u64::from(up.chunks_sent);
                self.stats.chunks_skipped += u64::from(up.chunks_skipped);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(nodes: &[&str], policy: RetryPolicy) -> ClusterClient {
        let params = Arc::new(ChamParams::insecure_test_default().unwrap());
        let topology = Topology::new(nodes.iter().map(ToString::to_string).collect()).unwrap();
        ClusterClient::with_config(topology, params, ClientConfig::default(), policy)
    }

    #[test]
    fn backoff_grows_doubles_and_caps() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            ..RetryPolicy::default()
        };
        let mut rng = SplitMix64::new(1);
        for attempt in 0..12 {
            let nominal = Duration::from_millis(10)
                .saturating_mul(2u32.saturating_pow(attempt))
                .min(Duration::from_millis(100));
            let d = backoff_for(&policy, &mut rng, attempt);
            assert!(
                d >= nominal.mul_f64(0.5),
                "attempt {attempt}: {d:?} too short"
            );
            assert!(d <= nominal, "attempt {attempt}: {d:?} exceeds nominal");
        }
        // Deep attempts stay at the cap (and never overflow).
        let deep = backoff_for(&policy, &mut rng, u32::MAX);
        assert!(deep <= Duration::from_millis(100));
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let policy = RetryPolicy::default();
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for attempt in 0..8 {
            assert_eq!(
                backoff_for(&policy, &mut a, attempt),
                backoff_for(&policy, &mut b, attempt)
            );
        }
    }

    /// One budget covers a whole fan-out. Every band of a 3-band matrix
    /// on a one-matrix cache answers its first attempt `UnknownMatrix`
    /// and recovers by one replay and one 40–80 ms backoff: each band
    /// fits a 100 ms `total_deadline` alone, the three do not together.
    #[test]
    fn total_deadline_bounds_the_whole_fan_out() {
        use crate::server::{Server, ServerConfig};
        use cham_he::encrypt::Encryptor;
        use cham_he::hmvp::Hmvp;
        use cham_he::keys::SecretKey;
        use cham_he::params::ChamParamsBuilder;
        use rand::SeedableRng;

        let degree = 64;
        let params = Arc::new(ChamParamsBuilder::new().degree(degree).build().unwrap());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB0D6);
        let sk = SecretKey::generate(&params, &mut rng);
        let max_log = params.max_pack_log();
        let gkeys = GaloisKeys::generate_for_packing(&sk, max_log, &mut rng).unwrap();
        let indices: Vec<usize> = (1..=max_log).map(|j| (1usize << j) + 1).collect();
        let config = ServerConfig {
            matrix_cache: 1,
            ..ServerConfig::default()
        };
        let server = Server::start("127.0.0.1:0", Arc::clone(&params), &config).unwrap();
        let policy = RetryPolicy {
            max_attempts: 20,
            base_backoff: Duration::from_millis(80),
            max_backoff: Duration::from_millis(80),
            total_deadline: Some(Duration::from_millis(100)),
            ..RetryPolicy::default()
        };
        let mut client = ClusterClient::connect_with(
            server.local_addr().to_string(),
            Arc::clone(&params),
            ClientConfig::default(),
            policy,
        )
        .unwrap();
        let key_id = client.load_keys(&gkeys, &indices).unwrap();
        let t = params.plain_modulus().value();
        // Each band's upload evicts the one before it.
        let matrix = Matrix::random(3 * degree, degree, t, &mut rng);
        let sharded = client.load_matrix_sharded(&matrix, degree).unwrap();
        assert_eq!(sharded.bands.len(), 3);
        let enc = Encryptor::new(&params, &sk);
        let cts = Hmvp::from_arc(Arc::clone(&params))
            .encrypt_vector(&vec![1; degree], &enc, &mut rng)
            .unwrap();

        let started = Instant::now();
        let r = client.hmvp_sharded(key_id, &sharded, &cts, None);
        let took = started.elapsed();
        assert!(
            matches!(r, Err(ServeError::UnknownMatrix(_))),
            "{:?} after {took:?}",
            r.map(|_| ())
        );
        assert!(took < Duration::from_millis(200), "{took:?}");
        server.shutdown();
    }

    #[test]
    fn recovery_classification() {
        let mut client = client(&["127.0.0.1:1", "127.0.0.1:2"], RetryPolicy::default());
        // An operation with one replica, on slot 0:
        let mut recover = |e: ServeError| client.recover(0, false, &e);
        // Retryable without touching the network:
        assert!(recover(ServeError::Busy));
        assert!(recover(ServeError::Internal("worker panicked".into())));
        assert!(recover(ServeError::Io(std::io::Error::other("reset"))));
        assert!(recover(ServeError::BadFrame("desync")));
        assert!(recover(ServeError::Remote {
            code: ErrorCode::BadFrame,
            message: "truncated".into(),
        }));
        // Non-retryable:
        assert!(!recover(ServeError::TimedOut));
        assert!(!recover(ServeError::Incompatible("revision")));
        assert!(!recover(ServeError::He(
            cham_he::HeError::NoiseBudgetExhausted
        )));
        assert!(!recover(ServeError::Remote {
            code: ErrorCode::Incompatible,
            message: "prime chain".into(),
        }));
        // Misrouting must surface to `rerouted`, never retry.
        assert!(!recover(ServeError::WrongShard {
            epoch: 1,
            shard_index: 0,
            shard_count: 3,
        }));
        // Shutdown is terminal with one replica (and none of the above
        // was a failover: there was nowhere to go)...
        assert!(!recover(ServeError::Shutdown));
        assert_eq!(client.stats().failovers, 0);
        // ...and a failover signal with several.
        assert!(client.recover(0, true, &ServeError::Shutdown));
        assert_eq!(client.stats().failovers, 1);
    }

    #[test]
    fn pick_skips_quarantined_nodes_and_never_refuses() {
        let policy = RetryPolicy {
            quarantine: Duration::from_millis(40),
            ..RetryPolicy::default()
        };
        let mut client = client(&["a:1", "b:2", "c:3"], policy);
        // Replica order is the caller's; repeated calls without a
        // failure stay put.
        assert_eq!(client.pick(&[0, 1, 2]), 0);
        assert_eq!(client.pick(&[0, 1, 2]), 0);
        assert_eq!(client.pick(&[2, 0]), 2);
        // Failing a node moves past it...
        client.fail(0, true);
        assert_eq!(client.pick(&[0, 1, 2]), 1);
        client.fail(1, true);
        assert_eq!(client.pick(&[0, 1, 2]), 2);
        // ...and with every replica quarantined the earliest-expiring
        // one is still offered (cooldowns are jittered, so that is the
        // table's own minimum, not necessarily the first to fail).
        client.fail(2, true);
        let soonest = (0..3u16)
            .min_by_key(|&s| client.nodes[usize::from(s)].quarantined_until)
            .unwrap();
        assert_eq!(client.pick(&[0, 1, 2]), soonest);
        assert_eq!(client.stats().failovers, 3);
        // After the longest possible cooldown (40 ms × 1.5) the
        // caller's first choice is live again.
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(client.pick(&[0, 1, 2]), 0);
    }
}
