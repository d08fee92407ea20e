//! A resilient wrapper around [`ServeClient`]: bounded retry with
//! deterministic jittered backoff, reconnect-and-re-handshake on
//! transport faults, automatic re-upload of evicted key/matrix
//! material, and replica failover across an endpoint pool.
//!
//! The design splits failure handling by *what the error proves*:
//!
//! * **Transport faults** ([`ServeError::Io`], client-side
//!   [`ServeError::BadFrame`], remote `BadFrame`) prove the stream can no
//!   longer be trusted — the connection is dropped, the endpoint it was
//!   connected to is quarantined for a cooldown, and the next attempt
//!   connects to the next live endpoint (the same one, after cooldown,
//!   when the pool holds only one).
//! * **Backpressure** ([`ServeError::Busy`]) and server-side failures
//!   ([`ServeError::Internal`], e.g. a caught worker panic) prove nothing
//!   about the request — it is retried on the live connection after
//!   backoff.
//! * **Evictions** ([`ServeError::UnknownKey`], [`ServeError::UnknownMatrix`])
//!   are recovered by re-uploading the material this client previously
//!   loaded. Ids are content hashes, so the re-upload is idempotent and
//!   lands on exactly the id the failed request referenced — which is
//!   also why failover to a replica that never saw our uploads works:
//!   the eviction path replays them there.
//! * **[`ServeError::Shutdown`]** is terminal on a single-endpoint
//!   client (the server asked us to go away), but with more than one
//!   endpoint it is a failover signal: quarantine the draining server
//!   and carry on at the next replica.
//! * **Semantic errors** ([`ServeError::Incompatible`], [`ServeError::He`],
//!   [`ServeError::TimedOut`], [`ServeError::WrongShard`]) would fail
//!   identically on retry — they surface immediately. `WrongShard` in
//!   particular must reach the caller: only the cluster-level client can
//!   refresh the topology map; blind retry would loop forever.
//!
//! Backoff doubles from [`RetryPolicy::base_backoff`] up to
//! [`RetryPolicy::max_backoff`], scaled by a jitter factor in
//! `[0.5, 1.0]` drawn from a seeded SplitMix64 stream — deterministic
//! for a fixed [`RetryPolicy::jitter_seed`], so chaos-test schedules are
//! replayable. [`RetryPolicy::total_deadline`] bounds the *sum* of an
//! operation's attempts and sleeps; when the budget is exhausted the
//! last error surfaces rather than another sleep starting.

use crate::client::{ClientConfig, ServeClient, ServerInfo};
use crate::faults::SplitMix64;
use crate::protocol::{self, ErrorCode};
use crate::stats::{IntrospectSnapshot, StatsSnapshot};
use crate::{Result, ServeError};
use cham_he::ciphertext::RlweCiphertext;
use cham_he::hmvp::{HmvpResult, Matrix};
use cham_he::keys::GaloisKeys;
use cham_he::params::ChamParams;
use cham_he::wire;
use std::collections::HashMap;
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
    /// attempts and sleeps; `None` bounds only by `max_attempts`.
    pub total_deadline: Option<Duration>,
    /// How long a failed endpoint sits out of rotation before it is
    /// dialed again — long enough that a dead replica is not hot-looped
    /// on every reconnect, short enough that a restarted one rejoins
    /// promptly. Scaled by jitter in `[1.0, 1.5]` at quarantine time so
    /// a fleet of clients does not re-dial a recovering node in
    /// lockstep.
    pub quarantine: Duration,
    /// Quarantine applied when an *external authority* (the cluster
    /// health loop) has confirmed an endpoint dead — much longer than
    /// the optimistic per-failure `quarantine`, because a down verdict
    /// already absorbed several consecutive probe misses.
    pub down_quarantine: Duration,
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
            down_quarantine: Duration::from_secs(5),
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

/// One address in an endpoint pool, with its quarantine state.
struct Endpoint {
    addr: String,
    quarantined_until: Option<Instant>,
}

/// Where a [`RetryClient`] connects: a list of interchangeable endpoints
/// (replicas of one shard, or a single server). Built from a single
/// address (the common case — `From<&str>`/`From<String>`) or a replica
/// list (`From<Vec<String>>` / [`Endpoints::fixed`]). Dead entries are
/// quarantined for a cooldown — [`RetryPolicy::quarantine`] per failure,
/// [`RetryPolicy::down_quarantine`] on a confirmed-down verdict — and
/// skipped while any live entry remains.
pub struct Endpoints {
    list: Vec<Endpoint>,
    cursor: usize,
}

impl Endpoints {
    /// A fixed pool of interchangeable addresses, tried in order with
    /// per-endpoint quarantine on failure.
    pub fn fixed<I, S>(addrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            list: addrs
                .into_iter()
                .map(|a| Endpoint {
                    addr: a.into(),
                    quarantined_until: None,
                })
                .collect(),
            cursor: 0,
        }
    }

    /// Quarantines a specific address for `cooldown` without it having
    /// failed a dial here — the entry point for externally confirmed
    /// down verdicts (the cluster health loop). Returns whether the
    /// address was in the pool.
    pub fn quarantine_addr(&mut self, addr: &str, cooldown: Duration) -> bool {
        match self.list.iter_mut().find(|ep| ep.addr == addr) {
            Some(ep) => {
                ep.quarantined_until = Some(Instant::now() + cooldown);
                true
            }
            None => false,
        }
    }

    /// Whether failover can reach a *different* endpoint — the condition
    /// under which `Shutdown` is worth absorbing instead of surfacing.
    fn multi(&self) -> bool {
        self.list.len() > 1
    }

    /// The address the next connect should dial: the cursor's endpoint,
    /// skipping quarantined entries while any live one remains; with
    /// everything quarantined the earliest-expiring entry is returned
    /// (the pool never refuses — the retry policy, not the pool, decides
    /// when to give up).
    fn current(&mut self) -> Result<String> {
        let list = &self.list;
        if list.is_empty() {
            return Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "endpoint pool is empty",
            )));
        }
        let now = Instant::now();
        let live = (0..list.len())
            .map(|off| (self.cursor + off) % list.len())
            .find(|&i| list[i].quarantined_until.is_none_or(|t| t <= now));
        self.cursor = live.unwrap_or_else(|| {
            (0..list.len())
                .min_by_key(|&i| list[i].quarantined_until)
                .expect("non-empty list")
        });
        Ok(list[self.cursor].addr.clone())
    }

    /// Marks the current endpoint failed: quarantines it for `cooldown`
    /// and advances the cursor. Returns whether the next
    /// [`Self::current`] can name a different endpoint (i.e. whether
    /// this counts as a failover).
    fn fail_current(&mut self, cooldown: Duration) -> bool {
        if self.list.is_empty() {
            return false;
        }
        self.list[self.cursor].quarantined_until = Some(Instant::now() + cooldown);
        self.cursor = (self.cursor + 1) % self.list.len();
        self.multi()
    }
}

impl From<String> for Endpoints {
    fn from(addr: String) -> Self {
        Self::fixed([addr])
    }
}

impl From<&str> for Endpoints {
    fn from(addr: &str) -> Self {
        Self::fixed([addr])
    }
}

impl From<Vec<String>> for Endpoints {
    fn from(addrs: Vec<String>) -> Self {
        Self::fixed(addrs)
    }
}

/// Counters describing what a [`RetryClient`] had to do so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryStatsSnapshot {
    /// Retry attempts made (errors that led to another try).
    pub retries: u64,
    /// Connections re-established (beyond each operation's first).
    pub reconnects: u64,
    /// Key/matrix re-uploads after an eviction.
    pub reuploads: u64,
    /// Errors absorbed by operations that ultimately succeeded — the
    /// client-side measure of faults *recovered from*, as opposed to the
    /// server's count of faults injected.
    pub faults_recovered: u64,
    /// Endpoint switches: times a failure moved this client off its
    /// current endpoint toward a different one.
    pub failovers: u64,
    /// Matrix chunks actually sent over the wire by uploads.
    pub chunks_sent: u64,
    /// Matrix chunks an upload skipped because the server's
    /// received-bitmap already held them — the measure of how much a
    /// resumable re-upload saved versus whole-matrix replay.
    pub chunks_skipped: u64,
}

/// A [`ServeClient`] that survives transient failures.
///
/// Stores every key set and matrix it uploads, so it can replay them
/// after a server-side eviction — or onto a failover replica that never
/// saw them. The memory cost mirrors what the caller already holds (the
/// material had to exist to be uploaded); callers that cannot afford it
/// should use [`ServeClient`] and recover manually.
pub struct RetryClient {
    endpoints: Endpoints,
    params: Arc<ChamParams>,
    config: ClientConfig,
    policy: RetryPolicy,
    client: Option<ServeClient>,
    connected_addr: Option<String>,
    ever_connected: bool,
    key_uploads: HashMap<u64, Vec<u8>>,
    matrix_uploads: HashMap<u64, Matrix>,
    rng: SplitMix64,
    stats: RetryStatsSnapshot,
}

impl RetryClient {
    /// Builds an unconnected client; the first operation connects.
    #[must_use]
    pub fn new(
        endpoints: impl Into<Endpoints>,
        params: Arc<ChamParams>,
        config: ClientConfig,
        policy: RetryPolicy,
    ) -> Self {
        Self {
            endpoints: endpoints.into(),
            params,
            config,
            policy,
            client: None,
            connected_addr: None,
            ever_connected: false,
            key_uploads: HashMap::new(),
            matrix_uploads: HashMap::new(),
            rng: SplitMix64::new(policy.jitter_seed),
            stats: RetryStatsSnapshot::default(),
        }
    }

    /// Builds a client with default timeouts and policy and eagerly
    /// connects (retrying connect failures under that policy).
    ///
    /// # Errors
    /// The last error once the policy's attempts/budget are exhausted.
    pub fn connect(endpoints: impl Into<Endpoints>, params: Arc<ChamParams>) -> Result<Self> {
        Self::connect_with(
            endpoints,
            params,
            ClientConfig::default(),
            RetryPolicy::default(),
        )
    }

    /// Builds a client with explicit timeouts/policy and eagerly
    /// connects (retrying connect failures under that policy).
    ///
    /// # Errors
    /// The last error once the policy's attempts/budget are exhausted.
    pub fn connect_with(
        endpoints: impl Into<Endpoints>,
        params: Arc<ChamParams>,
        config: ClientConfig,
        policy: RetryPolicy,
    ) -> Result<Self> {
        let mut client = Self::new(endpoints, params, config, policy);
        client.run(|_| Ok(()))?;
        Ok(client)
    }

    /// What this client has had to recover from.
    #[must_use]
    pub fn stats(&self) -> RetryStatsSnapshot {
        self.stats
    }

    /// The address of the live connection, if any — which replica is
    /// actually serving this client right now.
    #[must_use]
    pub fn endpoint(&self) -> Option<&str> {
        if self.client.is_some() {
            self.connected_addr.as_deref()
        } else {
            None
        }
    }

    /// The serving shape from the most recent hello exchange, if any
    /// connection is currently live.
    #[must_use]
    pub fn server_info(&self) -> Option<ServerInfo> {
        self.client.as_ref().map(ServeClient::server_info)
    }

    /// Seeds the eviction-replay store with key bytes uploaded through
    /// some *other* client (e.g. a cluster client that broadcast them),
    /// so a failover or eviction on this connection can replay them.
    pub fn remember_keys_bytes(&mut self, id: u64, bytes: Vec<u8>) {
        self.key_uploads.insert(id, bytes);
    }

    /// Seeds the eviction-replay store with a matrix uploaded through
    /// some other client. Content-addressed: `id` must be the hash the
    /// server reported for it.
    pub fn remember_matrix(&mut self, id: u64, matrix: Matrix) {
        self.matrix_uploads.insert(id, matrix);
    }

    /// Health check with retry; returns the server's counter snapshot.
    ///
    /// # Errors
    /// The last error once the policy's attempts/budget are exhausted.
    pub fn ping(&mut self) -> Result<StatsSnapshot> {
        self.run(ServeClient::ping)
    }

    /// Introspection snapshot with retry: live counters, queue/pool
    /// occupancy, and per-phase latency histograms.
    ///
    /// # Errors
    /// The last error once the policy's attempts/budget are exhausted.
    pub fn introspect(&mut self) -> Result<IntrospectSnapshot> {
        self.run(ServeClient::introspect)
    }

    /// Flight-recorder dump (Chrome-trace JSON) with retry.
    ///
    /// # Errors
    /// The last error once the policy's attempts/budget are exhausted.
    pub fn flight_dump(&mut self) -> Result<String> {
        self.run(ServeClient::flight_dump)
    }

    /// Uploads a Galois key set (retried) and remembers its bytes for
    /// replay after an eviction. Returns the content id.
    ///
    /// # Errors
    /// The last error once the policy's attempts/budget are exhausted.
    pub fn load_keys(&mut self, keys: &GaloisKeys, indices: &[usize]) -> Result<u64> {
        let bytes = wire::galois_keys_to_bytes(keys, indices)?;
        self.load_keys_bytes(bytes)
    }

    /// Uploads already-serialized key bytes (retried, remembered).
    ///
    /// # Errors
    /// The last error once the policy's attempts/budget are exhausted.
    pub fn load_keys_bytes(&mut self, bytes: Vec<u8>) -> Result<u64> {
        let id = self.run(|c| c.load_keys_bytes(&bytes))?;
        self.key_uploads.insert(id, bytes);
        Ok(id)
    }

    /// Uploads a matrix (retried) and remembers it for replay after an
    /// eviction. Returns the content id.
    ///
    /// # Errors
    /// The last error once the policy's attempts/budget are exhausted.
    pub fn load_matrix(&mut self, matrix: &Matrix) -> Result<u64> {
        let up = self.run(|c| c.load_matrix_streamed(matrix, protocol::DEFAULT_CHUNK_BYTES))?;
        self.stats.chunks_sent += u64::from(up.chunks_sent);
        self.stats.chunks_skipped += u64::from(up.chunks_skipped);
        self.matrix_uploads.insert(up.matrix_id, matrix.clone());
        Ok(up.matrix_id)
    }

    /// Runs one HMVP with full recovery: backoff on `Busy`, reconnect on
    /// transport faults, re-upload on eviction, retry on `Internal`,
    /// failover on `Shutdown` when the pool holds replicas.
    /// `deadline` is the *server-side* queue deadline per attempt;
    /// [`RetryPolicy::total_deadline`] bounds the whole operation.
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
        self.run(|c| c.hmvp(key_id, matrix_id, cts, deadline))
    }

    /// The retry loop every operation runs under.
    fn run<T>(&mut self, mut op: impl FnMut(&mut ServeClient) -> Result<T>) -> Result<T> {
        let start = Instant::now();
        let hard_deadline = self.policy.total_deadline.map(|d| start + d);
        let mut absorbed: u64 = 0;
        let mut attempt: u32 = 0;
        loop {
            let result = match self.ensure_connected() {
                Ok(client) => op(client),
                Err(e) => Err(e),
            };
            match result {
                Ok(v) => {
                    self.stats.faults_recovered += absorbed;
                    return Ok(v);
                }
                Err(e) => {
                    attempt += 1;
                    if attempt >= self.policy.max_attempts || !self.recover(&e) {
                        return Err(e);
                    }
                    absorbed += 1;
                    self.stats.retries += 1;
                    let mut sleep = backoff_for(&self.policy, &mut self.rng, attempt - 1);
                    if let Some(hard) = hard_deadline {
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

    /// Classifies `e` and performs its recovery side effect. Returns
    /// whether another attempt is worthwhile.
    fn recover(&mut self, e: &ServeError) -> bool {
        match e {
            // Backpressure / transient server failure: same connection,
            // just wait and go again.
            ServeError::Busy | ServeError::Internal(_) => true,
            // The stream is dead or desynced: quarantine the endpoint it
            // led to and reconnect (elsewhere, if the pool has options).
            // A connect-phase failure already failed its endpoint inside
            // `ensure_connected` — no live client means nothing to do.
            ServeError::Io(_) | ServeError::BadFrame(_) => {
                if self.client.is_some() {
                    self.fail_over();
                }
                true
            }
            ServeError::Remote {
                code: ErrorCode::BadFrame,
                ..
            } => {
                if self.client.is_some() {
                    self.fail_over();
                }
                true
            }
            // Eviction: replay the uploaded material (content-addressed,
            // so it lands back on the exact id the request referenced).
            ServeError::UnknownKey(id) => {
                self.reupload_keys(*id);
                true
            }
            ServeError::UnknownMatrix(id) => {
                self.reupload_matrix(*id);
                true
            }
            // A chunk (or the reassembled body) failed its content check
            // mid-stream: the next attempt replays the upload, and the
            // server's received-bitmap scopes it to what is missing.
            ServeError::ChunkMismatch { .. }
            | ServeError::Remote {
                code: ErrorCode::ChunkMismatch,
                ..
            } => true,
            // A draining server is terminal for a single endpoint but a
            // failover signal when replicas exist (the single-endpoint
            // case falls through to the non-retryable catch-all).
            ServeError::Shutdown if self.endpoints.multi() => {
                self.fail_over();
                true
            }
            // Misrouting is the *cluster* client's problem: it must
            // refresh its topology map. Retrying here would hammer the
            // same wrong shard forever.
            ServeError::WrongShard { .. } => false,
            // Version/parameter mismatch, HE failure, expired deadline:
            // retrying proves nothing.
            _ => false,
        }
    }

    /// Drops the connection and rotates the endpoint pool off its
    /// current entry, counting a failover when a different endpoint is
    /// reachable.
    fn fail_over(&mut self) {
        self.client = None;
        self.connected_addr = None;
        self.quarantine_current();
    }

    /// Quarantines the pool's current endpoint for the policy's
    /// per-failure cooldown, scaled by a seeded factor in `[1.0, 1.5]`
    /// so replicas of one fleet do not re-dial a dead node in lockstep.
    fn quarantine_current(&mut self) {
        let factor = 1.0 + 0.5 * self.rng.next_f64();
        if self
            .endpoints
            .fail_current(self.policy.quarantine.mul_f64(factor))
        {
            self.stats.failovers += 1;
        }
    }

    /// Quarantines a specific endpoint address for the policy's
    /// `down_quarantine`, dropping the live connection if it points
    /// there. This is how the cluster health loop's confirmed-down
    /// verdicts outlast the optimistic per-failure cooldown: the node
    /// stays out of rotation until the monitor has seen it answer again.
    pub fn quarantine_endpoint(&mut self, addr: &str) -> bool {
        if self.connected_addr.as_deref() == Some(addr) {
            self.client = None;
            self.connected_addr = None;
        }
        self.endpoints
            .quarantine_addr(addr, self.policy.down_quarantine)
    }

    fn ensure_connected(&mut self) -> Result<&mut ServeClient> {
        if self.client.is_none() {
            let addr = self.endpoints.current()?;
            match ServeClient::connect_with(addr.as_str(), Arc::clone(&self.params), &self.config) {
                Ok(client) => {
                    if self.ever_connected {
                        self.stats.reconnects += 1;
                    }
                    self.ever_connected = true;
                    self.connected_addr = Some(addr);
                    self.client = Some(client);
                }
                Err(e) => {
                    // The endpoint refused or timed out — quarantine it
                    // so the next attempt dials the next replica instead
                    // of hot-looping a dead address.
                    self.quarantine_current();
                    return Err(e);
                }
            }
        }
        Ok(self.client.as_mut().expect("connection just ensured"))
    }

    /// Best-effort replay of uploaded key material after an eviction.
    /// Errors here are deliberately swallowed — the outer retry loop
    /// re-runs the operation, which re-triggers recovery if needed.
    fn reupload_keys(&mut self, id: u64) {
        // Normally the evicted id is one we uploaded; if it is not (a
        // corrupted frame can reference a garbage id), replay everything
        // we have so the *correct* retried request finds its entry.
        let targets: Vec<Vec<u8>> = if let Some(bytes) = self.key_uploads.get(&id) {
            vec![bytes.clone()]
        } else {
            self.key_uploads.values().cloned().collect()
        };
        let mut done = 0;
        if let Ok(client) = self.ensure_connected() {
            for bytes in &targets {
                if client.load_keys_bytes(bytes).is_ok() {
                    done += 1;
                }
            }
        }
        self.stats.reuploads += done;
    }

    /// Best-effort replay of an uploaded matrix after an eviction. The
    /// replay is *resumable*: the server's received-bitmap (which
    /// survives reconnects) scopes it to the chunks actually missing.
    fn reupload_matrix(&mut self, id: u64) {
        let targets: Vec<Matrix> = if let Some(m) = self.matrix_uploads.get(&id) {
            vec![m.clone()]
        } else {
            self.matrix_uploads.values().cloned().collect()
        };
        let mut done = 0;
        let mut sent = 0u64;
        let mut skipped = 0u64;
        if let Ok(client) = self.ensure_connected() {
            for m in &targets {
                if let Ok(up) = client.load_matrix_streamed(m, protocol::DEFAULT_CHUNK_BYTES) {
                    done += 1;
                    sent += u64::from(up.chunks_sent);
                    skipped += u64::from(up.chunks_skipped);
                }
            }
        }
        self.stats.reuploads += done;
        self.stats.chunks_sent += sent;
        self.stats.chunks_skipped += skipped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn recovery_classification() {
        let params = Arc::new(cham_he::params::ChamParams::insecure_test_default().unwrap());
        let mut client = RetryClient::new(
            "127.0.0.1:1",
            params,
            ClientConfig::default(),
            RetryPolicy::default(),
        );
        // Retryable without touching the network:
        assert!(client.recover(&ServeError::Busy));
        assert!(client.recover(&ServeError::Internal("worker panicked".into())));
        assert!(client.recover(&ServeError::Io(std::io::Error::other("reset"))));
        assert!(client.recover(&ServeError::BadFrame("desync")));
        assert!(client.recover(&ServeError::Remote {
            code: ErrorCode::BadFrame,
            message: "truncated".into(),
        }));
        // Non-retryable:
        assert!(!client.recover(&ServeError::TimedOut));
        assert!(!client.recover(&ServeError::Incompatible("revision")));
        assert!(!client.recover(&ServeError::He(cham_he::HeError::NoiseBudgetExhausted)));
        assert!(!client.recover(&ServeError::Remote {
            code: ErrorCode::Incompatible,
            message: "prime chain".into(),
        }));
        // Misrouting must surface to the cluster layer, never retry.
        assert!(!client.recover(&ServeError::WrongShard {
            epoch: 1,
            shard_index: 0,
            shard_count: 3,
        }));
        // Shutdown is terminal with one endpoint...
        assert!(!client.recover(&ServeError::Shutdown));
        // ...and a failover signal with several.
        let params = Arc::new(cham_he::params::ChamParams::insecure_test_default().unwrap());
        let mut pooled = RetryClient::new(
            vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()],
            params,
            ClientConfig::default(),
            RetryPolicy::default(),
        );
        assert!(pooled.recover(&ServeError::Shutdown));
        assert_eq!(pooled.stats().failovers, 1);
    }

    #[test]
    fn fixed_pool_quarantines_and_rotates() {
        let cooldown = Duration::from_millis(40);
        let mut eps = Endpoints::fixed(["a:1", "b:2", "c:3"]);
        assert!(eps.multi());
        assert_eq!(eps.current().unwrap(), "a:1");
        // Repeated calls without failure stay put.
        assert_eq!(eps.current().unwrap(), "a:1");
        // Failing the current endpoint advances past it...
        assert!(eps.fail_current(cooldown));
        assert_eq!(eps.current().unwrap(), "b:2");
        assert!(eps.fail_current(cooldown));
        assert_eq!(eps.current().unwrap(), "c:3");
        // ...and with every endpoint quarantined the earliest-expiring
        // one is still offered (the pool never refuses).
        assert!(eps.fail_current(cooldown));
        assert_eq!(eps.current().unwrap(), "a:1");
        // After the cooldown the first endpoint is live again.
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(eps.current().unwrap(), "a:1");
    }

    #[test]
    fn addr_quarantine_and_policy_cooldown() {
        // A health-style address quarantine takes one endpoint out of
        // rotation without that endpoint ever failing a dial here.
        let mut eps = Endpoints::fixed(["a:1", "b:2"]);
        assert!(eps.quarantine_addr("a:1", Duration::from_millis(60)));
        assert!(!eps.quarantine_addr("nope:0", Duration::from_millis(60)));
        assert_eq!(eps.current().unwrap(), "b:2");
        std::thread::sleep(Duration::from_millis(80));
        // Cursor stays where the live endpoint was; "a:1" is dialable
        // again after its cooldown.
        assert!(eps.fail_current(Duration::from_millis(30)));
        assert_eq!(eps.current().unwrap(), "a:1");

        // The client-level entry point applies the policy's
        // down-quarantine — the condemned address leaves rotation — and
        // reports unknown addresses.
        let params = Arc::new(cham_he::params::ChamParams::insecure_test_default().unwrap());
        let mut client = RetryClient::new(
            vec!["a:1".to_string(), "b:2".to_string()],
            params,
            ClientConfig::default(),
            RetryPolicy::default(),
        );
        assert!(client.quarantine_endpoint("a:1"));
        assert_eq!(client.endpoints.current().unwrap(), "b:2");
        assert!(!client.quarantine_endpoint("ghost:3"));
    }

    #[test]
    fn empty_fixed_pool_is_a_typed_error() {
        let mut eps = Endpoints::fixed(Vec::<String>::new());
        assert!(!eps.multi());
        assert!(matches!(eps.current(), Err(ServeError::Io(_))));
        assert!(!eps.fail_current(Duration::ZERO));
    }
}
