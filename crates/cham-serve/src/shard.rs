//! Consistent-hash ring and shard identity for multi-node serving.
//!
//! A cluster of `cham-serve` processes partitions content-addressed
//! material (Galois key sets, matrices — see [`crate::cache`]) across
//! shard *slots* `0..nodes` with a classic consistent-hash ring:
//! every slot projects [`HashRing::vnodes`] virtual points onto the
//! `u64` circle, a key hashes to a point on the same circle, and its
//! owners are the next [`HashRing::replication`] *distinct* slots
//! clockwise from that point. Because a slot's points depend only on
//! `(slot, vnode)`, growing or shrinking the cluster by one node moves
//! roughly `1/nodes` of the keyspace and nothing else — the consistent-
//! hashing contract the `cham-cluster` property tests pin.
//!
//! The ring deliberately speaks in **slot indices**, not addresses. The
//! address a slot answers at lives in a [`Topology`] — the one place
//! that knows "which address serves which slot", read by the server
//! binary (to find its own [`ShardSpec`]) and by every client (to
//! dial). A client's copy can go stale; a server knows only its own
//! [`ShardSpec`] and answers misrouted requests with a typed
//! [`crate::ServeError::WrongShard`] carrying the ring epoch, so a
//! stale client refreshes its address map instead of retrying blindly.
//!
//! A [`Topology`] is an *ordered* list of node addresses plus the ring
//! shape (vnodes per slot, replication factor) and a monotonically
//! increasing epoch. Slot `i` of the [`HashRing`] is served by
//! `nodes[i]` — the order is load-bearing, which is why every node in
//! a fleet must be started from the same `--cluster` list and why the
//! hello response advertises each server's believed `shard_index`: a
//! client that routed to the wrong
//! node can rebuild the assignment from the fleet's own answers (see
//! [`crate::ClusterClient::refresh_topology`]).
//!
//! Epochs exist to make staleness detectable rather than silent: a
//! server rejecting a misrouted request reports the epoch its ring was
//! built from, and a refreshed client adopts the highest epoch any
//! node advertises.

use crate::{Result, ServeError};

/// Default virtual nodes per slot. 64 is the floor at which the
/// distribution-balance property holds within 15%; the default doubles
/// it for headroom.
pub const DEFAULT_VNODES: u32 = 128;

/// Default replication factor (each key lives on this many slots).
pub const DEFAULT_REPLICATION: u16 = 2;

/// SplitMix64 finalizer: a cheap, well-distributed `u64 -> u64` mixer.
/// Used both to project `(slot, vnode)` pairs onto the ring and to hash
/// keys before lookup, so raw content ids need no distribution
/// guarantees of their own.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A consistent-hash ring over `nodes` shard slots.
///
/// Construction is deterministic: two rings built with the same
/// `(nodes, vnodes, replication)` agree on every lookup, so clients and
/// servers never exchange ring state — only the three parameters (which
/// travel in the hello response) and the epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// Sorted `(point, slot)` pairs — the unit circle.
    points: Vec<(u64, u16)>,
    nodes: u16,
    vnodes: u32,
    replication: u16,
}

impl HashRing {
    /// Builds the ring for `nodes` slots.
    ///
    /// `vnodes` and `replication` are clamped to at least 1; replica
    /// sets never exceed `nodes` (a 2-way ring over one node has
    /// one-element replica sets).
    #[must_use]
    pub fn new(nodes: u16, vnodes: u32, replication: u16) -> Self {
        let nodes = nodes.max(1);
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(nodes as usize * vnodes as usize);
        for slot in 0..nodes {
            for v in 0..vnodes {
                // The point depends only on (slot, vnode): adding a new
                // slot adds its points and moves nobody else's.
                let point = mix64((u64::from(slot) << 32) | u64::from(v));
                points.push((point, slot));
            }
        }
        points.sort_unstable();
        Self {
            points,
            nodes,
            vnodes,
            replication: replication.max(1),
        }
    }

    /// Number of shard slots.
    #[must_use]
    pub fn nodes(&self) -> u16 {
        self.nodes
    }

    /// Virtual nodes per slot.
    #[must_use]
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// Configured replication factor (replica sets are capped at
    /// [`Self::nodes`]).
    #[must_use]
    pub fn replication(&self) -> u16 {
        self.replication
    }

    /// Index into `points` where the clockwise walk for `key` starts.
    fn start(&self, key: u64) -> usize {
        let h = mix64(key);
        let i = self.points.partition_point(|p| p.0 < h);
        if i == self.points.len() {
            0
        } else {
            i
        }
    }

    /// The slot that owns `key` (first replica).
    #[must_use]
    pub fn primary(&self, key: u64) -> u16 {
        self.points[self.start(key)].1
    }

    /// The ordered replica set for `key`: the first
    /// `min(replication, nodes)` *distinct* slots clockwise from the
    /// key's point. The first entry is [`Self::primary`].
    #[must_use]
    pub fn replicas(&self, key: u64) -> Vec<u16> {
        let want = (self.replication as usize).min(self.nodes as usize);
        let mut out = Vec::with_capacity(want);
        let start = self.start(key);
        for off in 0..self.points.len() {
            let slot = self.points[(start + off) % self.points.len()].1;
            if !out.contains(&slot) {
                out.push(slot);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }

    /// Whether `slot` is one of `key`'s replicas — the check a shard-
    /// configured server runs before accepting an upload or HMVP.
    #[must_use]
    pub fn owns(&self, key: u64, slot: u16) -> bool {
        self.replicas(key).contains(&slot)
    }
}

/// One server's place in a cluster: the shared ring, this node's slot,
/// and the topology epoch (bumped whenever the operator rewires the
/// fleet, so a stale client's [`crate::ServeError::WrongShard`] carries
/// enough context to know *its* map is the old one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// The ring every cluster member agrees on.
    pub ring: HashRing,
    /// This server's slot in `0..ring.nodes()`.
    pub shard_index: u16,
    /// Monotonic topology epoch.
    pub epoch: u64,
}

impl ShardSpec {
    /// Builds a spec, clamping `shard_index` into range.
    #[must_use]
    pub fn new(ring: HashRing, shard_index: u16, epoch: u64) -> Self {
        let shard_index = shard_index.min(ring.nodes().saturating_sub(1));
        Self {
            ring,
            shard_index,
            epoch,
        }
    }
}

/// Cluster identity a shard-configured server advertises in its hello
/// response (absent on standalone servers). Clients use the
/// advertised `shard_index` to rebuild a stale address map without any
/// out-of-band discovery service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterIdentity {
    /// The slot this server serves.
    pub shard_index: u16,
    /// Total slots in the ring (`0` never appears — standalone servers
    /// advertise no identity at all).
    pub shard_count: u16,
    /// The server's topology epoch.
    pub epoch: u64,
}

/// An ordered fleet of serving nodes and the ring shape they share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    nodes: Vec<String>,
    epoch: u64,
    vnodes: u32,
    replication: u16,
}

impl Topology {
    /// Builds a topology over an ordered node list with default ring
    /// shape (128 vnodes, 2-way replication capped at the fleet size).
    ///
    /// # Errors
    /// [`ServeError::BadFrame`] when the list is empty or larger than a
    /// `u16` slot index can address.
    pub fn new(nodes: Vec<String>) -> Result<Self> {
        if nodes.is_empty() {
            return Err(ServeError::BadFrame("cluster topology has no nodes"));
        }
        if nodes.len() > usize::from(u16::MAX) {
            return Err(ServeError::BadFrame("cluster topology exceeds u16 slots"));
        }
        Ok(Self {
            nodes,
            epoch: 0,
            vnodes: DEFAULT_VNODES,
            replication: DEFAULT_REPLICATION,
        })
    }

    /// Parses a `host:port,host:port,...` list (the `--cluster` flag
    /// syntax). Whitespace around entries is tolerated; empty entries
    /// are not.
    ///
    /// # Errors
    /// [`ServeError::BadFrame`] for an empty list, a blank entry, or an
    /// entry that is not a non-empty host, a `:` and a `u16` port (the
    /// last `:` splits, so `[::1]:7000` parses).
    pub fn parse(spec: &str) -> Result<Self> {
        let mut nodes = Vec::new();
        for raw in spec.split(',') {
            let addr = raw.trim();
            if addr.is_empty() {
                return Err(ServeError::BadFrame("empty entry in cluster list"));
            }
            let Some((host, port)) = addr.rsplit_once(':') else {
                return Err(ServeError::BadFrame("cluster entry lacks a :port"));
            };
            if host.is_empty() {
                return Err(ServeError::BadFrame("cluster entry lacks a host"));
            }
            if port.parse::<u16>().is_err() {
                return Err(ServeError::BadFrame("cluster entry port is not a u16"));
            }
            nodes.push(addr.to_string());
        }
        Self::new(nodes)
    }

    /// Sets the ring epoch (defaults to 0).
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Sets the virtual-node count per slot (clamped to ≥ 1).
    #[must_use]
    pub fn with_vnodes(mut self, vnodes: u32) -> Self {
        self.vnodes = vnodes.max(1);
        self
    }

    /// Sets the replication factor (clamped to ≥ 1; the ring further
    /// caps it at the fleet size).
    #[must_use]
    pub fn with_replication(mut self, replication: u16) -> Self {
        self.replication = replication.max(1);
        self
    }

    /// The ordered node list.
    #[must_use]
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Number of nodes (= ring slots).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the fleet is empty (never true for a constructed value).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The ring epoch this topology was built at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Replication factor (uncapped; the ring caps at fleet size).
    #[must_use]
    pub fn replication(&self) -> u16 {
        self.replication
    }

    /// The address serving ring slot `i`.
    ///
    /// # Panics
    /// Panics when `i` is outside the fleet.
    #[must_use]
    pub fn addr(&self, i: u16) -> &str {
        &self.nodes[usize::from(i)]
    }

    /// The slot an address serves, if it is part of this topology.
    #[must_use]
    pub fn shard_index_of(&self, addr: &str) -> Option<u16> {
        self.nodes.iter().position(|n| n == addr).map(|i| i as u16)
    }

    /// The consistent-hash ring this topology routes with.
    #[must_use]
    pub fn ring(&self) -> HashRing {
        HashRing::new(self.nodes.len() as u16, self.vnodes, self.replication)
    }

    /// The shard spec node `i` should enforce (`None` when `i` is
    /// outside the fleet) — what a server passes to `ServerConfig`.
    #[must_use]
    pub fn shard_spec(&self, i: u16) -> Option<ShardSpec> {
        if usize::from(i) >= self.nodes.len() {
            return None;
        }
        Some(ShardSpec::new(self.ring(), i, self.epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_deterministic_and_in_range() {
        let a = HashRing::new(5, 64, 2);
        let b = HashRing::new(5, 64, 2);
        for key in 0..1000u64 {
            assert_eq!(a.primary(key), b.primary(key));
            assert!(a.primary(key) < 5);
            assert_eq!(a.replicas(key), b.replicas(key));
        }
    }

    #[test]
    fn replicas_are_distinct_capped_and_led_by_primary() {
        let ring = HashRing::new(3, 32, 2);
        for key in 0..500u64 {
            let reps = ring.replicas(key);
            assert_eq!(reps.len(), 2);
            assert_ne!(reps[0], reps[1]);
            assert_eq!(reps[0], ring.primary(key));
            assert!(ring.owns(key, reps[0]) && ring.owns(key, reps[1]));
        }
        // Replication beyond the node count caps at the node count.
        let tiny = HashRing::new(2, 16, 5);
        assert_eq!(tiny.replicas(42).len(), 2);
        let solo = HashRing::new(1, 16, 3);
        assert_eq!(solo.replicas(42), vec![0]);
        assert!(solo.owns(7, 0));
    }

    #[test]
    fn degenerate_parameters_are_clamped() {
        let ring = HashRing::new(0, 0, 0);
        assert_eq!(ring.nodes(), 1);
        assert_eq!(ring.vnodes(), 1);
        assert_eq!(ring.replication(), 1);
        assert_eq!(ring.primary(99), 0);
        let spec = ShardSpec::new(HashRing::new(3, DEFAULT_VNODES, DEFAULT_REPLICATION), 9, 1);
        assert_eq!(spec.shard_index, 2);
    }

    #[test]
    fn ownership_excludes_non_replicas() {
        let ring = HashRing::new(4, 64, 2);
        for key in 0..200u64 {
            let reps = ring.replicas(key);
            let owners = (0..4u16).filter(|&s| ring.owns(key, s)).count();
            assert_eq!(owners, reps.len());
        }
    }

    #[test]
    fn parse_accepts_csv_and_rejects_malformed() {
        let t = Topology::parse("10.0.0.1:7000, 10.0.0.2:7000,10.0.0.3:7001").unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.addr(1), "10.0.0.2:7000");
        assert_eq!(t.shard_index_of("10.0.0.3:7001"), Some(2));
        assert_eq!(t.shard_index_of("10.0.0.9:7000"), None);
        assert!(Topology::parse("").is_err());
        // An empty fleet is unrepresentable: no client ever sees an
        // empty replica pool.
        assert!(Topology::new(Vec::new()).is_err());
        assert!(Topology::parse("a:1,,b:2").is_err());
        assert!(Topology::parse("no-port").is_err());
        // An entry needs a host and a port that fits a u16.
        for bad in ["a:", ":7000", "a:x", "a:70000"] {
            assert!(Topology::parse(bad).is_err(), "{bad} parsed");
        }
        let v6 = Topology::parse("[::1]:7000").unwrap();
        assert_eq!(v6.addr(0), "[::1]:7000");
    }

    #[test]
    fn ring_and_shard_specs_share_one_shape() {
        let t = Topology::parse("a:1,b:2,c:3")
            .unwrap()
            .with_vnodes(64)
            .with_replication(2)
            .with_epoch(7);
        let ring = t.ring();
        assert_eq!(ring.nodes(), 3);
        assert_eq!(ring.vnodes(), 64);
        assert_eq!(ring.replication(), 2);
        let spec = t.shard_spec(2).unwrap();
        assert_eq!(spec.shard_index, 2);
        assert_eq!(spec.epoch, 7);
        // Same routing decisions on both sides of the wire.
        assert_eq!(spec.ring.primary(0xFEED), ring.primary(0xFEED));
        assert!(t.shard_spec(3).is_none());
    }
}
