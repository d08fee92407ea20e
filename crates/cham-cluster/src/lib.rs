//! Sharded, replicated multi-node HMVP serving on top of [`cham_serve`].
//!
//! A single `cham-serve` node holds every key set and matrix it serves.
//! That caps the working set at one machine's memory and makes the node
//! a single point of failure. This crate spreads the content-addressed
//! object space across a static fleet:
//!
//! * [`ring`] — a consistent-hash ring mapping 64-bit content ids
//!   (FNV-1a hashes of uploaded key/matrix bytes) to shard slots, with
//!   configurable virtual nodes per slot and R-way replication. The
//!   ring is *canonically defined* in `cham_serve::shard` so servers
//!   can enforce ownership without depending on this crate; it is
//!   re-exported and analyzed here.
//! * [`topology`] — the static cluster map: an ordered node list
//!   (`host:port,...` from a flag or `CHAM_CLUSTER`), a ring epoch, and
//!   the vnode/replication shape. Slot `i` of the ring is served by
//!   node `i` of the list.
//! * [`client`] — [`ClusterClient`]: routes each upload and HMVP to the
//!   replica set owning its content id, fans large matrices out across
//!   shards as row bands and reassembles results in row order,
//!   fails over between replicas (via `cham_serve`'s `RetryClient`
//!   endpoint pool), and re-routes through a topology refresh when a
//!   server answers `WrongShard`.
//! * [`health`] — [`HealthMonitor`]: a seeded-jitter heartbeat loop
//!   over the protocol's `Ping` frames with a per-node
//!   up/suspect/down state machine; confirmed-down verdicts feed
//!   [`ClusterClient::quarantine_node`] so routing stops dialing dead
//!   replicas for longer than the optimistic per-failure cooldown.
//! * [`repair`] — anti-entropy: diff each node's reported inventory
//!   (`StoreList`) against the ring's replica sets, then
//!   stream missing segments replica→replica over the resumable
//!   chunked-upload path until the fleet converges back to full
//!   replication — including backfilling a restarted node that
//!   rejoined with a stale (or empty) store.
//!
//! On the wire the cluster layer adds nothing of its own: it reads the
//! cluster block every hello response carries (`node_id`,
//! `shard_index`, `shard_count`, ring epoch) and the `WrongShard` error.

pub mod client;
pub mod health;
pub mod repair;
pub mod ring;
pub mod topology;

pub use client::{Band, ClusterClient, ClusterStatsSnapshot, MatrixHandle, ShardedMatrix};
pub use health::{HealthConfig, HealthMonitor, HealthTransition, NodeHealth};
pub use repair::{RepairPlan, RepairReport, Transfer};
pub use ring::{distribution, remap_fraction, HashRing};
pub use topology::Topology;
