//! Fleet operations for sharded, replicated HMVP serving on top of
//! [`cham_serve`].
//!
//! A single `cham-serve` node holds every key set and matrix it serves.
//! That caps the working set at one machine's memory and makes the node
//! a single point of failure, so the content-addressed object space is
//! spread across a static fleet. Everything a *request* needs to cross
//! that fleet lives in `cham_serve` itself — the consistent-hash ring,
//! the [`Topology`] (which address serves which ring slot) and the one
//! resilient client, [`ClusterClient`], which routes by content id, fans
//! row bands out, fails over between replicas (its per-node quarantine
//! is the fleet's failure detector) and refreshes its map on
//! `WrongShard`; a single server is its one-slot case. They are
//! re-exported here. What this crate adds is what keeps a fleet whole
//! from the outside:
//!
//! * [`ring`] — analysis of the ring (`cham_serve::shard::HashRing`,
//!   re-exported): per-slot key distribution and remap fraction, the
//!   functions its quality contract is stated in.
//! * [`repair`] — anti-entropy: diff each node's reported inventory
//!   (`StoreList`) against the ring's replica sets, then
//!   stream missing segments replica→replica over the resumable
//!   chunked-upload path until the fleet converges back to full
//!   replication — including backfilling a restarted node that
//!   rejoined with a stale (or empty) store. The `cham-repair` binary
//!   drives it.
//!
//! On the wire the cluster layer adds nothing of its own: it reads the
//! cluster block every hello response carries (`node_id`,
//! `shard_index`, `shard_count`, ring epoch) and the `WrongShard` error.

pub mod repair;
pub mod ring;

pub use cham_serve::cluster::{Band, ClientStats, ClusterClient, ShardedMatrix};
pub use cham_serve::shard::Topology;
pub use repair::{RepairPlan, RepairReport, Transfer};
pub use ring::{distribution, remap_fraction, HashRing};
