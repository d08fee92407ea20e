//! Anti-entropy repair: converge every replica set back to full
//! replication after a crash, an eviction, or a rejoin.
//!
//! The planner is pure set arithmetic over what the fleet *reports*:
//!
//! 1. Fetch every node's matrix inventory (`StoreList` —
//!    RAM ∪ persistent store). Unreachable nodes report `None` and are
//!    neither sources nor targets this round; the next round sees them.
//! 2. The expected universe is the union of all reported ids — content
//!    addressing means an id seen *anywhere* is the authoritative bytes
//!    everywhere.
//! 3. For each id, the ring names its replica set. Every reachable
//!    replica whose inventory lacks the id becomes one planned
//!    [`Transfer`], sourced from a replica that holds it (any holder,
//!    if no replica does — e.g. after the ring moved the id).
//!
//! The planned transfer set is therefore *exactly* the inventory diff:
//! no transfer for an id a replica already holds, one transfer per
//! missing `(id, replica)` pair with a live source. Ids nobody holds
//! cannot be planned and land in [`RepairPlan::unsourced`].
//!
//! Execution streams each segment replica→replica through the existing
//! resumable chunked-upload path (`StoreFetch` on the source, then
//! `MatrixChunkStart`/`MatrixChunk`/`MatrixChunkCommit` in segment
//! mode on the target), so per-chunk checksums, the received-bitmap
//! resume, and whole-body verification from the PR 8 upload path guard
//! repair traffic end to end — a repair interrupted mid-segment
//! re-sends only the chunks the target still lacks.

use crate::ring::HashRing;
use cham_he::params::ChamParams;
use cham_serve::protocol::DEFAULT_CHUNK_BYTES;
use cham_serve::{ClientConfig, Result, ServeClient, ServeError, Topology};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One planned segment movement: push `id` onto `target`, reading it
/// from the first reachable entry of `sources`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// Content id of the segment to move.
    pub id: u64,
    /// Slot that should hold the id but does not.
    pub target: u16,
    /// Slots that hold the id, replica-set members first — execution
    /// tries them in order.
    pub sources: Vec<u16>,
}

/// What one planning round decided.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairPlan {
    /// Transfers in deterministic `(target, id)` order.
    pub transfers: Vec<Transfer>,
    /// `(id, target)` pairs that are missing but have no live holder —
    /// unrepairable until some node holding the bytes comes back.
    pub unsourced: Vec<(u64, u16)>,
}

impl RepairPlan {
    /// Whether this round found nothing to do — the converged state.
    #[must_use]
    pub fn is_converged(&self) -> bool {
        self.transfers.is_empty() && self.unsourced.is_empty()
    }
}

/// What one executed repair round actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Segments installed on their target this round.
    pub repaired_segments: u64,
    /// Chunks sent across all segment transfers.
    pub chunks_sent: u64,
    /// Chunks skipped because a resumed target already held them.
    pub chunks_skipped: u64,
    /// Transfers that failed on every listed source.
    pub failed_transfers: u64,
    /// Missing `(id, replica)` pairs with no live holder.
    pub unsourced: u64,
}

/// Fetches each node's matrix inventory. Unreachable nodes yield `None`
/// — the planner treats them as absent this round rather than failing
/// the whole sweep.
#[must_use]
pub fn fetch_inventories(
    topology: &Topology,
    params: &Arc<ChamParams>,
    config: &ClientConfig,
) -> Vec<Option<Vec<u64>>> {
    topology
        .nodes()
        .iter()
        .map(|addr| {
            ServeClient::connect_with(addr.as_str(), Arc::clone(params), config)
                .and_then(|mut c| c.store_list())
                .ok()
        })
        .collect()
}

/// Plans the transfer set that converges every reachable replica to
/// its expected holdings. Pure: the ring, the reported inventories,
/// and `expected` fully determine the plan.
///
/// `expected` extends the universe beyond what the fleet itself
/// reports — a caller that knows which ids were uploaded (a client's
/// upload history, a bench's ground truth) passes them so that an id
/// *every* holder lost surfaces as [`RepairPlan::unsourced`] instead
/// of silently vanishing from the diff. Pass `&[]` for the pure
/// anti-entropy sweep (ids known to at least one node).
#[must_use]
pub fn plan(ring: &HashRing, inventories: &[Option<Vec<u64>>], expected: &[u64]) -> RepairPlan {
    // Who holds what, as sets (inventories may repeat ids across RAM
    // and store on quirky nodes; the diff must not).
    let holdings: Vec<Option<BTreeSet<u64>>> = inventories
        .iter()
        .map(|inv| inv.as_ref().map(|ids| ids.iter().copied().collect()))
        .collect();
    let mut universe: BTreeSet<u64> = expected.iter().copied().collect();
    for ids in holdings.iter().flatten() {
        universe.extend(ids.iter().copied());
    }
    // BTreeMap keyed by (target, id) gives the deterministic order the
    // plan promises without a sort pass.
    let mut transfers: BTreeMap<(u16, u64), Transfer> = BTreeMap::new();
    let mut unsourced = Vec::new();
    for &id in &universe {
        let replicas = ring.replicas(id);
        let has = |slot: u16| {
            holdings[usize::from(slot)]
                .as_ref()
                .is_some_and(|h| h.contains(&id))
        };
        // Replica-set holders lead the source list; any other holder
        // (stale placement after a ring change) trails as a fallback.
        let mut sources: Vec<u16> = replicas.iter().copied().filter(|&r| has(r)).collect();
        for slot in 0..ring.nodes() {
            if !replicas.contains(&slot) && has(slot) {
                sources.push(slot);
            }
        }
        for &target in &replicas {
            // A node that did not report cannot be repaired this round.
            let Some(holding) = holdings[usize::from(target)].as_ref() else {
                continue;
            };
            if holding.contains(&id) {
                continue;
            }
            if sources.is_empty() {
                unsourced.push((id, target));
            } else {
                transfers.insert(
                    (target, id),
                    Transfer {
                        id,
                        target,
                        sources: sources.clone(),
                    },
                );
            }
        }
    }
    RepairPlan {
        transfers: transfers.into_values().collect(),
        unsourced,
    }
}

/// Executes a plan: for each transfer, fetch the segment bytes from
/// the first source that answers and stream them onto the target in
/// resumable chunks. Connections are cached per slot across transfers.
/// Individual transfer failures are counted, not fatal — anti-entropy
/// is a loop, and the next round replans whatever is still missing.
#[must_use]
pub fn execute(
    topology: &Topology,
    params: &Arc<ChamParams>,
    config: &ClientConfig,
    plan: &RepairPlan,
) -> RepairReport {
    let mut report = RepairReport {
        unsourced: plan.unsourced.len() as u64,
        ..RepairReport::default()
    };
    let mut conns: BTreeMap<u16, ServeClient> = BTreeMap::new();
    let connect = |conns: &mut BTreeMap<u16, ServeClient>, slot: u16| -> Result<()> {
        if let std::collections::btree_map::Entry::Vacant(e) = conns.entry(slot) {
            let client =
                ServeClient::connect_with(topology.addr(slot), Arc::clone(params), config)?;
            e.insert(client);
        }
        Ok(())
    };
    for t in &plan.transfers {
        let mut segment: Option<Vec<u8>> = None;
        for &source in &t.sources {
            if connect(&mut conns, source).is_err() {
                continue;
            }
            match conns
                .get_mut(&source)
                .expect("just connected")
                .store_fetch(t.id)
            {
                Ok(bytes) => {
                    segment = Some(bytes);
                    break;
                }
                Err(ServeError::Io(_)) => {
                    // The connection died — drop it so a later transfer
                    // against this slot redials instead of reusing a
                    // desynced stream.
                    conns.remove(&source);
                }
                Err(_) => {}
            }
        }
        let installed = segment.as_ref().is_some_and(|bytes| {
            if connect(&mut conns, t.target).is_err() {
                return false;
            }
            let target = conns.get_mut(&t.target).expect("just connected");
            match target.load_segment_streamed(t.id, bytes, DEFAULT_CHUNK_BYTES) {
                Ok(up) => {
                    report.chunks_sent += u64::from(up.chunks_sent);
                    report.chunks_skipped += u64::from(up.chunks_skipped);
                    true
                }
                Err(_) => {
                    conns.remove(&t.target);
                    false
                }
            }
        });
        if installed {
            report.repaired_segments += 1;
        } else {
            report.failed_transfers += 1;
        }
    }
    report
}

/// One full anti-entropy round: fetch inventories, plan, execute.
/// Returns the plan alongside the report so callers can tell "nothing
/// to do" (converged) from "work attempted".
#[must_use]
pub fn repair_round(
    topology: &Topology,
    params: &Arc<ChamParams>,
    config: &ClientConfig,
) -> (RepairPlan, RepairReport) {
    let inventories = fetch_inventories(topology, params, config);
    let planned = plan(&topology.ring(), &inventories, &[]);
    let report = execute(topology, params, config, &planned);
    (planned, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::HashRing;

    #[test]
    fn planned_transfers_are_exactly_the_inventory_diff() {
        let ring = HashRing::new(3, 64, 2);
        // Build a universe of ids and strip each from one of its
        // replicas; also blind one id entirely (unsourced).
        let ids: Vec<u64> = (0..50u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let mut inventories: Vec<Option<Vec<u64>>> = vec![Some(vec![]), Some(vec![]), Some(vec![])];
        let mut expected_missing: BTreeSet<(u16, u64)> = BTreeSet::new();
        for (k, &id) in ids.iter().enumerate() {
            let replicas = ring.replicas(id);
            assert_eq!(replicas.len(), 2);
            if k % 7 == 0 {
                // Nobody holds it: only the expected list can surface
                // it, as unsourced on every replica.
                continue;
            }
            // The first replica holds it; the second is missing it on
            // every third id.
            inventories[usize::from(replicas[0])]
                .as_mut()
                .unwrap()
                .push(id);
            if k % 3 == 0 {
                expected_missing.insert((replicas[1], id));
            } else {
                inventories[usize::from(replicas[1])]
                    .as_mut()
                    .unwrap()
                    .push(id);
            }
        }
        let p = plan(&ring, &inventories, &ids);
        let planned: BTreeSet<(u16, u64)> = p.transfers.iter().map(|t| (t.target, t.id)).collect();
        assert_eq!(planned, expected_missing, "plan must equal the diff");
        assert_eq!(p.transfers.len(), planned.len(), "no duplicate transfers");
        // Every transfer is sourced from a holder, replica-first.
        for t in &p.transfers {
            assert!(!t.sources.is_empty());
            let holder = t.sources[0];
            assert!(inventories[usize::from(holder)]
                .as_ref()
                .unwrap()
                .contains(&t.id));
            assert!(ring.replicas(t.id).contains(&holder));
        }
        // Ids nobody held planned no transfer: both replicas of each
        // blind id show up as unsourced instead.
        let blind = ids.iter().enumerate().filter(|(k, _)| k % 7 == 0).count();
        assert_eq!(p.unsourced.len(), blind * 2);
        for (id, target) in &p.unsourced {
            assert!(ring.replicas(*id).contains(target));
            assert!(!planned.contains(&(*target, *id)));
        }
        // Deterministic order: (target, id) ascending.
        let order: Vec<(u16, u64)> = p.transfers.iter().map(|t| (t.target, t.id)).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
    }

    #[test]
    fn converged_and_unreachable_nodes_plan_nothing() {
        let ring = HashRing::new(3, 64, 2);
        let id = 0xFEED_F00Du64;
        let replicas = ring.replicas(id);
        let mut inventories: Vec<Option<Vec<u64>>> = vec![Some(vec![]); 3];
        for &r in &replicas {
            inventories[usize::from(r)] = Some(vec![id]);
        }
        // Fully replicated: nothing to move.
        assert!(plan(&ring, &inventories, &[]).is_converged());

        // A replica that did not report is not a target this round.
        inventories[usize::from(replicas[1])] = None;
        let p = plan(&ring, &inventories, &[]);
        assert!(p.transfers.is_empty());
        assert!(p.unsourced.is_empty());

        // A reported-but-empty replica is: exactly one transfer, from
        // the surviving holder.
        inventories[usize::from(replicas[1])] = Some(vec![]);
        let p = plan(&ring, &inventories, &[]);
        assert_eq!(p.transfers.len(), 1);
        assert_eq!(p.transfers[0].id, id);
        assert_eq!(p.transfers[0].target, replicas[1]);
        assert_eq!(p.transfers[0].sources[0], replicas[0]);
    }
}
