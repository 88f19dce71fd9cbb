//! Topology partitioning for the conservative parallel executor.
//!
//! A [`PartitionMap`] assigns every node to one of `parts` groups and
//! derives the executor's *lookahead*: the minimum propagation delay of
//! any link whose endpoints live in different partitions. Links impose a
//! nonzero serialization + propagation floor, so any packet a node emits
//! toward another partition arrives at least `lookahead` after the
//! instant it was scheduled — which is exactly what lets each partition
//! run `lookahead`-wide windows without null messages (conservative
//! PDES, CMB-style but barrier-synchronized).
//!
//! Two strategies exist; the executor always uses the first:
//!
//! - **pod-aware** (min-cut-ish): balanced *contiguous* node-id ranges.
//!   Topology builders lay related nodes out contiguously — the fat-tree
//!   builder emits cores first, then each pod's aggregation, edge, and
//!   host block — so contiguous ranges track pod boundaries and cut
//!   mostly inter-pod (core) links.
//! - **round-robin**: `node % parts`, the locality-oblivious reference
//!   this module's tests compare against. Same bit-identical results
//!   (the executor's barrier replay guarantees that), more
//!   cross-partition traffic.

use crate::topology::Topology;
use lossless_flowctl::SimDuration;

/// How nodes are assigned to partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Balanced contiguous node-id ranges (pod-aware for the builders in
    /// [`crate::topology`], which lay pods out contiguously).
    PodAware,
    /// `node % parts`.
    RoundRobin,
}

/// A node-to-partition assignment plus the lookahead it induces.
#[derive(Debug, Clone)]
pub struct PartitionMap {
    /// `part_of[node.index()]` = owning partition, `< parts`.
    pub part_of: Vec<u32>,
    /// Number of partitions actually used (≤ the requested count, and ≤
    /// the node count).
    pub parts: usize,
    /// Minimum delay of any cross-partition link: the executor's
    /// lock-step window width. `None` when some cross-partition link has
    /// zero delay (no safe lookahead — the caller falls back to serial)
    /// or when no link crosses at all (single partition).
    pub lookahead: Option<SimDuration>,
    /// How many directed links cross partitions (diagnostic).
    pub cross_links: usize,
}

/// Assign every node of `topo` to one of (at most) `parts` partitions.
// simlint: cold -- runs once at parallel-run startup to plan the split; no event has
// been dispatched yet
pub fn partition(topo: &Topology, parts: usize, strategy: PartitionStrategy) -> PartitionMap {
    let n = topo.node_count();
    let parts = parts.clamp(1, n.max(1));
    let rr = strategy == PartitionStrategy::RoundRobin;
    let part_of: Vec<u32> = (0..n)
        .map(|i| {
            if rr {
                (i % parts) as u32
            } else {
                // Balanced contiguous ranges: node i falls in the range
                // whose share of the id space contains it.
                ((i * parts) / n) as u32
            }
        })
        .collect();

    let mut lookahead: Option<SimDuration> = None;
    let mut cross_links = 0usize;
    let mut zero_cross = false;
    for i in 0..n {
        let id = crate::topology::NodeId(i as u32);
        for l in topo.ports(id) {
            if part_of[i] == part_of[l.peer.index()] {
                continue;
            }
            cross_links += 1;
            if l.delay.as_ps() == 0 {
                zero_cross = true;
            }
            lookahead = Some(match lookahead {
                Some(cur) => cur.min(l.delay),
                None => l.delay,
            });
        }
    }
    if zero_cross {
        lookahead = None;
    }
    PartitionMap {
        part_of,
        parts,
        lookahead,
        cross_links,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::fat_tree;
    use lossless_flowctl::Rate;

    fn ft() -> Topology {
        fat_tree(4, Rate::from_gbps(40), SimDuration::from_us(4)).topo
    }

    #[test]
    fn assignments_cover_all_partitions_and_balance() {
        let topo = ft();
        for strat in [PartitionStrategy::PodAware, PartitionStrategy::RoundRobin] {
            let pm = partition(&topo, 4, strat);
            assert_eq!(pm.parts, 4);
            assert_eq!(pm.part_of.len(), topo.node_count());
            let mut counts = [0usize; 4];
            for &p in &pm.part_of {
                counts[p as usize] += 1;
            }
            let (lo, hi) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
            assert!(hi - lo <= 1, "unbalanced {strat:?}: {counts:?}");
        }
    }

    #[test]
    fn lookahead_is_the_uniform_link_delay() {
        let pm = partition(&ft(), 4, PartitionStrategy::PodAware);
        assert_eq!(pm.lookahead, Some(SimDuration::from_us(4)));
        assert!(pm.cross_links > 0);
    }

    #[test]
    fn single_partition_has_no_cross_links() {
        let pm = partition(&ft(), 1, PartitionStrategy::PodAware);
        assert_eq!(pm.parts, 1);
        assert_eq!(pm.cross_links, 0);
        assert_eq!(pm.lookahead, None);
    }

    #[test]
    fn parts_clamp_to_node_count() {
        let db = crate::topology::dumbbell(Rate::from_gbps(40), SimDuration::from_us(4));
        let pm = partition(&db.topo, 64, PartitionStrategy::RoundRobin);
        assert_eq!(pm.parts, db.topo.node_count());
    }

    #[test]
    fn zero_delay_cross_link_disables_lookahead() {
        let mut b = Topology::builder();
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        let s = b.switch("s");
        b.link(h0, s, Rate::from_gbps(40), SimDuration::from_ps(0));
        b.link(h1, s, Rate::from_gbps(40), SimDuration::from_us(4));
        let topo = b.build();
        let pm = partition(&topo, 3, PartitionStrategy::RoundRobin);
        assert_eq!(
            pm.lookahead, None,
            "zero-delay cross link must veto lookahead"
        );
    }

    #[test]
    fn pod_aware_keeps_pods_contiguous() {
        // Fat-tree builder order: cores first, then per-pod blocks —
        // contiguous ranges must never split a node id range assigned to
        // an earlier partition after a later one.
        let pm = partition(&ft(), 4, PartitionStrategy::PodAware);
        let mut last = 0u32;
        for &p in &pm.part_of {
            assert!(p >= last);
            last = p;
        }
    }
}
