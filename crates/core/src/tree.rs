//! Congestion-tree analysis (paper §3.2.2, Fig. 5).
//!
//! When a port congests, hop-by-hop flow control propagates pauses
//! upstream, forming a **congestion tree**: the congested port is the
//! *root*; every port paused (transitively) because of it is a *leaf*.
//! The paper's taxonomy of multi-tree scenarios:
//!
//! * **isolated** — trees share no ports;
//! * **overlapped** — trees share leaves but have distinct roots;
//! * **covered** — one tree's root is a leaf of a deeper tree (the §3.1.3
//!   scenario: the covered root is undetermined until the deeper tree
//!   dissolves, then emerges as a congestion port — transition ⑤).
//!
//! This module reconstructs trees from a snapshot of per-port ternary
//! states plus the *pause edges* (which port's back-pressure is pausing
//! which upstream port). It is an analysis/diagnostic tool — switches do
//! not need it; TCD detects the states locally — but it turns raw traces
//! into the paper's Fig. 5 pictures and is used by the `congestion_tree`
//! example and the test suite.

use crate::state::TernaryState;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Identifier of a port in a snapshot (opaque to this module; callers use
/// e.g. `(node_index << 16) | port_index`).
pub type PortKey = u64;

/// A snapshot of the network's detection state at one instant.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Ternary state of each port.
    pub states: BTreeMap<PortKey, TernaryState>,
    /// Pause edges: `(downstream congested/backlogged port's switch
    /// ingress, upstream egress being paused)` — i.e. `pauses[i] = (a, b)`
    /// means port `a`'s buffer pressure is currently pausing upstream
    /// egress `b`.
    pub pause_edges: Vec<(PortKey, PortKey)>,
}

impl Snapshot {
    /// Convenience constructor.
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Record a port's state.
    pub fn state(&mut self, port: PortKey, s: TernaryState) -> &mut Self {
        self.states.insert(port, s);
        self
    }

    /// Record that `presser` (a congested or backlogged port) is pausing
    /// the upstream egress `paused`.
    pub fn pause(&mut self, presser: PortKey, paused: PortKey) -> &mut Self {
        self.pause_edges.push((presser, paused));
        self
    }
}

/// One reconstructed congestion tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CongestionTree {
    /// The root: a port in the congestion state.
    pub root: PortKey,
    /// All ports reachable from the root through pause edges (excluding
    /// the root), i.e. the tree's leaves/interior in the paper's sense.
    pub leaves: BTreeSet<PortKey>,
}

impl CongestionTree {
    /// Depth of the tree: the longest pause chain from the root, in hops.
    pub fn depth(&self, snap: &Snapshot) -> usize {
        // BFS over pause edges starting from the root.
        let adj = adjacency(snap);
        let mut depth = 0;
        let mut seen = BTreeSet::new();
        seen.insert(self.root);
        let mut frontier = vec![self.root];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for p in frontier {
                if let Some(outs) = adj.get(&p) {
                    for &o in outs {
                        if seen.insert(o) {
                            next.push(o);
                        }
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            depth += 1;
            frontier = next;
        }
        depth
    }
}

/// Relationship between two congestion trees (the paper's Fig. 5 cases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeRelation {
    /// No shared ports.
    Isolated,
    /// Shared leaves, distinct roots, neither root inside the other tree.
    Overlapped,
    /// The second tree's root is a leaf of the first (or vice versa).
    Covered,
}

fn adjacency(snap: &Snapshot) -> BTreeMap<PortKey, Vec<PortKey>> {
    let mut adj: BTreeMap<PortKey, Vec<PortKey>> = BTreeMap::new();
    for &(presser, paused) in &snap.pause_edges {
        adj.entry(presser).or_default().push(paused);
    }
    adj
}

/// Reconstruct all congestion trees in a snapshot: one per port in the
/// congestion state, with leaves collected by following pause edges
/// transitively. A covered root (congestion port that is itself inside
/// another tree) still produces its own tree, mirroring the paper's
/// "covered" case.
pub fn trees(snap: &Snapshot) -> Vec<CongestionTree> {
    let adj = adjacency(snap);
    let mut out = Vec::new();
    for (&port, &st) in &snap.states {
        if st != TernaryState::Congestion {
            continue;
        }
        let mut leaves = BTreeSet::new();
        let mut q = VecDeque::new();
        q.push_back(port);
        let mut seen = BTreeSet::new();
        seen.insert(port);
        while let Some(p) = q.pop_front() {
            if let Some(outs) = adj.get(&p) {
                for &o in outs {
                    if seen.insert(o) {
                        leaves.insert(o);
                        q.push_back(o);
                    }
                }
            }
        }
        out.push(CongestionTree { root: port, leaves });
    }
    out
}

/// Classify the relationship between two trees.
pub fn relation(a: &CongestionTree, b: &CongestionTree) -> TreeRelation {
    if a.leaves.contains(&b.root) || b.leaves.contains(&a.root) {
        return TreeRelation::Covered;
    }
    if a.leaves.intersection(&b.leaves).next().is_some() {
        return TreeRelation::Overlapped;
    }
    TreeRelation::Isolated
}

/// Detect cyclic buffer dependencies in the pause graph — the precursor
/// of PFC/CBFC deadlock (Hu et al., HotNets'16; cited by the paper §1).
/// Tree-shaped routing cannot produce them, but snapshots from arbitrary
/// topologies (or buggy switch logic) can; returns one representative
/// cycle per strongly-connected pause loop found.
#[expect(
    clippy::indexing_slicing,
    reason = "idx < outs.len() is checked on the line above, and pos comes from position() on the same path"
)]
pub fn pause_cycles(snap: &Snapshot) -> Vec<Vec<PortKey>> {
    let adj = adjacency(snap);
    let mut cycles = Vec::new();
    let mut color: BTreeMap<PortKey, u8> = BTreeMap::new(); // 0 white 1 grey 2 black

    // Iterative DFS with an explicit path stack.
    let nodes: Vec<PortKey> = adj.keys().copied().collect();
    for &start in &nodes {
        if color.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut path: Vec<PortKey> = Vec::new();
        let mut stack: Vec<(PortKey, usize)> = vec![(start, 0)];
        while let Some(&mut (u, ref mut idx)) = stack.last_mut() {
            if *idx == 0 {
                color.insert(u, 1);
                path.push(u);
            }
            let outs = adj.get(&u).map(Vec::as_slice).unwrap_or(&[]);
            if *idx < outs.len() {
                let v = outs[*idx];
                *idx += 1;
                match color.get(&v).copied().unwrap_or(0) {
                    0 => stack.push((v, 0)),
                    1 => {
                        // Back edge: extract the cycle from the path.
                        if let Some(pos) = path.iter().position(|&p| p == v) {
                            cycles.push(path[pos..].to_vec());
                        }
                    }
                    _ => {}
                }
            } else {
                color.insert(u, 2);
                path.pop();
                stack.pop();
            }
        }
    }
    cycles
}

/// Sanity check on a snapshot per the paper's semantics: every leaf of a
/// congestion tree should be in the undetermined state (it is being
/// paused), unless it is itself a covered root (congestion). Returns the
/// ports violating this, for diagnostics.
pub fn inconsistent_leaves(snap: &Snapshot) -> Vec<PortKey> {
    let mut bad = Vec::new();
    for tree in trees(snap) {
        for &leaf in &tree.leaves {
            match snap.states.get(&leaf) {
                Some(TernaryState::Undetermined) | Some(TernaryState::Congestion) => {}
                _ => bad.push(leaf),
            }
        }
    }
    bad.sort_unstable();
    bad.dedup();
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use TernaryState::*;

    /// Ports: 1-9. Helper to build the three Fig. 5 pictures.
    fn isolated_snapshot() -> Snapshot {
        // Tree A: root 1 pauses 2, 3. Tree B: root 5 pauses 6.
        let mut s = Snapshot::new();
        s.state(1, Congestion)
            .state(2, Undetermined)
            .state(3, Undetermined);
        s.state(5, Congestion).state(6, Undetermined);
        s.pause(1, 2).pause(1, 3).pause(5, 6);
        s
    }

    #[test]
    fn isolated_trees() {
        let snap = isolated_snapshot();
        let ts = trees(&snap);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].root, 1);
        assert_eq!(ts[0].leaves, BTreeSet::from([2, 3]));
        assert_eq!(ts[1].root, 5);
        assert_eq!(ts[1].leaves, BTreeSet::from([6]));
        assert_eq!(relation(&ts[0], &ts[1]), TreeRelation::Isolated);
        assert!(inconsistent_leaves(&snap).is_empty());
    }

    #[test]
    fn overlapped_trees_share_leaves() {
        // Roots 1 and 5 both pause leaf 4.
        let mut s = Snapshot::new();
        s.state(1, Congestion)
            .state(5, Congestion)
            .state(4, Undetermined);
        s.pause(1, 4).pause(5, 4);
        let ts = trees(&s);
        assert_eq!(ts.len(), 2);
        assert_eq!(relation(&ts[0], &ts[1]), TreeRelation::Overlapped);
    }

    #[test]
    fn covered_root_is_detected() {
        // Deep tree: root 1 pauses 2, and 2's pressure pauses 3.
        // Port 2 is itself congested: a covered root with its own tree.
        let mut s = Snapshot::new();
        s.state(1, Congestion)
            .state(2, Congestion)
            .state(3, Undetermined);
        s.pause(1, 2).pause(2, 3);
        let ts = trees(&s);
        assert_eq!(ts.len(), 2);
        let deep = ts.iter().find(|t| t.root == 1).unwrap();
        let covered = ts.iter().find(|t| t.root == 2).unwrap();
        assert_eq!(relation(deep, covered), TreeRelation::Covered);
        assert_eq!(deep.leaves, BTreeSet::from([2, 3]));
        assert_eq!(covered.leaves, BTreeSet::from([3]));
    }

    #[test]
    fn depth_follows_the_pause_chain() {
        let mut s = Snapshot::new();
        s.state(1, Congestion);
        for p in 2..=5 {
            s.state(p, Undetermined);
        }
        s.pause(1, 2).pause(2, 3).pause(3, 4).pause(4, 5);
        let ts = trees(&s);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].depth(&s), 4);
        assert_eq!(ts[0].leaves.len(), 4);
    }

    #[test]
    fn pause_cycles_terminate() {
        // Defensive: a cyclic pause pattern (possible with CBD loops in
        // non-tree topologies) must not hang the reconstruction.
        let mut s = Snapshot::new();
        s.state(1, Congestion)
            .state(2, Undetermined)
            .state(3, Undetermined);
        s.pause(1, 2).pause(2, 3).pause(3, 1);
        let ts = trees(&s);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].leaves, BTreeSet::from([2, 3]));
        assert!(ts[0].depth(&s) <= 3);
    }

    #[test]
    fn inconsistent_leaf_reported() {
        // A leaf claiming non-congestion while being paused is flagged.
        let mut s = Snapshot::new();
        s.state(1, Congestion).state(2, NonCongestion);
        s.pause(1, 2);
        assert_eq!(inconsistent_leaves(&s), vec![2]);
    }

    #[test]
    fn cycle_detector_finds_the_loop() {
        let mut s = Snapshot::new();
        s.state(1, Congestion)
            .state(2, Undetermined)
            .state(3, Undetermined);
        s.pause(1, 2).pause(2, 3).pause(3, 1);
        let cycles = pause_cycles(&s);
        assert_eq!(cycles.len(), 1);
        let mut c = cycles[0].clone();
        c.sort_unstable();
        assert_eq!(c, vec![1, 2, 3]);
    }

    #[test]
    fn trees_have_no_cycles() {
        let s = isolated_snapshot();
        assert!(pause_cycles(&s).is_empty());
        // A diamond (DAG) is also cycle-free.
        let mut d = Snapshot::new();
        d.state(1, Congestion);
        for p in 2..=4 {
            d.state(p, Undetermined);
        }
        d.pause(1, 2).pause(1, 3).pause(2, 4).pause(3, 4);
        assert!(pause_cycles(&d).is_empty());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut s = Snapshot::new();
        s.state(7, Undetermined);
        s.pause(7, 7);
        let cycles = pause_cycles(&s);
        assert_eq!(cycles, vec![vec![7]]);
    }

    #[test]
    fn no_congestion_no_trees() {
        let mut s = Snapshot::new();
        s.state(1, Undetermined).state(2, NonCongestion);
        s.pause(1, 2);
        assert!(trees(&s).is_empty());
    }
}
