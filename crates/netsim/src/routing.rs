//! Static shortest-path routing with ECMP or deterministic D-mod-k path
//! selection.
//!
//! For every destination host a reverse BFS computes, at every node, the
//! set of egress ports that lie on a shortest path. Packet forwarding then
//! selects one candidate:
//!
//! * **ECMP** — a deterministic hash of `(flow, node)`, keeping each flow
//!   on a single path (per-flow ECMP, as deployed in CEE data centers);
//! * **D-mod-k** — the destination-modulo selection used by InfiniBand
//!   fat-trees (Gomez et al., IPDPS'07), which the paper's Fig. 17 setup
//!   prescribes.

use crate::packet::FlowId;
use crate::topology::{NodeId, Topology};
use std::collections::{BTreeSet, VecDeque};

/// A directed channel: the egress buffer of `(node, port)`, feeding the
/// link towards `topo.link(node, port).peer`. The unit of hop-by-hop
/// back-pressure, and therefore the node set of the buffer-dependency
/// graph used for static PFC-deadlock analysis.
pub type Channel = (NodeId, u16);

/// Path selection discipline among equal-cost candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteSelect {
    /// Per-flow hash (CEE).
    Ecmp,
    /// Destination-modulo (InfiniBand fat-tree D-mod-k).
    DModK,
}

/// Precomputed next-hop tables for a topology.
#[derive(Debug, Clone)]
pub struct Routing {
    /// Every `(node, destination)` cell's sorted candidate egress ports,
    /// concatenated.
    cands: Vec<u16>,
    /// Where cell `node * n_dsts + dst_dense` sits in `cands`: `(offset,
    /// length)`.
    cells: Vec<(u32, u16)>,
    n_dsts: usize,
    /// Dense index per destination host (`usize::MAX` for non-hosts).
    dst_index: Vec<usize>,
    select: RouteSelect,
}

impl Routing {
    /// Build next-hop tables for all destination hosts of `topo`.
    #[expect(
        clippy::indexing_slicing,
        reason = "set-up time; every index is a node id below topo.node_count() or a (node, dst) cell of the n x n_dsts table allocated above"
    )]
    pub fn new(topo: &Topology, select: RouteSelect) -> Self {
        let n = topo.node_count();
        let hosts = topo.hosts();
        let mut dst_index = vec![usize::MAX; n];
        for (i, h) in hosts.iter().enumerate() {
            dst_index[h.index()] = i;
        }
        let n_dsts = hosts.len();
        let mut cands: Vec<u16> = Vec::new();
        let mut cells = vec![(0u32, 0u16); n * n_dsts];

        // Reverse BFS from each destination host.
        let mut dist = vec![u32::MAX; n];
        for (di, &dst) in hosts.iter().enumerate() {
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            dist[dst.index()] = 0;
            let mut q = VecDeque::new();
            q.push_back(dst);
            while let Some(u) = q.pop_front() {
                let du = dist[u.index()];
                for l in topo.ports(u) {
                    let v = l.peer;
                    if dist[v.index()] == u32::MAX {
                        dist[v.index()] = du + 1;
                        q.push_back(v);
                    }
                }
            }
            // Candidates at each node: ports leading to a strictly closer
            // neighbour.
            for u in 0..n {
                if dist[u] == u32::MAX || dist[u] == 0 {
                    continue;
                }
                let node = NodeId(u as u32);
                // Ports are visited in index order, so each cell is sorted.
                let off = cands.len();
                cands.extend(
                    topo.ports(node)
                        .iter()
                        .enumerate()
                        .filter(|(_, l)| dist[l.peer.index()] + 1 == dist[u])
                        .map(|(p, _)| p as u16),
                );
                cells[u * n_dsts + di] = (off as u32, (cands.len() - off) as u16);
            }
        }

        Routing {
            cands,
            cells,
            n_dsts,
            dst_index,
            select,
        }
    }

    /// The candidate ports of cell `(node, dst_dense)`.
    #[expect(
        clippy::indexing_slicing,
        reason = "node/dst ids index tables built for this topology; every cell's (offset, length) lies inside `cands` by construction"
    )]
    fn cell(&self, node: usize, di: usize) -> &[u16] {
        let (off, len) = self.cells[node * self.n_dsts + di];
        &self.cands[off as usize..off as usize + len as usize]
    }

    /// The egress port `node` should use to forward `flow` towards `dst`.
    ///
    /// Panics if `dst` is unreachable from `node` (a topology bug).
    #[expect(
        clippy::indexing_slicing,
        reason = "dst ids index the table built for this topology; the explicit assert documents the unreachable-destination bug case, and idx is % cands.len()"
    )]
    pub fn out_port(&self, node: NodeId, dst: NodeId, flow: FlowId) -> u16 {
        let di = self.dst_index[dst.index()];
        debug_assert!(di != usize::MAX, "destination {dst:?} is not a host");
        let cands = self.cell(node.index(), di);
        assert!(
            !cands.is_empty(),
            "no route from node {:?} to host {:?}",
            node,
            dst
        );
        if cands.len() == 1 {
            return cands[0];
        }
        let idx = match self.select {
            RouteSelect::Ecmp => {
                // SplitMix64 over (flow, node) — deterministic and
                // well-mixed so parallel flows spread across paths. It
                // XORs the increment in where `sim::splitmix` adds it;
                // calling that one instead would move ECMP paths and
                // every fingerprint.
                let mut x = ((flow.0 as u64) << 32) ^ node.0 as u64 ^ 0x9E37_79B9_7F4A_7C15;
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 27;
                x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^= x >> 31;
                (x % cands.len() as u64) as usize
            }
            RouteSelect::DModK => di % cands.len(),
        };
        cands[idx]
    }

    /// All equal-cost candidate ports from `node` towards `dst` (tests and
    /// diagnostics).
    #[expect(
        clippy::indexing_slicing,
        reason = "node/dst ids index tables built for this topology"
    )]
    pub fn candidates(&self, node: NodeId, dst: NodeId) -> &[u16] {
        self.cell(node.index(), self.dst_index[dst.index()])
    }

    /// The path a given flow takes from `src` to `dst`, as a list of
    /// `(node, egress port)` hops. Useful for assertions in tests.
    pub fn path(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        flow: FlowId,
    ) -> Vec<(NodeId, u16)> {
        let mut hops = Vec::new();
        let mut cur = src;
        while cur != dst {
            let p = self.out_port(cur, dst, flow);
            hops.push((cur, p));
            cur = topo.link(cur, p).peer;
            assert!(hops.len() <= topo.node_count(), "routing loop detected");
        }
        hops
    }

    /// The selection discipline.
    pub fn select(&self) -> RouteSelect {
        self.select
    }

    /// Pin the route towards `path.last()` along the explicit node
    /// sequence `path` (`[src, hop, .., dst]`): at every node on the
    /// path, the candidate set for that destination collapses to the
    /// single port facing the next hop. Other destinations are
    /// untouched, so several pinned paths (one per destination) compose.
    /// This is how fault-injected route changes (and the deadlock
    /// scenarios' deliberately cyclic routes) are installed at runtime.
    ///
    /// Panics if consecutive path nodes are not directly linked or the
    /// path's last node is not a host.
    #[expect(
        clippy::indexing_slicing,
        clippy::panic,
        reason = "validated statically by topolint's fault-route checks before any plan runs; the panics are the documented contract"
    )]
    pub fn apply_path(&mut self, topo: &Topology, path: &[NodeId]) {
        let Some(&dst) = path.last() else { return };
        let di = self.dst_index[dst.index()];
        assert!(di != usize::MAX, "pinned path must end at a host");
        for w in path.windows(2) {
            let (u, v) = (w[0], w[1]);
            let p = topo
                .port_towards(u, v)
                .unwrap_or_else(|| panic!("pinned path hop {u:?} -> {v:?} is not a link"));
            // The pinned port goes at the end of `cands` (a cell may have
            // been empty); the cell's old candidates stay behind unused
            // until the next swap recomposes from the baseline tables.
            self.cells[u.index() * self.n_dsts + di] = (self.cands.len() as u32, 1);
            self.cands.push(p);
        }
    }

    /// The directed buffer-dependency relation induced by these tables
    /// (DCFIT's channel-dependency graph): channel `a = (u, p)` depends on
    /// channel `b = (v, q)` when `p` delivers into node `v` and, for some
    /// destination, both `p` at `u` and `q` at `v` are candidate next hops.
    /// Under a lossless flow control, back-pressure on `b` can then
    /// propagate to `a`; a cycle in this relation is a potential PFC/CBFC
    /// deadlock. The union over *all* candidate ports (not the concrete
    /// ECMP/D-mod-k choice) makes the analysis conservative: any selectable
    /// path is considered.
    pub fn channel_dependencies(&self, topo: &Topology) -> BTreeSet<(Channel, Channel)> {
        let mut deps = BTreeSet::new();
        for di in 0..self.n_dsts {
            for u in 0..topo.node_count() {
                let cands = self.cell(u, di);
                if cands.is_empty() {
                    continue;
                }
                let node = NodeId(u as u32);
                for &p in cands {
                    let v = topo.link(node, p).peer;
                    for &q in self.cell(v.index(), di) {
                        deps.insert(((node, p), (v, q)));
                    }
                }
            }
        }
        deps
    }
}

/// Validate that every host can reach every other host (used by builders in
/// tests).
pub fn fully_connected(topo: &Topology, routing: &Routing) -> bool {
    let hosts = topo.hosts();
    for &s in &hosts {
        for &d in &hosts {
            if s != d && routing.candidates(s, d).is_empty() {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{dumbbell, fat_tree, figure2, leaf_spine, Figure2Options, NodeId};
    use lossless_flowctl::{Rate, SimDuration};

    fn r() -> Rate {
        Rate::from_gbps(40)
    }
    fn d() -> SimDuration {
        SimDuration::from_us(4)
    }

    #[test]
    fn dumbbell_routes_through_switch() {
        let db = dumbbell(r(), d());
        let rt = Routing::new(&db.topo, RouteSelect::Ecmp);
        let path = rt.path(&db.topo, db.h0, db.h1, FlowId(1));
        assert_eq!(path.len(), 2); // h0 -> sw -> h1
        assert_eq!(path[0].0, db.h0);
        assert_eq!(path[1].0, db.sw);
    }

    #[test]
    fn figure2_f1_path_traverses_p0_p1_p2_p3() {
        let f = figure2(Figure2Options::default());
        let rt = Routing::new(&f.topo, RouteSelect::Ecmp);
        let path = rt.path(&f.topo, f.s1, f.r1, FlowId(1));
        // S1 -> T0 -> T1 -> T2 -> T3 -> R1: the switch hops use exactly
        // ports P0..P3.
        assert_eq!(path.len(), 5);
        assert_eq!(&path[1..], &[f.p0, f.p1, f.p2, f.p3]);
    }

    #[test]
    fn figure2_f0_exits_at_t3_to_r0() {
        let f = figure2(Figure2Options::default());
        let rt = Routing::new(&f.topo, RouteSelect::Ecmp);
        let path = rt.path(&f.topo, f.s0, f.r0, FlowId(2));
        // F0 shares P0, P1, P2 with F1 but diverges at T3.
        assert_eq!(&path[1..4], &[f.p0, f.p1, f.p2]);
        let last = path.last().unwrap();
        assert_eq!(last.0, f.t[3]);
        assert_ne!(*last, f.p3);
    }

    #[test]
    fn fat_tree_all_pairs_reachable() {
        let ft = fat_tree(4, r(), d());
        let rt = Routing::new(&ft.topo, RouteSelect::Ecmp);
        assert!(fully_connected(&ft.topo, &rt));
    }

    #[test]
    fn fat_tree_paths_have_expected_lengths() {
        let ft = fat_tree(4, r(), d());
        let rt = Routing::new(&ft.topo, RouteSelect::Ecmp);
        // Same edge switch: 2 hops (host->edge->host).
        let p = rt.path(&ft.topo, ft.hosts[0], ft.hosts[1], FlowId(7));
        assert_eq!(p.len(), 2);
        // Different pods: host->edge->agg->core->agg->edge->host = 6 hops.
        let far = *ft.hosts.last().unwrap();
        let p = rt.path(&ft.topo, ft.hosts[0], far, FlowId(7));
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn ecmp_is_per_flow_deterministic_and_spreads() {
        let ft = fat_tree(4, r(), d());
        let rt = Routing::new(&ft.topo, RouteSelect::Ecmp);
        let src = ft.hosts[0];
        let dst = *ft.hosts.last().unwrap();
        let p1 = rt.path(&ft.topo, src, dst, FlowId(1));
        assert_eq!(p1, rt.path(&ft.topo, src, dst, FlowId(1)), "deterministic");
        // Many flows should use more than one distinct path.
        let mut distinct = std::collections::BTreeSet::new();
        for f in 0..64u32 {
            distinct.insert(rt.path(&ft.topo, src, dst, FlowId(f)));
        }
        assert!(distinct.len() > 1, "ECMP should spread flows");
    }

    #[test]
    fn dmodk_ignores_flow_id() {
        let ft = fat_tree(4, r(), d());
        let rt = Routing::new(&ft.topo, RouteSelect::DModK);
        let src = ft.hosts[0];
        let dst = *ft.hosts.last().unwrap();
        let p1 = rt.path(&ft.topo, src, dst, FlowId(1));
        let p2 = rt.path(&ft.topo, src, dst, FlowId(999));
        assert_eq!(p1, p2, "D-mod-k is destination-deterministic");
    }

    #[test]
    fn dmodk_spreads_destinations() {
        let ft = fat_tree(4, r(), d());
        let rt = Routing::new(&ft.topo, RouteSelect::DModK);
        let src = ft.hosts[0];
        // Destinations in a remote pod should spread over upward ports.
        let mut first_hops = std::collections::BTreeSet::new();
        for &dst in ft.hosts.iter().skip(8) {
            let edge_port = rt.path(&ft.topo, src, dst, FlowId(0))[1].1;
            first_hops.insert(edge_port);
        }
        assert!(first_hops.len() > 1, "D-mod-k should spread destinations");
    }

    #[test]
    fn leaf_spine_routes() {
        let ls = leaf_spine(3, 2, 4, r(), d());
        let rt = Routing::new(&ls.topo, RouteSelect::Ecmp);
        assert!(fully_connected(&ls.topo, &rt));
        let p = rt.path(&ls.topo, ls.hosts[0], *ls.hosts.last().unwrap(), FlowId(3));
        assert_eq!(p.len(), 4); // host->leaf->spine->leaf->host
    }

    #[test]
    #[should_panic]
    fn unreachable_destination_panics() {
        // Two disconnected hosts.
        let mut b = crate::topology::Topology::builder();
        let s1 = b.switch("s1");
        let s2 = b.switch("s2");
        let h1 = b.host("h1");
        let h2 = b.host("h2");
        b.link(h1, s1, r(), d());
        b.link(h2, s2, r(), d());
        let topo = b.build();
        let rt = Routing::new(&topo, RouteSelect::Ecmp);
        let _ = rt.out_port(h1, h2, FlowId(0));
    }

    #[test]
    fn channel_dependencies_are_link_adjacent_and_acyclic_on_trees() {
        let db = dumbbell(r(), d());
        let rt = Routing::new(&db.topo, RouteSelect::Ecmp);
        let deps = rt.channel_dependencies(&db.topo);
        assert!(!deps.is_empty());
        // Every dependency follows a physical link: the first channel's
        // link must terminate at the second channel's node.
        for &((u, p), (v, _q)) in &deps {
            assert_eq!(db.topo.link(u, p).peer, v);
        }
        // A dumbbell is a tree: no channel can transitively depend on
        // itself. Check via DFS from every channel.
        let chans: std::collections::BTreeSet<_> = deps.iter().map(|&(a, _)| a).collect();
        for &start in &chans {
            let mut stack = vec![start];
            let mut seen = std::collections::BTreeSet::new();
            while let Some(c) = stack.pop() {
                for &(a, b) in &deps {
                    if a == c && seen.insert(b) {
                        assert_ne!(b, start, "cycle through {start:?}");
                        stack.push(b);
                    }
                }
            }
        }
    }

    #[test]
    fn candidates_are_sorted_and_minimal() {
        let ft = fat_tree(4, r(), d());
        let rt = Routing::new(&ft.topo, RouteSelect::Ecmp);
        let src_edge = ft.edges[0];
        let far_host = *ft.hosts.last().unwrap();
        let cands = rt.candidates(src_edge, far_host);
        // From an edge switch to a remote pod: both aggregation uplinks.
        assert_eq!(cands.len(), 2);
        assert!(cands.windows(2).all(|w| w[0] < w[1]));
        let _ = NodeId(0);
    }
}
