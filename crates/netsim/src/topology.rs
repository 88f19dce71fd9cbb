//! Network topology: nodes, ports and full-duplex links, plus builders for
//! the topologies the paper evaluates on.
//!
//! * [`figure2`] — the paper's Figure 2 unit scenario (a chain of four
//!   switches with burst senders and two receivers), used by the §3
//!   observations, the §5.1 microbenchmarks and the §5.2 victim/fairness
//!   case studies;
//! * [`fat_tree`] — a k-ary fat-tree (Fig. 16: k = 10, 250 hosts;
//!   Fig. 17: k = 16, 1024 hosts);
//! * [`leaf_spine`] — a generic leaf-spine for additional experiments;
//! * [`dumbbell`] — the minimal two-host topology used by unit tests;
//! * [`testbed_compact`] — the §5.1.1 DPDK-testbed variant of Figure 2
//!   (switch T0 directly connected to T2, 10 Gbps links).

use lossless_flowctl::{Rate, SimDuration};

/// Index of a node (host or switch) in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An endpoint with a single NIC port.
    Host,
    /// A switch.
    Switch,
}

/// One direction of a link as seen from a port: who is at the other end and
/// what the wire does.
#[derive(Debug, Clone, Copy)]
pub struct LinkEnd {
    /// Peer node.
    pub peer: NodeId,
    /// Port index at the peer through which our transmissions arrive.
    pub peer_port: u16,
    /// Link capacity.
    pub rate: Rate,
    /// Propagation delay.
    pub delay: SimDuration,
}

/// An immutable network topology.
#[derive(Debug, Clone)]
pub struct Topology {
    kinds: Vec<NodeKind>,
    names: Vec<String>,
    /// The link ends of every node, node-major: node `n` owns
    /// `links[first[n]..first[n + 1]]`, one entry per port.
    links: Vec<LinkEnd>,
    /// Offset of each node's first port in `links` (`node_count + 1`
    /// entries).
    first: Vec<u32>,
}

impl Topology {
    /// Start building a topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder {
            kinds: Vec::new(),
            names: Vec::new(),
            ports: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Kind of a node.
    #[expect(
        clippy::indexing_slicing,
        reason = "node ids are minted by this topology's builder, which pushes one kind per node"
    )]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kinds[n.index()]
    }

    /// Human-readable name of a node.
    #[expect(
        clippy::indexing_slicing,
        reason = "node ids are minted by this topology's builder, which pushes one name per node"
    )]
    pub fn name(&self, n: NodeId) -> &str {
        &self.names[n.index()]
    }

    /// All ports of a node.
    #[expect(
        clippy::indexing_slicing,
        reason = "node ids are minted by this topology's builder; `first` has node_count + 1 monotone entries bounded by links.len()"
    )]
    pub fn ports(&self, n: NodeId) -> &[LinkEnd] {
        &self.links[self.first[n.index()] as usize..self.first[n.index() + 1] as usize]
    }

    /// The link attached to `(node, port)`.
    #[expect(
        clippy::indexing_slicing,
        reason = "node/port pairs originate from this topology's own tables"
    )]
    pub fn link(&self, n: NodeId, port: u16) -> &LinkEnd {
        &self.ports(n)[port as usize]
    }

    /// All host node ids, in id order.
    pub fn hosts(&self) -> Vec<NodeId> {
        (0..self.node_count() as u32)
            .map(NodeId)
            .filter(|&n| self.kind(n) == NodeKind::Host)
            .collect()
    }

    /// All switch node ids, in id order.
    pub fn switches(&self) -> Vec<NodeId> {
        (0..self.node_count() as u32)
            .map(NodeId)
            .filter(|&n| self.kind(n) == NodeKind::Switch)
            .collect()
    }

    /// Find the port on `from` whose link leads to `to`, if directly
    /// connected.
    pub fn port_towards(&self, from: NodeId, to: NodeId) -> Option<u16> {
        self.ports(from)
            .iter()
            .position(|l| l.peer == to)
            .map(|p| p as u16)
    }

    /// Look a node up by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| NodeId(i as u32))
    }
}

/// Incremental topology builder.
#[derive(Debug)]
pub struct TopologyBuilder {
    kinds: Vec<NodeKind>,
    names: Vec<String>,
    ports: Vec<Vec<LinkEnd>>,
}

impl TopologyBuilder {
    /// Add a node and return its id.
    pub fn node(&mut self, name: impl Into<String>, kind: NodeKind) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.names.push(name.into());
        self.ports.push(Vec::new());
        id
    }

    /// Add a host.
    pub fn host(&mut self, name: impl Into<String>) -> NodeId {
        self.node(name, NodeKind::Host)
    }

    /// Add a switch.
    pub fn switch(&mut self, name: impl Into<String>) -> NodeId {
        self.node(name, NodeKind::Switch)
    }

    /// Connect two nodes with a symmetric full-duplex link; returns the
    /// port indices allocated at `(a, b)`.
    #[expect(
        clippy::indexing_slicing,
        reason = "builder-time only; node ids were minted by this builder"
    )]
    pub fn link(&mut self, a: NodeId, b: NodeId, rate: Rate, delay: SimDuration) -> (u16, u16) {
        assert_ne!(a, b, "self-links are not allowed");
        let pa = self.ports[a.index()].len() as u16;
        let pb = self.ports[b.index()].len() as u16;
        self.ports[a.index()].push(LinkEnd {
            peer: b,
            peer_port: pb,
            rate,
            delay,
        });
        self.ports[b.index()].push(LinkEnd {
            peer: a,
            peer_port: pa,
            rate,
            delay,
        });
        (pa, pb)
    }

    /// Finish building.
    #[expect(
        clippy::indexing_slicing,
        reason = "i enumerates kinds, and the builder pushes kinds, names and ports together"
    )]
    pub fn build(self) -> Topology {
        for (i, k) in self.kinds.iter().enumerate() {
            if *k == NodeKind::Host {
                assert_eq!(
                    self.ports[i].len(),
                    1,
                    "host {} must have exactly one NIC port",
                    self.names[i]
                );
            }
        }
        let mut first = Vec::with_capacity(self.ports.len() + 1);
        let mut links = Vec::new();
        for node_ports in self.ports {
            first.push(links.len() as u32);
            links.extend(node_ports);
        }
        first.push(links.len() as u32);
        Topology {
            kinds: self.kinds,
            names: self.names,
            links,
            first,
        }
    }
}

/// Handles into the Figure-2 scenario topology.
///
/// Layout (reconstructed from §3.1, §5.1.3 and §5.2.4 of the paper):
///
/// ```text
/// S0 ─┐                       ┌─ A0 … A(n-1)
/// S1 ─┤ T0 ──P0── T1 ──P1── T2 ──P2── T3 ──P3── R1
///     │               S2 ────┘       │└──── R0
///     └ (B0…B3 ─ L0 ───────── T2, optional, §5.2.4)
/// ```
///
/// * `P3` (T3 → R1) is the congestion root for the incast bursts;
/// * `P2` (T2 → T3) carries F0/F1/F2 and becomes a second (covered)
///   congestion point when F0/F2 send 25 Gbps each;
/// * `P1`, `P0` are further upstream on F1's path and only ever suffer
///   congestion spreading.
#[derive(Debug, Clone)]
pub struct Figure2 {
    /// The topology itself.
    pub topo: Topology,
    /// Host S0 (sends F0 → R0), attached to T0.
    pub s0: NodeId,
    /// Host S1 (sends F1 → R1), attached to T0.
    pub s1: NodeId,
    /// Host S2 (sends F2 → R0), attached to T2.
    pub s2: NodeId,
    /// Burst senders A0…A(n-1), attached to T3.
    pub bursters: Vec<NodeId>,
    /// Receiver R0, attached to T3.
    pub r0: NodeId,
    /// Receiver R1, attached to T3.
    pub r1: NodeId,
    /// Optional hosts B0…B3 on leaf L0 (fairness scenario, §5.2.4).
    pub b_hosts: Vec<NodeId>,
    /// Optional leaf switch L0.
    pub l0: Option<NodeId>,
    /// Switches T0…T3 along the chain.
    pub t: [NodeId; 4],
    /// Port P0: T0's egress towards T1, as `(node, port)`.
    pub p0: (NodeId, u16),
    /// Port P1: T1's egress towards T2.
    pub p1: (NodeId, u16),
    /// Port P2: T2's egress towards T3.
    pub p2: (NodeId, u16),
    /// Port P3: T3's egress towards R1.
    pub p3: (NodeId, u16),
}

/// Options for [`figure2`].
#[derive(Debug, Clone, Copy)]
pub struct Figure2Options {
    /// Link rate everywhere except overridden edge links (paper: 40 Gbps).
    pub rate: Rate,
    /// Propagation delay on every link (paper: 4 µs).
    pub delay: SimDuration,
    /// Number of burst senders (paper: 15, A0–A14).
    pub bursters: usize,
    /// Override for the S0–T0 and S1–T0 edge links (victim scenario §5.1.3
    /// sets these to 20 Gbps).
    pub s_edge_rate: Option<Rate>,
    /// Add L0 with B0…B3 for the fairness scenario (§5.2.4).
    pub with_b_hosts: bool,
}

impl Default for Figure2Options {
    fn default() -> Self {
        Figure2Options {
            rate: Rate::from_gbps(40),
            delay: SimDuration::from_us(4),
            bursters: 15,
            s_edge_rate: None,
            with_b_hosts: false,
        }
    }
}

/// Build the paper's Figure-2 unit scenario.
pub fn figure2(opt: Figure2Options) -> Figure2 {
    let mut b = Topology::builder();
    let t0 = b.switch("T0");
    let t1 = b.switch("T1");
    let t2 = b.switch("T2");
    let t3 = b.switch("T3");

    let s_rate = opt.s_edge_rate.unwrap_or(opt.rate);
    let s0 = b.host("S0");
    let s1 = b.host("S1");
    let s2 = b.host("S2");
    b.link(s0, t0, s_rate, opt.delay);
    b.link(s1, t0, s_rate, opt.delay);
    b.link(s2, t2, opt.rate, opt.delay);

    let (p0, _) = b.link(t0, t1, opt.rate, opt.delay);
    let (p1, _) = b.link(t1, t2, opt.rate, opt.delay);
    let (p2, _) = b.link(t2, t3, opt.rate, opt.delay);

    let r0 = b.host("R0");
    let r1 = b.host("R1");
    b.link(t3, r0, opt.rate, opt.delay);
    let (p3, _) = b.link(t3, r1, opt.rate, opt.delay);

    let mut bursters = Vec::with_capacity(opt.bursters);
    for i in 0..opt.bursters {
        let a = b.host(format!("A{i}"));
        b.link(a, t3, opt.rate, opt.delay);
        bursters.push(a);
    }

    let (l0, b_hosts) = if opt.with_b_hosts {
        let l0 = b.switch("L0");
        let mut hs = Vec::with_capacity(4);
        for i in 0..4 {
            let h = b.host(format!("B{i}"));
            b.link(h, l0, opt.rate, opt.delay);
            hs.push(h);
        }
        b.link(l0, t2, opt.rate, opt.delay);
        (Some(l0), hs)
    } else {
        (None, Vec::new())
    };

    Figure2 {
        topo: b.build(),
        s0,
        s1,
        s2,
        bursters,
        r0,
        r1,
        b_hosts,
        l0,
        t: [t0, t1, t2, t3],
        p0: (t0, p0),
        p1: (t1, p1),
        p2: (t2, p2),
        p3: (t3, p3),
    }
}

/// The §5.1.1 DPDK-testbed variant: Figure 2 compacted to two switches (T0
/// directly connected to T2), 10 Gbps links, a single burst sender A0, and
/// receivers on T2. Port `P0` is T0's egress towards T2.
#[derive(Debug, Clone)]
pub struct TestbedCompact {
    /// The topology.
    pub topo: Topology,
    /// Host S0 (F0 → R0).
    pub s0: NodeId,
    /// Host S1 (F1 → R1).
    pub s1: NodeId,
    /// Burst sender A0.
    pub a0: NodeId,
    /// Receiver R0.
    pub r0: NodeId,
    /// Receiver R1.
    pub r1: NodeId,
    /// Switch T0 (hosts side).
    pub t0: NodeId,
    /// Switch T2 (receivers side).
    pub t2: NodeId,
    /// Port P0: T0's egress towards T2.
    pub p0: (NodeId, u16),
    /// T2's egress towards R1 (the congestion root).
    pub p_r1: (NodeId, u16),
}

/// Build the testbed-compact topology.
pub fn testbed_compact(rate: Rate, delay: SimDuration) -> TestbedCompact {
    let mut b = Topology::builder();
    let t0 = b.switch("T0");
    let t2 = b.switch("T2");
    let s0 = b.host("S0");
    let s1 = b.host("S1");
    b.link(s0, t0, rate, delay);
    b.link(s1, t0, rate, delay);
    let (p0, _) = b.link(t0, t2, rate, delay);
    let a0 = b.host("A0");
    b.link(a0, t2, rate, delay);
    let r0 = b.host("R0");
    let r1 = b.host("R1");
    b.link(t2, r0, rate, delay);
    let (p_r1, _) = b.link(t2, r1, rate, delay);
    TestbedCompact {
        topo: b.build(),
        s0,
        s1,
        a0,
        r0,
        r1,
        t0,
        t2,
        p0: (t0, p0),
        p_r1: (t2, p_r1),
    }
}

/// A k-ary fat-tree topology (Al-Fares et al., SIGCOMM'08): `k` pods, each
/// with `k/2` edge and `k/2` aggregation switches, `(k/2)²` core switches,
/// and `k/2` hosts per edge switch — `k³/4` hosts total.
#[derive(Debug, Clone)]
pub struct FatTree {
    /// The topology.
    pub topo: Topology,
    /// All hosts, in pod/edge order.
    pub hosts: Vec<NodeId>,
    /// Edge (top-of-rack) switches, `k²/2` of them.
    pub edges: Vec<NodeId>,
    /// Aggregation switches, `k²/2`.
    pub aggs: Vec<NodeId>,
    /// Core switches, `(k/2)²`.
    pub cores: Vec<NodeId>,
    /// The arity `k`.
    pub k: usize,
}

/// Build a k-ary fat-tree with uniform link rate and delay. `k` must be
/// even and at least 2.
#[expect(
    clippy::indexing_slicing,
    reason = "i and j range over 0..half and cores has half * half entries"
)]
pub fn fat_tree(k: usize, rate: Rate, delay: SimDuration) -> FatTree {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree arity must be even and >= 2"
    );
    let half = k / 2;
    let mut b = Topology::builder();

    let cores: Vec<NodeId> = (0..half * half)
        .map(|i| b.switch(format!("core{i}")))
        .collect();
    let mut edges = Vec::with_capacity(k * half);
    let mut aggs = Vec::with_capacity(k * half);
    let mut hosts = Vec::with_capacity(k * half * half);

    for pod in 0..k {
        let pod_aggs: Vec<NodeId> = (0..half)
            .map(|i| b.switch(format!("agg{pod}_{i}")))
            .collect();
        let pod_edges: Vec<NodeId> = (0..half)
            .map(|i| b.switch(format!("edge{pod}_{i}")))
            .collect();
        // Edge <-> aggregation full mesh within the pod.
        for &e in &pod_edges {
            for &a in &pod_aggs {
                b.link(e, a, rate, delay);
            }
        }
        // Aggregation i connects to cores [i*half, (i+1)*half).
        for (i, &a) in pod_aggs.iter().enumerate() {
            for j in 0..half {
                b.link(a, cores[i * half + j], rate, delay);
            }
        }
        // Hosts.
        for (ei, &e) in pod_edges.iter().enumerate() {
            for h in 0..half {
                let host = b.host(format!("h{pod}_{ei}_{h}"));
                b.link(host, e, rate, delay);
                hosts.push(host);
            }
        }
        aggs.extend(pod_aggs);
        edges.extend(pod_edges);
    }

    FatTree {
        topo: b.build(),
        hosts,
        edges,
        aggs,
        cores,
        k,
    }
}

/// A two-tier leaf-spine topology with `leaves × hosts_per_leaf` hosts.
#[derive(Debug, Clone)]
pub struct LeafSpine {
    /// The topology.
    pub topo: Topology,
    /// All hosts, grouped by leaf.
    pub hosts: Vec<NodeId>,
    /// Leaf switches.
    pub leaves: Vec<NodeId>,
    /// Spine switches.
    pub spines: Vec<NodeId>,
}

/// Build a leaf-spine topology.
pub fn leaf_spine(
    leaves: usize,
    spines: usize,
    hosts_per_leaf: usize,
    rate: Rate,
    delay: SimDuration,
) -> LeafSpine {
    assert!(leaves > 0 && spines > 0 && hosts_per_leaf > 0);
    let mut b = Topology::builder();
    let spine_ids: Vec<NodeId> = (0..spines).map(|i| b.switch(format!("spine{i}"))).collect();
    let mut leaf_ids = Vec::with_capacity(leaves);
    let mut hosts = Vec::with_capacity(leaves * hosts_per_leaf);
    for l in 0..leaves {
        let leaf = b.switch(format!("leaf{l}"));
        for &s in &spine_ids {
            b.link(leaf, s, rate, delay);
        }
        for h in 0..hosts_per_leaf {
            let host = b.host(format!("h{l}_{h}"));
            b.link(host, leaf, rate, delay);
            hosts.push(host);
        }
        leaf_ids.push(leaf);
    }
    LeafSpine {
        topo: b.build(),
        hosts,
        leaves: leaf_ids,
        spines: spine_ids,
    }
}

/// The minimal topology: two hosts joined by one switch (unit tests) —
/// `h0 — sw — h1`.
#[derive(Debug, Clone)]
pub struct Dumbbell {
    /// The topology.
    pub topo: Topology,
    /// First host.
    pub h0: NodeId,
    /// Second host.
    pub h1: NodeId,
    /// The switch.
    pub sw: NodeId,
}

/// Build the dumbbell.
pub fn dumbbell(rate: Rate, delay: SimDuration) -> Dumbbell {
    let mut b = Topology::builder();
    let sw = b.switch("sw");
    let h0 = b.host("h0");
    let h1 = b.host("h1");
    b.link(h0, sw, rate, delay);
    b.link(h1, sw, rate, delay);
    Dumbbell {
        topo: b.build(),
        h0,
        h1,
        sw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r() -> Rate {
        Rate::from_gbps(40)
    }
    fn d() -> SimDuration {
        SimDuration::from_us(4)
    }

    #[test]
    fn builder_links_are_symmetric() {
        let db = dumbbell(r(), d());
        let t = &db.topo;
        assert_eq!(t.node_count(), 3);
        let l = t.link(db.h0, 0);
        assert_eq!(l.peer, db.sw);
        let back = t.link(db.sw, l.peer_port);
        assert_eq!(back.peer, db.h0);
        assert_eq!(back.peer_port, 0);
    }

    #[test]
    fn figure2_structure() {
        let f = figure2(Figure2Options::default());
        let t = &f.topo;
        // 4 switches + 3 S hosts + 2 receivers + 15 bursters = 24 nodes.
        assert_eq!(t.node_count(), 24);
        assert_eq!(t.hosts().len(), 20);
        assert_eq!(t.switches().len(), 4);
        // P0..P3 point down the chain.
        assert_eq!(t.link(f.p0.0, f.p0.1).peer, f.t[1]);
        assert_eq!(t.link(f.p1.0, f.p1.1).peer, f.t[2]);
        assert_eq!(t.link(f.p2.0, f.p2.1).peer, f.t[3]);
        assert_eq!(t.link(f.p3.0, f.p3.1).peer, f.r1);
        // S2 hangs off T2, bursters off T3.
        assert_eq!(t.link(f.s2, 0).peer, f.t[2]);
        for &a in &f.bursters {
            assert_eq!(t.link(a, 0).peer, f.t[3]);
        }
    }

    #[test]
    fn figure2_edge_rate_override() {
        let f = figure2(Figure2Options {
            s_edge_rate: Some(Rate::from_gbps(20)),
            ..Default::default()
        });
        assert_eq!(f.topo.link(f.s0, 0).rate, Rate::from_gbps(20));
        assert_eq!(f.topo.link(f.s1, 0).rate, Rate::from_gbps(20));
        assert_eq!(f.topo.link(f.s2, 0).rate, Rate::from_gbps(40));
    }

    #[test]
    fn figure2_with_b_hosts() {
        let f = figure2(Figure2Options {
            with_b_hosts: true,
            ..Default::default()
        });
        assert_eq!(f.b_hosts.len(), 4);
        let l0 = f.l0.unwrap();
        assert_eq!(f.topo.port_towards(l0, f.t[2]).map(|_| ()), Some(()));
        for &h in &f.b_hosts {
            assert_eq!(f.topo.link(h, 0).peer, l0);
        }
    }

    #[test]
    fn fat_tree_counts() {
        for k in [2usize, 4, 6] {
            let ft = fat_tree(k, r(), d());
            assert_eq!(ft.hosts.len(), k * k * k / 4, "k={k} hosts");
            assert_eq!(ft.edges.len(), k * k / 2);
            assert_eq!(ft.aggs.len(), k * k / 2);
            assert_eq!(ft.cores.len(), k * k / 4);
            // Every switch in a k-fat-tree has exactly k ports.
            for &s in ft.edges.iter().chain(&ft.aggs).chain(&ft.cores) {
                assert_eq!(ft.topo.ports(s).len(), k, "k={k}");
            }
        }
    }

    #[test]
    fn fat_tree_k10_has_250_hosts() {
        // The Fig. 16 network.
        let ft = fat_tree(10, r(), d());
        assert_eq!(ft.hosts.len(), 250);
    }

    #[test]
    #[should_panic]
    fn fat_tree_rejects_odd_k() {
        let _ = fat_tree(3, r(), d());
    }

    #[test]
    fn leaf_spine_structure() {
        let ls = leaf_spine(4, 2, 8, r(), d());
        assert_eq!(ls.hosts.len(), 32);
        for &leaf in &ls.leaves {
            assert_eq!(ls.topo.ports(leaf).len(), 2 + 8);
        }
        for &spine in &ls.spines {
            assert_eq!(ls.topo.ports(spine).len(), 4);
        }
    }

    #[test]
    fn testbed_compact_structure() {
        let tb = testbed_compact(Rate::from_gbps(10), SimDuration::from_us(1));
        assert_eq!(tb.topo.node_count(), 7);
        assert_eq!(tb.topo.link(tb.p0.0, tb.p0.1).peer, tb.t2);
        assert_eq!(tb.topo.link(tb.p_r1.0, tb.p_r1.1).peer, tb.r1);
    }

    #[test]
    fn node_lookup_by_name() {
        let f = figure2(Figure2Options::default());
        assert_eq!(f.topo.node_by_name("S1"), Some(f.s1));
        assert_eq!(f.topo.node_by_name("T3"), Some(f.t[3]));
        assert_eq!(f.topo.node_by_name("nope"), None);
    }

    #[test]
    #[should_panic]
    fn hosts_must_have_one_port() {
        let mut b = Topology::builder();
        let h = b.host("h");
        let s1 = b.switch("s1");
        let s2 = b.switch("s2");
        b.link(h, s1, r(), d());
        b.link(h, s2, r(), d());
        let _ = b.build();
    }
}
