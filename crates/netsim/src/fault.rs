//! Deterministic fault injection: link flaps, link-rate degradation and
//! routing changes, scheduled up front and dispatched through the normal
//! event queue.
//!
//! A [`FaultPlan`] is part of [`crate::config::SimConfig`]; at
//! construction time the simulator turns every [`FaultEvent`] into a
//! regular engine event (`LinkState` / `LinkRate` / `RouteUpdate`), so
//! fault timing obeys the same `(time, seq)` total order as everything
//! else and runs are bit-reproducible. The runtime side is a
//! [`LinkState`] table holding, per port, everything a transmission
//! needs (peer, delay, health, effective rate, transmitter gate): a
//! downed port holds its queues (the lossless
//! policy — nothing is dropped, PFC/CBFC state is synchronized by the
//! held control frames once the port recovers), and a degraded port
//! serializes at the overridden rate.
//!
//! Faults are modelled on DCFIT's methodology: injected link/route churn
//! is what drives lossless fabrics into the pathological regimes (pause
//! storms, cyclic back-pressure, deadlock) that a static healthy-fabric
//! scenario can never reach.

use crate::event::TxGate;
use crate::topology::{NodeId, Topology};
use lossless_flowctl::{Rate, SimDuration, SimTime};

/// What a single fault event does to the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Take the link attached to `(node, port)` down, in both directions.
    /// In-flight frames already on the wire still arrive; queued frames
    /// are held at the dark port.
    LinkDown,
    /// Bring the link back up; both endpoints immediately re-arm their
    /// transmitters (held PFC/CBFC control frames go out first, which
    /// resynchronizes flow-control state).
    LinkUp,
    /// Degrade the link to the given capacity, in both directions.
    Degrade(Rate),
    /// Restore the link's nominal capacity.
    Restore,
    /// Atomically swap the routing overrides to route set `set` of
    /// [`FaultPlan::route_sets`]; `None` reverts to the baseline tables.
    RouteChange(Option<usize>),
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault takes effect.
    pub at: SimTime,
    /// The node whose port identifies the affected link (ignored for
    /// [`FaultKind::RouteChange`]).
    pub node: NodeId,
    /// The port at `node` (the peer end is affected symmetrically).
    pub port: u16,
    /// What happens.
    pub kind: FaultKind,
}

/// A seeded, immutable schedule of faults, carried in
/// [`crate::config::SimConfig`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// The scheduled faults (any order; the event queue orders them).
    pub events: Vec<FaultEvent>,
    /// Named sets of pinned paths (`[src, hop, .., dst]` node sequences)
    /// that [`FaultKind::RouteChange`] can swap in atomically.
    pub route_sets: Vec<Vec<Vec<NodeId>>>,
}

impl FaultPlan {
    /// True when the plan schedules nothing (the default for every
    /// pre-existing scenario, keeping their event sequences — and hence
    /// golden fingerprints — untouched).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Schedule a link flap: down at `down_at`, back up at `up_at`.
    pub fn flap(&mut self, node: NodeId, port: u16, down_at: SimTime, up_at: SimTime) -> &mut Self {
        assert!(down_at < up_at, "flap must go down before it comes up");
        self.events.push(FaultEvent {
            at: down_at,
            node,
            port,
            kind: FaultKind::LinkDown,
        });
        self.events.push(FaultEvent {
            at: up_at,
            node,
            port,
            kind: FaultKind::LinkUp,
        });
        self
    }

    /// Schedule a rate degradation window: `rate` from `at`, nominal
    /// again at `restore_at`.
    pub fn degrade(
        &mut self,
        node: NodeId,
        port: u16,
        rate: Rate,
        at: SimTime,
        restore_at: SimTime,
    ) -> &mut Self {
        assert!(at < restore_at, "degradation must end after it starts");
        self.events.push(FaultEvent {
            at,
            node,
            port,
            kind: FaultKind::Degrade(rate),
        });
        self.events.push(FaultEvent {
            at: restore_at,
            node,
            port,
            kind: FaultKind::Restore,
        });
        self
    }

    /// Schedule an atomic routing swap to `route_sets[set]` (or back to
    /// the baseline tables with `None`).
    pub fn route_change(&mut self, at: SimTime, set: Option<usize>) -> &mut Self {
        self.events.push(FaultEvent {
            at,
            node: NodeId(0),
            port: 0,
            kind: FaultKind::RouteChange(set),
        });
        self
    }

    /// A seeded random plan over the candidate `(node, port)` links:
    /// `n` flap/degrade windows inside `[0, horizon)`, every one paired
    /// with its recovery so the fabric is healthy again before the
    /// horizon. Deterministic in `seed` (splitmix64), for property tests.
    #[expect(
        clippy::indexing_slicing,
        reason = "the index is taken modulo candidates.len(), non-zero past the early return"
    )]
    pub fn random(
        seed: u64,
        candidates: &[(NodeId, u16)],
        horizon: SimTime,
        n: usize,
    ) -> FaultPlan {
        let mut plan = FaultPlan::default();
        if candidates.is_empty() || horizon == SimTime::ZERO {
            return plan;
        }
        let mut s = seed;
        let mut next = move || {
            // splitmix64, same generator family the engine seeds
            // detectors with.
            s = s.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let span = horizon.as_ps();
        for _ in 0..n {
            let (node, port) = candidates[(next() % candidates.len() as u64) as usize];
            // A window somewhere in the first ~3/4, recovering before the
            // horizon; at least 1 ps wide.
            let a = next() % (span * 3 / 4).max(1);
            let b = a + 1 + next() % (span - a - 1).max(1);
            let (at, to) = (SimTime::from_ps(a), SimTime::from_ps(b.min(span - 1)));
            if to <= at {
                continue;
            }
            if next() % 2 == 0 {
                plan.flap(node, port, at, to);
            } else {
                plan.degrade(node, port, Rate::from_gbps(1 + next() % 10), at, to);
            }
        }
        plan
    }
}

/// Everything one transmission reads and writes about its port, in one
/// record: the far end and wire delay (copied from the [`Topology`] at
/// construction), the link's current health, and the transmitter gate.
#[derive(Debug, Clone)]
pub(crate) struct PortLink {
    /// Peer node.
    pub peer: NodeId,
    /// Port index at the peer through which our transmissions arrive.
    pub peer_port: u16,
    /// Whether the link can transmit.
    pub up: bool,
    /// The rate frames serialize at right now: the degraded override
    /// while one is set, the nominal capacity otherwise. Rewritten only
    /// by [`LinkState::set_rate`].
    pub rate: Rate,
    /// Propagation delay.
    pub delay: SimDuration,
    /// The transmitter's busy/pending bookkeeping.
    pub gate: TxGate,
}

/// The runtime link table: one [`PortLink`] per `(node, port)`, node-major
/// in one flat vector. Owned by the simulator and visible to every node
/// through [`crate::sim::Ctx`].
#[derive(Debug, Clone)]
pub struct LinkState {
    ports: Vec<PortLink>,
    /// Offset of each node's port 0 in `ports`.
    first: Vec<u32>,
    /// The degraded-rate override of each port, if any. Only fault
    /// events, [`all_healthy`](Self::all_healthy) and the auditor read it;
    /// transmissions read the precomputed [`PortLink::rate`].
    overrides: Vec<Option<Rate>>,
}

impl LinkState {
    /// All links up at nominal rate.
    pub fn new(topo: &Topology) -> LinkState {
        let mut first = Vec::with_capacity(topo.node_count());
        let mut ports = Vec::new();
        for n in 0..topo.node_count() as u32 {
            first.push(ports.len() as u32);
            ports.extend(topo.ports(NodeId(n)).iter().map(|l| PortLink {
                peer: l.peer,
                peer_port: l.peer_port,
                up: true,
                rate: l.rate,
                delay: l.delay,
                gate: TxGate::new(),
            }));
        }
        let overrides = vec![None; ports.len()];
        LinkState {
            ports,
            first,
            overrides,
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "the table is sized per node from the same topology the ids come from"
    )]
    fn index(&self, n: NodeId, port: u16) -> usize {
        self.first[n.index()] as usize + port as usize
    }

    /// The link record of `(node, port)`.
    #[expect(
        clippy::indexing_slicing,
        reason = "node/port pairs originate from the topology this table was sized from"
    )]
    pub(crate) fn port_mut(&mut self, n: NodeId, port: u16) -> &mut PortLink {
        let i = self.index(n, port);
        &mut self.ports[i]
    }

    /// Is `(node, port)` currently able to transmit?
    #[expect(
        clippy::indexing_slicing,
        reason = "node/port pairs originate from the topology this table was sized from"
    )]
    pub fn is_up(&self, n: NodeId, port: u16) -> bool {
        self.ports[self.index(n, port)].up
    }

    /// The current capacity of `(node, port)`: its degraded override, or
    /// the nominal rate when none is set.
    #[expect(
        clippy::indexing_slicing,
        reason = "node/port pairs originate from the topology this table was sized from"
    )]
    pub fn rate(&self, n: NodeId, port: u16) -> Rate {
        self.ports[self.index(n, port)].rate
    }

    /// True when every link is up at nominal rate.
    pub fn all_healthy(&self) -> bool {
        self.ports.iter().all(|p| p.up) && self.overrides.iter().all(|r| r.is_none())
    }

    pub(crate) fn set_up(&mut self, n: NodeId, port: u16, up: bool) {
        self.port_mut(n, port).up = up;
    }

    /// Install (`Some`) or lift (`None`) a degraded-rate override;
    /// `nominal` is the topology's capacity for this link.
    #[expect(
        clippy::indexing_slicing,
        reason = "node/port pairs originate from the topology this table was sized from"
    )]
    pub(crate) fn set_rate(&mut self, n: NodeId, port: u16, rate: Option<Rate>, nominal: Rate) {
        let i = self.index(n, port);
        self.overrides[i] = rate;
        self.ports[i].rate = rate.unwrap_or(nominal);
    }

    /// Checkpoint: every port's precomputed rate must equal its override,
    /// or the topology's nominal rate when none is set.
    #[cfg(feature = "audit")]
    #[expect(
        clippy::indexing_slicing,
        reason = "node/port pairs are enumerated from the topology this table was sized from"
    )]
    pub(crate) fn audit_check(&self, topo: &Topology, a: &mut crate::audit::Audit, now: SimTime) {
        for n in 0..topo.node_count() as u32 {
            let node = NodeId(n);
            for (p, l) in topo.ports(node).iter().enumerate() {
                let i = self.index(node, p as u16);
                let want = self.overrides[i].unwrap_or(l.rate);
                let have = self.ports[i].rate;
                if have != want {
                    a.report(crate::audit::Violation {
                        family: crate::audit::InvariantFamily::BufferAccounting,
                        t: now,
                        node,
                        port: p as u16,
                        prio: u8::MAX,
                        message: format!(
                            "link record serializes at {have:?} but override-or-nominal is {want:?}"
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_topo() -> Topology {
        let mut b = Topology::builder();
        let s = b.switch("s0");
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        b.link(h0, s, Rate::from_gbps(40), SimDuration::from_us(4));
        b.link(h1, s, Rate::from_gbps(40), SimDuration::from_us(4));
        b.build()
    }

    #[test]
    fn link_state_tracks_overrides() {
        let topo = tiny_topo();
        let mut ls = LinkState::new(&topo);
        assert!(ls.all_healthy());
        ls.set_up(NodeId(0), 1, false);
        assert!(!ls.is_up(NodeId(0), 1));
        assert!(ls.is_up(NodeId(0), 0));
        assert!(!ls.all_healthy());
        ls.set_up(NodeId(0), 1, true);
        let nominal = Rate::from_gbps(40);
        ls.set_rate(NodeId(0), 0, Some(Rate::from_gbps(10)), nominal);
        assert_eq!(ls.rate(NodeId(0), 0), Rate::from_gbps(10));
        assert_eq!(ls.rate(NodeId(0), 1), nominal);
        assert!(!ls.all_healthy());
        ls.set_rate(NodeId(0), 0, None, nominal);
        assert_eq!(ls.rate(NodeId(0), 0), nominal);
        assert!(ls.all_healthy());
    }

    #[test]
    fn random_plans_pair_every_fault_with_recovery() {
        let cands: Vec<(NodeId, u16)> = vec![(NodeId(0), 0), (NodeId(0), 1)];
        let horizon = SimTime::from_ms(2);
        for seed in 0..32 {
            let plan = FaultPlan::random(seed, &cands, horizon, 6);
            let mut downs = 0i64;
            let mut degrades = 0i64;
            for ev in &plan.events {
                assert!(ev.at < horizon, "fault scheduled past the horizon");
                match ev.kind {
                    FaultKind::LinkDown => downs += 1,
                    FaultKind::LinkUp => downs -= 1,
                    FaultKind::Degrade(_) => degrades += 1,
                    FaultKind::Restore => degrades -= 1,
                    FaultKind::RouteChange(_) => {}
                }
            }
            assert_eq!(downs, 0, "every down must pair with an up");
            assert_eq!(degrades, 0, "every degrade must pair with a restore");
            // Determinism: the same seed reproduces the same plan.
            let again = FaultPlan::random(seed, &cands, horizon, 6);
            assert_eq!(plan.events, again.events);
        }
    }
}
