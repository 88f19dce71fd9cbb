//! Property tests of the fault plan against the engine: arbitrary seeded
//! interleavings of link flaps, rate degradations and route changes must
//! leave every observable output bit-deterministic on repeat, never cost
//! a packet on the lossless fabrics, and
//! (in audit builds) never violate an invariant family — in particular
//! Causality: fault dispatch never schedules into the past.

use lossless_flowctl::{Rate, SimDuration, SimTime};
use lossless_netsim::cchooks::FixedRate;
use lossless_netsim::config::SimConfig;
use lossless_netsim::fault::FaultPlan;
use lossless_netsim::routing::{RouteSelect, Routing};
use lossless_netsim::topology::{
    dumbbell, fat_tree, figure2, leaf_spine, Figure2Options, NodeId, NodeKind, Topology,
};
use lossless_netsim::{FlowId, Simulator};
use proptest::prelude::*;

/// Faults land inside the first 300 µs; the run gets another 100 µs of
/// healthy fabric to drain and recover.
fn horizon() -> SimTime {
    SimTime::from_us(300)
}

fn end() -> SimTime {
    SimTime::from_us(400)
}

/// Every switch egress in the topology is a fault candidate (the plan
/// downs both directions of the attached link, so host access links are
/// covered through their switch end).
fn candidates(topo: &Topology) -> Vec<(NodeId, u16)> {
    let mut out = Vec::new();
    for n in 0..topo.node_count() as u32 {
        let id = NodeId(n);
        if topo.kind(id) != NodeKind::Switch {
            continue;
        }
        for p in 0..topo.ports(id).len() as u16 {
            out.push((id, p));
        }
    }
    out
}

/// The observable surface a faulted run is judged on.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    events: u64,
    forwarded: u64,
    delivered: Vec<u64>,
    drops: u64,
    registry_fp: u64,
}

/// Build and run one faulted scenario; panics (inside proptest) on any
/// invariant violation in audit builds. `shape` picks the topology: the
/// single-path dumbbell and Figure 2, or a multi-path leaf-spine and k=4
/// fat-tree where ECMP spreads a host permutation over parallel links.
fn run_one(shape: u8, seed: u64, n: usize) -> Observed {
    let rate = Rate::from_gbps(40);
    let (topo, flows): (Topology, Vec<(NodeId, NodeId)>) = match shape % 4 {
        0 => {
            let d = dumbbell(rate, SimDuration::from_us(4));
            (d.topo, vec![(d.h0, d.h1), (d.h1, d.h0)])
        }
        1 => {
            let f = figure2(Figure2Options::default());
            (f.topo, vec![(f.s0, f.r0), (f.s2, f.r0), (f.s1, f.r1)])
        }
        multi_path => {
            let (topo, hosts) = if multi_path == 2 {
                let ls = leaf_spine(2, 2, 3, rate, SimDuration::from_us(1));
                (ls.topo, ls.hosts)
            } else {
                let ft = fat_tree(4, rate, SimDuration::from_us(1));
                (ft.topo, ft.hosts)
            };
            let at = |i: usize| hosts[(i + seed as usize) % hosts.len()];
            let flows = (0..hosts.len()).map(|i| (at(i), at(i + 1))).collect();
            (topo, flows)
        }
    };
    // The route set pins the path flow 0 takes anyway.
    let (src, dst) = flows[0];
    let mut route: Vec<NodeId> = Routing::new(&topo, RouteSelect::Ecmp)
        .path(&topo, src, dst, FlowId(0))
        .into_iter()
        .map(|(node, _)| node)
        .collect();
    route.push(dst);

    let mut cfg = SimConfig::cee_baseline(end());
    let mut plan = FaultPlan::random(seed, &candidates(&topo), horizon(), n);
    // A routing swap mid-faults and the revert later, so the atomic
    // table-swap machinery runs interleaved with flaps and degrades.
    plan.route_sets.push(vec![route]);
    plan.route_change(SimTime::from_ps(horizon().as_ps() / 3), Some(0));
    plan.route_change(SimTime::from_ps(horizon().as_ps() * 2 / 3), None);
    cfg.fault_plan = plan;

    let mut sim = Simulator::new(topo, cfg, RouteSelect::Ecmp);
    #[cfg(feature = "audit")]
    {
        sim.audit_mut().config_mut().mode = lossless_netsim::AuditMode::Record;
        sim.audit_mut().config_mut().checkpoint_every = 512;
    }
    for (i, &(src, dst)) in flows.iter().enumerate() {
        sim.add_flow(
            src,
            dst,
            100_000,
            SimTime::from_us(i as u64),
            Box::new(FixedRate::line_rate()),
        );
    }
    sim.run();

    // Every plan pairs onset with recovery before the horizon, so the
    // fabric must be healthy again by the end — whatever the
    // interleaving (including overlapping windows on one link).
    assert!(
        sim.links().all_healthy(),
        "paired plan must leave the fabric healthy"
    );
    // Dark links hold their queues without deadlocking anything.
    assert_eq!(sim.deadlock(), None, "faulted run deadlocked");
    #[cfg(feature = "audit")]
    {
        use lossless_netsim::InvariantFamily;
        let audit = sim.audit();
        assert!(
            audit.is_clean(),
            "faulted run violated invariants: {:?}",
            audit.violations()
        );
        // Causality clean ⇒ nothing was scheduled into the past.
        assert!(audit.checks(InvariantFamily::Causality) > 0);
        assert!(audit.checks(InvariantFamily::Liveness) > 0);
    }

    Observed {
        events: sim.trace.events,
        forwarded: sim.trace.forwarded_pkts,
        delivered: sim.trace.records().map(|f| f.delivered.bytes).collect(),
        drops: sim.trace.drops,
        registry_fp: sim.obs_registry().fingerprint(),
    }
}

proptest! {
    // Full simulations per case: keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any seeded interleaving of flaps, degradations and route changes:
    /// lossless (zero drops) and bit-deterministic on repeat.
    #[test]
    fn random_fault_plans_stay_lossless_and_deterministic(
        seed in any::<u64>(),
        n in 0usize..8,
        shape in any::<u8>(),
    ) {
        let first = run_one(shape, seed, n);
        prop_assert_eq!(first.drops, 0, "lossless fabric dropped under faults");

        let again = run_one(shape, seed, n);
        prop_assert_eq!(&first, &again, "faulted run is not reproducible");
    }
}
