//! Property-based end-to-end tests: random topologies and random flow
//! sets must always satisfy the network's global invariants — lossless
//! delivery, byte conservation, causal completion times — under both flow
//! controls and all detectors.

use proptest::prelude::*;
use tcd_repro::flowctl::{Rate, SimDuration, SimTime};
use tcd_repro::netsim::cchooks::FixedRate;
use tcd_repro::netsim::config::DetectorKind;
use tcd_repro::netsim::routing::RouteSelect;
use tcd_repro::netsim::topology::leaf_spine;
use tcd_repro::netsim::Simulator;
use tcd_repro::scenarios::{default_config, Network};

#[derive(Debug, Clone)]
struct FlowPlan {
    src: usize,
    dst: usize,
    size: u64,
    start_us: u64,
    rate_mbps: u64,
}

fn flow_plan(n_hosts: usize) -> impl Strategy<Value = FlowPlan> {
    (
        0..n_hosts,
        0..n_hosts,
        1_000u64..400_000,
        0u64..500,
        100u64..40_000,
    )
        .prop_map(|(src, dst, size, start_us, rate_mbps)| FlowPlan {
            src,
            dst,
            size,
            start_us,
            rate_mbps,
        })
}

fn run_plan(network: Network, use_tcd: bool, plans: &[FlowPlan]) -> Simulator {
    let ls = leaf_spine(3, 2, 4, Rate::from_gbps(40), SimDuration::from_us(2));
    let cfg = default_config(network, use_tcd, SimTime::from_ms(60));
    let mut sim = Simulator::new(ls.topo.clone(), cfg, network.routing());
    for p in plans {
        let src = ls.hosts[p.src % ls.hosts.len()];
        let mut dst = ls.hosts[p.dst % ls.hosts.len()];
        if dst == src {
            dst = ls.hosts[(p.dst + 1) % ls.hosts.len()];
        }
        sim.add_flow(
            src,
            dst,
            p.size,
            SimTime::from_us(p.start_us),
            Box::new(FixedRate::new(Rate::from_mbps(p.rate_mbps))),
        );
    }
    sim.run_until_all_complete();
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cee_random_flows_are_lossless_and_complete(
        plans in proptest::collection::vec(flow_plan(12), 1..14)
    ) {
        let sim = run_plan(Network::Cee, false, &plans);
        for rec in sim.trace.records() {
            prop_assert!(rec.end.is_some(), "flow {:?} did not complete", rec.flow);
            prop_assert_eq!(rec.delivered.bytes, rec.size, "byte conservation");
            // Completion cannot beat physics: serialization at 40G plus
            // one propagation delay.
            let min = Rate::from_gbps(40).serialize_time(rec.size).as_ps() + 2_000_000;
            prop_assert!(rec.fct().unwrap().as_ps() >= min, "FCT beats light speed");
        }
    }

    #[test]
    fn ib_random_flows_are_lossless_and_complete(
        plans in proptest::collection::vec(flow_plan(12), 1..10)
    ) {
        let sim = run_plan(Network::Ib, false, &plans);
        for rec in sim.trace.records() {
            prop_assert!(rec.end.is_some(), "flow {:?} did not complete", rec.flow);
            prop_assert_eq!(rec.delivered.bytes, rec.size);
        }
    }

    #[test]
    fn tcd_marks_are_a_subset_of_deliveries(
        plans in proptest::collection::vec(flow_plan(12), 1..10)
    ) {
        let sim = run_plan(Network::Cee, true, &plans);
        for rec in sim.trace.records() {
            prop_assert!(rec.delivered.ce + rec.delivered.ue <= rec.delivered.pkts,
                "a packet carries at most one final code point");
        }
    }

    #[test]
    fn detector_choice_never_breaks_losslessness(
        plans in proptest::collection::vec(flow_plan(8), 1..8),
        det in 0u8..3
    ) {
        let ls = leaf_spine(2, 2, 4, Rate::from_gbps(40), SimDuration::from_us(2));
        let mut cfg = default_config(Network::Cee, det == 2, SimTime::from_ms(60));
        if det == 0 {
            cfg.detector = DetectorKind::None;
        }
        let mut sim = Simulator::new(ls.topo.clone(), cfg, RouteSelect::Ecmp);
        for p in &plans {
            let src = ls.hosts[p.src % ls.hosts.len()];
            let mut dst = ls.hosts[p.dst % ls.hosts.len()];
            if dst == src {
                dst = ls.hosts[(p.dst + 1) % ls.hosts.len()];
            }
            sim.add_flow(
                src,
                dst,
                p.size,
                SimTime::from_us(p.start_us),
                Box::new(FixedRate::new(Rate::from_mbps(p.rate_mbps))),
            );
        }
        sim.run_until_all_complete();
        for rec in sim.trace.records() {
            prop_assert!(rec.end.is_some());
            prop_assert_eq!(rec.delivered.bytes, rec.size);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Lossy mode: drops may happen, but go-back-N delivers every byte of
    /// every flow exactly once, for arbitrary flow sets.
    #[test]
    fn lossy_random_flows_conserve_bytes(
        plans in proptest::collection::vec(flow_plan(8), 1..8)
    ) {
        use tcd_repro::netsim::config::SimConfig;
        let ls = leaf_spine(2, 2, 4, Rate::from_gbps(40), SimDuration::from_us(2));
        let cfg = SimConfig::lossy_baseline(SimTime::from_ms(200), 100 * 1024);
        let mut sim = Simulator::new(ls.topo.clone(), cfg, RouteSelect::Ecmp);
        for p in &plans {
            let src = ls.hosts[p.src % ls.hosts.len()];
            let mut dst = ls.hosts[p.dst % ls.hosts.len()];
            if dst == src {
                dst = ls.hosts[(p.dst + 1) % ls.hosts.len()];
            }
            sim.add_flow(
                src,
                dst,
                p.size,
                SimTime::from_us(p.start_us),
                Box::new(FixedRate::new(Rate::from_mbps(p.rate_mbps))),
            );
        }
        sim.run_until_all_complete();
        for rec in sim.trace.records() {
            prop_assert!(rec.end.is_some(), "flow {:?} never completed", rec.flow);
            prop_assert_eq!(rec.delivered.bytes, rec.size, "exactly-once delivery");
        }
    }
}
