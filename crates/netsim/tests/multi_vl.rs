//! Multiple virtual lanes with weighted arbitration (paper §4.5): VLs
//! share link bandwidth by weight, pauses/credits are per-VL, and TCD's
//! `max(T_on)` scales with the VL's bandwidth share.

use lossless_flowctl::cbfc::CbfcConfig;
use lossless_flowctl::{Rate, SimDuration, SimTime};
use lossless_netsim::cchooks::FixedRate;
use lossless_netsim::config::{DetectorKind, FlowControlMode, SimConfig};
use lossless_netsim::routing::RouteSelect;
use lossless_netsim::topology::{dumbbell, Topology};
use lossless_netsim::{NodeId, Simulator};
use tcd_core::model::ib_max_ton;
use tcd_core::TcdConfig;

/// Two senders converging on one sink through a single switch, so the
/// switch egress (not the host NICs) is the arbitration point.
struct Fanin {
    topo: Topology,
    s1: NodeId,
    s2: NodeId,
    sink: NodeId,
}

fn fanin(rate: Rate) -> Fanin {
    let mut b = Topology::builder();
    let sw = b.switch("sw");
    let s1 = b.host("s1");
    let s2 = b.host("s2");
    let sink = b.host("sink");
    for h in [s1, s2, sink] {
        b.link(h, sw, rate, SimDuration::from_us(4));
    }
    Fanin {
        topo: b.build(),
        s1,
        s2,
        sink,
    }
}

fn three_vl_cfg(end: SimTime, weights: Vec<u32>) -> SimConfig {
    let mut cfg = SimConfig::ib_baseline(end);
    cfg.num_prios = 3; // VL0 feedback, VL1 + VL2 data
    cfg.vl_weights = Some(weights);
    cfg
}

#[test]
fn wrr_splits_a_saturated_link_by_weight() {
    // Two line-rate flows from different hosts on VL1 and VL2 converge on
    // one switch egress with weights 2:1 — delivered bytes must split
    // roughly 2:1.
    let fi = fanin(Rate::from_gbps(40));
    let end = SimTime::from_ms(10);
    let mut sim = Simulator::new(
        fi.topo.clone(),
        three_vl_cfg(end, vec![0, 2, 1]),
        RouteSelect::DModK,
    );
    let f1 = sim.add_flow_prio(
        fi.s1,
        fi.sink,
        1_000_000_000,
        SimTime::ZERO,
        1,
        Box::new(FixedRate::line_rate()),
    );
    let f2 = sim.add_flow_prio(
        fi.s2,
        fi.sink,
        1_000_000_000,
        SimTime::ZERO,
        2,
        Box::new(FixedRate::line_rate()),
    );
    sim.run();
    let d1 = sim.trace.flow(f1).delivered.bytes as f64;
    let d2 = sim.trace.flow(f2).delivered.bytes as f64;
    let ratio = d1 / d2;
    assert!(
        (1.6..=2.4).contains(&ratio),
        "expected ~2:1 split, got {d1} : {d2} (ratio {ratio:.2})"
    );
    // And the link is fully used.
    let total_gbps = (d1 + d2) * 8.0 / end.as_secs_f64() / 1e9;
    assert!(total_gbps > 35.0, "link underused: {total_gbps:.1} Gbps");
    // The exact service order, not only the shares: the fingerprint the
    // `Vec`-building arbiter produced before the lane-major re-layout.
    assert_eq!(
        format!("{:016x}", sim.trace.fingerprint()),
        "9517c9bd23f2fa38",
        "WRR service order moved"
    );
}

#[test]
fn equal_weights_split_evenly() {
    let fi = fanin(Rate::from_gbps(40));
    let end = SimTime::from_ms(10);
    let mut sim = Simulator::new(
        fi.topo.clone(),
        three_vl_cfg(end, vec![0, 1, 1]),
        RouteSelect::DModK,
    );
    let f1 = sim.add_flow_prio(
        fi.s1,
        fi.sink,
        1_000_000_000,
        SimTime::ZERO,
        1,
        Box::new(FixedRate::line_rate()),
    );
    let f2 = sim.add_flow_prio(
        fi.s2,
        fi.sink,
        1_000_000_000,
        SimTime::ZERO,
        2,
        Box::new(FixedRate::line_rate()),
    );
    sim.run();
    let d1 = sim.trace.flow(f1).delivered.bytes as f64;
    let d2 = sim.trace.flow(f2).delivered.bytes as f64;
    let ratio = d1 / d2;
    assert!(
        (0.85..=1.18).contains(&ratio),
        "expected ~1:1, got {ratio:.2}"
    );
}

#[test]
fn an_idle_vl_does_not_strand_bandwidth() {
    // Only VL2 carries traffic: it must get the whole link despite its
    // smaller weight (work-conserving WRR).
    let db = dumbbell(Rate::from_gbps(40), SimDuration::from_us(4));
    let mut sim = Simulator::new(
        db.topo.clone(),
        three_vl_cfg(SimTime::from_ms(10), vec![0, 3, 1]),
        RouteSelect::DModK,
    );
    let size = 10_000_000u64;
    let f = sim.add_flow_prio(
        db.h0,
        db.h1,
        size,
        SimTime::ZERO,
        2,
        Box::new(FixedRate::line_rate()),
    );
    sim.run();
    let fct = sim.trace.flow(f).fct().expect("completes");
    let ideal = Rate::from_gbps(40).serialize_time(size);
    assert!(
        fct.as_ps() < ideal.as_ps() * 11 / 10 + 20_000_000,
        "idle-VL bandwidth stranded: {fct} vs {ideal}"
    );
}

#[test]
fn per_vl_tcd_uses_share_scaled_max_ton() {
    // §4.5: "If multiple VLs are employed, max(T_on) can be changed to the
    // expected proportion of link bandwidth accordingly." The override
    // machinery wires a different TCD bound per VL.
    let cbfc = CbfcConfig::paper_simulation();
    let tc = cbfc.update_period;
    let mut cfg = three_vl_cfg(SimTime::from_ms(5), vec![0, 2, 1]);
    cfg.flow_control = FlowControlMode::Cbfc(cbfc);
    // VL1 gets 2/3 of the link, VL2 gets 1/3.
    let det_vl1 = TcdConfig::new(ib_max_ton(tc, 2.0 / 3.0), 50 * 1024, 5 * 1024);
    let det_vl2 = TcdConfig::new(ib_max_ton(tc, 1.0 / 3.0), 50 * 1024, 5 * 1024);
    cfg.detector_overrides = vec![
        (1, DetectorKind::Tcd(det_vl1)),
        (2, DetectorKind::Tcd(det_vl2)),
    ];
    // The override plumbing is what's under test: the run must be
    // well-formed and lossless with distinct detectors per VL.
    assert!(
        matches!(cfg.detector_for(1), DetectorKind::Tcd(c) if c.max_ton == ib_max_ton(tc, 2.0/3.0))
    );
    assert!(
        matches!(cfg.detector_for(2), DetectorKind::Tcd(c) if c.max_ton == ib_max_ton(tc, 1.0/3.0))
    );
    assert!(matches!(cfg.detector_for(0), DetectorKind::IbFecn { .. }));

    let db = dumbbell(Rate::from_gbps(40), SimDuration::from_us(4));
    let mut sim = Simulator::new(db.topo.clone(), cfg, RouteSelect::DModK);
    let a = sim.add_flow_prio(
        db.h0,
        db.h1,
        3_000_000,
        SimTime::ZERO,
        1,
        Box::new(FixedRate::line_rate()),
    );
    let b = sim.add_flow_prio(
        db.h0,
        db.h1,
        3_000_000,
        SimTime::ZERO,
        2,
        Box::new(FixedRate::line_rate()),
    );
    sim.run();
    for f in [a, b] {
        assert_eq!(sim.trace.flow(f).delivered.bytes, 3_000_000);
    }
}

#[test]
fn strict_priority_remains_the_default() {
    // Without weights, VL1 (lower index) starves VL2 on a saturated link.
    let fi = fanin(Rate::from_gbps(40));
    let end = SimTime::from_ms(8);
    let mut cfg = SimConfig::ib_baseline(end);
    cfg.num_prios = 3;
    let mut sim = Simulator::new(fi.topo.clone(), cfg, RouteSelect::DModK);
    let hi = sim.add_flow_prio(
        fi.s1,
        fi.sink,
        1_000_000_000,
        SimTime::ZERO,
        1,
        Box::new(FixedRate::line_rate()),
    );
    let lo = sim.add_flow_prio(
        fi.s2,
        fi.sink,
        1_000_000_000,
        SimTime::ZERO,
        2,
        Box::new(FixedRate::line_rate()),
    );
    sim.run();
    let d_hi = sim.trace.flow(hi).delivered.bytes as f64;
    let d_lo = sim.trace.flow(lo).delivered.bytes as f64;
    assert!(
        d_hi > 5.0 * d_lo.max(1.0),
        "strict priority should starve the lower VL: {d_hi} vs {d_lo}"
    );
}

#[test]
fn cee_priority_preemption_does_not_break_tcd() {
    // Paper §4.5: under CEE strict priority, a resumed low-priority queue
    // can be preempted by high-priority traffic, stretching its effective
    // RESUME period — but max(T_on) is an upper bound, so TCD must still
    // classify the low-priority victim ports correctly (no false CE).
    use lossless_netsim::topology::figure2;
    use tcd_core::baseline::RedConfig;
    use tcd_core::model::cee_max_ton;

    let fig = figure2(Default::default());
    let mut cfg = SimConfig::cee_baseline(SimTime::from_ms(5));
    cfg.num_prios = 3; // 0 feedback, 1 high, 2 low
    let tcd = TcdConfig::new(
        cee_max_ton(Rate::from_gbps(40), 1000, SimDuration::from_us(4), 0.05),
        200 * 1024,
        5 * 1024,
    );
    cfg.detector = DetectorKind::TcdRed(tcd, RedConfig::dcqcn_40g());
    let mut sim = Simulator::new(fig.topo.clone(), cfg, RouteSelect::Ecmp);

    // Low-priority victim crossing the chain to R0.
    let victim = sim.add_flow_prio(
        fig.s0,
        fig.r0,
        3_000_000,
        SimTime::ZERO,
        2,
        Box::new(FixedRate::new(Rate::from_gbps(5))),
    );
    // Low-priority incast congesting R1 (pauses spread on priority 2).
    for &a in fig.bursters.iter().take(10) {
        sim.add_flow_prio(
            a,
            fig.r1,
            1_000_000,
            SimTime::ZERO,
            2,
            Box::new(FixedRate::line_rate()),
        );
    }
    // High-priority traffic sharing the chain links: preempts priority 2
    // whenever it resumes.
    sim.add_flow_prio(
        fig.s1,
        fig.r0,
        10_000_000,
        SimTime::ZERO,
        1,
        Box::new(FixedRate::new(Rate::from_gbps(8))),
    );
    sim.run();
    let d = sim.trace.flow(victim).delivered;
    assert!(d.pkts > 0, "victim must make progress");
    assert_eq!(
        d.ce, 0,
        "preemption-stretched RESUME periods must not cause false CE"
    );
    assert!(sim.trace.pause_frames > 0, "priority-2 pauses expected");
}
