//! Closed-loop convergence tests: each controller driving real flows
//! through the simulator must (a) throttle under congestion, (b) recover
//! toward line rate when congestion ends, and (c) share a bottleneck
//! fairly between identical flows.

use lossless_cc::{Dcqcn, IbCc, Timely};
use lossless_netsim::cchooks::{FixedRate, RateController};
use lossless_netsim::config::{FeedbackMode, SimConfig};
use lossless_netsim::routing::RouteSelect;
use lossless_netsim::topology::figure2;
use lossless_netsim::Simulator;
use lossless_netsim::{Rate, SimDuration, SimTime};

fn cee_cfg(end: SimTime, feedback: FeedbackMode) -> SimConfig {
    let mut cfg = SimConfig::cee_baseline(end);
    cfg.feedback = feedback;
    cfg
}

fn cnp_feedback() -> FeedbackMode {
    FeedbackMode::CnpOnMarked {
        min_interval: SimDuration::from_us(50),
        notify_ue: false,
    }
}

/// Long flow vs. incast at the same receiver: the controller must give up
/// most of its bandwidth while the incast runs.
fn throttles_under_congestion(mk: impl Fn() -> Box<dyn RateController>, feedback: FeedbackMode) {
    let f2 = figure2(Default::default());
    let mut sim = Simulator::new(
        f2.topo.clone(),
        cee_cfg(SimTime::from_ms(3), feedback),
        RouteSelect::Ecmp,
    );
    let f1 = sim.add_flow(f2.s1, f2.r1, 100_000_000, SimTime::ZERO, mk());
    for &a in &f2.bursters {
        sim.add_flow(
            a,
            f2.r1,
            2_000_000,
            SimTime::ZERO,
            Box::new(FixedRate::line_rate()),
        );
    }
    sim.run();
    let rate = sim.flow_rate(f1).expect("flow still active");
    assert!(
        rate < Rate::from_gbps(20),
        "controller failed to throttle under a 15:1 incast: {rate:?}"
    );
}

#[test]
fn dcqcn_throttles_under_congestion() {
    throttles_under_congestion(|| Box::new(Dcqcn::standard()), cnp_feedback());
}

#[test]
fn ibcc_throttles_under_congestion() {
    // IB CC on the CEE substrate still reacts to CNPs; the full IB path is
    // exercised by the scenario tests. Here we check the controller loop.
    throttles_under_congestion(|| Box::new(IbCc::standard()), cnp_feedback());
}

#[test]
fn timely_throttles_under_congestion() {
    throttles_under_congestion(|| Box::new(Timely::standard()), FeedbackMode::AckPerPacket);
}

/// Two identical controllers sharing one bottleneck end up with similar
/// throughput (within 3:1 — packet-level fairness is approximate over a
/// short horizon) and their combined goodput approaches the line rate.
fn shares_bottleneck(mk: impl Fn() -> Box<dyn RateController>, feedback: FeedbackMode) {
    let f2 = figure2(Default::default());
    let end = SimTime::from_ms(12);
    let mut sim = Simulator::new(f2.topo.clone(), cee_cfg(end, feedback), RouteSelect::Ecmp);
    // Two bursters into R1 give a clean 2:1 bottleneck at P3.
    let a = sim.add_flow(f2.bursters[0], f2.r1, 1_000_000_000, SimTime::ZERO, mk());
    let b = sim.add_flow(f2.bursters[1], f2.r1, 1_000_000_000, SimTime::ZERO, mk());
    sim.run();
    // Converged CC rates must fill the bottleneck (controllers overshoot
    // then recover, so judge the end state, not the whole-run average).
    let ra = sim.flow_rate(a).expect("flow a active").as_gbps_f64();
    let rb = sim.flow_rate(b).expect("flow b active").as_gbps_f64();
    assert!(
        ra + rb > 25.0,
        "bottleneck underutilized at end: {ra:.1} + {rb:.1} Gbps"
    );
    let da = sim.trace.flow(a).delivered.bytes as f64;
    let db = sim.trace.flow(b).delivered.bytes as f64;
    let ratio = da.max(db) / da.min(db).max(1.0);
    assert!(ratio < 3.0, "grossly unfair split: {da} vs {db}");
}

#[test]
fn dcqcn_shares_a_bottleneck() {
    shares_bottleneck(|| Box::new(Dcqcn::standard()), cnp_feedback());
}

#[test]
fn timely_shares_a_bottleneck() {
    shares_bottleneck(|| Box::new(Timely::standard()), FeedbackMode::AckPerPacket);
}

#[test]
fn ibcc_shares_a_bottleneck() {
    shares_bottleneck(|| Box::new(IbCc::standard()), cnp_feedback());
}

/// After the competing incast ends, the controller recovers: its rate at
/// the end of the run is meaningfully above its rate right after the
/// incast.
#[test]
fn dcqcn_recovers_after_congestion() {
    let f2 = figure2(Default::default());
    let mut sim = Simulator::new(
        f2.topo.clone(),
        cee_cfg(SimTime::from_ms(30), cnp_feedback()),
        RouteSelect::Ecmp,
    );
    let f1 = sim.add_flow(
        f2.s1,
        f2.r1,
        1_000_000_000,
        SimTime::ZERO,
        Box::new(Dcqcn::standard()),
    );
    for &a in &f2.bursters {
        sim.add_flow(
            a,
            f2.r1,
            1_000_000,
            SimTime::ZERO,
            Box::new(FixedRate::line_rate()),
        );
    }
    sim.run();
    let rate = sim.flow_rate(f1).expect("still active");
    assert!(
        rate > Rate::from_gbps(2),
        "DCQCN failed to recover 25+ ms after the incast: {rate:?}"
    );
}

#[test]
fn timely_recovers_after_congestion() {
    let f2 = figure2(Default::default());
    let mut sim = Simulator::new(
        f2.topo.clone(),
        cee_cfg(SimTime::from_ms(20), FeedbackMode::AckPerPacket),
        RouteSelect::Ecmp,
    );
    let f1 = sim.add_flow(
        f2.s1,
        f2.r1,
        1_000_000_000,
        SimTime::ZERO,
        Box::new(Timely::standard()),
    );
    for &a in &f2.bursters {
        sim.add_flow(
            a,
            f2.r1,
            1_000_000,
            SimTime::ZERO,
            Box::new(FixedRate::line_rate()),
        );
    }
    sim.run();
    let rate = sim.flow_rate(f1).expect("still active");
    assert!(
        rate > Rate::from_gbps(10),
        "TIMELY failed to recover: {rate:?}"
    );
}

#[test]
fn hpcc_throttles_and_shares_with_int() {
    // End-to-end HPCC: INT-enabled fabric, two line-rate-capable flows on
    // a 2:1 bottleneck must converge near the target utilization and split
    // fairly.
    use lossless_cc::Hpcc;
    let f2 = figure2(Default::default());
    let end = SimTime::from_ms(12);
    let mut cfg = cee_cfg(end, FeedbackMode::AckPerPacket);
    cfg.int_telemetry = true;
    let mut sim = Simulator::new(f2.topo.clone(), cfg, RouteSelect::Ecmp);
    let a = sim.add_flow(
        f2.bursters[0],
        f2.r1,
        1_000_000_000,
        SimTime::ZERO,
        Box::new(Hpcc::standard()),
    );
    let b = sim.add_flow(
        f2.bursters[1],
        f2.r1,
        1_000_000_000,
        SimTime::ZERO,
        Box::new(Hpcc::standard()),
    );
    sim.run();
    let ra = sim.flow_rate(a).expect("active").as_gbps_f64();
    let rb = sim.flow_rate(b).expect("active").as_gbps_f64();
    assert!(ra + rb > 25.0, "HPCC underutilizes: {ra:.1}+{rb:.1}");
    assert!(
        ra + rb < 48.0,
        "HPCC must not exceed the bottleneck by much"
    );
    let da = sim.trace.flow(a).delivered.bytes as f64;
    let db = sim.trace.flow(b).delivered.bytes as f64;
    assert!(
        da.max(db) / da.min(db).max(1.0) < 3.0,
        "unfair: {da} vs {db}"
    );
    // HPCC's selling point: short queues. The bottleneck never pauses.
    assert_eq!(
        sim.trace.pause_frames, 0,
        "HPCC should keep queues below PFC thresholds"
    );
}
