//! InfiniBand-specific behaviour: virtual output queues, credit
//! periodicity, and the failure mode the §4.4 sizing rule prevents.

use lossless_flowctl::cbfc::CbfcConfig;
use lossless_flowctl::{Rate, SimDuration, SimTime};
use lossless_netsim::cchooks::FixedRate;
use lossless_netsim::config::{DetectorKind, FlowControlMode, SimConfig};
use lossless_netsim::routing::RouteSelect;
use lossless_netsim::topology::{dumbbell, figure2, Figure2Options, Topology};
use lossless_netsim::{NodeId, Simulator, TernaryState};
use tcd_core::TcdConfig;

fn ib_cfg(end: SimTime) -> SimConfig {
    SimConfig::ib_baseline(end)
}

/// A four-host star for VoQ head-of-line tests: two senders, two sinks.
struct Star {
    topo: Topology,
    s1: NodeId,
    s2: NodeId,
    hot: NodeId,
    cold: NodeId,
}

fn star(rate: Rate) -> Star {
    let mut b = Topology::builder();
    let sw = b.switch("sw");
    let s1 = b.host("s1");
    let s2 = b.host("s2");
    let hot = b.host("hot");
    let cold = b.host("cold");
    for h in [s1, s2, hot, cold] {
        b.link(h, sw, rate, SimDuration::from_us(2));
    }
    Star {
        topo: b.build(),
        s1,
        s2,
        hot,
        cold,
    }
}

#[test]
fn voq_keeps_a_cold_output_usable_beside_a_hot_one() {
    // s1 and s2 both blast the "hot" sink (2:1 overload); s2 also sends a
    // smaller flow to the idle "cold" sink, sharing s2's NIC and the
    // switch input buffer with hot-destined packets. With per-output VoQs
    // the cold flow must complete within a small factor of its NIC-share
    // ideal instead of waiting behind the entire hot backlog.
    let st = star(Rate::from_gbps(40));
    let mut sim = Simulator::new(
        st.topo.clone(),
        ib_cfg(SimTime::from_ms(20)),
        RouteSelect::DModK,
    );
    let hot1 = sim.add_flow(
        st.s1,
        st.hot,
        8_000_000,
        SimTime::ZERO,
        Box::new(FixedRate::line_rate()),
    );
    let hot2 = sim.add_flow(
        st.s2,
        st.hot,
        8_000_000,
        SimTime::ZERO,
        Box::new(FixedRate::line_rate()),
    );
    let cold = sim.add_flow(
        st.s2,
        st.cold,
        2_000_000,
        SimTime::ZERO,
        Box::new(FixedRate::new(Rate::from_gbps(20))),
    );
    sim.run();
    let t_cold = sim.trace.flow(cold).fct().expect("cold flow completes");
    let t_hot1 = sim.trace.flow(hot1).fct().expect("hot1 completes");
    let t_hot2 = sim.trace.flow(hot2).fct().expect("hot2 completes");
    // Hot flows: 8 MB through a ~20G fair share is >= 3.2 ms.
    // Cold flow: 2 MB at its ~20G NIC share is ~0.8 ms; head-of-line
    // blocking behind the hot backlog would push it toward the hot
    // completion times.
    assert!(
        t_cold < t_hot1 / 2 && t_cold < t_hot2 / 2,
        "cold flow was head-of-line blocked"
    );
    let ideal_cold = Rate::from_gbps(20).serialize_time(2_000_000);
    assert!(
        t_cold.as_ps() < ideal_cold.as_ps() * 2,
        "cold flow too slow: {t_cold} vs ideal {ideal_cold}"
    );
}

#[test]
fn undersized_credit_period_starves_line_rate() {
    // Failure injection: violate the §4.4 rule B > C·T_c (here
    // C·T_c = 327 KB > B = 280 KB). A single uncontended flow then stalls
    // for credits every period and cannot sustain line rate — the
    // pathology the default configuration is sized to avoid.
    let db = dumbbell(Rate::from_gbps(40), SimDuration::from_us(4));
    let mut cfg = ib_cfg(SimTime::from_ms(10));
    cfg.flow_control = FlowControlMode::Cbfc(CbfcConfig::from_bytes(
        280 * 1024,
        SimDuration::from_ns(65_536),
    ));
    let mut sim = Simulator::new(db.topo.clone(), cfg, RouteSelect::DModK);
    let size = 10_000_000u64;
    let f = sim.add_flow(
        db.h0,
        db.h1,
        size,
        SimTime::ZERO,
        Box::new(FixedRate::line_rate()),
    );
    sim.run();
    let fct = sim.trace.flow(f).fct().expect("still completes (lossless)");
    let ideal = Rate::from_gbps(40).serialize_time(size);
    assert!(
        fct.as_ps() > ideal.as_ps() * 110 / 100,
        "expected credit starvation to cost >10% throughput: {fct} vs {ideal}"
    );
    // Losslessness survives the misconfiguration.
    assert_eq!(sim.trace.flow(f).delivered.bytes, size);
}

#[test]
fn undersized_credit_period_pins_ports_undetermined() {
    // The same misconfiguration seen by TCD: a congested port that stalls
    // every T_c never shows a continuous-ON period, so it can never be
    // classified — it stays undetermined. (This is why the default T_c is
    // sized to satisfy B > C·T_c; the detector result is still *safe* —
    // no false CE — just uninformative.)
    let f2 = figure2(Figure2Options::default());
    let bad_cbfc = CbfcConfig::from_bytes(280 * 1024, SimDuration::from_ns(65_536));
    let mut cfg = ib_cfg(SimTime::from_ms(5));
    cfg.flow_control = FlowControlMode::Cbfc(bad_cbfc);
    cfg.detector = DetectorKind::Tcd(TcdConfig::new(bad_cbfc.update_period, 50 * 1024, 5 * 1024));
    cfg.trace_interval = Some(SimDuration::from_us(20));
    cfg.sample_ports = vec![(f2.p3.0, f2.p3.1, cfg.data_prio)];
    let mut sim = Simulator::new(f2.topo.clone(), cfg, RouteSelect::DModK);
    for &a in f2.bursters.iter().take(8) {
        sim.add_flow(
            a,
            f2.r1,
            2_000_000,
            SimTime::ZERO,
            Box::new(FixedRate::line_rate()),
        );
    }
    sim.run();
    // P3 is the congestion root but the detector can never see it as
    // continuously ON: all congested-phase samples stay undetermined.
    let states: Vec<TernaryState> = sim
        .trace
        .port_samples
        .iter()
        .filter(|s| s.t > SimTime::from_us(500) && s.t < SimTime::from_ms(2))
        .map(|s| s.state)
        .collect();
    assert!(!states.is_empty());
    assert!(
        states.iter().all(|s| s.is_undetermined()),
        "with B <= C*T_c the root cannot leave the undetermined state"
    );
}

#[test]
fn fccl_updates_bound_idle_credit_lag() {
    // After a long idle period a sender must still have full credits (the
    // periodic FCCL keeps the loop fresh): a flow starting late performs
    // identically to one starting at t = 0.
    let db = dumbbell(Rate::from_gbps(40), SimDuration::from_us(4));
    let mut sim = Simulator::new(
        db.topo.clone(),
        ib_cfg(SimTime::from_ms(20)),
        RouteSelect::DModK,
    );
    let early = sim.add_flow(
        db.h0,
        db.h1,
        1_000_000,
        SimTime::ZERO,
        Box::new(FixedRate::line_rate()),
    );
    let late = sim.add_flow(
        db.h1,
        db.h0,
        1_000_000,
        SimTime::from_ms(10),
        Box::new(FixedRate::line_rate()),
    );
    sim.run();
    let t_early = sim.trace.flow(early).fct().unwrap();
    let t_late = sim.trace.flow(late).fct().unwrap();
    let diff = t_early.as_ps().abs_diff(t_late.as_ps());
    assert!(
        diff < t_early.as_ps() / 100 + 25_000_000,
        "idle-start flow differs: {t_early} vs {t_late}"
    );
}

#[test]
fn ib_feedback_vl_is_not_blocked_by_data_vl_congestion() {
    // Credits are per VL: exhausting the data VL's credits must not stop
    // VL-0 feedback. Run a heavy incast and verify completions still get
    // recorded promptly for a small probe flow on the data VL whose CNPs
    // (VL 0) would be required under a CC run — here we simply assert the
    // run stays live and lossless under full data-VL pressure.
    let f2 = figure2(Figure2Options::default());
    let mut sim = Simulator::new(
        f2.topo.clone(),
        ib_cfg(SimTime::from_ms(30)),
        RouteSelect::DModK,
    );
    let mut flows = Vec::new();
    for &a in &f2.bursters {
        flows.push(sim.add_flow(
            a,
            f2.r1,
            1_000_000,
            SimTime::ZERO,
            Box::new(FixedRate::line_rate()),
        ));
    }
    sim.run();
    for f in flows {
        assert_eq!(sim.trace.flow(f).delivered.bytes, 1_000_000);
        assert!(sim.trace.flow(f).end.is_some());
    }
}
