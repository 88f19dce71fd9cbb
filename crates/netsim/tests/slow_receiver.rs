//! Slow-receiver back-pressure: a host that processes slower than the wire
//! pauses its ToR, originating congestion spreading from the edge — the
//! production pathology that motivates much of the lossless-network
//! congestion-control literature, and a scenario TCD must classify
//! correctly (the slow receiver's uplink is the root; everything upstream
//! is a victim).

use lossless_flowctl::{Rate, SimDuration, SimTime};
use lossless_netsim::cchooks::FixedRate;
use lossless_netsim::config::DetectorKind;
use lossless_netsim::config::SimConfig;
use lossless_netsim::routing::RouteSelect;
use lossless_netsim::topology::{dumbbell, figure2, Figure2Options};
use lossless_netsim::Simulator;
use tcd_core::baseline::RedConfig;
use tcd_core::model::cee_max_ton;
use tcd_core::TcdConfig;

#[test]
fn cee_slow_receiver_paces_the_sender_without_loss() {
    // 40G wire, 10G receiver: a 5 MB flow must complete at ~10 Gbps, not
    // 40, and nothing is lost.
    let db = dumbbell(Rate::from_gbps(40), SimDuration::from_us(4));
    let mut cfg = SimConfig::cee_baseline(SimTime::from_ms(20));
    cfg.host_rx_rate = Some(Rate::from_gbps(10));
    let mut sim = Simulator::new(db.topo.clone(), cfg, RouteSelect::Ecmp);
    let size = 5_000_000u64;
    let f = sim.add_flow(
        db.h0,
        db.h1,
        size,
        SimTime::ZERO,
        Box::new(FixedRate::line_rate()),
    );
    sim.run();
    let rec = sim.trace.flow(f);
    assert_eq!(rec.delivered.bytes, size, "lossless under edge pauses");
    let fct = rec.fct().expect("completes");
    let at_rx_rate = Rate::from_gbps(10).serialize_time(size);
    let at_wire_rate = Rate::from_gbps(40).serialize_time(size);
    assert!(
        fct >= at_rx_rate.saturating_sub(SimDuration::from_us(300)),
        "cannot beat the receiver's processing rate: {fct}"
    );
    assert!(
        fct.as_ps() < at_rx_rate.as_ps() * 12 / 10,
        "too slow: {fct}"
    );
    assert!(fct > at_wire_rate * 3, "receiver limit must dominate");
    assert!(sim.trace.pause_frames > 0, "the edge must have paused");
}

#[test]
fn ib_slow_receiver_throttles_via_credits() {
    let db = dumbbell(Rate::from_gbps(40), SimDuration::from_us(4));
    let mut cfg = SimConfig::ib_baseline(SimTime::from_ms(20));
    cfg.host_rx_rate = Some(Rate::from_gbps(10));
    let mut sim = Simulator::new(db.topo.clone(), cfg, RouteSelect::DModK);
    let size = 5_000_000u64;
    let f = sim.add_flow(
        db.h0,
        db.h1,
        size,
        SimTime::ZERO,
        Box::new(FixedRate::line_rate()),
    );
    sim.run();
    let rec = sim.trace.flow(f);
    assert_eq!(rec.delivered.bytes, size);
    let fct = rec.fct().expect("completes");
    let at_rx_rate = Rate::from_gbps(10).serialize_time(size);
    assert!(fct >= at_rx_rate.saturating_sub(SimDuration::from_us(300)));
    assert!(
        fct.as_ps() < at_rx_rate.as_ps() * 13 / 10,
        "credit loop too lossy: {fct}"
    );
}

#[test]
fn fast_receiver_default_is_unchanged() {
    // host_rx_rate = None must preserve the original wire-speed behaviour.
    let db = dumbbell(Rate::from_gbps(40), SimDuration::from_us(4));
    let cfg = SimConfig::cee_baseline(SimTime::from_ms(10));
    let mut sim = Simulator::new(db.topo.clone(), cfg, RouteSelect::Ecmp);
    let size = 5_000_000u64;
    let f = sim.add_flow(
        db.h0,
        db.h1,
        size,
        SimTime::ZERO,
        Box::new(FixedRate::line_rate()),
    );
    sim.run();
    let fct = sim.trace.flow(f).fct().unwrap();
    let ideal = Rate::from_gbps(40).serialize_time(size);
    assert!(fct.as_ps() < ideal.as_ps() * 105 / 100 + 20_000_000);
}

#[test]
fn slow_receiver_spreading_keeps_victims_clean_under_tcd() {
    // One slow receiver (R1 at 5 Gbps) absorbs a line-rate flow: pauses
    // spread back along F1's path, so the chain ports go undetermined.
    // The cross-traffic victims to R0 must still see zero CE under TCD —
    // the root here is R1's edge link, which only F1 crosses.
    let fig = figure2(Figure2Options::default());
    let mut cfg = SimConfig::cee_baseline(SimTime::from_ms(6));
    cfg.detector = DetectorKind::TcdRed(
        TcdConfig::new(
            cee_max_ton(Rate::from_gbps(40), 1000, SimDuration::from_us(4), 0.05),
            200 * 1024,
            5 * 1024,
        ),
        RedConfig::dcqcn_40g(),
    );
    cfg.host_rx_rate = Some(Rate::from_gbps(5));
    let mut sim = Simulator::new(fig.topo.clone(), cfg, RouteSelect::Ecmp);
    let f1 = sim.add_flow(
        fig.s1,
        fig.r1,
        10_000_000,
        SimTime::ZERO,
        Box::new(FixedRate::line_rate()),
    );
    let f0 = sim.add_flow(
        fig.s0,
        fig.r0,
        2_000_000,
        SimTime::from_us(200),
        Box::new(FixedRate::new(Rate::from_gbps(5))),
    );
    sim.run();
    let d0 = sim.trace.flow(f0).delivered;
    let d1 = sim.trace.flow(f1).delivered;
    assert!(
        sim.trace.pause_frames > 0,
        "edge-originated pauses expected"
    );
    assert!(d1.pkts > 0 && d0.pkts > 0);
    assert_eq!(d0.ce, 0, "victim must not be blamed for a slow receiver");
    assert!(
        d0.ue > 0 || sim.trace.pause_frames < 10,
        "with real spreading the victim should see UE"
    );
}
