//! Quickstart: build a tiny lossless network, run two competing flows
//! through a TCD-equipped switch, and read the ternary detection results.
//!
//! Run with: `cargo run --release --example quickstart`

use tcd_repro::flowctl::{Rate, SimDuration, SimTime};
use tcd_repro::netsim::cchooks::FixedRate;
use tcd_repro::netsim::routing::RouteSelect;
use tcd_repro::netsim::topology::figure2;
use tcd_repro::netsim::Simulator;
use tcd_repro::scenarios::{default_config, Network};

fn main() {
    // 1. A topology: the paper's Figure-2 chain (S-hosts, T0..T3, burst
    //    senders, receivers) at 40 Gbps with 4 µs links.
    let fig = figure2(Default::default());

    // 2. A configuration: CEE (PFC) with the TCD detector on every egress.
    //    `default_config` wires the paper's recommended parameters:
    //    max(T_on) from the ON-OFF model, K_max = 200 KB, RED marking in
    //    determined states.
    let mut cfg = default_config(Network::Cee, true, SimTime::from_ms(6));
    let cc = Network::Cee.cc(true);
    cfg.feedback = cc.feedback();
    cfg.trace_interval = Some(SimDuration::from_us(10));
    cfg.sample_ports = vec![(fig.p2.0, fig.p2.1, cfg.data_prio)];

    let mut sim = Simulator::new(fig.topo.clone(), cfg, RouteSelect::Ecmp);

    // 3. Traffic: a DCQCN+TCD-controlled long-lived flow S1 -> R1 plus an
    //    incast of 15 bursters onto R1 — the §3 congestion-spreading
    //    pattern. F0 crosses the same chain but exits to R0: a victim.
    let f1 = sim.add_flow(fig.s1, fig.r1, 20_000_000, SimTime::ZERO, cc.controller());
    for &a in &fig.bursters {
        sim.add_flow(
            a,
            fig.r1,
            1_000_000,
            SimTime::ZERO,
            Box::new(FixedRate::line_rate()),
        );
    }
    let f0 = sim.add_flow(
        fig.s0,
        fig.r0,
        5_000_000,
        SimTime::from_us(200),
        Box::new(FixedRate::new(Rate::from_gbps(5))),
    );

    // 4. Run and inspect.
    sim.run();

    let d0 = sim.trace.flow(f0).delivered;
    let d1 = sim.trace.flow(f1).delivered;
    println!(
        "F0 (victim):    {} pkts, {} CE, {} UE",
        d0.pkts, d0.ce, d0.ue
    );
    println!(
        "F1 (congested): {} pkts, {} CE, {} UE",
        d1.pkts, d1.ce, d1.ue
    );
    assert_eq!(d0.ce, 0, "TCD never blames the victim");
    assert!(
        d0.ue > 0,
        "the victim is told it crossed undetermined ports"
    );
    assert!(d1.ce > 0, "the congested flow is marked CE");

    // The sampled port P2 went through the undetermined state while
    // congestion spread from P3.
    let undet = sim
        .trace
        .port_samples
        .iter()
        .filter(|s| s.state.is_undetermined())
        .count();
    println!(
        "P2 sampled undetermined in {undet} of {} samples",
        sim.trace.port_samples.len()
    );
    println!("PAUSE frames exchanged: {}", sim.trace.pause_frames);
    println!("ok: ternary congestion detection separates culprits from victims");
}
