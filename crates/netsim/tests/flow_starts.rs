//! Flow starts run in exact `(start, registration)` order, interleaved with
//! every other event exactly as if each start had been scheduled when its
//! flow was registered: out-of-order registration, ties at one instant
//! (with each other, with IB credit ticks and with trace ticks), and flows
//! added between two `run_until` calls. Each run's completion times, event
//! count and fingerprint are pinned to values recorded when every start
//! was still an event in the queue from registration on.

use lossless_flowctl::{Rate, SimDuration, SimTime};
use lossless_netsim::cchooks::FixedRate;
use lossless_netsim::config::SimConfig;
use lossless_netsim::routing::RouteSelect;
use lossless_netsim::topology::{figure2, Figure2, Figure2Options};
use lossless_netsim::{NodeId, Simulator};

/// Every flow's completion time (ps), in registration order.
fn ends(sim: &Simulator) -> Vec<Option<u64>> {
    sim.trace
        .flows
        .iter()
        .map(|r| r.end.map(SimTime::as_ps))
        .collect()
}

fn us(t: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_us(t)
}

/// Register `(src, dst, size, start_us, gbps)` flows in the given order;
/// `gbps == 0` sends at line rate.
fn add(sim: &mut Simulator, flows: &[(NodeId, NodeId, u64, u64, u64)]) {
    for &(src, dst, size, start_us, gbps) in flows {
        let cc = if gbps == 0 {
            FixedRate::line_rate()
        } else {
            FixedRate::new(Rate::from_gbps(gbps))
        };
        sim.add_flow(src, dst, size, us(start_us), Box::new(cc));
    }
}

fn fig2() -> Figure2 {
    figure2(Figure2Options::default())
}

#[test]
fn starts_registered_out_of_order_run_in_start_order() {
    // Starts registered latest first, several sharing a source (so the
    // NIC's pick among active flows depends on which have started) and
    // several tied at one instant.
    let f2 = fig2();
    let b = &f2.bursters;
    let mut sim = Simulator::new(
        f2.topo.clone(),
        SimConfig::cee_baseline(SimTime::from_ms(5)),
        RouteSelect::Ecmp,
    );
    add(
        &mut sim,
        &[
            (b[0], f2.r1, 200_000, 30, 0),
            (b[1], f2.r1, 150_000, 20, 25),
            (b[0], f2.r0, 80_000, 20, 0),
            (b[2], f2.r1, 120_000, 10, 0),
            (b[1], f2.r0, 90_000, 10, 0),
            (b[0], f2.r1, 60_000, 10, 10),
            (b[3], f2.r1, 100_000, 0, 0),
            (f2.s0, f2.r1, 70_000, 20, 0),
            (b[2], f2.r0, 50_000, 0, 30),
            (b[3], f2.r0, 40_000, 30, 0),
            // At 8 µs the 10 Gbps flow's pacing wake at b[6] (scheduled
            // at 7.4 µs) ties with two starts; the line-rate flow out of
            // b[6] has the lower id, so it sends first only if its start
            // runs before that wake, as its registration-time seq says.
            (b[5], f2.r0, 50_000, 8, 0),
            (b[6], f2.r1, 60_000, 8, 0),
            (b[6], f2.r0, 100_000, 0, 10),
        ],
    );
    sim.run();
    let got = (ends(&sim), sim.trace.events, sim.trace.fingerprint());
    assert_eq!(
        got,
        (
            vec![
                Some(160_200_000),
                Some(145_800_000),
                Some(81_800_000),
                Some(84_600_000),
                Some(70_800_000),
                Some(144_000_000),
                Some(47_800_000),
                Some(107_200_000),
                Some(33_200_000),
                Some(74_400_000),
                Some(40_000_000),
                Some(55_200_000),
                Some(90_600_000),
            ],
            5371,
            845_703_807_269_258_345,
        )
    );
}

#[test]
fn tied_starts_at_zero_against_credit_and_trace_ticks() {
    // InfiniBand: every (node, port, VL) has a credit tick, the first of
    // them at t = 0, and a trace tick runs at 0 and every microsecond
    // after. Flows registered after the simulator was built start at 0
    // and at later whole microseconds, so each start ties with a trace
    // tick that was scheduled after the flow was registered.
    let f2 = fig2();
    let b = &f2.bursters;
    let mut cfg = SimConfig::ib_baseline(SimTime::from_ms(2));
    cfg.trace_interval = Some(SimDuration::from_us(1));
    cfg.sample_ports = vec![(f2.p3.0, f2.p3.1, 1)];
    let mut sim = Simulator::new(f2.topo.clone(), cfg, RouteSelect::Ecmp);
    add(
        &mut sim,
        &[
            (b[0], f2.r1, 100_000, 0, 0),
            (b[1], f2.r1, 100_000, 0, 0),
            (b[2], f2.r1, 80_000, 3, 0),
            (b[0], f2.r0, 60_000, 0, 20),
            (b[3], f2.r1, 80_000, 3, 0),
            (b[4], f2.r1, 50_000, 0, 0),
            (b[1], f2.r0, 40_000, 3, 10),
        ],
    );
    sim.run();
    let got = (ends(&sim), sim.trace.events, sim.trace.fingerprint());
    assert_eq!(
        got,
        (
            vec![
                Some(90_102_400),
                Some(90_302_400),
                Some(84_076_800),
                Some(42_051_200),
                Some(84_276_800),
                Some(56_251_200),
                Some(46_651_200),
            ],
            36_333,
            9_192_484_063_660_512_553,
        )
    );
}

#[test]
fn flows_added_between_run_until_calls_merge_into_the_start_order() {
    let f2 = fig2();
    let b = &f2.bursters;
    let mut sim = Simulator::new(
        f2.topo.clone(),
        SimConfig::cee_baseline(SimTime::from_ms(5)),
        RouteSelect::Ecmp,
    );
    add(
        &mut sim,
        &[
            (b[0], f2.r1, 150_000, 0, 0),
            (b[1], f2.r1, 100_000, 50, 0),
            (b[2], f2.r1, 100_000, 100, 0),
        ],
    );
    sim.run_until(us(20));
    // One start keyed below the queued one at 50 µs, one tied with it (so
    // after it), one between the two pending starts, and one at `now`.
    add(
        &mut sim,
        &[
            (b[3], f2.r1, 80_000, 30, 0),
            (b[5], f2.r1, 70_000, 50, 0),
            (b[6], f2.r0, 90_000, 75, 0),
        ],
    );
    let now = sim.now();
    sim.add_flow(b[4], f2.r1, 60_000, now, Box::new(FixedRate::line_rate()));
    sim.run_until(us(60));
    add(&mut sim, &[(b[7], f2.r1, 50_000, 60, 0)]);
    sim.add_flow(
        b[8],
        f2.r1,
        40_000,
        sim.now(),
        Box::new(FixedRate::line_rate()),
    );
    sim.run();
    let got = (ends(&sim), sim.trace.events, sim.trace.fingerprint());
    assert_eq!(
        got,
        (
            vec![
                Some(48_000_000),
                Some(118_000_000),
                Some(138_200_000),
                Some(66_200_000),
                Some(101_800_000),
                Some(101_200_000),
                Some(52_000_000),
                Some(118_200_000),
                Some(114_200_000),
            ],
            2980,
            13_707_557_613_213_866_556,
        )
    );
}
