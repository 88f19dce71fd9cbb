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
use lossless_netsim::{FlowId, NodeId, Simulator};

/// Every flow's completion time (ps), in registration order.
fn ends(sim: &Simulator) -> Vec<Option<u64>> {
    sim.trace
        .records()
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

/// Where a registered flow stands once the run has dispatched every event
/// up to some instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    NeverStarted,
    Unfinished,
    Completed,
}

/// Check every registered flow against `want`, the `(src, dst, size,
/// start)` the test registered, after a run that dispatched every event up
/// to `until`: `trace.flow(id)` carries the registered fields, a flow
/// starting after `until` is idle, slots number the started flows in
/// `(start, registration)` order, `records()` is `flow(id)` in id order,
/// and `completed()` lists the finished flows in id order. Returns each
/// flow's stage.
fn check_flow_table(
    sim: &Simulator,
    want: &[(NodeId, NodeId, u64, SimTime)],
    until: SimTime,
) -> Vec<Stage> {
    let t = &sim.trace;
    assert_eq!(t.flows.len(), want.len());
    let mut stages = Vec::new();
    for (i, &(src, dst, size, start)) in want.iter().enumerate() {
        let id = FlowId(i as u32);
        let r = t.flow(id);
        assert_eq!(
            (r.flow, r.src, r.dst, r.size, r.start),
            (id, src, dst, size, start)
        );
        let d = r.delivered;
        stages.push(if start > until {
            assert_eq!(t.flows[i].slot, u32::MAX, "flow {i} has not started");
            assert_eq!(r.end, None);
            assert_eq!((d.pkts, d.bytes, d.ce, d.ue), (0, 0, 0, 0), "flow {i}");
            Stage::NeverStarted
        } else if let Some(end) = r.end {
            assert_eq!(d.bytes, size, "flow {i}");
            assert!(start < end && end <= until, "flow {i}");
            Stage::Completed
        } else {
            assert!(d.bytes < size, "flow {i}");
            Stage::Unfinished
        });
    }
    let mut by_start: Vec<usize> = (0..want.len()).filter(|&i| want[i].3 <= until).collect();
    by_start.sort_by_key(|&i| (want[i].3, i));
    for (k, &i) in by_start.iter().enumerate() {
        assert_eq!(t.flows[i].slot, k as u32, "flow {i} is start number {k}");
    }
    let records: Vec<[u64; 8]> = t.records().map(|r| r.words()).collect();
    let assembled: Vec<[u64; 8]> = (0..want.len() as u32)
        .map(|i| t.flow(FlowId(i)).words())
        .collect();
    assert_eq!(records, assembled);
    let done: Vec<usize> = t.completed().map(|r| r.flow.0 as usize).collect();
    let want_done: Vec<usize> = (0..want.len())
        .filter(|&i| stages[i] == Stage::Completed)
        .collect();
    assert_eq!(done, want_done, "completed() in FlowId order");
    assert_eq!(t.completed_count, done.len());
    stages
}

#[test]
fn the_flow_table_assembles_every_record_at_every_stage() {
    use Stage::{Completed as C, NeverStarted as N, Unfinished as U};
    let f2 = fig2();
    let b = &f2.bursters;
    let end = SimTime::from_ms(1);
    let mut sim = Simulator::new(
        f2.topo.clone(),
        SimConfig::cee_baseline(end),
        RouteSelect::Ecmp,
    );
    let mut want = Vec::new();
    // Latest start first. Flow 1 carries more than a 40 Gb/s link moves
    // in the run; flow 2 starts after the run ends.
    register(
        &mut sim,
        &mut want,
        &[
            (b[0], f2.r1, 50_000, 30, 0),
            (b[1], f2.r1, 20_000_000, 20, 0),
            (b[2], f2.r0, 5_000, 2_000, 0),
            (b[3], f2.r0, 40_000, 0, 0),
        ],
    );
    sim.run_until(us(25));
    assert_eq!(check_flow_table(&sim, &want, us(25)), [N, U, N, C]);
    // Registered between two run_until calls: one starting before every
    // pending start, one after the run ends.
    register(
        &mut sim,
        &mut want,
        &[
            (b[4], f2.r1, 30_000, 40, 0),
            (b[5], f2.r0, 10_000, 26, 0),
            (b[6], f2.r1, 8_000, 5_000, 0),
        ],
    );
    sim.run_until(us(28));
    assert_eq!(check_flow_table(&sim, &want, us(28)), [N, U, N, C, N, U, N]);
    sim.run();
    assert_eq!(check_flow_table(&sim, &want, end), [C, U, N, C, C, C, N]);
}

/// [`add`] `flows`, and keep what was registered in `want`.
fn register(
    sim: &mut Simulator,
    want: &mut Vec<(NodeId, NodeId, u64, SimTime)>,
    flows: &[(NodeId, NodeId, u64, u64, u64)],
) {
    add(sim, flows);
    want.extend(
        flows
            .iter()
            .map(|&(s, d, size, st, _)| (s, d, size, us(st))),
    );
}
