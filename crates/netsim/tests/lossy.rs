//! The lossy-Ethernet baseline: drop-tail switches + go-back-N transport.
//! These tests pin the reliability machinery and the premise the paper
//! starts from — losing packets costs far more time than pausing.

use lossless_flowctl::{Rate, SimDuration, SimTime};
use lossless_netsim::cchooks::FixedRate;
use lossless_netsim::config::SimConfig;
use lossless_netsim::routing::RouteSelect;
use lossless_netsim::topology::{dumbbell, figure2, Figure2Options};
use lossless_netsim::Simulator;

#[test]
fn uncontended_lossy_flow_behaves_like_lossless() {
    // No contention, no drops: the reliable transport adds no overhead.
    let db = dumbbell(Rate::from_gbps(40), SimDuration::from_us(4));
    let cfg = SimConfig::lossy_baseline(SimTime::from_ms(10), 200 * 1024);
    let mut sim = Simulator::new(db.topo.clone(), cfg, RouteSelect::Ecmp);
    let size = 2_000_000u64;
    let f = sim.add_flow(
        db.h0,
        db.h1,
        size,
        SimTime::ZERO,
        Box::new(FixedRate::line_rate()),
    );
    sim.run();
    assert_eq!(sim.trace.drops, 0);
    let rec = sim.trace.flow(f);
    assert_eq!(rec.delivered.bytes, size);
    let fct = rec.fct().unwrap();
    let ideal = Rate::from_gbps(40).serialize_time(size);
    assert!(fct.as_ps() < ideal.as_ps() * 105 / 100 + 20_000_000);
}

#[test]
fn overload_drops_but_reliability_recovers_everything() {
    // 4:1 incast into a small drop-tail buffer: drops are inevitable, yet
    // go-back-N delivers every byte exactly once.
    let f2 = figure2(Figure2Options::default());
    let cfg = SimConfig::lossy_baseline(SimTime::from_ms(100), 100 * 1024);
    let mut sim = Simulator::new(f2.topo.clone(), cfg, RouteSelect::Ecmp);
    let size = 500_000u64;
    let flows: Vec<_> = f2
        .bursters
        .iter()
        .take(4)
        .map(|&a| {
            sim.add_flow(
                a,
                f2.r1,
                size,
                SimTime::ZERO,
                Box::new(FixedRate::line_rate()),
            )
        })
        .collect();
    sim.run();
    assert!(sim.trace.drops > 0, "a 4:1 incast into 100KB must drop");
    for f in &flows {
        let rec = sim.trace.flow(*f);
        assert!(rec.end.is_some(), "flow {f:?} never completed");
        assert_eq!(rec.delivered.bytes, size, "exactly-once delivery violated");
    }
}

#[test]
fn lossless_beats_lossy_tail_under_incast() {
    // The paper's premise (§1): with the same offered load, the lossless
    // fabric completes the incast far sooner than the lossy one, whose
    // stragglers pay retransmission timeouts.
    let run = |lossless: bool| -> f64 {
        let f2 = figure2(Figure2Options::default());
        let cfg = if lossless {
            let mut c = SimConfig::cee_baseline(SimTime::from_ms(100));
            c.detector = lossless_netsim::config::DetectorKind::None;
            c
        } else {
            SimConfig::lossy_baseline(SimTime::from_ms(100), 100 * 1024)
        };
        let mut sim = Simulator::new(f2.topo.clone(), cfg, RouteSelect::Ecmp);
        let size = 500_000u64;
        let flows: Vec<_> = f2
            .bursters
            .iter()
            .take(8)
            .map(|&a| {
                sim.add_flow(
                    a,
                    f2.r1,
                    size,
                    SimTime::ZERO,
                    Box::new(FixedRate::line_rate()),
                )
            })
            .collect();
        sim.run();
        flows
            .iter()
            .map(|f| sim.trace.flow(*f).fct().expect("completes").as_secs_f64())
            .fold(0.0, f64::max)
    };
    let lossless_tail = run(true);
    let lossy_tail = run(false);
    assert!(
        lossy_tail > lossless_tail * 1.5,
        "lossy tail {lossy_tail:.6}s should far exceed lossless {lossless_tail:.6}s"
    );
}

#[test]
fn receive_slots_follow_start_order() {
    // Four flows into r1, registered latest start first, so they start in
    // the reverse of registration order, and one into r0 between them;
    // heavy loss. Each flow gets its slot among the started flows when it
    // starts, and go-back-N's cumulative ACKs, which the receiver reads
    // from the record in that slot, drive every flow to exactly the
    // completion time it had when receive state was a map keyed by flow id
    // (the pinned values).
    let f2 = figure2(Figure2Options::default());
    let cfg = SimConfig::lossy_baseline(SimTime::from_ms(200), 50 * 1024);
    let mut sim = Simulator::new(f2.topo.clone(), cfg, RouteSelect::Ecmp);
    let b = &f2.bursters;
    let plan = [
        (b[0], f2.r1, 40),
        (b[3], f2.r0, 5),
        (b[1], f2.r1, 20),
        (b[2], f2.r1, 0),
        (b[4], f2.r1, 10),
    ];
    let flows: Vec<_> = plan
        .iter()
        .map(|&(src, dst, start_us)| {
            sim.add_flow(
                src,
                dst,
                300_000,
                SimTime::ZERO + SimDuration::from_us(start_us),
                Box::new(FixedRate::line_rate()),
            )
        })
        .collect();
    sim.run();
    // Slot k is the k-th flow to start, by (start, registration).
    let slots: Vec<u32> = sim.trace.flows.iter().map(|f| f.slot).collect();
    let mut by_start: Vec<usize> = (0..plan.len()).collect();
    by_start.sort_by_key(|&i| (plan[i].2, i));
    for (k, &i) in by_start.iter().enumerate() {
        assert_eq!(slots[i], k as u32, "flow {i}");
    }
    assert_eq!(slots, [4, 1, 3, 0, 2]);
    assert_eq!((sim.trace.drops, sim.trace.events), (4560, 229_797));
    let ends: Vec<_> = flows
        .iter()
        .map(|f| {
            let rec = sim.trace.flow(*f);
            assert_eq!(rec.delivered.bytes, 300_000);
            rec.end.map(SimTime::as_ps)
        })
        .collect();
    assert_eq!(
        ends,
        [
            Some(4_608_200_000),
            Some(73_200_000),
            Some(4_236_800_000),
            Some(78_200_000),
            Some(1_563_400_000),
        ]
    );
}

#[test]
fn duplicate_deliveries_are_never_counted() {
    // Force heavy loss; the receiver must count each byte exactly once
    // even though the sender retransmits ranges repeatedly.
    let f2 = figure2(Figure2Options::default());
    let cfg = SimConfig::lossy_baseline(SimTime::from_ms(200), 50 * 1024);
    let mut sim = Simulator::new(f2.topo.clone(), cfg, RouteSelect::Ecmp);
    let size = 300_000u64;
    let flows: Vec<_> = f2
        .bursters
        .iter()
        .take(6)
        .map(|&a| {
            sim.add_flow(
                a,
                f2.r1,
                size,
                SimTime::ZERO,
                Box::new(FixedRate::line_rate()),
            )
        })
        .collect();
    sim.run();
    assert!(sim.trace.drops > 0);
    for f in &flows {
        let rec = sim.trace.flow(*f);
        assert_eq!(rec.delivered.bytes, size, "byte counted twice or lost");
        assert!(rec.end.is_some());
    }
}
