//! Behavioural tests of the switch/host machinery: PFC pause dynamics,
//! CBFC credit dynamics, NIC pacing, feedback generation and
//! multi-priority isolation.

use lossless_flowctl::{Rate, SimDuration, SimTime};
use lossless_netsim::cchooks::{CcAction, CcEvent, FixedRate, RateController};
use lossless_netsim::config::{DetectorKind, FeedbackMode, SimConfig};
use lossless_netsim::routing::RouteSelect;
use lossless_netsim::topology::{dumbbell, figure2, Figure2Options};
use lossless_netsim::{CodePoint, Simulator};

#[test]
fn pfc_pauses_a_two_to_one_incast_and_nothing_is_lost() {
    let f2 = figure2(Figure2Options::default());
    let mut cfg = SimConfig::cee_baseline(SimTime::from_ms(10));
    cfg.detector = DetectorKind::None;
    let mut sim = Simulator::new(f2.topo.clone(), cfg, RouteSelect::Ecmp);
    let a = sim.add_flow(
        f2.bursters[0],
        f2.r1,
        1_000_000,
        SimTime::ZERO,
        Box::new(FixedRate::line_rate()),
    );
    let b = sim.add_flow(
        f2.bursters[1],
        f2.r1,
        1_000_000,
        SimTime::ZERO,
        Box::new(FixedRate::line_rate()),
    );
    sim.run();
    assert!(sim.trace.pause_frames >= 2, "PAUSE + RESUME expected");
    for f in [a, b] {
        assert_eq!(sim.trace.flow(f).delivered.bytes, 1_000_000);
    }
    // Aggregate throughput equals the bottleneck: last completion at
    // >= 2 MB / 40 Gbps.
    let t_done = sim.trace.completed().map(|r| r.end.unwrap()).max().unwrap();
    assert!(
        t_done.saturating_since(SimTime::ZERO) >= Rate::from_gbps(40).serialize_time(2_000_000)
    );
}

#[test]
fn cbfc_credit_loop_throttles_exactly_to_line_rate() {
    // One flow through the IB dumbbell: despite periodic credit grants,
    // the flow's goodput equals the line rate (no stalls on an
    // uncongested path — the B > C*T_c sizing rule).
    let db = dumbbell(Rate::from_gbps(40), SimDuration::from_us(4));
    let cfg = SimConfig::ib_baseline(SimTime::from_ms(10));
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
    let fct = sim.trace.flow(f).fct().expect("completed");
    let ideal = Rate::from_gbps(40).serialize_time(size);
    // Within 5% of pure serialization (plus fixed latency).
    assert!(
        fct.as_ps() < ideal.as_ps() * 105 / 100 + 20_000_000,
        "CBFC stalled an uncongested flow: fct {fct} vs ideal {ideal}"
    );
}

#[test]
fn nic_paces_flows_independently() {
    // Two flows from one host at different configured rates: both finish
    // at times set by their own rate, not each other's.
    let db = dumbbell(Rate::from_gbps(40), SimDuration::from_us(4));
    let mut cfg = SimConfig::cee_baseline(SimTime::from_ms(50));
    cfg.detector = DetectorKind::None;
    let mut sim = Simulator::new(db.topo.clone(), cfg, RouteSelect::Ecmp);
    let fast = sim.add_flow(
        db.h0,
        db.h1,
        2_000_000,
        SimTime::ZERO,
        Box::new(FixedRate::new(Rate::from_gbps(20))),
    );
    let slow = sim.add_flow(
        db.h0,
        db.h1,
        2_000_000,
        SimTime::ZERO,
        Box::new(FixedRate::new(Rate::from_gbps(5))),
    );
    sim.run();
    let t_fast = sim.trace.flow(fast).fct().unwrap();
    let t_slow = sim.trace.flow(slow).fct().unwrap();
    let i_fast = Rate::from_gbps(20).serialize_time(2_000_000);
    let i_slow = Rate::from_gbps(5).serialize_time(2_000_000);
    assert!(t_fast.as_ps() >= i_fast.as_ps());
    assert!(t_slow.as_ps() >= i_slow.as_ps());
    assert!(t_fast.as_ps() < i_fast.as_ps() * 11 / 10 + 20_000_000);
    assert!(t_slow.as_ps() < i_slow.as_ps() * 11 / 10 + 20_000_000);
}

#[test]
fn cnp_feedback_is_rate_limited_per_flow() {
    // A controller that counts feedback events: with min_interval = 50us
    // and a congested path, CNPs arrive at most once per 50us.
    struct Counter {
        rate: Rate,
        feedbacks: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }
    impl RateController for Counter {
        fn start(&mut self, _now: SimTime, line_rate: Rate) -> CcAction {
            self.rate = line_rate;
            CcAction::none()
        }
        fn on_event(&mut self, _now: SimTime, ev: CcEvent) -> CcAction {
            if matches!(ev, CcEvent::Feedback { .. }) {
                self.feedbacks
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            CcAction::none()
        }
        fn rate(&self) -> Rate {
            self.rate
        }
        fn name(&self) -> &'static str {
            "counter"
        }
    }

    let f2 = figure2(Figure2Options::default());
    let mut cfg = SimConfig::cee_baseline(SimTime::from_ms(5));
    cfg.feedback = FeedbackMode::CnpOnMarked {
        min_interval: SimDuration::from_us(50),
        notify_ue: false,
    };
    let mut sim = Simulator::new(f2.topo.clone(), cfg, RouteSelect::Ecmp);
    let count = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let _ = sim.add_flow(
        f2.s1,
        f2.r1,
        30_000_000,
        SimTime::ZERO,
        Box::new(Counter {
            rate: Rate::ZERO,
            feedbacks: count.clone(),
        }),
    );
    // Create congestion at R1 so the flow's packets are ECN-marked.
    for &a in f2.bursters.iter().take(6) {
        sim.add_flow(
            a,
            f2.r1,
            2_000_000,
            SimTime::ZERO,
            Box::new(FixedRate::line_rate()),
        );
    }
    sim.run();
    // 5 ms / 50 us = at most 100 CNPs (plus one initial).
    assert!(
        count.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "expected some CNPs under congestion"
    );
    assert!(
        count.load(std::sync::atomic::Ordering::Relaxed) <= 101,
        "CNPs not rate-limited: {}",
        count.load(std::sync::atomic::Ordering::Relaxed)
    );
}

#[test]
fn feedback_priority_is_isolated_from_data_congestion() {
    // CNPs travel on priority 0 and must keep flowing while priority 1 is
    // paused: the congested receiver still generates feedback promptly.
    // Indirect check: a DCQCN-like counter flow still receives feedback
    // during heavy priority-1 congestion (previous test), and feedback
    // priority queues never pause because their volume is tiny. Here we
    // assert the data path marks while the feedback path never does.
    let f2 = figure2(Figure2Options::default());
    let mut cfg = SimConfig::cee_baseline(SimTime::from_ms(4));
    cfg.feedback = FeedbackMode::AckPerPacket;
    let mut sim = Simulator::new(f2.topo.clone(), cfg, RouteSelect::Ecmp);
    sim.record_marks(true);
    for &a in f2.bursters.iter().take(8) {
        sim.add_flow(
            a,
            f2.r1,
            1_000_000,
            SimTime::ZERO,
            Box::new(FixedRate::line_rate()),
        );
    }
    sim.run();
    assert!(!sim.trace.marks.is_empty(), "data packets should be marked");
    // Marks only ever apply to data-priority packets; feedback packets are
    // CodePoint::NotCapable and the switch skips non-data priorities.
    for m in &sim.trace.marks {
        assert!(m.code.is_marked());
    }
}

#[test]
fn ue_notifications_require_opt_in() {
    // Same TCD run twice, once with notify_ue off: UE CNPs only reach the
    // sender in the opted-in run. Observed via the receiver's delivered
    // counts (identical) and pause behaviour (identical), while only the
    // opted-in controller sees Feedback{UE}.
    struct UeSpy {
        rate: Rate,
        ue_seen: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }
    impl RateController for UeSpy {
        fn start(&mut self, _now: SimTime, line_rate: Rate) -> CcAction {
            self.rate = line_rate;
            CcAction::none()
        }
        fn on_event(&mut self, _now: SimTime, ev: CcEvent) -> CcAction {
            if let CcEvent::Feedback { code } = ev {
                if code == CodePoint::UE {
                    self.ue_seen
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
            CcAction::none()
        }
        fn rate(&self) -> Rate {
            self.rate
        }
        fn name(&self) -> &'static str {
            "ue-spy"
        }
    }

    let run_once = |notify_ue: bool| {
        let f2 = figure2(Figure2Options::default());
        let mut cfg = SimConfig::cee_baseline(SimTime::from_ms(4));
        cfg.detector = DetectorKind::Tcd(tcd_core::TcdConfig::new(
            SimDuration::from_us(100),
            200 * 1024,
            5 * 1024,
        ));
        cfg.feedback = FeedbackMode::CnpOnMarked {
            min_interval: SimDuration::from_us(50),
            notify_ue,
        };
        let mut sim = Simulator::new(f2.topo.clone(), cfg, RouteSelect::Ecmp);
        let ue = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        // F0 is a victim: its packets carry UE through the paused chain.
        let _ = sim.add_flow(
            f2.s0,
            f2.r0,
            4_000_000,
            SimTime::ZERO,
            Box::new(UeSpy {
                rate: Rate::ZERO,
                ue_seen: ue.clone(),
            }),
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
        sim.add_flow(
            f2.s1,
            f2.r1,
            10_000_000,
            SimTime::ZERO,
            Box::new(FixedRate::line_rate()),
        );
        sim.run();
        ue.load(std::sync::atomic::Ordering::Relaxed)
    };
    assert!(
        run_once(true) > 0,
        "opted-in sender must receive UE feedback"
    );
    assert_eq!(run_once(false), 0, "legacy sender must never see UE");
}

#[test]
fn multi_priority_pfc_isolation() {
    // Two data priorities: congestion on priority 1 pauses only priority
    // 1; a priority-2 flow on the same links is unaffected.
    let f2 = figure2(Figure2Options::default());
    let mut cfg = SimConfig::cee_baseline(SimTime::from_ms(8));
    cfg.num_prios = 3;
    cfg.detector = DetectorKind::None;
    let mut sim = Simulator::new(f2.topo.clone(), cfg, RouteSelect::Ecmp);
    // Priority-1 incast onto R1 (the congested class).
    for &a in &f2.bursters {
        sim.add_flow_prio(
            a,
            f2.r1,
            1_000_000,
            SimTime::ZERO,
            1,
            Box::new(FixedRate::line_rate()),
        );
    }
    sim.add_flow_prio(
        f2.s1,
        f2.r1,
        5_000_000,
        SimTime::ZERO,
        1,
        Box::new(FixedRate::line_rate()),
    );
    // Priority-2 flow across the same chain to the uncongested R0.
    let p2_flow = sim.add_flow_prio(
        f2.s0,
        f2.r0,
        5_000_000,
        SimTime::ZERO,
        2,
        Box::new(FixedRate::new(Rate::from_gbps(10))),
    );
    sim.run();
    let rec = sim.trace.flow(p2_flow);
    let fct = rec.fct().expect("priority-2 flow must complete");
    let ideal = Rate::from_gbps(10).serialize_time(5_000_000);
    // Head-of-line-free: the priority-2 flow runs at its paced rate even
    // while priority 1 is being paused throughout the chain.
    // Strict-priority scheduling favours lower indices, so allow overhead
    // from sharing the wire with priority-1 catch-up bursts.
    assert!(
        fct.as_ps() < ideal.as_ps() * 14 / 10,
        "priority-2 flow was head-of-line blocked: {fct} vs ideal {ideal}"
    );
    assert!(
        sim.trace.pause_frames > 0,
        "priority 1 must have been paused"
    );
}

#[test]
fn timely_acks_echo_code_points() {
    // With AckPerPacket and a congested path, the sender's ACKs carry the
    // marks applied to its data packets.
    struct EchoSpy {
        rate: Rate,
        marked: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }
    impl RateController for EchoSpy {
        fn start(&mut self, _now: SimTime, line_rate: Rate) -> CcAction {
            self.rate = line_rate;
            CcAction::none()
        }
        fn on_event(&mut self, _now: SimTime, ev: CcEvent) -> CcAction {
            if let CcEvent::Ack { code, .. } = ev {
                if code.is_marked() {
                    self.marked
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
            CcAction::none()
        }
        fn rate(&self) -> Rate {
            self.rate
        }
        fn name(&self) -> &'static str {
            "echo-spy"
        }
    }

    let f2 = figure2(Figure2Options::default());
    let mut cfg = SimConfig::cee_baseline(SimTime::from_ms(4));
    cfg.feedback = FeedbackMode::AckPerPacket;
    let mut sim = Simulator::new(f2.topo.clone(), cfg, RouteSelect::Ecmp);
    let marked = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let _ = sim.add_flow(
        f2.s1,
        f2.r1,
        20_000_000,
        SimTime::ZERO,
        Box::new(EchoSpy {
            rate: Rate::ZERO,
            marked: marked.clone(),
        }),
    );
    for &a in f2.bursters.iter().take(8) {
        sim.add_flow(
            a,
            f2.r1,
            1_500_000,
            SimTime::ZERO,
            Box::new(FixedRate::line_rate()),
        );
    }
    sim.run();
    assert!(
        marked.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "congested flow's ACKs must echo CE marks"
    );
}
