//! Pinned controller trajectories: every preset of every controller is
//! driven through one fixed script of `start`, `Sent`, `Feedback`, `Ack`
//! and `Timer` events, and after each step the sending rate and the
//! requested timers must equal the values recorded when the presets were
//! still per-controller copies. A preset constant that drifts, or a
//! controller whose arithmetic changes, fails here with the step named.
//! Below them, every field of every preset is pinned to its documented
//! default.

use lossless_cc::{Dcqcn, DcqcnConfig, Hpcc, HpccConfig, IbCc, IbCcConfig, Timely, TimelyConfig};
use lossless_netsim::cchooks::{CcAction, CcEvent, RateController};
use lossless_netsim::packet::IntHop;
use lossless_netsim::{Rate, SimDuration, SimTime};
use tcd_core::CodePoint;

/// One telemetry record of a single 40 Gbps hop.
fn hop(qlen_bytes: u64, tx_bytes: u64, ts_us: u64) -> Vec<IntHop> {
    vec![IntHop {
        qlen_bytes,
        tx_bytes,
        ts: SimTime::from_us(ts_us),
        rate: Rate::from_gbps(40),
    }]
}

fn ack(rtt_us: u64, code: CodePoint, int: Vec<IntHop>) -> CcEvent {
    CcEvent::Ack {
        rtt: SimDuration::from_us(rtt_us),
        code,
        bytes: 1000,
        int,
    }
}

fn feedback(code: CodePoint) -> CcEvent {
    CcEvent::Feedback { code }
}

/// The script after `start`: `(now in µs, event)`. Acks are at least
/// 25 µs apart, so TIMELY's and HPCC's update gates pass each one.
fn script() -> Vec<(u64, CcEvent)> {
    const MIB: u64 = 1024 * 1024;
    vec![
        (1, CcEvent::Sent { bytes: 6 * MIB }),
        (2, feedback(CodePoint::CE)),
        (3, feedback(CodePoint::UE)),
        (5, ack(30, CodePoint::Capable, hop(0, 0, 4))),
        (55, CcEvent::Timer { id: 0 }),
        (60, ack(120, CodePoint::UE, hop(200_000, 250_000, 58))),
        (90, ack(200, CodePoint::UE, hop(300_000, 300_000, 88))),
        (120, ack(600, CodePoint::CE, hop(300_000, 400_000, 118))),
        (150, ack(300, CodePoint::CE, hop(100_000, 550_000, 148))),
        (300, CcEvent::Timer { id: 1 }),
        (301, CcEvent::Sent { bytes: 12 * MIB }),
        (302, feedback(CodePoint::CE)),
        (303, feedback(CodePoint::UE)),
        (310, ack(100, CodePoint::Capable, hop(0, 700_000, 308))),
        (355, CcEvent::Timer { id: 0 }),
        (410, CcEvent::Timer { id: 0 }),
        (602, CcEvent::Timer { id: 1 }),
        (902, CcEvent::Timer { id: 1 }),
        (903, CcEvent::Sent { bytes: 40 * MIB }),
        (940, ack(40, CodePoint::Capable, hop(0, 800_000, 938))),
        (970, ack(90, CodePoint::Capable, hop(0, 900_000, 968))),
        (1000, ack(85, CodePoint::Capable, hop(0, 1_000_000, 998))),
        (1030, ack(80, CodePoint::Capable, hop(0, 1_100_000, 1028))),
        (1060, ack(75, CodePoint::Capable, hop(0, 1_200_000, 1058))),
        (1090, ack(70, CodePoint::Capable, hop(0, 1_300_000, 1088))),
        (1120, ack(65, CodePoint::Capable, hop(0, 1_400_000, 1118))),
        (1150, ack(60, CodePoint::Capable, hop(0, 1_500_000, 1148))),
        (1202, CcEvent::Timer { id: 1 }),
    ]
}

/// The rate in bps and the requested `(timer id, delay in ps)` pairs.
type Step = (u64, Vec<(u32, u64)>);

fn observe(c: &dyn RateController, a: CcAction) -> Step {
    (
        c.rate().as_bps(),
        a.timers().map(|(id, d)| (id, d.as_ps())).collect(),
    )
}

/// Drive `c` through `start` and the script, asserting `want[i]` after
/// step `i` (step 0 is `start`).
fn check(mut c: impl RateController, want: &[(u64, &[(u32, u64)])]) {
    let name = c.name();
    let script = script();
    assert_eq!(
        want.len(),
        script.len() + 1,
        "{name}: one expected step per event"
    );
    let a = c.start(SimTime::ZERO, Rate::from_gbps(40));
    let mut got = vec![observe(&c, a)];
    for (now_us, ev) in script {
        let a = c.on_event(SimTime::from_us(now_us), ev);
        got.push(observe(&c, a));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!((g.0, g.1.as_slice()), (w.0, w.1), "{name}: step {i}");
    }
}

#[rustfmt::skip]
const DCQCN: &[(u64, &[(u32, u64)])] = &[
    (40000000000, &[(0, 55000000), (1, 300000000)]),
    (40000000000, &[]),
    (20000000000, &[(0, 55000000), (1, 300000000)]),
    (10000000000, &[(0, 55000000), (1, 300000000)]),
    (10000000000, &[]),
    (10000000000, &[(0, 55000000)]),
    (10000000000, &[]),
    (10000000000, &[]),
    (10000000000, &[]),
    (10000000000, &[]),
    (15000000000, &[(1, 300000000)]),
    (17500000000, &[]),
    (8750000000, &[(0, 55000000), (1, 300000000)]),
    (4375000000, &[(0, 55000000), (1, 300000000)]),
    (4375000000, &[]),
    (4375000000, &[(0, 55000000)]),
    (4375000000, &[(0, 55000000)]),
    (6562500000, &[(1, 300000000)]),
    (7656250000, &[(1, 300000000)]),
    (8203125000, &[]),
    (8203125000, &[]),
    (8203125000, &[]),
    (8203125000, &[]),
    (8203125000, &[]),
    (8203125000, &[]),
    (8203125000, &[]),
    (8203125000, &[]),
    (8203125000, &[]),
    (8476562500, &[(1, 300000000)]),
];

#[test]
fn dcqcn_standard() {
    check(Dcqcn::standard(), DCQCN);
}

#[rustfmt::skip]
const DCQCN_TCD: &[(u64, &[(u32, u64)])] = &[
    (40000000000, &[(0, 55000000), (1, 300000000)]),
    (40000000000, &[]),
    (16000000000, &[(0, 55000000), (1, 300000000)]),
    (16000000000, &[]),
    (16000000000, &[]),
    (16000000000, &[(0, 55000000)]),
    (16000000000, &[]),
    (16000000000, &[]),
    (16000000000, &[]),
    (16000000000, &[]),
    (28000000000, &[(1, 300000000)]),
    (34000000000, &[]),
    (13600000000, &[(0, 55000000), (1, 300000000)]),
    (13600000000, &[]),
    (13600000000, &[]),
    (13600000000, &[(0, 55000000)]),
    (13600000000, &[(0, 55000000)]),
    (23800000000, &[(1, 300000000)]),
    (28900000000, &[(1, 300000000)]),
    (31450000000, &[]),
    (31450000000, &[]),
    (31450000000, &[]),
    (31450000000, &[]),
    (31450000000, &[]),
    (31450000000, &[]),
    (31450000000, &[]),
    (31450000000, &[]),
    (31450000000, &[]),
    (32725000000, &[(1, 300000000)]),
];

#[test]
fn dcqcn_tcd() {
    check(Dcqcn::with_tcd(), DCQCN_TCD);
}

#[rustfmt::skip]
const IBCC: &[(u64, &[(u32, u64)])] = &[
    (40000000000, &[(0, 150000000)]),
    (40000000000, &[]),
    (35555555555, &[]),
    (32000000000, &[]),
    (32000000000, &[]),
    (35555555555, &[(0, 150000000)]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (32000000000, &[]),
    (29090909090, &[]),
    (29090909090, &[]),
    (32000000000, &[(0, 150000000)]),
    (35555555555, &[(0, 150000000)]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
];

#[test]
fn ibcc_standard() {
    check(IbCc::standard(), IBCC);
}

#[rustfmt::skip]
const IBCC_TCD: &[(u64, &[(u32, u64)])] = &[
    (40000000000, &[(0, 150000000)]),
    (40000000000, &[]),
    (32000000000, &[]),
    (32000000000, &[]),
    (32000000000, &[]),
    (35555555555, &[(0, 150000000)]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (29090909090, &[]),
    (29090909090, &[]),
    (29090909090, &[]),
    (32000000000, &[(0, 150000000)]),
    (35555555555, &[(0, 150000000)]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
    (35555555555, &[]),
];

#[test]
fn ibcc_tcd() {
    check(IbCc::with_tcd(), IBCC_TCD);
}

#[rustfmt::skip]
const TIMELY: &[(u64, &[(u32, u64)])] = &[
    (40000000000, &[]),
    (40000000000, &[]),
    (40000000000, &[]),
    (40000000000, &[]),
    (40000000000, &[]),
    (40000000000, &[]),
    (7999999999, &[]),
    (1599999999, &[]),
    (1386666665, &[]),
    (1426666665, &[]),
    (1426666665, &[]),
    (1426666665, &[]),
    (1426666665, &[]),
    (1426666665, &[]),
    (1466666665, &[]),
    (1466666665, &[]),
    (1466666665, &[]),
    (1466666665, &[]),
    (1466666665, &[]),
    (1466666665, &[]),
    (1506666665, &[]),
    (301333332, &[]),
    (341333332, &[]),
    (381333332, &[]),
    (421333332, &[]),
    (461333332, &[]),
    (661333332, &[]),
    (861333332, &[]),
    (861333332, &[]),
];

#[test]
fn timely_standard() {
    check(Timely::standard(), TIMELY);
}

#[rustfmt::skip]
const TIMELY_TCD: &[(u64, &[(u32, u64)])] = &[
    (40000000000, &[]),
    (40000000000, &[]),
    (40000000000, &[]),
    (40000000000, &[]),
    (40000000000, &[]),
    (40000000000, &[]),
    (40000000000, &[]),
    (40000000000, &[]),
    (29333333333, &[]),
    (29373333333, &[]),
    (29373333333, &[]),
    (29373333333, &[]),
    (29373333333, &[]),
    (29373333333, &[]),
    (29413333333, &[]),
    (29413333333, &[]),
    (29413333333, &[]),
    (29413333333, &[]),
    (29413333333, &[]),
    (29413333333, &[]),
    (29453333333, &[]),
    (5890666666, &[]),
    (5930666666, &[]),
    (5970666666, &[]),
    (6010666666, &[]),
    (6050666666, &[]),
    (6250666666, &[]),
    (6450666666, &[]),
    (6450666666, &[]),
];

#[test]
fn timely_tcd() {
    check(Timely::with_tcd(), TIMELY_TCD);
}

#[rustfmt::skip]
const HPCC: &[(u64, &[(u32, u64)])] = &[
    (40000000000, &[]),
    (40000000000, &[]),
    (40000000000, &[]),
    (40000000000, &[]),
    (40000000000, &[]),
    (40000000000, &[]),
    (22177167381, &[]),
    (13900201530, &[]),
    (7234209707, &[]),
    (5068928015, &[]),
    (5068928015, &[]),
    (5068928015, &[]),
    (5068928015, &[]),
    (5068928015, &[]),
    (5228928015, &[]),
    (5228928015, &[]),
    (5228928015, &[]),
    (5228928015, &[]),
    (5228928015, &[]),
    (5228928015, &[]),
    (5228928015, &[]),
    (5228928015, &[]),
    (5228928015, &[]),
    (5228928015, &[]),
    (7383222422, &[]),
    (7543222422, &[]),
    (7543222422, &[]),
    (7543222422, &[]),
    (7543222422, &[]),
];

#[test]
fn hpcc_standard() {
    check(Hpcc::standard(), HPCC);
}

// Preset values: every field of every preset equals the default its doc
// comment states. The destructuring is exhaustive, so a new field must be
// pinned here before this compiles.

#[test]
fn dcqcn_presets_match_their_docs() {
    assert_eq!(DcqcnConfig::default(), DcqcnConfig::STANDARD);
    for (cfg, factor, hold) in [
        (DcqcnConfig::STANDARD, 0.5, false),
        (DcqcnConfig::TCD, 0.6, true),
    ] {
        let DcqcnConfig {
            g,
            alpha_timer,
            increase_timer,
            byte_counter,
            fr_stages,
            rai,
            rhai,
            min_rate,
            reduction_factor,
            hold_on_ue,
        } = cfg;
        assert_eq!(g, 1.0 / 256.0);
        assert_eq!(alpha_timer, SimDuration::from_us(55));
        assert_eq!(increase_timer, SimDuration::from_us(300));
        assert_eq!(byte_counter, 10 * 1024 * 1024);
        assert_eq!(fr_stages, 5);
        assert_eq!(rai, Rate::from_mbps(40));
        assert_eq!(rhai, Rate::from_mbps(200));
        assert_eq!(min_rate, Rate::from_mbps(10));
        assert_eq!(reduction_factor, factor);
        assert_eq!(hold_on_ue, hold);
    }
}

#[test]
fn ibcc_presets_match_their_docs() {
    assert_eq!(IbCcConfig::default(), IbCcConfig::STANDARD);
    for (cfg, step, hold) in [(IbCcConfig::STANDARD, 1, false), (IbCcConfig::TCD, 2, true)] {
        let IbCcConfig {
            ccti_increase,
            ccti_max,
            ccti_timer,
            ird_unit,
            min_rate,
            hold_on_ue,
        } = cfg;
        assert_eq!(ccti_increase, step);
        assert_eq!(ccti_max, 127);
        assert_eq!(ccti_timer, SimDuration::from_us(150));
        assert_eq!(ird_unit, 1.0 / 8.0);
        assert_eq!(min_rate, Rate::from_mbps(10));
        assert_eq!(hold_on_ue, hold);
    }
}

#[test]
fn timely_presets_match_their_docs() {
    assert_eq!(TimelyConfig::default(), TimelyConfig::STANDARD);
    for (cfg, ce, hold) in [
        (TimelyConfig::STANDARD, 0.8, false),
        (TimelyConfig::TCD, 1.6, true),
    ] {
        let TimelyConfig {
            ewma_alpha,
            delta,
            beta,
            beta_ce,
            t_low,
            t_high,
            min_rtt,
            hai_threshold,
            min_rate,
            update_interval,
            hold_on_ue,
        } = cfg;
        assert_eq!(ewma_alpha, 0.875);
        assert_eq!(delta, Rate::from_mbps(40));
        assert_eq!(beta, 0.8);
        assert_eq!(beta_ce, ce);
        assert_eq!(t_low, SimDuration::from_us(50));
        assert_eq!(t_high, SimDuration::from_us(500));
        assert_eq!(min_rtt, SimDuration::from_us(20));
        assert_eq!(hai_threshold, 5);
        assert_eq!(min_rate, Rate::from_mbps(10));
        assert_eq!(update_interval, SimDuration::from_us(25));
        assert_eq!(hold_on_ue, hold);
    }
}

#[test]
fn hpcc_preset_matches_its_docs() {
    assert_eq!(HpccConfig::default(), HpccConfig::STANDARD);
    let HpccConfig {
        eta,
        max_stage,
        wai_bytes,
        base_rtt,
        update_interval,
        min_rate,
    } = HpccConfig::STANDARD;
    assert_eq!(eta, 0.95);
    assert_eq!(max_stage, 5);
    assert_eq!(wai_bytes, 1000.0);
    assert_eq!(base_rtt, SimDuration::from_us(50));
    assert_eq!(update_interval, SimDuration::from_us(25));
    assert_eq!(min_rate, Rate::from_mbps(10));
}
