//! Property-based tests of the TCD state machine, the marking scheme, the
//! analytic ON-OFF model and the cycle finder.

use lossless_flowctl::{Rate, SimDuration, SimTime};
use proptest::prelude::*;
use tcd_core::baseline::{EcnRed, RedConfig};
use tcd_core::cycles;
use tcd_core::detector::{CongestionDetector, DequeueContext};
use tcd_core::model::{cee_max_ton, ib_ton_secs, OnOffModel};
use tcd_core::state::Transition;
use tcd_core::{CodePoint, TcdConfig, TcdDetector, TernaryState};

fn cp_strategy() -> impl Strategy<Value = CodePoint> {
    prop_oneof![
        Just(CodePoint::NotCapable),
        Just(CodePoint::Capable),
        Just(CodePoint::UE),
        Just(CodePoint::CE),
    ]
}

proptest! {
    /// Marking accumulation is order-insensitive for the congestion
    /// outcome: if any CE was applied, the final code point is CE (for
    /// capable packets); if only UEs, it is UE.
    #[test]
    fn marking_outcome_depends_only_on_the_set(marks in proptest::collection::vec(cp_strategy(), 0..20)) {
        let fin = marks.iter().fold(CodePoint::Capable, |c, &m| c.apply(m));
        if marks.contains(&CodePoint::CE) {
            prop_assert_eq!(fin, CodePoint::CE);
        } else if marks.contains(&CodePoint::UE) {
            prop_assert_eq!(fin, CodePoint::UE);
        } else {
            prop_assert_eq!(fin, CodePoint::Capable);
        }
    }

    /// A NotCapable packet stays NotCapable through any marking sequence.
    #[test]
    fn not_capable_is_inert(marks in proptest::collection::vec(cp_strategy(), 0..20)) {
        let fin = marks.iter().fold(CodePoint::NotCapable, |c, &m| c.apply(m));
        prop_assert_eq!(fin, CodePoint::NotCapable);
    }

    /// The detector never emits CE for a dequeue whose T_on is below
    /// max(T_on) — inside the ON-OFF pattern everything is UE.
    #[test]
    fn no_ce_inside_the_onoff_pattern(
        events in proptest::collection::vec((0u8..3, 1u64..50, 0u64..500_000), 1..200)
    ) {
        let cfg = TcdConfig::new(SimDuration::from_us(100), 200_000, 5_000);
        let mut det = TcdDetector::new(cfg);
        let mut now = SimTime::ZERO;
        let mut off = false;
        for (op, dt_us, q) in events {
            now += SimDuration::from_us(dt_us);
            match op {
                0 => { det.on_pause(now); off = true; }
                1 => { det.on_resume(now); off = false; }
                _ => {
                    if !off {
                        let ton = det.onoff().current_ton(now);
                        let mark = det.on_dequeue(&DequeueContext {
                            now, queue_bytes: q, delayed_by_fc: false,
                        });
                        if ton < cfg.max_ton {
                            prop_assert_ne!(mark, Some(CodePoint::CE),
                                "CE emitted during the ON-OFF pattern");
                            prop_assert_eq!(det.port_state(), TernaryState::Undetermined);
                        }
                    }
                }
            }
        }
    }

    /// A never-paused detector behaves exactly like its configuration's
    /// queue-threshold machine: state is congestion iff the queue crossed
    /// the high threshold without having drained to the low one since.
    #[test]
    fn never_paused_port_is_a_threshold_machine(
        queues in proptest::collection::vec(0u64..400_000, 1..200)
    ) {
        let cfg = TcdConfig::new(SimDuration::from_us(50), 200_000, 5_000);
        let mut det = TcdDetector::new(cfg);
        let mut expect = TernaryState::NonCongestion;
        let mut now = SimTime::ZERO;
        for q in queues {
            now += SimDuration::from_us(3);
            let _ = det.on_dequeue(&DequeueContext { now, queue_bytes: q, delayed_by_fc: false });
            if q > cfg.queue_high_bytes {
                expect = TernaryState::Congestion;
            } else if q <= cfg.queue_low_bytes {
                expect = TernaryState::NonCongestion;
            }
            prop_assert_eq!(det.port_state(), expect);
            prop_assert!(!det.port_state().is_undetermined(),
                "a never-paused port can never be undetermined");
        }
    }

    /// Arbitrary interleavings of ON/OFF edges, queue trends and timer
    /// fires only ever move the detector along Fig. 6's six transitions:
    /// every observed state change classifies to one of them with matching
    /// endpoints, and Undetermined is only ever entered after at least one
    /// OFF period.
    #[test]
    fn arbitrary_sequences_take_only_the_six_transitions(
        events in proptest::collection::vec((0u8..4, 1u64..80, 0u64..400_000), 1..300)
    ) {
        let cfg = TcdConfig::new(SimDuration::from_us(60), 200_000, 5_000);
        let mut det = TcdDetector::new(cfg);
        let mut now = SimTime::ZERO;
        let mut prev = det.port_state();
        prop_assert_eq!(prev, TernaryState::NonCongestion, "fresh port starts at 0");
        let mut offs = 0u64;
        for (op, dt_us, q) in events {
            now += SimDuration::from_us(dt_us);
            match op {
                0 => { det.on_pause(now); offs += 1; }
                1 => det.on_resume(now),
                2 => {
                    let _ = det.on_dequeue(&DequeueContext {
                        now, queue_bytes: q, delayed_by_fc: false,
                    });
                }
                _ => {
                    // Timers only fire while armed (the engine's contract).
                    if let Some(d) = det.timer_deadline() {
                        now = now.max(d);
                        det.on_timer(now, q, false);
                    }
                }
            }
            let state = det.port_state();
            if state != prev {
                let t = Transition::classify(prev, state);
                prop_assert!(t.is_some(), "illegal transition {prev} -> {state}");
                prop_assert_eq!(t.unwrap().endpoints(), (prev, state));
            }
            if state.is_undetermined() {
                prop_assert!(offs > 0, "undetermined with no OFF period ever");
            }
            prev = state;
        }
    }

    /// The paper-notation symbol of every state round-trips through
    /// `from_symbol`, and `from_symbol` rejects every other character.
    #[test]
    fn state_symbols_round_trip(raw in 0u8..128) {
        let c = raw as char;
        for s in [
            TernaryState::NonCongestion,
            TernaryState::Congestion,
            TernaryState::Undetermined,
        ] {
            prop_assert_eq!(TernaryState::from_symbol(s.symbol()), Some(s));
        }
        match TernaryState::from_symbol(c) {
            Some(s) => prop_assert_eq!(s.symbol(), c),
            None => prop_assert!(c != '0' && c != '1' && c != '/'),
        }
    }

    /// Table 1's two-bit wire encoding round-trips for every code point,
    /// and `from_bits` accepts exactly the four two-bit values.
    #[test]
    fn codepoint_bits_round_trip(bits in 0u8..=255) {
        for cp in [
            CodePoint::NotCapable,
            CodePoint::Capable,
            CodePoint::UE,
            CodePoint::CE,
        ] {
            prop_assert_eq!(CodePoint::from_bits(cp.to_bits()), Some(cp));
        }
        match CodePoint::from_bits(bits) {
            Some(cp) => prop_assert_eq!(cp.to_bits(), bits),
            None => prop_assert!(bits > 3, "all two-bit values decode"),
        }
    }

    /// RED marking frequency is monotone in queue length (statistically):
    /// compare two fixed queue levels over many trials.
    #[test]
    fn red_marks_more_at_longer_queues(seed in 1u64..10_000) {
        let cfg = RedConfig { kmin_bytes: 0, kmax_bytes: 100_000, pmax: 1.0 };
        let mut lo = EcnRed::new(cfg, seed);
        let mut hi = EcnRed::new(cfg, seed.wrapping_add(1));
        let trials = 3000;
        let count = |red: &mut EcnRed, q: u64| {
            (0..trials)
                .filter(|_| {
                    red.on_dequeue(&DequeueContext {
                        now: SimTime::ZERO,
                        queue_bytes: q,
                        delayed_by_fc: false,
                    })
                    .is_some()
                })
                .count()
        };
        let at_lo = count(&mut lo, 20_000);
        let at_hi = count(&mut hi, 80_000);
        prop_assert!(at_hi > at_lo, "RED must mark more at 80% than at 20% ({at_hi} vs {at_lo})");
    }

    /// Eq. 3 really bounds Eq. 2 for every drain rate up to C/2, across
    /// random link speeds, propagation delays and epsilons.
    #[test]
    fn max_ton_bounds_ton(
        gbps in 10u64..400,
        tp_us in 1u64..20,
        eps_milli in 5u64..500,
        rd_frac in 1u64..50
    ) {
        let c = Rate::from_gbps(gbps);
        let eps = eps_milli as f64 / 1000.0;
        let model = OnOffModel::cee(c, 1000, SimDuration::from_us(tp_us), eps);
        let rd = Rate::from_bps(c.as_bps() / 2 * rd_frac / 50);
        prop_assert!(model.ton_secs(rd) <= model.max_ton_secs() + 1e-12);
        // And the convenience wrapper agrees with the model.
        let m = cee_max_ton(c, 1000, SimDuration::from_us(tp_us), eps);
        prop_assert!((m.as_secs_f64() - model.max_ton_secs()).abs() < 1e-9);
    }

    /// Eq. 4: the InfiniBand T_on is always strictly below T_c for any
    /// positive congestion degree.
    #[test]
    fn ib_ton_below_tc(
        tc_us in 1u64..200,
        rd_gbps in 1u64..40,
        eps_milli in 1u64..900
    ) {
        let tc = SimDuration::from_us(tc_us);
        let ton = ib_ton_secs(
            Rate::from_gbps(rd_gbps),
            tc,
            eps_milli as f64 / 1000.0,
            Rate::from_gbps(40),
        );
        prop_assert!(ton < tc.as_secs_f64());
        prop_assert!(ton > 0.0);
    }
}

/// Nodes of the random digraphs the cycle finder is checked on.
const N: usize = 8;
const NONE: usize = usize::MAX;

/// Brute-force reference: `d[a][b]` is the length of the shortest path
/// of at least one edge from `a` to `b` (Floyd-Warshall), so `d[a][a]` is
/// the shortest cycle through `a` and `NONE` means none.
fn shortest_paths(edges: &[(u8, u8)]) -> [[usize; N]; N] {
    let mut d = [[NONE; N]; N];
    for &(a, b) in edges {
        d[a as usize][b as usize] = 1;
    }
    for k in 0..N {
        for i in 0..N {
            for j in 0..N {
                if d[i][k] != NONE && d[k][j] != NONE {
                    d[i][j] = d[i][j].min(d[i][k] + d[k][j]);
                }
            }
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `cycles::find` against the transitive closure: one simple cycle
    /// over real edges per cyclic strongly connected component, starting
    /// at the component's smallest node and as short as any cycle through
    /// it, in key order, whatever the order of the edge list.
    #[test]
    fn cycle_finder_matches_the_transitive_closure(
        edges in proptest::collection::vec((0u8..N as u8, 0u8..N as u8), 0..20),
        shuffle in proptest::collection::vec(any::<u64>(), 20)
    ) {
        let d = shortest_paths(&edges);
        let reach = |a: usize, b: usize| d[a][b] != NONE;
        let cyclic = |v: usize| reach(v, v);
        // The smallest node of v's component (v itself unless v is on a
        // cycle with smaller nodes).
        let root = |v: usize| (0..N).find(|&u| u == v || (reach(u, v) && reach(v, u))).unwrap();

        let got = cycles::find(edges.iter().copied());
        let want_roots: Vec<usize> = (0..N).filter(|&v| cyclic(v) && root(v) == v).collect();
        prop_assert_eq!(got.is_empty(), !(0..N).any(cyclic));
        let roots: Vec<usize> = got.iter().map(|c| c[0] as usize).collect();
        prop_assert_eq!(&roots, &want_roots, "edges {:?}: {:?}", edges, got);
        for c in &got {
            let first = c[0] as usize;
            prop_assert_eq!(c.len(), d[first][first], "not shortest: {:?} in {:?}", c, edges);
            for (i, &v) in c.iter().enumerate() {
                let next = c[(i + 1) % c.len()];
                prop_assert!(edges.contains(&(v, next)), "{:?} is no edge: {:?}", (v, next), c);
                prop_assert!(!c[..i].contains(&v), "{:?} is not simple", c);
                prop_assert_eq!(root(v as usize), first, "{:?} leaves its component", c);
            }
        }

        // Same edge set, shuffled, with every edge listed twice.
        let mut shuffled: Vec<(u8, u8)> = edges.iter().chain(&edges).copied().collect();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, (shuffle[i % shuffle.len()] % (i as u64 + 1)) as usize);
        }
        prop_assert_eq!(cycles::find(shuffled), got);
    }
}
