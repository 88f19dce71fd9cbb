//! Full-stack determinism: identical configurations produce bit-identical
//! results across every scenario family — the property all other
//! regression tests rely on.

use tcd_repro::flowctl::{SimDuration, SimTime};
use tcd_repro::scenarios::victim;
use tcd_repro::scenarios::{Cc, CcAlgo, Network};

fn fingerprint(r: &victim::Run) -> Vec<(u64, u64, u64, Option<u64>)> {
    r.sim
        .trace
        .records()
        .map(|f| {
            (
                f.delivered.bytes,
                f.delivered.ce,
                f.delivered.ue,
                f.end.map(|t| t.as_ps()),
            )
        })
        .collect()
}

#[test]
fn victim_scenario_is_reproducible() {
    let mk = || {
        victim::run(victim::Options {
            network: Network::Cee,
            use_tcd: true,
            cc: Some(Cc {
                algo: CcAlgo::Dcqcn,
                tcd: true,
            }),
            end: SimTime::from_ms(10),
            seed: 42,
            ..Default::default()
        })
    };
    assert_eq!(fingerprint(&mk()), fingerprint(&mk()));
}

#[test]
fn different_seeds_differ() {
    let mk = |seed| {
        victim::run(victim::Options {
            network: Network::Cee,
            use_tcd: true,
            cc: Some(Cc {
                algo: CcAlgo::Dcqcn,
                tcd: true,
            }),
            end: SimTime::from_ms(10),
            seed,
            ..Default::default()
        })
    };
    assert_ne!(
        fingerprint(&mk(1)),
        fingerprint(&mk(2)),
        "seeds must matter"
    );
}

#[test]
fn ib_scenario_is_reproducible() {
    let mk = || {
        victim::run(victim::Options {
            network: Network::Ib,
            use_tcd: true,
            cc: Some(Cc {
                algo: CcAlgo::IbCc,
                tcd: true,
            }),
            load: 0.3,
            burst_gap: SimDuration::from_us(700),
            end: SimTime::from_ms(10),
            seed: 7,
            ..Default::default()
        })
    };
    assert_eq!(fingerprint(&mk()), fingerprint(&mk()));
}

#[test]
fn timely_scenario_is_reproducible() {
    // TIMELY exercises the per-packet ACK path — the most event-dense
    // feedback mode.
    let mk = || {
        victim::run(victim::Options {
            network: Network::Cee,
            use_tcd: true,
            cc: Some(Cc {
                algo: CcAlgo::Timely,
                tcd: true,
            }),
            end: SimTime::from_ms(8),
            seed: 9,
            ..Default::default()
        })
    };
    assert_eq!(fingerprint(&mk()), fingerprint(&mk()));
}
