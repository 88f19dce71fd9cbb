//! Integration tests asserting the paper's §3/§5.1 phenomena end-to-end:
//! congestion spreading, improper binary marking, and TCD's ternary
//! detection. These drive the same scenario builders as the experiment
//! binaries, with shortened horizons to stay test-friendly.

use tcd_repro::flowctl::SimTime;
use tcd_repro::scenarios::observation::{run, Options};
use tcd_repro::scenarios::Network;
use tcd_repro::tcd::TernaryState;

fn short(network: Network, multi_cp: bool, use_tcd: bool, end_ms: u64) -> Options {
    Options {
        network,
        multi_cp,
        use_tcd,
        end: SimTime::from_ms(end_ms),
        ..Default::default()
    }
}

/// The sampled detector states of port P2, in time order.
fn p2_states(r: &tcd_repro::scenarios::observation::Run) -> Vec<TernaryState> {
    let prio = r.sim.config().data_prio;
    let samples = r.sim.trace.samples_of(r.fig.p2.0, r.fig.p2.1, prio);
    samples.iter().map(|s| s.state).collect()
}

#[test]
fn cee_ecn_improperly_marks_victims() {
    // §3.1.2: with plain ECN, the victim flows F0/F2 are marked CE at the
    // pause-affected chain ports.
    let r = run(short(Network::Cee, false, false, 4));
    let d0 = r.sim.trace.flow(r.f0).delivered;
    let d2 = r.sim.trace.flow(r.f2).delivered;
    assert!(d0.pkts > 50 && d2.pkts > 50, "cross flows must run");
    assert!(d0.ce > 0, "ECN blames victim F0 (got {} CE)", d0.ce);
    assert!(d2.ce > 0, "ECN blames victim F2");
    assert!(
        r.sim.trace.pause_frames > 0,
        "congestion must spread via PFC"
    );
}

#[test]
fn cee_tcd_protects_victims_and_marks_culprits() {
    // §5.1.2 / Fig. 12: with TCD, the victims get UE only; the congested
    // flow still gets CE.
    let r = run(short(Network::Cee, false, true, 3));
    let d0 = r.sim.trace.flow(r.f0).delivered;
    let d1 = r.sim.trace.flow(r.f1).delivered;
    let d2 = r.sim.trace.flow(r.f2).delivered;
    assert_eq!(d0.ce, 0, "TCD must not CE-mark victim F0");
    assert_eq!(d2.ce, 0, "TCD must not CE-mark victim F2");
    assert!(
        d0.ue > 0,
        "victim F0 must be told it crossed undetermined ports"
    );
    assert!(d1.ce > 0, "congested F1 must be CE-marked");
}

#[test]
fn cee_single_cp_p2_ends_non_congested() {
    // Fig. 12: P2 transitions undetermined -> non-congestion after the
    // bursts drain.
    let r = run(short(Network::Cee, false, true, 6));
    let states = p2_states(&r);
    assert!(
        states.iter().any(|s| s.is_undetermined()),
        "P2 must visit undetermined"
    );
    assert_eq!(
        *states.last().unwrap(),
        TernaryState::NonCongestion,
        "P2 must end at 0"
    );
}

#[test]
fn cee_multi_cp_covered_root_emerges() {
    // Fig. 13: with F0/F2 at 25 Gbps, P2 is a covered root that TCD
    // detects as congestion (transition 5) after the deep tree dissolves.
    let r = run(short(Network::Cee, true, true, 6));
    let states = p2_states(&r);
    let undet_at = states
        .iter()
        .position(|s| s.is_undetermined())
        .expect("P2 undetermined");
    assert!(
        states[undet_at..].contains(&TernaryState::Congestion),
        "the covered root must transition undetermined -> congestion"
    );
    // F0/F2 genuinely congest P2 in this scenario: CE expected eventually.
    let d0 = r.sim.trace.flow(r.f0).delivered;
    assert!(d0.ce > 0, "F0 is a culprit at P2 here and must see CE");
}

#[test]
fn ib_multi_cp_covered_root_emerges() {
    // Fig. 13 (InfiniBand): the covered root at P2 must also emerge under
    // CBFC, where the queue saturates flat at the input-buffer equilibrium
    // — the case that exercises the credit-constrained back-pressure
    // signal and the MTU-wobble trend slack.
    let r = run(short(Network::Ib, true, true, 6));
    let states = p2_states(&r);
    let undet_at = states
        .iter()
        .position(|s| s.is_undetermined())
        .expect("P2 undetermined");
    assert!(
        states[undet_at..].contains(&TernaryState::Congestion),
        "the IB covered root must transition undetermined -> congestion"
    );
    let d0 = r.sim.trace.flow(r.f0).delivered;
    assert!(d0.ce > 0, "F0 is a culprit at P2 here and must see CE");
}

#[test]
fn ib_fecn_improperly_marks_victims() {
    // §3.1.2 (InfiniBand): the periodicity of credits confuses FECN.
    let r = run(short(Network::Ib, false, false, 3));
    let d0 = r.sim.trace.flow(r.f0).delivered;
    let d2 = r.sim.trace.flow(r.f2).delivered;
    assert!(d0.ce + d2.ce > 0, "FECN should blame some victim packets");
}

#[test]
fn ib_tcd_protects_victims() {
    let r = run(short(Network::Ib, false, true, 4));
    let d0 = r.sim.trace.flow(r.f0).delivered;
    let d2 = r.sim.trace.flow(r.f2).delivered;
    assert_eq!(d0.ce, 0, "TCD-IB must not CE-mark victim F0");
    assert_eq!(d2.ce, 0, "TCD-IB must not CE-mark victim F2");
    assert!(d0.ue > 0, "victim must carry UE");
}

#[test]
fn pauses_spread_upstream_through_the_chain() {
    // §3.1: congestion at P3 propagates pauses to P2 (and further).
    let r = run(short(Network::Cee, false, false, 3));
    let prio = r.sim.config().data_prio;
    let p2 = r.sim.trace.samples_of(r.fig.p2.0, r.fig.p2.1, prio);
    let paused_p2 = p2.iter().any(|s| s.paused);
    assert!(paused_p2, "P2 must be paused by congestion spreading");
}

#[test]
fn pause_storm_dissolves_into_a_classified_tree() {
    // The congestion-tree pathology end-to-end: the burst incast congests
    // P3 (the root/culprit), the PFC storm spreads up the chain turning
    // P2..P0 into pause-affected victims, and once the bursts drain the
    // storm must dissolve — no drops ever, no pause deadlock, victims
    // resolving `/` -> `0`, and the culprit having stood in `1`.
    let r = run(short(Network::Cee, false, true, 6));
    let t = &r.sim.trace;
    let prio = r.sim.config().data_prio;

    // Losslessness: a pause storm must never cost a byte.
    assert_eq!(t.drops, 0, "lossless fabric dropped packets");
    assert!(t.pause_frames > 0, "the scenario must actually storm");

    let samples_of =
        |(node, port): (tcd_repro::netsim::topology::NodeId, u16)| t.samples_of(node, port, prio);

    // Victim chain ports: pause-affected during the storm, `/` while the
    // OFF periods make their state unknowable, back to `0` at the end.
    for (label, p) in [("P1", r.fig.p1), ("P2", r.fig.p2)] {
        let samples = samples_of(p);
        assert!(
            samples.iter().any(|s| s.paused),
            "{label} must be paused at some point during the storm"
        );
        assert!(
            samples.iter().any(|s| s.state.is_undetermined()),
            "{label} must pass through undetermined"
        );
        assert_eq!(
            samples.last().expect("sampled").state,
            TernaryState::NonCongestion,
            "{label} must resolve to 0 after the storm"
        );
    }

    // The culprit port at the tree root is genuinely congested.
    let p3 = samples_of(r.fig.p3);
    assert!(
        p3.iter().any(|s| s.state == TernaryState::Congestion),
        "P3 (the root) must stand in 1 during the storm"
    );

    // No pause deadlock: the storm is over well before the horizon — in
    // the final stretch of the run nothing is paused any more and the
    // sampled queues have drained.
    let horizon = t.port_samples.last().expect("samples").t;
    let tail_from = SimTime::from_ps(horizon.as_ps().saturating_sub(SimTime::from_ms(1).as_ps()));
    let tail: Vec<_> = t.port_samples.iter().filter(|s| s.t >= tail_from).collect();
    assert!(!tail.is_empty(), "the tail window must contain samples");
    assert!(
        tail.iter().all(|s| !s.paused),
        "pause deadlock: ports still paused at the end of the run"
    );
}

#[test]
fn lossless_delivery_in_all_observation_scenarios() {
    // The defining property of the network: nothing is ever dropped.
    for network in [Network::Cee, Network::Ib] {
        for multi in [false, true] {
            let r = run(short(network, multi, true, 3));
            for rec in r.sim.trace.records() {
                assert!(
                    rec.delivered.bytes <= rec.size,
                    "delivered more than sent for {:?}",
                    rec.flow
                );
                if rec.end.is_some() {
                    assert_eq!(rec.delivered.bytes, rec.size, "completed flow lost bytes");
                }
            }
        }
    }
}
