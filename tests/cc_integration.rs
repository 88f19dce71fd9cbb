//! Cross-crate integration of the congestion-control case studies (§5.2):
//! each controller runs end-to-end through the simulator, reacts to the
//! detector's code points, and the TCD-aware variants never throttle
//! victims.

use tcd_repro::flowctl::{SimDuration, SimTime};
use tcd_repro::scenarios::victim::{run, Options};
use tcd_repro::scenarios::{Cc, CcAlgo, Network};

fn opts(algo: CcAlgo, tcd: bool) -> Options {
    let network = Cc { algo, tcd }.network();
    let mut o = Options {
        network,
        use_tcd: tcd,
        cc: Some(Cc { algo, tcd }),
        burst_bytes: 100 * 1024,
        burst_gap: SimDuration::from_us(450),
        load: 0.5,
        end: SimTime::from_ms(15),
        ..Default::default()
    };
    if network == Network::Ib {
        o.load = 0.3;
        o.burst_gap = SimDuration::from_us(700);
    }
    o
}

#[test]
fn all_six_controllers_complete_their_flows() {
    for algo in [CcAlgo::Dcqcn, CcAlgo::Timely, CcAlgo::IbCc] {
        for tcd in [false, true] {
            let r = run(opts(algo, tcd));
            let completed = r.sim.trace.completed().count();
            let total = r.sim.trace.flows.len();
            assert!(
                completed as f64 >= total as f64 * 0.85,
                "{:?} tcd={tcd}: only {completed}/{total} flows completed",
                algo
            );
            // Lossless invariant holds under every controller.
            for rec in r.sim.trace.records() {
                assert!(rec.delivered.bytes <= rec.size);
            }
        }
    }
}

#[test]
fn tcd_variants_never_ce_flag_victims() {
    for algo in [CcAlgo::Dcqcn, CcAlgo::Timely, CcAlgo::IbCc] {
        let r = run(opts(algo, true));
        let flagged = r.victims_with(|d| d.ce > 0);
        assert_eq!(
            flagged, 0,
            "{algo:?}+tcd flagged {flagged} victims as congested"
        );
    }
}

#[test]
fn baselines_do_flag_victims() {
    for algo in [CcAlgo::Dcqcn, CcAlgo::IbCc] {
        let r = run(opts(algo, false));
        let flagged = r.victims_with(|d| d.ce > 0);
        assert!(
            flagged > 0,
            "{algo:?} baseline should mistakenly flag victims"
        );
    }
}

#[test]
fn tcd_does_not_hurt_victim_fct() {
    // The §5.2 claim in its weakest testable form: across the three
    // controllers, the TCD variant's mean victim FCT is not meaningfully
    // worse than the baseline's (and usually better).
    for algo in [CcAlgo::Dcqcn, CcAlgo::Timely, CcAlgo::IbCc] {
        let base = run(opts(algo, false)).victim_mean_fct().unwrap();
        let tcd = run(opts(algo, true)).victim_mean_fct().unwrap();
        assert!(
            tcd <= base * 1.10,
            "{algo:?}: TCD victim FCT {tcd:.6}s vs baseline {base:.6}s"
        );
    }
}

#[test]
fn ue_notifications_reach_tcd_endpoints_only() {
    // The feedback plumbing: UE CNPs are generated only when the endpoint
    // opted in (notify_ue). Baseline runs therefore never see UE holds.
    let r = run(opts(CcAlgo::Dcqcn, true));
    let ue_flagged = r.victims_with(|d| d.ue > 0);
    assert!(
        ue_flagged > 0,
        "TCD run must deliver UE-marked packets to victims"
    );
}
