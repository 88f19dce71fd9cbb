//! Fault-injection suite: link flaps and rate degradations injected
//! mid-run through the deterministic fault plan.
//!
//! * A core fat-tree link flapping in the middle of a lossless incast
//!   must cost zero packets, leave every invariant family clean, and
//!   still deliver every flow (recovery to steady state).
//! * The injected faults are visible in the metrics registry under the
//!   `fault.*` counters, paired onset/recovery.
//! * Faulted runs are exactly as deterministic as fault-free ones:
//!   bit-identical sweep fingerprints across 1/2/8 harness threads.

use lossless_flowctl::SimTime;
use lossless_netsim::{FlowId, Simulator};
use tcd_repro::harness::{self, Sweep};
use tcd_repro::scenarios::{self, fault, Scale};

fn end() -> SimTime {
    SimTime::from_ms(4)
}

/// Run the flap scenario to completion and hand back the simulator.
fn flap_run_with_window() -> (Simulator, (SimTime, SimTime)) {
    let (mut sim, window) = fault::flap_incast(end());
    assert!(
        sim.run_until_all_complete(),
        "all incast flows must finish despite the flap"
    );
    (sim, window)
}

#[test]
fn core_link_flap_mid_incast_is_loss_free() {
    let (sim, (down, up)) = flap_run_with_window();

    // Lossless end to end: the dark window holds queues, it never drops.
    assert_eq!(sim.trace.drops, 0, "flap must not cost packets");
    for f in sim.trace.records() {
        assert_eq!(
            f.delivered.bytes, 500_000,
            "every sender must recover to steady state and finish"
        );
    }
    // The fault genuinely bit: cross-edge flows cannot complete while
    // the victim edge is dark, so the last completion postdates
    // recovery — mid-incast flap, not a no-op before or after it.
    let last_end = sim
        .trace
        .records()
        .map(|f| f.end.expect("finished"))
        .max()
        .unwrap();
    assert!(
        last_end > up && up > down,
        "incast must straddle the dark window ({down} .. {up}), \
         finished {last_end}"
    );

    // Test builds always audit (dev-dependency feature): the flap must
    // not bend conservation, buffer accounting, or protocol legality.
    let audit = sim.audit();
    assert!(
        audit.is_clean(),
        "faulted run must stay invariant-clean: {:?}",
        audit.violations()
    );

    // Both fault edges are on the record, once per flapped uplink.
    let reg = sim.obs_registry();
    assert_eq!(reg.counter_total("fault.link_down"), 2);
    assert_eq!(reg.counter_total("fault.link_up"), 2);
    // And PFC actually worked for its living during the dark window.
    assert!(sim.trace.pause_frames > 0, "the flap must trigger PFC");
}

#[test]
fn degradation_recovers_loss_free() {
    let mut sim = fault::degrade_recovery(end());
    assert!(
        sim.run_until_all_complete(),
        "the transfer must outlast the degradation window"
    );
    assert_eq!(sim.trace.drops, 0, "degradation must not cost packets");
    assert_eq!(sim.trace.flow(FlowId(0)).delivered.bytes, 4_000_000);
    assert!(
        sim.audit().is_clean(),
        "degraded run must stay invariant-clean: {:?}",
        sim.audit().violations()
    );
    let reg = sim.obs_registry();
    assert_eq!(reg.counter_total("fault.degrade"), 1);
    assert_eq!(reg.counter_total("fault.restore"), 1);
    assert!(
        sim.trace.pause_frames > 0,
        "a 40G sender into a 10G window must pause"
    );
}

#[test]
fn fault_fingerprints_bit_identical_across_thread_counts() {
    let build = || {
        let mut sweep = Sweep::new();
        for name in ["fault-flap-incast", "fault-degrade", "deadlock-triangle"] {
            let row = scenarios::by_name(name).expect("catalog row");
            sweep.add(name, move || {
                harness::outcome_of(&row.run(Scale::new(end())), Vec::new())
            });
        }
        sweep
    };
    let f1 = build().run(1).merged_fingerprint();
    let f2 = build().run(2).merged_fingerprint();
    let f8 = build().run(8).merged_fingerprint();
    assert_eq!(f1, f2, "faulted runs must be thread-count invariant");
    assert_eq!(f1, f8, "faulted runs must be thread-count invariant");
}
