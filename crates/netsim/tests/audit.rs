//! The invariant auditor, exercised end-to-end: full simulations must come
//! out checkpoint-clean across both lossless fabrics, and each invariant
//! family must actually fire when fed a violating observation.

#![cfg(feature = "audit")]

use lossless_flowctl::{Rate, SimDuration, SimTime};
use lossless_netsim::cchooks::FixedRate;
use lossless_netsim::config::SimConfig;
use lossless_netsim::routing::RouteSelect;
use lossless_netsim::topology::{dumbbell, fat_tree, NodeId};
use lossless_netsim::{AuditMode, InvariantFamily, Simulator};
use tcd_core::{CodePoint, TernaryState};

/// Every family the auditor covers, for exhaustive positive assertions.
const FAMILIES: [InvariantFamily; 6] = [
    InvariantFamily::Conservation,
    InvariantFamily::BufferAccounting,
    InvariantFamily::ProtocolLegality,
    InvariantFamily::StateMachine,
    InvariantFamily::Causality,
    InvariantFamily::Liveness,
];

fn assert_clean_and_thorough(sim: &Simulator) {
    assert_eq!(sim.deadlock(), None, "the deadlock watchdog tripped");
    let audit = sim.audit();
    assert!(
        audit.is_clean(),
        "invariant violations: {:?}",
        audit.violations()
    );
    for fam in FAMILIES {
        assert!(
            audit.checks(fam) > 0,
            "family {} was never checked",
            fam.name()
        );
    }
}

/// A 6 -> 1 incast of 500 kB line-rate flows on a k = 4 fat tree at 40G:
/// the victim's ToR egress roots the congestion tree, and back-pressure
/// spreads from there through the aggregation and core layers.
fn incast(cfg: SimConfig, select: RouteSelect, checkpoint_every: u64) -> Simulator {
    let ft = fat_tree(4, Rate::from_gbps(40), SimDuration::from_us(4));
    let mut sim = Simulator::new(ft.topo.clone(), cfg, select);
    sim.audit_mut().config_mut().checkpoint_every = checkpoint_every;
    let victim = ft.hosts[0];
    for (i, &src) in ft.hosts.iter().enumerate().skip(1).take(6) {
        sim.add_flow(
            src,
            victim,
            500_000,
            SimTime::from_us(i as u64),
            Box::new(FixedRate::line_rate()),
        );
    }
    sim
}

fn assert_all_delivered(sim: &Simulator) {
    assert_eq!(sim.trace.drops, 0, "lossless fabric must not drop");
    assert_eq!(sim.trace.completed().count(), 6, "every flow completes");
}

#[test]
fn cee_pause_storm_runs_invariant_clean() {
    // The incast pauses its way up from the victim's ToR, and the detector
    // walks its state machine: shared-buffer accounting and PFC legality
    // across edge, aggregation, and core layers, under dense checkpoints.
    let mut sim = incast(
        SimConfig::cee_baseline(SimTime::from_ms(8)),
        RouteSelect::Ecmp,
        256,
    );
    sim.run();
    assert_all_delivered(&sim);
    assert!(sim.trace.pause_frames > 0, "the scenario must pause");
    assert_clean_and_thorough(&sim);
    assert!(
        sim.audit().transitions_taken() > 0,
        "the detector must have moved for state-machine auditing to bite"
    );
}

#[test]
fn ib_credit_loop_conserves_cbfc_credits() {
    // The incast drains the victim's ToR credits so the loop actually
    // gates: FCTBS, ABR, and in-flight blocks must reconcile at every
    // checkpoint.
    let mut sim = incast(
        SimConfig::ib_baseline(SimTime::from_ms(8)),
        RouteSelect::DModK,
        256,
    );
    sim.run();
    assert_all_delivered(&sim);
    assert!(
        sim.obs_registry().counter_total("cbfc.credit_stall") > 0,
        "the scenario must stall on credits"
    );
    assert_clean_and_thorough(&sim);
}

#[test]
fn record_mode_captures_structured_violations_without_aborting() {
    // Feed the auditor one violating observation per family (through the
    // simulator's handle, the way negative experiments would) and check
    // that each is recorded with its context instead of panicking.
    let db = dumbbell(Rate::from_gbps(40), SimDuration::from_us(4));
    let cfg = SimConfig::cee_baseline(SimTime::from_ms(1));
    let mut sim = Simulator::new(db.topo.clone(), cfg, RouteSelect::Ecmp);
    sim.audit_mut().config_mut().mode = AuditMode::Record;

    let t = SimTime::from_us(7);
    let node = NodeId(2);
    let a = sim.audit_mut();
    // State machine: an Undetermined claim with no OFF period to justify it.
    a.note_state(t, node, 1, 0, TernaryState::Undetermined, 0);
    // State machine: a CE mark from a port that believes it is undetermined.
    a.note_mark(
        t,
        node,
        1,
        0,
        CodePoint::CongestionEncountered,
        TernaryState::Undetermined,
    );
    // Protocol legality: PAUSE below X_off, RESUME above X_on.
    a.pfc_pause_sent(t, node, 1, 0, 100, 320_000);
    a.pfc_resume_sent(t, node, 1, 0, 400_000, 318_000);
    // Buffer accounting: a scheduler that found its queue empty.
    a.empty_dequeue(t, node, 1, 0, 1500);

    assert_eq!(sim.audit().total_violations(), 5);
    assert_eq!(sim.audit().violations().len(), 5);
    let families: Vec<&str> = sim
        .audit()
        .violations()
        .iter()
        .map(|v| v.family.name())
        .collect();
    assert!(families.contains(&"state-machine"));
    assert!(families.contains(&"protocol-legality"));
    assert!(families.contains(&"buffer-accounting"));
    let rendered = format!("{}", sim.audit().violations()[0]);
    assert!(rendered.contains("node=2"), "context missing: {rendered}");
    assert!(rendered.contains("port=1"), "context missing: {rendered}");

    // The simulation itself still runs to completion under Record mode.
    sim.run();
}

#[test]
fn checkpoints_do_not_perturb_the_event_stream() {
    // Two identical runs, one checkpointing every 64 events and one only
    // at the end, must process exactly the same number of events — the
    // auditor observes, never schedules.
    let run = |every: u64| {
        let mut sim = incast(
            SimConfig::cee_baseline(SimTime::from_ms(5)),
            RouteSelect::Ecmp,
            every,
        );
        sim.run();
        (sim.trace.events, sim.trace.forwarded_pkts)
    };
    assert_eq!(run(64), run(u64::MAX));
}
