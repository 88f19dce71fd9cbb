//! Static-vs-runtime deadlock cross-check, DCFIT-style: every topology
//! the static analyzer flags as CDC-cyclic must *actually* deadlock at
//! runtime under the constructed ring workload — with the engine's
//! deadlock watchdog, which runs in every build, reporting exactly the
//! statically predicted channel cycle — and every catalog row expected
//! clean must never trip the watchdog, no matter how hard it is driven.
//! Both sides come from `tcd_core::cycles::find`, so their cycles compare
//! as the same ordered vector.

use lossless_flowctl::SimTime;
use lossless_netsim::cchooks::FixedRate;
use lossless_netsim::topology::NodeId;
use lossless_netsim::{AuditMode, InvariantFamily, Simulator};
use simlint::analyze;
use tcd_repro::lintspec;
use tcd_repro::scenarios::{self, fault, Lint, Scale, CATALOG};

/// The seeded CDC-cyclic lint fixtures and the ring size that reproduces
/// each at runtime (the fixtures *are* [`fault::deadlock_ring`]'s topology
/// and route set, so node names and port numbers line up).
const CYCLIC_RINGS: [(&str, usize); 2] =
    [("seeded-cyclic-triangle", 3), ("seeded-cyclic-square", 4)];

/// Run `sim` with the auditor recording violations instead of aborting,
/// at its default checkpoint cadence: the deadlock verdict is the
/// engine's, whatever the auditor's cadence.
fn run_recording(sim: &mut Simulator) {
    sim.audit_mut().config_mut().mode = AuditMode::Record;
    sim.run();
}

/// A cycle's hops as `(node name, egress port)`, the form of
/// `TopoDiag::cycle`.
fn named(sim: &Simulator, cycle: &[(NodeId, u16)]) -> Vec<(String, u16)> {
    cycle
        .iter()
        .map(|&(node, port)| (sim.topology().name(node).to_string(), port))
        .collect()
}

#[test]
fn statically_flagged_cycles_deadlock_at_runtime() {
    for (name, n) in CYCLIC_RINGS {
        // Static verdict: the analyzer flags exactly one channel cycle.
        let spec = lintspec::build(name).expect("seeded spec builds");
        let report = analyze(&spec);
        let diag = report
            .diags
            .iter()
            .find(|d| d.check == "deadlock-cycle")
            .unwrap_or_else(|| panic!("{name} must be flagged statically"));

        // Runtime verdict: the same ring, actually driven, wedges — and
        // the watchdog names the cycle.
        let mut run = fault::deadlock_ring(n, SimTime::from_ms(5), None);
        run_recording(&mut run.sim);
        let deadlock = run
            .sim
            .deadlock()
            .unwrap_or_else(|| panic!("{name}: the watchdog must trip"));
        let audit = run.sim.audit();
        assert!(
            audit
                .violations()
                .iter()
                .any(|v| v.family == InvariantFamily::Liveness),
            "{name}: the deadlock must surface as a Liveness violation"
        );
        assert!(
            audit.checks(InvariantFamily::Liveness) > 0,
            "{name}: liveness must have been checked"
        );

        // The runtime cycle is the ring, in ring order from s0...
        let want: Vec<(NodeId, u16)> = (0..n)
            .map(|i| (run.switches[i], run.ring_ports[i]))
            .collect();
        assert_eq!(deadlock.cycle, want, "{name}: watchdog cycle != ring");

        // ...and hop for hop the static one (same construction order →
        // same names and ports).
        assert_eq!(
            named(&run.sim, &deadlock.cycle),
            diag.cycle,
            "{name}: static cycle != runtime watchdog cycle"
        );
    }
}

#[test]
fn fault_plan_static_cycle_matches_the_runtime_watchdog_hop_for_hop() {
    // Runtime verdict: the simulator the `deadlock-triangle` row builds,
    // actually driven, wedges and the watchdog names the cycle.
    let triangle = scenarios::by_name("deadlock-triangle").expect("catalog row");
    let mut sim = triangle.build(Scale::new(triangle.end));
    run_recording(&mut sim);
    let deadlock = sim.deadlock().expect("the watchdog must trip");
    let got = named(&sim, &deadlock.cycle);
    assert_eq!(
        got.len(),
        3,
        "the ring wedges on all three inter-switch links"
    );

    // Static verdict, from the topology, fault plan and route selection of
    // that same simulator (and of `deadlock-recovery`, whose plan carries
    // the same route set): clean under the baseline ECMP routes; only the
    // fault-plan composition pass names the post-swap channel cycle — hop
    // for hop the runtime one.
    for row in CATALOG.iter().filter(|row| row.lint != Lint::Clean) {
        let report = analyze(&row.lint_spec());
        assert!(
            report.diags.iter().all(|d| d.check != "deadlock-cycle"),
            "{}: baseline routes must be acyclic: {:?}",
            row.name,
            report.diags
        );
        let diag = report
            .diags
            .iter()
            .find(|d| d.check == "fault-route-cycle")
            .expect("the fault plan pass must flag the swap");
        assert_eq!(
            got, diag.cycle,
            "{}: static fault-plan cycle != runtime watchdog cycle",
            row.name
        );
    }
}

#[test]
fn reverting_routes_before_the_wedge_recovers() {
    // The catalog's `deadlock-recovery` row at its default length: the
    // same triangle, but the cyclic routes swap back to shortest paths
    // early. Congestion forms, TCD reacts, and the fabric drains instead
    // of deadlocking. The watchdog must stay silent. Dense checkpoints
    // audit the drain itself.
    let recovery = scenarios::by_name("deadlock-recovery").expect("catalog row");
    let mut sim = recovery.build(Scale::new(recovery.end));
    sim.audit_mut().config_mut().checkpoint_every = 256;
    run_recording(&mut sim);
    assert_eq!(sim.deadlock(), None, "recovered run must not deadlock");
    let audit = sim.audit();
    assert!(
        audit.is_clean(),
        "recovered run must stay invariant-clean: {:?}",
        audit.violations()
    );
    assert!(audit.checks(InvariantFamily::Liveness) > 0);
    // Forward progress resumed after the revert: the run keeps
    // delivering until the end of the horizon.
    let delivered: u64 = sim.trace.flows.iter().map(|f| f.delivered.pkts).sum();
    assert!(delivered > 0, "recovered run must deliver");
    assert_eq!(sim.trace.drops, 0, "lossless recovery must not drop");
}

#[test]
fn committed_topologies_never_trip_the_watchdog() {
    // The topology, configuration (fault plan included) and routing of
    // every catalog row expected clean, driven with a saturating incast
    // for 1 ms at dense audit checkpoints: the watchdog must never report
    // a deadlock.

    for row in CATALOG.iter().filter(|row| row.lint == Lint::Clean) {
        let name = row.name;
        assert!(
            !analyze(&row.lint_spec()).has_errors(),
            "{name} must be statically clean"
        );

        let built = row.build(Scale::new(SimTime::from_ms(1)));
        let mut sim = Simulator::new(
            built.topology().clone(),
            built.config().clone(),
            built.routing().select(),
        );
        let hosts = sim.topology().hosts();
        let victim = hosts[0];
        for (i, &src) in hosts.iter().enumerate().skip(1) {
            sim.add_flow(
                src,
                victim,
                100_000,
                SimTime::from_us(i as u64 % 7),
                Box::new(FixedRate::line_rate()),
            );
        }
        sim.audit_mut().config_mut().checkpoint_every = 1024;
        run_recording(&mut sim);

        let audit = sim.audit();
        assert!(
            audit.checks(InvariantFamily::Liveness) > 0,
            "{name}: liveness must have been audited"
        );
        assert!(
            !audit
                .violations()
                .iter()
                .any(|v| v.family == InvariantFamily::Liveness),
            "{name}: clean topology tripped the watchdog: {:?}",
            audit.violations()
        );
        assert_eq!(
            sim.deadlock(),
            None,
            "{name}: clean topology reported a deadlock cycle"
        );
    }
}
