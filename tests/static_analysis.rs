//! Static topology analysis (`tcdsim lint --topo`) over the scenario
//! catalog: the lint spec of every row — derived from the simulator that
//! row builds — must produce the verdict the row records, the lint-only
//! fixtures must fail with the exact diagnostics the lint promises, and
//! the static verdicts must agree with the runtime pause-deadlock
//! regressions in `paper_phenomena.rs`.

use simlint::{analyze, Severity};
use tcd_repro::lintspec;
use tcd_repro::scenarios::{self, Lint, CATALOG};

/// Every catalog row expected clean — the set the `tcdsim lint` CI gate
/// runs — must carry zero static errors, and that set must include the
/// fabrics the figures are actually produced on.
#[test]
fn all_committed_scenarios_analyze_clean() {
    for row in CATALOG.iter().filter(|row| row.lint == Lint::Clean) {
        let name = row.name;
        let report = analyze(&row.lint_spec());
        assert!(
            !report.has_errors(),
            "{name} must analyze clean:\n{}",
            report
                .diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(report.channels > 0, "{name} should have channels");
        assert!(report.dependencies > 0, "{name} should have dependencies");
    }
    // Rows that no lint spec covered before the catalog: the InfiniBand
    // testbed and victim run, both fault plans, and the k=10 / k=8 trees
    // Figs. 16/19 and 17 run on.
    for name in [
        "ib-testbed",
        "ib-victim",
        "fault-flap-incast",
        "fault-degrade",
        "fat-tree-k10",
        "hpc-fat-tree-k8",
    ] {
        let row = scenarios::by_name(name).unwrap_or_else(|| panic!("{name} must be a row"));
        assert_eq!(row.lint, Lint::Clean, "{name}");
    }
    // The k=10 spec really is the k=10 tree: 250 hosts + 125 switches.
    let k10 = scenarios::by_name("fat-tree-k10").unwrap().lint_spec();
    assert_eq!(k10.topo.node_count(), 375);
}

/// The seeded triangle routes every host pair "the long way round" the
/// ring, creating the canonical cyclic buffer dependency. The analyzer
/// must report the cycle as an error and name all three switch hops.
#[test]
fn seeded_triangle_reports_the_exact_cycle() {
    let spec = lintspec::build("seeded-cyclic-triangle").expect("seeded spec builds");
    let report = analyze(&spec);
    assert!(report.has_errors(), "the triangle must fail analysis");
    let cycles: Vec<_> = report
        .diags
        .iter()
        .filter(|d| d.check == "deadlock-cycle")
        .collect();
    assert_eq!(cycles.len(), 1, "exactly one cycle: {:?}", report.diags);
    let msg = &cycles[0].message;
    for hop in ["s0[", "s1[", "s2["] {
        assert!(msg.contains(hop), "cycle must name hop {hop}: {msg}");
    }
    assert_eq!(cycles[0].severity, Severity::Error);
}

/// 100 Gbps over 100 µs links needs megabytes of PAUSE headroom — far more
/// than the 96 KiB the audit layer provisions. The analyzer must flag it.
#[test]
fn seeded_headroom_starved_dumbbell_fails() {
    let spec = lintspec::build("seeded-headroom-starved").expect("seeded spec builds");
    let report = analyze(&spec);
    assert!(report.has_errors());
    assert!(
        report
            .diags
            .iter()
            .any(|d| d.check == "pfc-headroom" && d.severity == Severity::Error),
        "expected a pfc-headroom error: {:?}",
        report.diags
    );
    // Starved headroom is a sizing bug, not a routing bug: no cycles.
    assert!(
        report.diags.iter().all(|d| d.check != "deadlock-cycle"),
        "{:?}",
        report.diags
    );
}

/// The `deadlock-triangle` row is the inverse of the seeded triangle: its
/// *baseline* ECMP routes are clean, and only composing the fault plan's
/// `route_sets[0]` onto the tables exposes the cycle. The analyzer must
/// keep the baseline clean, flag exactly one fault-route-cycle error with
/// structured hops, and name the route set that causes it — and so must
/// `deadlock-recovery`, whose plan carries the same set before reverting.
#[test]
fn seeded_fault_route_swap_is_caught_by_the_fault_plan_pass() {
    let seeded: Vec<_> = CATALOG
        .iter()
        .filter(|row| row.lint != Lint::Clean)
        .collect();
    let names: Vec<&str> = seeded.iter().map(|row| row.name).collect();
    assert_eq!(names, ["deadlock-triangle", "deadlock-recovery"]);
    for row in seeded {
        let Lint::Raises(check) = row.lint else {
            unreachable!()
        };
        assert_eq!(check, "fault-route-cycle");
        let report = analyze(&row.lint_spec());
        let errors: Vec<_> = report
            .diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert_eq!(errors.len(), 1, "exactly one error: {:?}", report.diags);
        let diag = errors[0];
        assert_eq!(diag.check, check, "baseline routes must be acyclic");
        assert!(
            diag.message.contains("route set 0"),
            "must name the offending set: {}",
            diag.message
        );
        let mut nodes: Vec<&str> = diag.cycle.iter().map(|(n, _)| n.as_str()).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, ["s0", "s1", "s2"], "hops: {:?}", diag.cycle);
    }
}

/// Cross-check against the runtime: `paper_phenomena.rs` asserts that the
/// CEE figure-2 pause storm dissolves with no pause deadlock. The static
/// analyzer must agree that the very topology that run executes on is free
/// of cyclic buffer dependencies — the storm is transient congestion
/// spreading, not a structural deadlock.
#[test]
fn static_verdict_matches_runtime_pause_deadlock_regression() {
    let row = scenarios::by_name("cee-single-cp").expect("catalog row");
    let report = analyze(&row.lint_spec());
    assert!(
        report.diags.iter().all(|d| d.check != "deadlock-cycle"),
        "runtime shows the pause storm dissolving, so the static graph \
         must be acyclic: {:?}",
        report.diags
    );
}

/// The analyzer must notice unreachable host pairs (a wiring bug no
/// simulation run would surface until a flow silently stalls).
#[test]
fn disconnected_topology_is_reported() {
    use lossless_flowctl::{Rate, SimDuration, SimTime};
    use lossless_netsim::routing::RouteSelect;
    use lossless_netsim::topology::Topology;
    use simlint::TopoSpec;
    use tcd_repro::scenarios::{default_config, Network};

    let mut b = Topology::builder();
    let r = Rate::from_gbps(40);
    let d = SimDuration::from_us(4);
    let s0 = b.switch("s0");
    let s1 = b.switch("s1");
    let h0 = b.host("h0");
    let h1 = b.host("h1");
    b.link(h0, s0, r, d);
    b.link(h1, s1, r, d);
    // s0 and s1 are never linked: the hosts cannot reach each other.
    let spec = TopoSpec::new(
        "disconnected",
        b.build(),
        default_config(Network::Cee, false, SimTime::from_ms(1)),
        RouteSelect::Ecmp,
    );
    let report = analyze(&spec);
    assert!(
        report
            .diags
            .iter()
            .any(|d| d.check == "unreachable" && d.severity == Severity::Error),
        "{:?}",
        report.diags
    );
}
