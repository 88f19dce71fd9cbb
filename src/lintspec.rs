//! Lint-only fixtures for the static topology analyzer (`tcdsim lint`).
//!
//! The lint spec of every *runnable* scenario is derived from the
//! simulator its catalog row builds ([`crate::scenarios::Scenario::lint_spec`]),
//! so `tcdsim lint` analyzes what the simulator executes by construction.
//! What is left here are the three specs that are deliberately **not**
//! runnable scenarios: two rings whose cyclic routes exist only as
//! [`TopoSpec::route_overrides`] (the analyzer's own override mechanism,
//! which no simulator run installs) and a dumbbell whose rate·delay
//! product starves the provisioned PFC headroom. Naming one with
//! `tcdsim lint --topo` exits non-zero, which the test suite relies on;
//! none is part of the default lint set. The runnable counterpart — a
//! baseline-clean ring whose *fault plan* swaps routes into a cycle — is
//! the catalog's `deadlock-triangle` row.

use lossless_flowctl::{Rate, SimDuration, SimTime};
use lossless_netsim::routing::RouteSelect;
use lossless_netsim::topology::dumbbell;
use simlint::TopoSpec;

use crate::scenarios::{default_config, fault, Network};

/// The deliberately broken fixtures (never part of the default lint set).
pub const SEEDED_BAD: [&str; 3] = [
    "seeded-cyclic-triangle",
    "seeded-cyclic-square",
    "seeded-headroom-starved",
];

/// Analysis ignores the end time; any value works.
const END: SimTime = SimTime::from_ms(1);

/// The deliberately deadlock-prone `n`-switch ring — the classic cyclic
/// buffer dependency that up-down routing exists to prevent (DCFIT's
/// motivating example). It is `scenarios::fault::deadlock_ring(n)`'s
/// topology with that scenario's cyclic route set (every host two hops
/// clockwise) lifted out of the fault plan and installed as baseline
/// route overrides, so the analyzer's *baseline* pass must flag it and
/// node names and port numbers line up with the runtime ring.
fn cyclic_ring(name: &str, n: usize) -> TopoSpec {
    let sim = fault::deadlock_ring(n, END, None).sim;
    let mut cfg = sim.config().clone();
    let plan = std::mem::take(&mut cfg.fault_plan);
    let mut spec = TopoSpec::new(name, sim.topology().clone(), cfg, RouteSelect::Ecmp);
    spec.route_overrides = plan.route_sets[0]
        .iter()
        .map(|path| (path[0], path[path.len() - 1], path.clone()))
        .collect();
    spec
}

/// A PFC dumbbell whose rate·delay product needs far more PAUSE headroom
/// than is provisioned: 100 Gbps over 100 µs links wants ~2.5 MB above
/// `X_off`, an order of magnitude past the 96 KiB the audit layer models.
fn headroom_starved() -> TopoSpec {
    let db = dumbbell(Rate::from_gbps(100), SimDuration::from_us(100));
    TopoSpec::new(
        "seeded-headroom-starved",
        db.topo,
        default_config(Network::Cee, false, END),
        RouteSelect::Ecmp,
    )
}

/// Build the fixture called `name`; `None` for any other name.
pub fn build(name: &str) -> Option<TopoSpec> {
    match name {
        "seeded-cyclic-triangle" => Some(cyclic_ring("seeded-cyclic-triangle", 3)),
        "seeded-cyclic-square" => Some(cyclic_ring("seeded-cyclic-square", 4)),
        "seeded-headroom-starved" => Some(headroom_starved()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_builds() {
        for name in SEEDED_BAD {
            assert!(build(name).is_some(), "spec {name} should build");
        }
        assert!(build("no-such-scenario").is_none());
        assert!(build("deadlock-triangle").is_none(), "a catalog row");
    }
}
