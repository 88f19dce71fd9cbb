//! Live congestion-tree reconstruction (paper §3.2.2 / Fig. 5) from
//! simulator snapshots, including the covered-root case.

use tcd_repro::flowctl::SimTime;
use tcd_repro::scenarios::observation::{build, Options, Run};
use tcd_repro::tcd::tree;

/// The CEE observation scenario under TCD, built but not yet run.
fn observation(multi_cp: bool) -> Run {
    build(Options {
        multi_cp,
        use_tcd: true,
        ..Default::default()
    })
}

fn key(node: u32, port: u16) -> u64 {
    ((node as u64) << 16) | port as u64
}

#[test]
fn deep_tree_visible_mid_burst() {
    // During the incast, P3 (T3 -> R1) is the root; the chain ports P2,
    // P1 (and P0) are its transitive leaves.
    let Run { mut sim, fig, .. } = observation(false);

    // Run into the middle of the burst phase, then snapshot.
    sim.run_until(SimTime::from_ms(1));
    let snap = sim.congestion_snapshot(sim.config().data_prio);
    let trees = tree::trees(&snap);
    assert!(!trees.is_empty(), "a congestion tree must exist mid-burst");

    let p3 = key(fig.p3.0 .0, fig.p3.1);
    let root_tree = trees
        .iter()
        .find(|t| t.root == p3)
        .expect("P3 must be a congestion-tree root during the incast");
    // Congestion spreading has reached at least P2 upstream.
    let p2 = key(fig.p2.0 .0, fig.p2.1);
    assert!(
        root_tree.leaves.contains(&p2),
        "P2 must be a leaf of P3's tree (leaves: {:?})",
        root_tree.leaves
    );
    assert!(root_tree.depth(&snap) >= 1);
    // Leaves are all undetermined or covered roots — never non-congestion.
    assert!(tree::inconsistent_leaves(&snap).is_empty());

    // Continue the run to completion: the engine supports interleaving.
    sim.run();
    assert!(sim.trace.completed_count > 0);
}

#[test]
fn covered_root_relation_detected_in_snapshot() {
    // Multi-congestion-point variant: after the bursts end, P2 (fed by
    // 50 Gbps of F0+F2) persists as a root of its own tree.
    let Run { mut sim, fig, .. } = observation(true);

    sim.run_until(SimTime::from_ms(5));
    let snap = sim.congestion_snapshot(sim.config().data_prio);
    let trees = tree::trees(&snap);
    let p2 = key(fig.p2.0 .0, fig.p2.1);
    let t2_tree = trees.iter().find(|t| t.root == p2);
    assert!(
        t2_tree.is_some(),
        "the emerged covered root P2 must own a tree at 5 ms (trees: {trees:?})"
    );
    // Its pressure reaches upstream: P1 is its leaf.
    let p1 = key(fig.p1.0 .0, fig.p1.1);
    assert!(
        t2_tree.unwrap().leaves.contains(&p1),
        "P1 must be paused by P2's tree"
    );
}
