//! Congestion trees and ternary state transitions (paper §3.2.2, Fig. 5):
//! watches a *covered* congestion root emerge.
//!
//! While A0–A14 incast R1, port P3 is the root of a deep congestion tree
//! whose leaves (P2, P1, P0) are undetermined. With F0/F2 at 25 Gbps each,
//! P2 is itself the root of a second, covered tree: once the deep tree
//! dissolves, TCD detects P2's transition undetermined → congestion (⑤).
//!
//! Run with: `cargo run --release --example congestion_tree`

use tcd_repro::scenarios::observation::{run, Options};
use tcd_repro::scenarios::Network;
use tcd_repro::tcd::tree;
use tcd_repro::tcd::TernaryState;

fn main() {
    let r = run(Options {
        network: Network::Cee,
        multi_cp: true, // F0/F2 at 25 Gbps: P2 is a covered root
        use_tcd: true,
        ..Default::default()
    });
    let prio = r.sim.config().data_prio;

    // Reconstruct the congestion trees from the final network snapshot
    // (tcd_core::tree turns per-port states + pause edges into the
    // paper's Fig. 5 pictures; Simulator::run_until allows taking these
    // mid-run as well).
    let snap = r.sim.congestion_snapshot(prio);
    let trees = tree::trees(&snap);
    println!("congestion trees in the final snapshot: {}", trees.len());
    for t in &trees {
        println!(
            "  root node {} port {} with {} leaves (depth {})",
            t.root >> 16,
            t.root & 0xffff,
            t.leaves.len(),
            t.depth(&snap)
        );
    }

    // Walk P2's sampled state and print every transition.
    let mut last = TernaryState::NonCongestion;
    println!("port P2 state transitions:");
    let p2 = r.sim.trace.samples_of(r.fig.p2.0, r.fig.p2.1, prio);
    for s in &p2 {
        if s.state != last {
            println!(
                "  {:>8.3} ms: {} -> {}",
                s.t.as_ms_f64(),
                last.symbol(),
                s.state.symbol()
            );
            last = s.state;
        }
    }

    // The covered root must have been undetermined first, then congested.
    let states: Vec<TernaryState> = p2.iter().map(|s| s.state).collect();
    let first_undet = states.iter().position(|s| s.is_undetermined());
    let first_cong_after = first_undet.and_then(|i| {
        states[i..]
            .iter()
            .position(|s| *s == TernaryState::Congestion)
            .map(|j| i + j)
    });
    assert!(
        first_undet.is_some(),
        "P2 must pass through the undetermined state"
    );
    assert!(
        first_cong_after.is_some(),
        "the covered root must emerge as a congestion port (transition 5)"
    );
    println!("\nok: covered congestion root detected via the undetermined state");
}
