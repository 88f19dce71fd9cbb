//! Figure 13 — TCD validation in the multiple congestion points scenario
//! (§5.1.2).
//!
//! Port P2 is the covered congestion root: while congestion spreads from
//! P3 it is undetermined; when it is released and its queue keeps growing,
//! TCD detects the transition *undetermined → congestion* and starts
//! marking CE. Port P1 stays undetermined (congestion now spreads from
//! P2).

use tcd_bench::{observation_figure, print_port_trace, state_series};
use tcd_core::TernaryState;

fn main() {
    observation_figure(
        "Fig. 13",
        "TCD, multiple congestion points",
        true,
        true,
        |r, prio| {
            print_port_trace(&r.sim, "P2 (TCD)", r.fig.p2.0, r.fig.p2.1, prio, 24);
            print_port_trace(&r.sim, "P1 (TCD)", r.fig.p1.0, r.fig.p1.1, prio, 24);

            let states_p2 = state_series(&r.sim, r.fig.p2.0, r.fig.p2.1, prio);
            let visited_undet = states_p2.iter().any(|(_, s)| s.is_undetermined());
            // Find the first time P2 is congested *after* having been
            // undetermined: the ⑤ transition.
            let mut seen_undet = false;
            let mut t5 = None;
            for &(t, s) in &states_p2 {
                if s.is_undetermined() {
                    seen_undet = true;
                }
                if seen_undet && s == TernaryState::Congestion {
                    t5 = Some(t);
                    break;
                }
            }
            println!(
                "P2: visited undetermined = {visited_undet}; undetermined→congestion at {} ms",
                t5.map(|t| format!("{:.3}", t.as_ms_f64()))
                    .unwrap_or_else(|| "—".into())
            );

            // F0/F2 are genuinely congested at P2 in this scenario (their
            // combined input exceeds the line rate), so once P2 emerges as a
            // congestion port their packets must carry CE.
            let d = |f: lossless_netsim::FlowId| r.sim.trace.flows[f.0 as usize].delivered;
            for (name, f) in [("F0", r.f0), ("F1", r.f1), ("F2", r.f2)] {
                let del = d(f);
                println!("{name}: pkts={} CE={} UE={}", del.pkts, del.ce, del.ue);
            }
            println!();
        },
    );
}
