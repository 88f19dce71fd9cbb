//! Figure 12 — TCD validation in the single congestion point scenario
//! (§5.1.2).
//!
//! Ports P2 and P1 experience the transition *undetermined →
//! non-congestion*: while pauses spread from P3 they are detected as
//! undetermined (packets marked UE, never CE); after release, the queue
//! drains, so TCD classifies them non-congested and marks nothing even
//! while the residual queue still exceeds the CE threshold — the behaviour
//! ECN/FECN gets wrong in Fig. 3.

use tcd_bench::{observation_figure, print_flow_marks, print_port_trace, state_series};
use tcd_core::TernaryState;

fn main() {
    observation_figure(
        "Fig. 12",
        "TCD, single congestion point",
        false,
        true,
        |r, prio| {
            print_port_trace(&r.sim, "P2 (TCD)", r.fig.p2.0, r.fig.p2.1, prio, 24);
            print_port_trace(&r.sim, "P1 (TCD)", r.fig.p1.0, r.fig.p1.1, prio, 24);

            let flows = [
                ("F0 (victim)", r.f0),
                ("F1 (congested)", r.f1),
                ("F2 (victim)", r.f2),
            ];
            print_flow_marks(&r.sim, &flows, true);

            // State transition summary for P2: must visit undetermined and end
            // non-congested, never congested while undetermined.
            let states = state_series(&r.sim, r.fig.p2.0, r.fig.p2.1, prio);
            let visited_undet = states.iter().any(|(_, s)| s.is_undetermined());
            let final_state = states
                .last()
                .map(|&(_, s)| s)
                .unwrap_or(TernaryState::NonCongestion);
            println!(
        "P2 visited undetermined: {visited_undet}; final state: {final_state} (paper: / then 0)\n"
    );
        },
    );
}
