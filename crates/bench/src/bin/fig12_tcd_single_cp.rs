//! Figure 12 — TCD validation in the single congestion point scenario
//! (§5.1.2).
//!
//! Ports P2 and P1 experience the transition *undetermined →
//! non-congestion*: while pauses spread from P3 they are detected as
//! undetermined (packets marked UE, never CE); after release, the queue
//! drains, so TCD classifies them non-congested and marks nothing even
//! while the residual queue still exceeds the CE threshold — the behaviour
//! ECN/FECN gets wrong in Fig. 3.

use tcd_bench::report::{self, pct};
use tcd_bench::scenarios::observation::{run, Options};
use tcd_bench::scenarios::Network;
use tcd_bench::{print_port_trace, state_series};
use tcd_core::TernaryState;

fn main() {
    report::ExpArgs::parse_fixed();
    for network in [Network::Cee, Network::Ib] {
        let tag = match network {
            Network::Cee => "CEE",
            Network::Ib => "InfiniBand",
        };
        report::header("Fig. 12", &format!("TCD, single congestion point — {tag}"));
        let r = run(Options {
            network,
            multi_cp: false,
            use_tcd: true,
            ..Default::default()
        });
        let prio = r.sim.config().data_prio;

        print_port_trace(&r.sim, "P2 (TCD)", r.fig.p2.0, r.fig.p2.1, prio, 24);
        print_port_trace(&r.sim, "P1 (TCD)", r.fig.p1.0, r.fig.p1.1, prio, 24);

        let d = |f: lossless_netsim::FlowId| r.sim.trace.flows[f.0 as usize].delivered;
        let mut t = report::Table::new(vec!["flow", "pkts", "CE", "UE", "CE frac", "UE frac"]);
        for (name, f) in [
            ("F0 (victim)", r.f0),
            ("F1 (congested)", r.f1),
            ("F2 (victim)", r.f2),
        ] {
            let del = d(f);
            let frac = |n: u64| {
                pct(if del.pkts == 0 {
                    0.0
                } else {
                    n as f64 / del.pkts as f64
                })
            };
            t.row(vec![
                name.to_string(),
                del.pkts.to_string(),
                del.ce.to_string(),
                del.ue.to_string(),
                frac(del.ce),
                frac(del.ue),
            ]);
        }
        t.print();

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
    }
}
