//! Figure 4 — the multiple congestion points scenario (§3.1.3).
//!
//! F0/F2 send 25 Gbps each, so P2 (T2 → T3) is a second, *covered*
//! congestion point: while congestion spreads from P3, P2's sending rate
//! alternates ON-OFF and its queue evolution is indistinguishable from the
//! single-congestion-point case; after the bursts end, P2 keeps a
//! persistent queue because its real input (50 Gbps) exceeds the line rate
//! — the masked state the paper's ternary analysis exposes.

use tcd_bench::report::{self, pct};
use tcd_bench::scenarios::observation::{run, Options};
use tcd_bench::scenarios::Network;
use tcd_bench::{port_rate_series, print_port_trace, queue_series};

fn main() {
    report::ExpArgs::parse_fixed();
    for network in [Network::Cee, Network::Ib] {
        let tag = match network {
            Network::Cee => "CEE (ECN)",
            Network::Ib => "InfiniBand (FECN)",
        };
        report::header("Fig. 4", &format!("multiple congestion points — {tag}"));
        let r = run(Options {
            network,
            multi_cp: true,
            use_tcd: false,
            ..Default::default()
        });
        let prio = r.sim.config().data_prio;

        print_port_trace(&r.sim, "P2 queue/rate", r.fig.p2.0, r.fig.p2.1, prio, 30);

        let d = |f: lossless_netsim::FlowId| r.sim.trace.flows[f.0 as usize].delivered;
        let mut t = report::Table::new(vec!["flow", "pkts", "CE-marked", "CE frac"]);
        for (name, f) in [("F0", r.f0), ("F1", r.f1), ("F2", r.f2)] {
            let del = d(f);
            t.row(vec![
                name.to_string(),
                del.pkts.to_string(),
                del.ce.to_string(),
                pct(if del.pkts == 0 {
                    0.0
                } else {
                    del.ce as f64 / del.pkts as f64
                }),
            ]);
        }
        t.print();

        // The distinguishing feature vs Fig. 3: after the bursts end, P2
        // still has persistent queue accumulation and sends at full rate.
        let qs = queue_series(&r.sim, r.fig.p2.0, r.fig.p2.1, prio);
        let late_q: Vec<u64> = qs
            .iter()
            .filter(|(t, _)| t.as_ms_f64() > 4.5)
            .map(|&(_, q)| q)
            .collect();
        let late_q_avg = late_q.iter().sum::<u64>() as f64 / late_q.len().max(1) as f64 / 1024.0;
        let rates = port_rate_series(&r.sim, r.fig.p2.0, r.fig.p2.1, prio);
        let late_r: Vec<f64> = rates
            .iter()
            .filter(|p| p.t.as_ms_f64() > 4.5)
            .map(|p| p.gbps)
            .collect();
        let late_r_avg = late_r.iter().sum::<f64>() / late_r.len().max(1) as f64;
        println!("P2 after bursts: avg queue {late_q_avg:.0} KB (persistent), avg rate {late_r_avg:.1} Gbps (full rate)");
        println!();
    }
}
