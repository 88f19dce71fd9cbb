//! Figure 4 — the multiple congestion points scenario (§3.1.3).
//!
//! F0/F2 send 25 Gbps each, so P2 (T2 → T3) is a second, *covered*
//! congestion point: while congestion spreads from P3, P2's sending rate
//! alternates ON-OFF and its queue evolution is indistinguishable from the
//! single-congestion-point case; after the bursts end, P2 keeps a
//! persistent queue because its real input (50 Gbps) exceeds the line rate
//! — the masked state the paper's ternary analysis exposes.

use tcd_bench::{
    observation_figure, port_rate_series, print_flow_marks, print_port_trace, queue_series,
};

fn main() {
    observation_figure(
        "Fig. 4",
        "multiple congestion points",
        true,
        false,
        |r, prio| {
            print_port_trace(&r.sim, "P2 queue/rate", r.fig.p2.0, r.fig.p2.1, prio, 30);

            let flows = [("F0", r.f0), ("F1", r.f1), ("F2", r.f2)];
            print_flow_marks(&r.sim, &flows, false);

            // The distinguishing feature vs Fig. 3: after the bursts end, P2
            // still has persistent queue accumulation and sends at full rate.
            let qs = queue_series(&r.sim, r.fig.p2.0, r.fig.p2.1, prio);
            let late_q: Vec<u64> = qs
                .iter()
                .filter(|(t, _)| t.as_ms_f64() > 4.5)
                .map(|&(_, q)| q)
                .collect();
            let late_q_avg =
                late_q.iter().sum::<u64>() as f64 / late_q.len().max(1) as f64 / 1024.0;
            let rates = port_rate_series(&r.sim, r.fig.p2.0, r.fig.p2.1, prio);
            let late_r: Vec<f64> = rates
                .iter()
                .filter(|p| p.t.as_ms_f64() > 4.5)
                .map(|p| p.gbps)
                .collect();
            let late_r_avg = late_r.iter().sum::<f64>() / late_r.len().max(1) as f64;
            println!("P2 after bursts: avg queue {late_q_avg:.0} KB (persistent), avg rate {late_r_avg:.1} Gbps (full rate)");
            println!();
        },
    );
}
