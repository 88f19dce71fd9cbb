//! Figure 3 — the single congestion point scenario (§3.1.2).
//!
//! Reproduces: queue length and sending rate at port P2 under the binary
//! baselines (ECN in CEE, FECN in InfiniBand), showing that congestion
//! spreading from P3 pauses P2 intermittently, builds queue there, and
//! causes *improper* marking: the victim flow F0 is ECN/FECN-marked at P2
//! even though P2's real input rate never exceeds the line rate.
//!
//! Paper observations this run must show:
//! * P3 is the only congestion point; P0 is never congested;
//! * P2 has a large queue (paper: > 500 KB in CEE) caused purely by
//!   pauses, and its sending rate alternates ON-OFF;
//! * F0 and F2 (victims) receive CE marks at P2 under ECN/FECN;
//! * after the bursts end, P2's rate settles at ~10 Gbps (F0 + F2).

use tcd_bench::{
    observation_figure, peak_queue, port_rate_series, print_flow_marks, print_port_trace,
};

fn main() {
    observation_figure(
        "Fig. 3",
        "single congestion point",
        false,
        false,
        |r, prio| {
            print_port_trace(&r.sim, "P2 queue/rate", r.fig.p2.0, r.fig.p2.1, prio, 30);

            let flows = [
                ("F0 (victim)", r.f0),
                ("F1 (congested)", r.f1),
                ("F2 (victim)", r.f2),
            ];
            print_flow_marks(&r.sim, &flows, false);

            let peak_p2 = peak_queue(&r.sim, r.fig.p2.0, r.fig.p2.1, prio);
            let peak_p0 = peak_queue(&r.sim, r.fig.p0.0, r.fig.p0.1, prio);
            println!(
                "peak queue: P2 = {:.0} KB, P0 = {:.0} KB",
                peak_p2 as f64 / 1024.0,
                peak_p0 as f64 / 1024.0
            );

            // Late-run P2 rate (after bursts end): should approach F0+F2 = 10G.
            let rates = port_rate_series(&r.sim, r.fig.p2.0, r.fig.p2.1, prio);
            let late: Vec<f64> = rates
                .iter()
                .filter(|p| p.t.as_ms_f64() > 4.5)
                .map(|p| p.gbps)
                .collect();
            let late_avg = late.iter().sum::<f64>() / late.len().max(1) as f64;
            println!("P2 rate after bursts: {late_avg:.1} Gbps (paper: ~10 Gbps)");

            // P3 queue for context.
            let p3_peak = peak_queue(&r.sim, r.fig.p3.0, r.fig.p3.1, prio);
            println!(
                "P3 (congestion root) peak queue: {:.0} KB",
                p3_peak as f64 / 1024.0
            );
            println!("PAUSE frames in run: {}\n", r.sim.trace.pause_frames);
        },
    );
}
