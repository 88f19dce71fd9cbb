//! Figure 20 — fairness with TCD (§5.2.4).
//!
//! B0–B3 send four long-lived flows to R0 through port P2 while A0–A14
//! incast R1 for ~3 ms. During the bursts, congestion spreads to P2, which
//! becomes undetermined: under the gentle rule the four flows keep their
//! CC rate (throughput dips only from head-of-line blocking at L0–T2).
//! After the bursts, P2 becomes a genuine congestion port and the four
//! flows converge to the fair share (~8 Gbps each of the ~32 Gbps left
//! beside F1) for both DCQCN+TCD and TIMELY+TCD.

use lossless_flowctl::SimTime;
use tcd_bench::port_rate_series;
use tcd_bench::report::{self, f2};
use tcd_bench::scenarios::fairness::run;
use tcd_bench::scenarios::{Cc, CcAlgo};

fn main() {
    report::ExpArgs::parse_fixed();
    for algo in [CcAlgo::Dcqcn, CcAlgo::Timely] {
        let cc = Cc { algo, tcd: true };
        report::header("Fig. 20", &format!("fairness with TCD — {}", cc.name()));
        let r = run(cc, SimTime::from_ms(40));
        let prio = r.sim.config().data_prio;

        // Per-B-host throughput over time (each B host carries one flow).
        let mut t = report::Table::new(vec!["t ms", "B0", "B1", "B2", "B3", "sum"]);
        let series: Vec<Vec<(f64, f64)>> = r
            .fig
            .b_hosts
            .iter()
            .map(|&h| {
                // Each B host's NIC (port 0) carries exactly one flow.
                port_rate_series(&r.sim, h, 0, prio)
                    .iter()
                    .map(|p| (p.t.as_ms_f64(), p.gbps))
                    .collect()
            })
            .collect();
        // Print 2 ms averages.
        let mut bin_start = 0.0f64;
        while bin_start < 40.0 {
            let bin_end = bin_start + 2.0;
            let mut avg = [0.0f64; 4];
            for (i, s) in series.iter().enumerate() {
                let vals: Vec<f64> = s
                    .iter()
                    .filter(|(t, _)| *t >= bin_start && *t < bin_end)
                    .map(|&(_, g)| g)
                    .collect();
                avg[i] = if vals.is_empty() {
                    0.0
                } else {
                    vals.iter().sum::<f64>() / vals.len() as f64
                };
            }
            t.row(vec![
                format!("{bin_start:.1}"),
                f2(avg[0]),
                f2(avg[1]),
                f2(avg[2]),
                f2(avg[3]),
                f2(avg.iter().sum()),
            ]);
            bin_start = bin_end;
        }
        t.print();

        // Fairness after convergence: Jain's index over the last 8 ms.
        let last: Vec<f64> = series
            .iter()
            .map(|s| {
                let vals: Vec<f64> = s
                    .iter()
                    .filter(|(t, _)| *t > 32.0)
                    .map(|&(_, g)| g)
                    .collect();
                vals.iter().sum::<f64>() / vals.len().max(1) as f64
            })
            .collect();
        let sum: f64 = last.iter().sum();
        let sumsq: f64 = last.iter().map(|x| x * x).sum();
        let jain = if sumsq > 0.0 {
            sum * sum / (4.0 * sumsq)
        } else {
            0.0
        };
        println!(
            "late rates: {} | Jain fairness {:.3} (1.0 = perfect)\n",
            last.iter()
                .map(|x| format!("{x:.2}"))
                .collect::<Vec<_>>()
                .join(" / "),
            jain
        );
    }
}
