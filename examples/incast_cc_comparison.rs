//! End-to-end congestion control comparison on one incast: DCQCN, TIMELY
//! and IB CC, each with and without TCD awareness, on the same victim
//! scenario — the §5.2 case-study matrix in one run.
//!
//! Run with: `cargo run --release --example incast_cc_comparison`

use tcd_repro::flowctl::SimDuration;
use tcd_repro::scenarios::victim::{run, Options};
use tcd_repro::scenarios::{Cc, CcAlgo, Network};

fn main() {
    println!(
        "{:<12} {:>9} {:>12} {:>14} {:>12}",
        "controller", "victims", "mean FCT us", "UE-flagged", "CE-flagged"
    );
    for algo in [CcAlgo::Dcqcn, CcAlgo::Timely, CcAlgo::IbCc] {
        for tcd in [false, true] {
            let cc = Cc { algo, tcd };
            let network = cc.network();
            let mut opt = Options {
                network,
                use_tcd: tcd,
                cc: Some(cc),
                burst_bytes: 100 * 1024,
                burst_gap: SimDuration::from_us(450),
                load: 0.5,
                ..Default::default()
            };
            if network == Network::Ib {
                opt.load = 0.3;
                opt.burst_gap = SimDuration::from_us(700);
            }
            let r = run(opt);
            println!(
                "{:<12} {:>9} {:>12.1} {:>14} {:>12}",
                cc.name(),
                r.victims.len(),
                r.victim_mean_fct().unwrap_or(0.0) * 1e6,
                r.victims_with(|d| d.ue > 0),
                r.victims_with(|d| d.ce > 0),
            );
        }
    }
    println!("\nok: each controller ran with and without ternary awareness");
}
