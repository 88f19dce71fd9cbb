//! Victim flows under head-of-line blocking: compares the four detection
//! schemes of the paper's Table 3 on one command line.
//!
//! S0's flows to R0 share upstream links with S1's flows into a congested
//! receiver; they are pure victims of congestion spreading and should
//! never be marked CE. Binary detectors (ECN, FECN) blame them anyway;
//! TCD marks them UE instead.
//!
//! Run with: `cargo run --release --example victim_flows`

use tcd_repro::scenarios::victim::{run, Options};
use tcd_repro::scenarios::Network;

fn main() {
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>10}",
        "scheme", "victims", "CE-flagged", "UE-flagged", "mean FCT"
    );
    for (network, use_tcd, label) in [
        (Network::Cee, false, "ECN (CEE)"),
        (Network::Cee, true, "TCD (CEE)"),
        (Network::Ib, false, "FECN (IB)"),
        (Network::Ib, true, "TCD (IB)"),
    ] {
        let mut opt = Options {
            network,
            use_tcd,
            ..Default::default()
        };
        if network == Network::Ib {
            opt.load = 0.3;
            opt.burst_gap = tcd_repro::flowctl::SimDuration::from_us(700);
        }
        let r = run(opt);
        let ce = r.victims_with(|d| d.ce > 0);
        let ue = r.victims_with(|d| d.ue > 0);
        println!(
            "{:<12} {:>8} {:>10} {:>10} {:>8.1}us",
            label,
            r.victims.len(),
            ce,
            ue,
            r.victim_mean_fct().unwrap_or(0.0) * 1e6
        );
        if use_tcd {
            assert_eq!(ce, 0, "TCD must not flag victims as congested");
        }
    }
    println!("\nok: binary detectors blame victims; TCD reports them undetermined");
}
