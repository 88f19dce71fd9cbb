//! Table 3 — victim flows mistakenly marked with CE (§5.1.3).
//!
//! Head-of-line scenario: S0–T0 and S1–T0 links at 20 Gbps, no flows from
//! S2, so every S0 → R0 flow is a potential victim (its only congestion
//! exposure is pauses spreading from R1's incast). A flow counts as
//! "mistakenly detected as congested" when any of its delivered packets
//! carries CE.
//!
//! Paper: ECN (CEE) 26.6%, TCD (CEE) 0%, FECN (IB) 13.5%, TCD (IB) 0%.

use tcd_bench::report::{self, pct};
use tcd_bench::scenarios::victim::{run, Options};
use tcd_bench::scenarios::Network;

fn main() {
    let args = report::ExpArgs::parse(1.0);
    report::header("Table 3", "victim flows marked with CE");
    let mut t = report::Table::new(vec!["scheme", "victims", "marked CE", "fraction", "paper"]);
    for (network, use_tcd, label, paper) in [
        (Network::Cee, false, "ECN  (CEE)", "26.6%"),
        (Network::Cee, true, "TCD  (CEE)", "0%"),
        (Network::Ib, false, "FECN (IB)", "13.5%"),
        (Network::Ib, true, "TCD  (IB)", "0%"),
    ] {
        let mut opt = Options {
            network,
            use_tcd,
            seed: args.seed,
            ..Default::default()
        };
        if network == Network::Cee {
            // Denser burst rounds for the Hadoop mix, matching the paper's
            // synchronous concurrent-burst generators.
            opt.burst_gap = lossless_flowctl::SimDuration::from_us(450);
            opt.burst_bytes = 100 * 1024;
            opt.load = 0.5;
        }
        if network == Network::Ib {
            // IB messages are short (2-32 KB MPI), so congestion spreading
            // touches a much larger *count* of messages; space the burst
            // rounds out and keep the load moderate so the exposure is
            // comparable to the paper's message mix. Concurrent 20G+20G
            // I/O transfers saturate the 40G chain exactly (rho = 1) and
            // keep pause-era queues from draining, so the I/O share is
            // kept small for this detection-accuracy table.
            opt.burst_gap = lossless_flowctl::SimDuration::from_us(550);
            opt.load = 0.4;
            opt.io_fraction = 0.1;
        }
        let r = run(opt);
        let marked = r.victims_with(|d| d.ce > 0);
        t.row(vec![
            label.to_string(),
            r.victims.len().to_string(),
            marked.to_string(),
            pct(r.victim_ce_fraction()),
            paper.to_string(),
        ]);
    }
    t.print();
}
