//! Figure 14 — parameter sensitivity of ε (§5.1.4).
//!
//! ε sets `max(T_on)` (larger ε → smaller bound). Too large an ε makes TCD
//! mistake the ON-OFF pattern for a continuous-ON pattern, so victim
//! packets get mistakenly CE-marked; too small an ε only defers detection.
//! The paper repeats the concurrent-burst scenario across ε and finds no
//! mistaken CE below ε ≈ 0.1, with mistakes growing for larger ε —
//! supporting the recommended ε = 0.05.
//!
//! The ε × classifier grid is independent runs, so it goes through the
//! parallel harness (`--threads`); the table is reassembled from the
//! submission-ordered results and is identical at any thread count.

use lossless_flowctl::Rate;
use lossless_flowctl::SimDuration;
use tcd_bench::harness::{self, Sweep};
use tcd_bench::report::{self, pct};
use tcd_bench::scenarios::victim::{run, Options};
use tcd_bench::scenarios::Network;
use tcd_core::model::cee_max_ton;

const EPSILONS: [f64; 7] = [0.01, 0.025, 0.05, 0.1, 0.2, 0.4, 0.8];

fn main() {
    let args = report::ExpArgs::parse(1.0);
    report::header(
        "Fig. 14",
        "mistakenly CE-marked victim packets vs epsilon (CEE, TCD)",
    );

    let mut sweep = Sweep::new();
    for eps in EPSILONS {
        for literal in [true, false] {
            let seed = args.seed;
            let kind = if literal { "literal" } else { "hardened" };
            sweep.add(format!("eps{eps}_{kind}"), move || {
                let r = run(Options {
                    network: Network::Cee,
                    use_tcd: true,
                    epsilon: Some(eps),
                    paper_literal: literal,
                    // Heavier bursts than Table 3 so chain-port queues exceed
                    // the CE threshold during spreading: a too-small max(T_on)
                    // (large eps) then has something to get wrong.
                    burst_bytes: 256 * 1024,
                    burst_gap: SimDuration::from_us(600),
                    load: 0.5,
                    seed,
                    ..Default::default()
                });
                let mut pkts = 0u64;
                let mut ce = 0u64;
                for d in r.victim_deliveries() {
                    pkts += d.pkts;
                    ce += d.ce;
                }
                harness::outcome_of(
                    &r.sim,
                    vec![
                        ("victim_pkts".into(), pkts as f64),
                        ("victim_ce".into(), ce as f64),
                    ],
                )
            });
        }
    }
    let rep = sweep.run(args.threads);

    let mut t = report::Table::new(vec![
        "epsilon",
        "max(T_on) us",
        "victim pkts",
        "literal CE",
        "literal frac",
        "hardened CE",
    ]);
    for (ei, eps) in EPSILONS.iter().enumerate() {
        // Submission order: [literal, hardened] per epsilon.
        let literal = &rep.results[ei * 2].outcome;
        let hardened = &rep.results[ei * 2 + 1].outcome;
        let pkts = literal.metric("victim_pkts").unwrap_or(0.0);
        let lit_ce = literal.metric("victim_ce").unwrap_or(0.0);
        let max_ton = cee_max_ton(Rate::from_gbps(40), 1000, SimDuration::from_us(4), *eps);
        t.row(vec![
            format!("{eps}"),
            format!("{:.1}", max_ton.as_us_f64()),
            format!("{}", pkts as u64),
            format!("{}", lit_ce as u64),
            pct(if pkts == 0.0 { 0.0 } else { lit_ce / pkts }),
            format!("{}", hardened.metric("victim_ce").unwrap_or(0.0) as u64),
        ]);
    }
    t.print();
    println!("(paper, literal flowchart: no mistaken CE for eps < 0.1, growing above;");
    println!(" the hardened classifier — clean windows + back-pressure gate — stays at 0)");
}
