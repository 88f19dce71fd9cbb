//! Figure 11 — the (simulated) testbed experiment (§5.1.1).
//!
//! Compact Figure-2 topology at 10 Gbps: F0 (S0 → R0, 1 Gbps) shares port
//! P0 with F1 (S1 → R1, 8 Gbps); A0 then blasts R1 at line rate, making
//! T2 → R1 the congestion root and P0 an undetermined port. TCD must mark
//! F0 with **UE while A0 is active and nothing afterwards** (F0 is only a
//! victim of congestion spreading); F1's packets get CE during the burst
//! (they pass the congestion root).
//!
//! The paper's testbed used a DPDK software switch with PFC at
//! 800/770 KB, ε = 0.04 and, for IB, T_c = 60 µs, 800 KB buffers — we use
//! the same parameters in the simulator.

use lossless_flowctl::SimTime;
use tcd_bench::report::{self, pct};
use tcd_bench::scenarios::testbed;
use tcd_bench::scenarios::Network;

fn main() {
    report::ExpArgs::parse_fixed();
    let end = SimTime::from_ms(40);
    for network in [Network::Cee, Network::Ib] {
        let tag = match network {
            Network::Cee => "CEE (PFC, 800/770 KB, eps 0.04)",
            Network::Ib => "InfiniBand (CBFC, 800 KB, Tc 60us)",
        };
        report::header("Fig. 11", &format!("testbed marking of F0 — {tag}"));
        let r = testbed::run(network, end);
        let (b0, _) = r.burst_window;
        // A0 injects at line rate but only gets its contended share of the
        // R1 link, so the congestion episode ends when its backlog drains —
        // at its flow completion, not at its nominal send window.
        let b1 = r.sim.trace.flows[r.a0.0 as usize].end.unwrap_or(end);
        println!(
            "A0 bursting from {:.1} ms; backlog drained at {:.1} ms",
            b0.as_ms_f64(),
            b1.as_ms_f64()
        );

        // Binned UE/CE fraction of F0's deliveries (the paper bins by
        // 100 ms on a seconds-long run; we bin by 2 ms on a 40 ms run).
        let bin = SimTime::from_ms(2);
        let mut t = report::Table::new(vec!["t (ms)", "F0 UE frac", "F0 CE frac", "phase"]);
        let mut cur = SimTime::ZERO;
        while cur < end {
            let next = cur + (bin - SimTime::ZERO);
            let (ue, ce) = r.f0_fractions_in(cur, next);
            let phase = if cur >= b0 && cur < b1 { "burst" } else { "" };
            t.row(vec![
                format!("{:.0}-{:.0}", cur.as_ms_f64(), next.as_ms_f64()),
                pct(ue),
                pct(ce),
                phase.to_string(),
            ]);
            cur = next;
        }
        t.print();

        // F1 for contrast: CE during the burst window.
        let d1 = r.sim.trace.flows[r.f1.0 as usize].delivered;
        println!(
            "F1 totals: pkts {} CE {} UE {} (CE expected during burst)\n",
            d1.pkts, d1.ce, d1.ue
        );
    }
}
