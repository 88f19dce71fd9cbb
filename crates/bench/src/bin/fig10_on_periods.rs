//! Figure 10 — practical ON periods under PFC and CBFC (§4.3/§4.4).
//!
//! Drives a two-sender incast so hop-by-hop flow control regulates the
//! bottleneck's upstream port, then reports the distribution of observed
//! ON-period lengths at that port:
//!
//! * CEE: the ON period is the RESUME period, bounded by Eq. 3's
//!   `max(T_on)`;
//! * InfiniBand: ON periods are slices of each credit update period, so
//!   `T_on < T_c` (Eq. 4).

use lossless_flowctl::{Rate, SimDuration, SimTime};
use lossless_netsim::cchooks::FixedRate;
use lossless_netsim::topology::figure2;
use lossless_netsim::Simulator;
use tcd_bench::report;
use tcd_bench::scenarios::{default_config, Network};
use tcd_core::model::{cee_max_ton, RECOMMENDED_EPSILON};

fn main() {
    report::ExpArgs::parse_fixed();
    for network in [Network::Cee, Network::Ib] {
        let tag = match network {
            Network::Cee => "CEE / PFC (RESUME periods)",
            Network::Ib => "InfiniBand / CBFC (credit-sliced periods)",
        };
        report::header("Fig. 10", tag);

        let fig = figure2(Default::default());
        let mut cfg = default_config(network, true, SimTime::from_ms(4));
        // Sample the upstream port P2 very finely so ON-period lengths can
        // be read off the paused/blocked flag.
        cfg.trace_interval = Some(SimDuration::from_ns(500));
        cfg.sample_ports = vec![(fig.p2.0, fig.p2.1, cfg.data_prio)];
        let mut sim = Simulator::new(fig.topo.clone(), cfg, network.routing());

        // Saturate P3 via the bursters; run a long flow through P2 so the
        // port actually transmits during ON periods.
        sim.add_flow(
            fig.s1,
            fig.r1,
            20_000_000,
            SimTime::ZERO,
            Box::new(FixedRate::line_rate()),
        );
        for &a in fig.bursters.iter() {
            sim.add_flow(
                a,
                fig.r1,
                1_000_000,
                SimTime::ZERO,
                Box::new(FixedRate::line_rate()),
            );
        }
        sim.run();

        // Extract ON periods from the sampled pause/block flag.
        let samples: Vec<(SimTime, bool)> = sim
            .trace
            .port_samples
            .iter()
            .map(|s| (s.t, s.paused))
            .collect();
        let mut on_periods_us: Vec<f64> = Vec::new();
        let mut on_start: Option<SimTime> = None;
        let mut saw_off = false;
        for &(t, paused) in &samples {
            match (paused, on_start) {
                (false, None) => on_start = Some(t),
                (true, Some(s)) => {
                    if saw_off {
                        on_periods_us.push(t.saturating_since(s).as_us_f64());
                    }
                    saw_off = true;
                    on_start = None;
                }
                (true, None) => saw_off = true,
                _ => {}
            }
        }
        on_periods_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
        if on_periods_us.is_empty() {
            println!("no regulated ON periods observed\n");
            continue;
        }
        let pct = |p: f64| lossless_stats::percentile(&on_periods_us, p).unwrap();
        let bound_us = match network {
            Network::Cee => cee_max_ton(
                Rate::from_gbps(40),
                1000,
                SimDuration::from_us(4),
                RECOMMENDED_EPSILON,
            )
            .as_us_f64(),
            Network::Ib => lossless_flowctl::cbfc::CbfcConfig::paper_simulation()
                .update_period
                .as_us_f64(),
        };
        let within = on_periods_us.iter().filter(|&&x| x <= bound_us).count();
        println!(
            "ON periods observed: {} | p50 {:.1}us p90 {:.1}us p99 {:.1}us max {:.1}us",
            on_periods_us.len(),
            pct(50.0),
            pct(90.0),
            pct(99.0),
            on_periods_us.last().unwrap()
        );
        println!(
            "bound max(T_on) = {:.1}us; {}/{} periods within bound ({:.1}%)\n",
            bound_us,
            within,
            on_periods_us.len(),
            100.0 * within as f64 / on_periods_us.len() as f64
        );
    }
}
