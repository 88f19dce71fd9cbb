//! Hop-by-hop flow control itself: why lossless at all (§1), the ON-OFF
//! model's `T_on` surface (Fig. 8) and the ON periods PFC and CBFC
//! actually produce (Fig. 10).

use super::Args;
use crate::report::{self, f2};
use crate::scenarios::{default_config, Network};
use lossless_flowctl::{Rate, SimDuration, SimTime};
use lossless_netsim::cchooks::FixedRate;
use lossless_netsim::config::{DetectorKind, SimConfig};
use lossless_netsim::routing::RouteSelect;
use lossless_netsim::topology::{figure2, Figure2Options};
use lossless_netsim::Simulator;
use lossless_stats::percentile;
use tcd_core::model::{cee_max_ton, fig8_surface, OnOffModel, RECOMMENDED_EPSILON};

/// One fan-in of the §1 motivation incast, lossy or lossless.
struct Outcome {
    p50_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    drops: u64,
    pauses: u64,
}

fn incast(lossless: bool, fanin: usize, size: u64, seed: u64) -> Outcome {
    let f2t = figure2(Figure2Options::default());
    let mut cfg = if lossless {
        let mut c = SimConfig::cee_baseline(SimTime::from_ms(200));
        c.detector = DetectorKind::None;
        c
    } else {
        SimConfig::lossy_baseline(SimTime::from_ms(200), 100 * 1024)
    };
    cfg.seed = seed;
    let mut sim = Simulator::new(f2t.topo.clone(), cfg, RouteSelect::Ecmp);
    let flows: Vec<_> = f2t
        .bursters
        .iter()
        .take(fanin)
        .map(|&a| {
            sim.add_flow(
                a,
                f2t.r1,
                size,
                SimTime::ZERO,
                Box::new(FixedRate::line_rate()),
            )
        })
        .collect();
    sim.run();
    let fcts: Vec<f64> = flows
        .iter()
        .map(|f| {
            sim.trace
                .flow(*f)
                .fct()
                .expect("all flows must complete in both modes")
                .as_secs_f64()
                * 1e3
        })
        .collect();
    Outcome {
        p50_ms: percentile(&fcts, 50.0).unwrap(),
        p99_ms: percentile(&fcts, 99.0).unwrap(),
        max_ms: fcts.iter().fold(0.0, |a, &b| a.max(b)),
        drops: sim.trace.drops,
        pauses: sim.trace.pause_frames,
    }
}

/// §1 motivation — why lossless at all: the same incast on a traditional
/// drop-tail Ethernet (with go-back-N reliability) versus the lossless
/// fabric. Packet loss turns into retransmission timeouts and tail-latency
/// blowup; PFC turns it into bounded pausing.
///
/// This is not a numbered figure in the paper; it regenerates the premise
/// the introduction cites (loss hurts tail FCT and throughput, hence
/// lossless fabrics, hence hop-by-hop flow control, hence TCD).
pub(super) fn fig00_lossless_motivation(a: &Args) {
    report::header(
        "§1 motivation",
        "incast FCT: lossy Ethernet vs lossless (PFC)",
    );
    let size = 500 * 1024u64;
    let mut t = report::Table::new(vec![
        "fan-in", "mode", "p50 ms", "p99 ms", "max ms", "drops", "pauses",
    ]);
    for fanin in [2usize, 4, 8, 15] {
        for lossless in [false, true] {
            let o = incast(lossless, fanin, size, a.seed);
            t.row(vec![
                fanin.to_string(),
                if lossless { "lossless" } else { "lossy" }.to_string(),
                f2(o.p50_ms),
                f2(o.p99_ms),
                f2(o.max_ms),
                o.drops.to_string(),
                o.pauses.to_string(),
            ]);
        }
    }
    t.print();
    let ideal_ms = Rate::from_gbps(40).serialize_time(size).as_secs_f64() * 1e3;
    println!(
        "(per-flow ideal at full line rate: {ideal_ms:.2} ms; lossless tails track fan-in x ideal,\n lossy tails pay {} RTO per recovery round)",
        SimDuration::from_us(500)
    );
}

/// Figure 8 — the `T_on(ε, R_d)` surface of the conceptual ON-OFF model
/// (§4.2), with τ = 8 µs and C = 40 Gbps, plus the flat reference plane at
/// ε = 0.05 (the recommended setting).
///
/// Expected shape: `T_on` increases slowly then rapidly as ε decreases
/// (hyperbolically), and increases with `R_d` (the τ·R_d term); the ε=0.05
/// plane covers most practical `T_on` values.
pub(super) fn fig08_ton_surface(_: &Args) {
    report::header("Fig. 8", "T_on vs (epsilon, R_d); tau = 8us, C = 40Gbps");

    let epsilons = [0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8];
    let rd_steps = 8;
    let pts = fig8_surface(&epsilons, rd_steps);

    let mut t = report::Table::new(vec![
        "R_d (Gbps) \\ eps",
        "0.01",
        "0.02",
        "0.05",
        "0.1",
        "0.2",
        "0.4",
        "0.8",
    ]);
    for i in 0..rd_steps {
        let rd = pts[i].rd_gbps;
        let mut row = vec![format!("{rd:.1}")];
        for (e, _) in epsilons.iter().enumerate() {
            row.push(format!("{:.1}", pts[e * rd_steps + i].ton_us));
        }
        t.row(row);
    }
    t.print();

    // The flat plane: T_on at the recommended epsilon (per the figure
    // caption, "the z-value of the flat plane is T_on when eps = 0.05").
    let model = OnOffModel {
        capacity: Rate::from_gbps(40),
        threshold_gap_bytes: 2 * lossless_flowctl::units::MTU_BYTES,
        tau: SimDuration::from_us(8),
        epsilon: RECOMMENDED_EPSILON,
    };
    println!(
        "flat plane (eps = 0.05, worst-case R_d = C/2): max(T_on) = {:.2} us",
        model.max_ton_secs() * 1e6
    );
    let covered = pts
        .iter()
        .filter(|p| p.epsilon >= RECOMMENDED_EPSILON)
        .filter(|p| p.ton_us <= model.max_ton_secs() * 1e6 + 1e-9)
        .count();
    let total = pts
        .iter()
        .filter(|p| p.epsilon >= RECOMMENDED_EPSILON)
        .count();
    println!("plane covers {covered}/{total} grid points with eps >= 0.05");
}

/// Figure 10 — practical ON periods under PFC and CBFC (§4.3/§4.4).
///
/// Drives a two-sender incast so hop-by-hop flow control regulates the
/// bottleneck's upstream port, then reports the distribution of observed
/// ON-period lengths at that port:
///
/// * CEE: the ON period is the RESUME period, bounded by Eq. 3's
///   `max(T_on)`;
/// * InfiniBand: ON periods are slices of each credit update period, so
///   `T_on < T_c` (Eq. 4).
pub(super) fn fig10_on_periods(_: &Args) {
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
        let pct = |p: f64| percentile(&on_periods_us, p).unwrap();
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
