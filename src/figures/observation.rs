//! The Figure-2 fabric: the §3.1 observation scenarios (Figs. 3, 4, 12 and
//! 13), the §5.1.1 compact testbed (Fig. 11) and the §5.2.4 fairness run
//! (Fig. 20).

use super::{port_rate_series, Args};
use crate::report::{self, f2, pct};
use crate::scenarios::{fairness, observation, testbed, Cc, CcAlgo, Network};
use lossless_flowctl::SimTime;
use lossless_netsim::{FlowId, NodeId, Simulator, TernaryState};
use lossless_stats::timeseries::downsample;

/// The frame Figs. 3, 4, 12 and 13 share: the §3.1 observation scenario
/// under one detector, on CEE and then on InfiniBand, with a header per
/// network; `body` prints that figure's tables from the completed run and
/// its data priority.
fn observation_figure(
    fig: &str,
    title: &str,
    multi_cp: bool,
    use_tcd: bool,
    body: impl Fn(&observation::Run, u8),
) {
    for network in [Network::Cee, Network::Ib] {
        let tag = match (network, use_tcd) {
            (Network::Cee, true) => "CEE",
            (Network::Cee, false) => "CEE (ECN)",
            (Network::Ib, true) => "InfiniBand",
            (Network::Ib, false) => "InfiniBand (FECN)",
        };
        report::header(fig, &format!("{title} — {tag}"));
        let r = observation::run(observation::Options {
            network,
            multi_cp,
            use_tcd,
            ..Default::default()
        });
        body(&r, r.sim.config().data_prio);
    }
}

/// Print a queue/rate/state trace of one port as a compact table of at
/// most `rows` rows.
fn print_port_trace(sim: &Simulator, label: &str, node: NodeId, port: u16, prio: u8, rows: usize) {
    let samples = sim.trace.samples_of(node, port, prio);
    if samples.is_empty() {
        println!("-- {label}: no samples --");
        return;
    }
    let rates = port_rate_series(sim, node, port, prio);
    let mut t = report::Table::new(vec!["t_ms", "queue_KB", "rate_Gbps", "state", "paused"]);
    let idxs: Vec<usize> = (0..samples.len()).collect();
    for &i in downsample(&idxs, rows.max(2)).iter() {
        let s = samples[i];
        let rate = if i == 0 { 0.0 } else { rates[i - 1].gbps };
        t.row(vec![
            format!("{:.3}", s.t.as_ms_f64()),
            format!("{:.1}", s.queue_bytes as f64 / 1024.0),
            format!("{rate:.2}"),
            s.state.symbol().to_string(),
            if s.paused { "*" } else { "" }.to_string(),
        ]);
    }
    println!("-- {label} --");
    t.print();
}

/// Print the per-flow mark table of Figs. 3, 4 and 12: delivered packets
/// and the CE count and fraction of each named flow, with the UE count and
/// fraction beside them when `with_ue` (the TCD figures).
fn print_flow_marks(sim: &Simulator, flows: &[(&str, FlowId)], with_ue: bool) {
    let mut t = report::Table::new(if with_ue {
        vec!["flow", "pkts", "CE", "UE", "CE frac", "UE frac"]
    } else {
        vec!["flow", "pkts", "CE-marked", "CE frac"]
    });
    for &(name, f) in flows {
        let d = sim.trace.flow(f).delivered;
        let mut row = vec![name.to_string(), d.pkts.to_string(), d.ce.to_string()];
        if with_ue {
            row.push(d.ue.to_string());
        }
        row.push(pct(sim.trace.ce_fraction(f)));
        if with_ue {
            row.push(pct(sim.trace.ue_fraction(f)));
        }
        t.row(row);
    }
    t.print();
}

/// Figure 3 — the single congestion point scenario (§3.1.2).
///
/// Reproduces: queue length and sending rate at port P2 under the binary
/// baselines (ECN in CEE, FECN in InfiniBand), showing that congestion
/// spreading from P3 pauses P2 intermittently, builds queue there, and
/// causes *improper* marking: the victim flow F0 is ECN/FECN-marked at P2
/// even though P2's real input rate never exceeds the line rate.
///
/// Paper observations this run must show:
/// * P3 is the only congestion point; P0 is never congested;
/// * P2 has a large queue (paper: > 500 KB in CEE) caused purely by
///   pauses, and its sending rate alternates ON-OFF;
/// * F0 and F2 (victims) receive CE marks at P2 under ECN/FECN;
/// * after the bursts end, P2's rate settles at ~10 Gbps (F0 + F2).
pub(super) fn fig03_single_cp(_: &Args) {
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

            // Peak queue length (bytes) in the samples of one egress.
            let peak_queue = |(node, port): (NodeId, u16)| {
                let samples = r.sim.trace.samples_of(node, port, prio);
                samples.iter().map(|s| s.queue_bytes).max().unwrap_or(0)
            };
            let peak_p2 = peak_queue(r.fig.p2);
            let peak_p0 = peak_queue(r.fig.p0);
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
            let p3_peak = peak_queue(r.fig.p3);
            println!(
                "P3 (congestion root) peak queue: {:.0} KB",
                p3_peak as f64 / 1024.0
            );
            println!("PAUSE frames in run: {}\n", r.sim.trace.pause_frames);
        },
    );
}

/// Figure 4 — the multiple congestion points scenario (§3.1.3).
///
/// F0/F2 send 25 Gbps each, so P2 (T2 → T3) is a second, *covered*
/// congestion point: while congestion spreads from P3, P2's sending rate
/// alternates ON-OFF and its queue evolution is indistinguishable from the
/// single-congestion-point case; after the bursts end, P2 keeps a
/// persistent queue because its real input (50 Gbps) exceeds the line rate
/// — the masked state the paper's ternary analysis exposes.
pub(super) fn fig04_multi_cp(_: &Args) {
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
            let late_q: Vec<u64> = r
                .sim
                .trace
                .samples_of(r.fig.p2.0, r.fig.p2.1, prio)
                .iter()
                .filter(|s| s.t.as_ms_f64() > 4.5)
                .map(|s| s.queue_bytes)
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

/// Figure 11 — the (simulated) testbed experiment (§5.1.1).
///
/// Compact Figure-2 topology at 10 Gbps: F0 (S0 → R0, 1 Gbps) shares port
/// P0 with F1 (S1 → R1, 8 Gbps); A0 then blasts R1 at line rate, making
/// T2 → R1 the congestion root and P0 an undetermined port. TCD must mark
/// F0 with **UE while A0 is active and nothing afterwards** (F0 is only a
/// victim of congestion spreading); F1's packets get CE during the burst
/// (they pass the congestion root).
///
/// The paper's testbed used a DPDK software switch with PFC at
/// 800/770 KB, ε = 0.04 and, for IB, T_c = 60 µs, 800 KB buffers — we use
/// the same parameters in the simulator.
pub(super) fn fig11_testbed(_: &Args) {
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
        let b1 = r.sim.trace.flow(r.a0).end.unwrap_or(end);
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
        let d1 = r.sim.trace.flow(r.f1).delivered;
        println!(
            "F1 totals: pkts {} CE {} UE {} (CE expected during burst)\n",
            d1.pkts, d1.ce, d1.ue
        );
    }
}

/// Figure 12 — TCD validation in the single congestion point scenario
/// (§5.1.2).
///
/// Ports P2 and P1 experience the transition *undetermined →
/// non-congestion*: while pauses spread from P3 they are detected as
/// undetermined (packets marked UE, never CE); after release, the queue
/// drains, so TCD classifies them non-congested and marks nothing even
/// while the residual queue still exceeds the CE threshold — the behaviour
/// ECN/FECN gets wrong in Fig. 3.
pub(super) fn fig12_tcd_single_cp(_: &Args) {
    observation_figure(
        "Fig. 12",
        "TCD, single congestion point",
        false,
        true,
        |r, prio| {
            print_port_trace(&r.sim, "P2 (TCD)", r.fig.p2.0, r.fig.p2.1, prio, 24);
            print_port_trace(&r.sim, "P1 (TCD)", r.fig.p1.0, r.fig.p1.1, prio, 24);

            let flows = [
                ("F0 (victim)", r.f0),
                ("F1 (congested)", r.f1),
                ("F2 (victim)", r.f2),
            ];
            print_flow_marks(&r.sim, &flows, true);

            // State transition summary for P2: must visit undetermined and end
            // non-congested, never congested while undetermined.
            let states = r.sim.trace.samples_of(r.fig.p2.0, r.fig.p2.1, prio);
            let visited_undet = states.iter().any(|s| s.state.is_undetermined());
            let final_state = states
                .last()
                .map_or(TernaryState::NonCongestion, |s| s.state);
            println!(
        "P2 visited undetermined: {visited_undet}; final state: {final_state} (paper: / then 0)\n"
    );
        },
    );
}

/// Figure 13 — TCD validation in the multiple congestion points scenario
/// (§5.1.2).
///
/// Port P2 is the covered congestion root: while congestion spreads from
/// P3 it is undetermined; when it is released and its queue keeps growing,
/// TCD detects the transition *undetermined → congestion* and starts
/// marking CE. Port P1 stays undetermined (congestion now spreads from
/// P2).
pub(super) fn fig13_tcd_multi_cp(_: &Args) {
    observation_figure(
        "Fig. 13",
        "TCD, multiple congestion points",
        true,
        true,
        |r, prio| {
            print_port_trace(&r.sim, "P2 (TCD)", r.fig.p2.0, r.fig.p2.1, prio, 24);
            print_port_trace(&r.sim, "P1 (TCD)", r.fig.p1.0, r.fig.p1.1, prio, 24);

            let states_p2 = r.sim.trace.samples_of(r.fig.p2.0, r.fig.p2.1, prio);
            let visited_undet = states_p2.iter().any(|s| s.state.is_undetermined());
            // Find the first time P2 is congested *after* having been
            // undetermined: the ⑤ transition.
            let mut seen_undet = false;
            let mut t5 = None;
            for s in &states_p2 {
                if s.state.is_undetermined() {
                    seen_undet = true;
                }
                if seen_undet && s.state == TernaryState::Congestion {
                    t5 = Some(s.t);
                    break;
                }
            }
            println!(
                "P2: visited undetermined = {visited_undet}; undetermined→congestion at {} ms",
                t5.map(|t| format!("{:.3}", t.as_ms_f64()))
                    .unwrap_or_else(|| "—".into())
            );

            // F0/F2 are genuinely congested at P2 in this scenario (their
            // combined input exceeds the line rate), so once P2 emerges as a
            // congestion port their packets must carry CE.
            for (name, f) in [("F0", r.f0), ("F1", r.f1), ("F2", r.f2)] {
                let del = r.sim.trace.flow(f).delivered;
                println!("{name}: pkts={} CE={} UE={}", del.pkts, del.ce, del.ue);
            }
            println!();
        },
    );
}

/// Figure 20 — fairness with TCD (§5.2.4).
///
/// B0–B3 send four long-lived flows to R0 through port P2 while A0–A14
/// incast R1 for ~3 ms. During the bursts, congestion spreads to P2, which
/// becomes undetermined: under the gentle rule the four flows keep their
/// CC rate (throughput dips only from head-of-line blocking at L0–T2).
/// After the bursts, P2 becomes a genuine congestion port and the four
/// flows converge to the fair share (~8 Gbps each of the ~32 Gbps left
/// beside F1) for both DCQCN+TCD and TIMELY+TCD.
pub(super) fn fig20_fairness(_: &Args) {
    for algo in [CcAlgo::Dcqcn, CcAlgo::Timely] {
        let cc = Cc { algo, tcd: true };
        report::header("Fig. 20", &format!("fairness with TCD — {}", cc.name()));
        let r = fairness::run(cc, SimTime::from_ms(40));
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
