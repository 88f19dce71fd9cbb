//! Shared helpers for the per-figure experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of
//! *"Congestion Detection in Lossless Networks"* (SIGCOMM 2021); see
//! DESIGN.md for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results. All binaries accept `--scale <f>`,
//! `--seed <n>`, `--threads <n>` and `--full`; sweep-shaped binaries
//! (figs. 14/15/16/18/19) fan their independent runs out on the
//! deterministic parallel [`harness`]. Figs. 15 and 18 are one program
//! ([`victim_fct_figure`]) run with two congestion controllers.

#![forbid(unsafe_code)]

pub use tcd_repro::harness;
pub use tcd_repro::report;
pub use tcd_repro::scenarios;

use harness::Sweep;
use lossless_flowctl::{SimDuration, SimTime};
use lossless_netsim::trace::PortSample;
use lossless_netsim::Simulator;
use lossless_netsim::{NodeId, TernaryState};
use lossless_stats::timeseries::{downsample, rate_series, RatePoint};
use lossless_stats::{mean, SizeBuckets};
use report::{f2, pct};
use scenarios::{victim, Cc, CcAlgo, Network};

/// Extract `(t, queue_bytes)` for one sampled egress.
pub fn queue_series(sim: &Simulator, node: NodeId, port: u16, prio: u8) -> Vec<(SimTime, u64)> {
    sim.trace
        .port_samples
        .iter()
        .filter(|s| s.node == node && s.port == port && s.prio == prio)
        .map(|s| (s.t, s.queue_bytes))
        .collect()
}

/// Extract the sending-rate series (Gbps per sample interval) for one
/// sampled egress.
pub fn port_rate_series(sim: &Simulator, node: NodeId, port: u16, prio: u8) -> Vec<RatePoint> {
    let cum: Vec<(SimTime, u64)> = sim
        .trace
        .port_samples
        .iter()
        .filter(|s| s.node == node && s.port == port && s.prio == prio)
        .map(|s| (s.t, s.tx_bytes))
        .collect();
    rate_series(&cum)
}

/// Extract the detector-state series for one sampled egress.
pub fn state_series(
    sim: &Simulator,
    node: NodeId,
    port: u16,
    prio: u8,
) -> Vec<(SimTime, TernaryState)> {
    sim.trace
        .port_samples
        .iter()
        .filter(|s| s.node == node && s.port == port && s.prio == prio)
        .map(|s| (s.t, s.state))
        .collect()
}

/// Print a queue/rate/state trace of one port as a compact table of at
/// most `rows` rows.
pub fn print_port_trace(
    sim: &Simulator,
    label: &str,
    node: NodeId,
    port: u16,
    prio: u8,
    rows: usize,
) {
    let samples: Vec<&PortSample> = sim
        .trace
        .port_samples
        .iter()
        .filter(|s| s.node == node && s.port == port && s.prio == prio)
        .collect();
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

/// Peak queue length (bytes) seen in the samples of one egress.
pub fn peak_queue(sim: &Simulator, node: NodeId, port: u16, prio: u8) -> u64 {
    queue_series(sim, node, port, prio)
        .iter()
        .map(|&(_, q)| q)
        .max()
        .unwrap_or(0)
}

/// Whether an egress was ever observed paused/credit-blocked.
pub fn ever_paused(sim: &Simulator, node: NodeId, port: u16, prio: u8) -> bool {
    sim.trace
        .port_samples
        .iter()
        .any(|s| s.node == node && s.port == port && s.prio == prio && s.paused)
}

/// Figures 15 (DCQCN) and 18 (TIMELY): FCT of victim flows under `algo`
/// with and without TCD. (a) Average slowdown by flow size at 100 KB
/// bursts; (b) average FCT and UE-flagged fraction against the burst size.
///
/// The burst-size × scheme grid runs on the parallel harness
/// (`--threads`); each worker reduces its run to per-bucket slowdown means
/// and summary metrics, and both tables come out of the submission-ordered
/// results — identical at any thread count. The 100 KB pair is shared
/// between (a) and (b) instead of being re-simulated.
pub fn victim_fct_figure(fig: u32, algo: CcAlgo) {
    const BURSTS_KB: [u64; 5] = [32, 64, 100, 150, 250];
    let args = report::ExpArgs::parse(1.0);
    let upper = format!("{algo:?}").to_uppercase();
    let lower = upper.to_lowercase();

    // Base one-way latency of the victim path S0 -> R0 (5 hops).
    let base = SimDuration::from_us(4) * 5 + SimDuration::from_us(2);
    let buckets = SizeBuckets::hadoop_buckets();

    let mut sweep = Sweep::new();
    for kb in BURSTS_KB {
        for tcd in [false, true] {
            let seed = args.seed;
            let name = if tcd {
                format!("{lower}+tcd")
            } else {
                lower.clone()
            };
            sweep.add(format!("{name}_{kb}kb"), move || {
                let r = victim::run(victim::Options {
                    network: Network::Cee,
                    use_tcd: tcd,
                    cc: Some(Cc { algo, tcd }),
                    burst_bytes: kb * 1024,
                    burst_gap: SimDuration::from_us(450),
                    load: 0.5,
                    seed,
                    ..Default::default()
                });
                let groups = SizeBuckets::hadoop_buckets().group(&r.victim_slowdowns(base));
                let ended =
                    |f: &&lossless_netsim::FlowId| r.sim.trace.flows[f.0 as usize].end.is_some();
                let mut metrics = vec![
                    (
                        "mean_fct_us".into(),
                        r.victim_mean_fct().unwrap_or(0.0) * 1e6,
                    ),
                    ("ue_fraction".into(), r.victim_ue_fraction()),
                    (
                        "completed_victims".into(),
                        r.victims.iter().filter(ended).count() as f64,
                    ),
                ];
                for (b, g) in groups.iter().enumerate() {
                    metrics.push((format!("slowdown_b{b}"), mean(g).unwrap_or(f64::NAN)));
                }
                harness::outcome_of(&r.sim, metrics)
            });
        }
    }
    let rep = sweep.run(args.threads);
    // Submission order: [plain, tcd] per burst size.
    let pair = |kb: u64| {
        let i = BURSTS_KB.iter().position(|&b| b == kb).unwrap() * 2;
        (&rep.results[i].outcome, &rep.results[i + 1].outcome)
    };

    // (a) FCT breakdown by size, 100 KB bursts.
    report::header(
        &format!("Fig. {fig}a"),
        &format!("victim FCT breakdown ({upper} vs {upper}+TCD)"),
    );
    let (plain, tcd) = pair(100);
    let mut t = report::Table::new(vec![
        "size bucket".to_string(),
        format!("{lower} avg slowdown"),
        format!("{lower}+tcd avg slowdown"),
    ]);
    for b in 0..buckets.len() {
        let cell = |o: &harness::RunOutcome| {
            let v = o.metric(&format!("slowdown_b{b}")).unwrap_or(f64::NAN);
            if v.is_finite() {
                f2(v)
            } else {
                "-".into()
            }
        };
        t.row(vec![buckets.label(b).to_string(), cell(plain), cell(tcd)]);
    }
    t.print();
    for (plus, o) in [("", plain), ("+tcd", tcd)] {
        print!(
            "{lower}{plus}: mean victim FCT {:.1} us",
            o.metric("mean_fct_us").unwrap_or(0.0)
        );
        // Only Fig. 15's committed output carries the completion count.
        if fig == 15 {
            let n = o.metric("completed_victims").unwrap_or(0.0) as u64;
            print!(" over {n} completed victims");
        }
        println!();
    }

    // (b) Varying burst size.
    report::header(
        &format!("Fig. {fig}b"),
        "victim avg FCT and UE fraction vs burst size",
    );
    let mut t = report::Table::new(vec![
        "burst KB".to_string(),
        format!("{lower} FCT us"),
        format!("{lower}+tcd FCT us"),
        "speedup".to_string(),
        "UE-flagged victims".to_string(),
    ]);
    for kb in BURSTS_KB {
        let (plain, tcd) = pair(kb);
        let f_plain = plain.metric("mean_fct_us").unwrap_or(0.0);
        let f_tcd = tcd.metric("mean_fct_us").unwrap_or(0.0);
        t.row(vec![
            kb.to_string(),
            format!("{f_plain:.1}"),
            format!("{f_tcd:.1}"),
            format!("{:.2}x", if f_tcd > 0.0 { f_plain / f_tcd } else { 0.0 }),
            pct(tcd.metric("ue_fraction").unwrap_or(0.0)),
        ]);
    }
    t.print();
}
