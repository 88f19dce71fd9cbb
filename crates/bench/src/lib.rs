//! Shared helpers for the per-figure experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of
//! *"Congestion Detection in Lossless Networks"* (SIGCOMM 2021); see
//! DESIGN.md for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results. All binaries accept `--scale <f>`,
//! `--seed <n>`, `--threads <n>` and `--full`; sweep-shaped binaries
//! (figs. 14/15/16/18/19) fan their independent runs out on the
//! deterministic parallel [`harness`]. Figs. 15 and 18 are one program
//! ([`victim_fct_figure`]) run with two congestion controllers, and so are
//! Figs. 16 and 19 ([`workload_fct_figure`]).

#![forbid(unsafe_code)]

pub use tcd_repro::harness;
pub use tcd_repro::report;
pub use tcd_repro::scenarios;

use harness::Sweep;
use lossless_flowctl::{SimDuration, SimTime};
use lossless_netsim::{FlowId, NodeId, Simulator, TernaryState};
use lossless_stats::timeseries::{downsample, rate_series, RatePoint};
use lossless_stats::{mean, SizeBuckets, SlowdownSummary};
use report::{f2, pct};
use scenarios::workload::{self, Workload};
use scenarios::{observation, victim, Cc, CcAlgo, Network};

/// Extract `(t, queue_bytes)` for one sampled egress.
pub fn queue_series(sim: &Simulator, node: NodeId, port: u16, prio: u8) -> Vec<(SimTime, u64)> {
    let samples = sim.trace.samples_of(node, port, prio);
    samples.iter().map(|s| (s.t, s.queue_bytes)).collect()
}

/// Extract the sending-rate series (Gbps per sample interval) for one
/// sampled egress.
pub fn port_rate_series(sim: &Simulator, node: NodeId, port: u16, prio: u8) -> Vec<RatePoint> {
    let samples = sim.trace.samples_of(node, port, prio);
    let cum: Vec<(SimTime, u64)> = samples.iter().map(|s| (s.t, s.tx_bytes)).collect();
    rate_series(&cum)
}

/// Extract the detector-state series for one sampled egress.
pub fn state_series(
    sim: &Simulator,
    node: NodeId,
    port: u16,
    prio: u8,
) -> Vec<(SimTime, TernaryState)> {
    let samples = sim.trace.samples_of(node, port, prio);
    samples.iter().map(|s| (s.t, s.state)).collect()
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

/// Peak queue length (bytes) seen in the samples of one egress.
pub fn peak_queue(sim: &Simulator, node: NodeId, port: u16, prio: u8) -> u64 {
    let samples = sim.trace.samples_of(node, port, prio);
    samples.iter().map(|s| s.queue_bytes).max().unwrap_or(0)
}

/// The frame Figs. 3, 4, 12 and 13 share: the §3.1 observation scenario
/// under one detector, on CEE and then on InfiniBand, with a header per
/// network; `body` prints that figure's tables from the completed run and
/// its data priority.
pub fn observation_figure(
    fig: &str,
    title: &str,
    multi_cp: bool,
    use_tcd: bool,
    body: impl Fn(&observation::Run, u8),
) {
    report::ExpArgs::parse_fixed();
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

/// Print the per-flow mark table of Figs. 3, 4 and 12: delivered packets
/// and the CE count and fraction of each named flow, with the UE count and
/// fraction beside them when `with_ue` (the TCD figures).
pub fn print_flow_marks(sim: &Simulator, flows: &[(&str, FlowId)], with_ue: bool) {
    let mut t = report::Table::new(if with_ue {
        vec!["flow", "pkts", "CE", "UE", "CE frac", "UE frac"]
    } else {
        vec!["flow", "pkts", "CE-marked", "CE frac"]
    });
    for &(name, f) in flows {
        let d = sim.trace.flows[f.0 as usize].delivered;
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

/// Figures 16 (DCQCN) and 19 (TIMELY): overall FCT slowdown under
/// realistic workloads with and without TCD, on the §5.2 fat-tree
/// ([`workload::Options::paper`]; the paper runs 40k flows, `--full`
/// restores that). Reported: median/95th/99th-percentile slowdown overall
/// and per size bucket, plus the improvement ratios.
///
/// These are the repo's heaviest runs, and the workload × scheme grid is
/// independent simulations — they fan out on the parallel harness
/// (`--threads`), each worker reducing its run to slowdown summaries, and
/// the tables print from the submission-ordered results.
///
/// The two committed outputs differ in what they carry, not in how it is
/// computed: Fig. 16 has a `mean` column, a supplementary cell (the
/// pause-heavy regime of production fabrics, where 8 % of the flow budget
/// arrives as synchronized partition-aggregate incasts), completion rates
/// and the paper's headline beside the ratios; Fig. 19 mixes 4 % incast
/// jobs into both workloads.
pub fn workload_fct_figure(fig: u32, algo: CcAlgo) {
    const STATS: [&str; 5] = ["count", "p50", "p95", "p99", "mean"];
    const FABRIC: &str = "fat-tree k=10, 60% load";
    let args = report::ExpArgs::parse(0.05);
    let flows = args.scaled(40_000, 500);
    let upper = format!("{algo:?}").to_uppercase();
    let lower = upper.to_lowercase();
    let schemes = [lower.clone(), format!("{lower}+tcd")];
    let fig16 = fig == 16;
    let grid: &[(Workload, f64)] = if fig16 {
        &[
            (Workload::Hadoop, 0.0),
            (Workload::WebSearch, 0.0),
            (Workload::Hadoop, 0.08),
        ]
    } else {
        &[(Workload::Hadoop, 0.04), (Workload::WebSearch, 0.04)]
    };

    let mut sweep = Sweep::new();
    for &(wl, incast) in grid {
        for (tcd, scheme) in [false, true].into_iter().zip(&schemes) {
            let seed = args.seed;
            let id = format!("{wl:?}_incast{incast}_{scheme}").to_lowercase();
            sweep.add(id, move || {
                let cc = Cc { algo, tcd };
                let r = workload::run(workload::Options::paper(cc, wl, incast, flows, seed));
                // Flatten each summary into `prefix:STATS` metrics (count 0
                // when the bucket is empty).
                let mut metrics = vec![("completion_rate".into(), r.completion_rate)];
                let mut push = |prefix: &str, s: &Option<SlowdownSummary>| {
                    let vals = match s {
                        Some(s) => [s.count as f64, s.p50, s.p95, s.p99, s.mean],
                        None => [0.0, f64::NAN, f64::NAN, f64::NAN, f64::NAN],
                    };
                    for (stat, v) in STATS.iter().zip(vals) {
                        metrics.push((format!("{prefix}:{stat}"), v));
                    }
                };
                push("all", &r.summary());
                for (b, s) in r.bucket_summaries(&wl.buckets()).iter().enumerate() {
                    push(&format!("b{b}"), s);
                }
                harness::outcome_of(&r.sim, metrics)
            });
        }
    }
    let rep = sweep.run(args.threads);

    // Only Fig. 16 prints the mean.
    let stats = &STATS[..if fig16 { 5 } else { 4 }];
    for (gi, &(wl, incast)) in grid.iter().enumerate() {
        let name = format!("{wl:?}");
        let title = if !fig16 {
            format!("{name} workload, {flows} flows ({upper} ± TCD)")
        } else if incast > 0.0 {
            let pc = incast * 100.0;
            format!("{name} + {pc:.0}% incast jobs (supplementary), {flows} flows, {FABRIC}")
        } else {
            format!("{name}, {flows} flows, {FABRIC}")
        };
        report::header(&format!("Fig. {fig}"), &title);

        // Submission order: [plain, tcd] per grid cell.
        let results = [
            &rep.results[gi * 2].outcome,
            &rep.results[gi * 2 + 1].outcome,
        ];
        let buckets = wl.buckets();
        let mut headers = vec!["bucket", "scheme", "n"];
        headers.extend(&stats[1..]);
        let mut t = report::Table::new(headers);
        let labels = std::iter::once(("ALL", "all".to_string()))
            .chain((0..buckets.len()).map(|b| (buckets.label(b), format!("b{b}"))));
        for (label, prefix) in labels {
            for (scheme, o) in schemes.iter().zip(results) {
                let stat = |s: &str| o.metric(&format!("{prefix}:{s}")).unwrap_or(f64::NAN);
                let count = stat("count") as u64;
                if count == 0 {
                    continue;
                }
                let mut row = vec![label.to_string(), scheme.clone(), count.to_string()];
                row.extend(stats[1..].iter().map(|s| f2(stat(s))));
                t.row(row);
            }
        }
        t.print();

        let [plain, tcd] = results;
        if let (Some(a50), Some(b50), Some(a99), Some(b99)) = (
            plain.metric("all:p50"),
            tcd.metric("all:p50"),
            plain.metric("all:p99"),
            tcd.metric("all:p99"),
        ) {
            print!(
                "improvement: median {:.2}x, p99 {:.2}x",
                a50 / b50,
                a99 / b99
            );
            if fig16 {
                println!(" (paper headline: 3.3x median, 2.0x p99)");
            } else {
                println!("\n");
            }
        }
        if fig16 {
            for (scheme, o) in schemes.iter().zip(results) {
                println!(
                    "{scheme}: completion rate {:.1}%",
                    o.metric("completion_rate").unwrap_or(0.0) * 100.0
                );
            }
            println!();
        }
    }
}
