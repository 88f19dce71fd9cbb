//! The §5.1.3 head-of-line victim scenario: Table 3, the ε sweep
//! (Fig. 14), victim FCT under DCQCN and TIMELY (Figs. 15 and 18) and the
//! design-choice ablations.

use super::Args;
use crate::harness::{self, Sweep};
use crate::report::{self, f2, pct};
use crate::scenarios::victim::{self, Options};
use crate::scenarios::{cee_tcd_config, Cc, CcAlgo, Network};
use lossless_flowctl::{Rate, SimDuration};
use lossless_netsim::config::DetectorKind;
use lossless_stats::{mean, SizeBuckets};
use tcd_core::baseline::RedConfig;
use tcd_core::detector::AdaptiveMaxTon;
use tcd_core::model::cee_max_ton;

/// Table 3 — victim flows mistakenly marked with CE (§5.1.3).
///
/// Head-of-line scenario: S0–T0 and S1–T0 links at 20 Gbps, no flows from
/// S2, so every S0 → R0 flow is a potential victim (its only congestion
/// exposure is pauses spreading from R1's incast). A flow counts as
/// "mistakenly detected as congested" when any of its delivered packets
/// carries CE.
///
/// Paper: ECN (CEE) 26.6%, TCD (CEE) 0%, FECN (IB) 13.5%, TCD (IB) 0%.
pub(super) fn tab3_victim_flows(a: &Args) {
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
            seed: a.seed,
            ..Default::default()
        };
        if network == Network::Cee {
            // Denser burst rounds for the Hadoop mix, matching the paper's
            // synchronous concurrent-burst generators.
            opt.burst_gap = SimDuration::from_us(450);
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
            opt.burst_gap = SimDuration::from_us(550);
            opt.load = 0.4;
            opt.io_fraction = 0.1;
        }
        let r = victim::run(opt);
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

/// Figure 14 — parameter sensitivity of ε (§5.1.4).
///
/// ε sets `max(T_on)` (larger ε → smaller bound). Too large an ε makes TCD
/// mistake the ON-OFF pattern for a continuous-ON pattern, so victim
/// packets get mistakenly CE-marked; too small an ε only defers detection.
/// The paper repeats the concurrent-burst scenario across ε and finds no
/// mistaken CE below ε ≈ 0.1, with mistakes growing for larger ε —
/// supporting the recommended ε = 0.05.
///
/// The ε × classifier grid is independent runs, so it goes through the
/// parallel harness (`--threads`); the table is reassembled from the
/// submission-ordered results and is identical at any thread count.
pub(super) fn fig14_epsilon_sensitivity(a: &Args) {
    const EPSILONS: [f64; 7] = [0.01, 0.025, 0.05, 0.1, 0.2, 0.4, 0.8];
    report::header(
        "Fig. 14",
        "mistakenly CE-marked victim packets vs epsilon (CEE, TCD)",
    );

    let mut sweep = Sweep::new();
    for eps in EPSILONS {
        for literal in [true, false] {
            let seed = a.seed;
            let kind = if literal { "literal" } else { "hardened" };
            sweep.add(format!("eps{eps}_{kind}"), move || {
                let r = victim::run(Options {
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
    let rep = sweep.run(a.threads);

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

/// Figure 15 — FCT performance for victim flows under DCQCN ± TCD
/// (§5.2.1).
///
/// (a) Average FCT breakdown by flow size in the victim scenario: DCQCN
///     with TCD completes victim flows faster because victims are never
///     mistakenly throttled, and congested flows back off harder, reducing
///     congestion spreading.
/// (b) Varying the concurrent burst size: as bursts grow, more victims are
///     marked undetermined; DCQCN+TCD's advantage is largest when
///     congestion is caused by interference of small flows.
pub(super) fn fig15_dcqcn_victim(a: &Args) {
    victim_fct_figure(15, CcAlgo::Dcqcn, a);
}

/// Figure 18 — FCT performance for victim flows under TIMELY ± TCD
/// (§5.2.3).
///
/// TIMELY cannot distinguish RTT inflation caused by congestion from
/// inflation caused by PAUSE frames, so it throttles victims. With TCD,
/// senders hold their rate when the RTT gradient is positive but the
/// packets only carry UE. The paper reports 2.2× / 2.3× better average FCT
/// for small (<10 KB) and large (>1 MB) victim flows, and a growing
/// UE-flagged fraction as the burst size grows.
pub(super) fn fig18_timely_victim(a: &Args) {
    victim_fct_figure(18, CcAlgo::Timely, a);
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
fn victim_fct_figure(fig: u32, algo: CcAlgo, a: &Args) {
    const BURSTS_KB: [u64; 5] = [32, 64, 100, 150, 250];
    let upper = format!("{algo:?}").to_uppercase();
    let lower = upper.to_lowercase();

    // Base one-way latency of the victim path S0 -> R0 (5 hops).
    let base = SimDuration::from_us(4) * 5 + SimDuration::from_us(2);
    let buckets = SizeBuckets::hadoop_buckets();

    let mut sweep = Sweep::new();
    for kb in BURSTS_KB {
        for tcd in [false, true] {
            let seed = a.seed;
            let name = if tcd {
                format!("{lower}+tcd")
            } else {
                lower.clone()
            };
            sweep.add(format!("{name}_{kb}kb"), move || {
                let r = victim::run(Options {
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
                let ended = |f: &&lossless_netsim::FlowId| r.sim.trace.flow(**f).end.is_some();
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
    let rep = sweep.run(a.threads);
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

/// Ablation study of TCD's design choices (paper §6 "Design tradeoff" and
/// §7 related work), on the victim-flow scenario:
///
/// * **static vs adaptive `max(T_on)`** — the paper argues a static bound
///   is enough; the adaptive estimator (EWMA of observed ON periods) is
///   the §6 alternative;
/// * **⑤-transition debounce** (`confirm_periods`) — robustness of the
///   undetermined → congestion classification;
/// * **paper-literal vs hardened trend windows** — see Fig. 14;
/// * **NP-ECN** (PCN, NSDI'20) — the related-work alternative that skips
///   marking packets whose wait overlapped a PAUSE, as an extra baseline
///   between plain ECN and TCD.
pub(super) fn abl_design_choices(a: &Args) {
    let base_opts = || Options {
        network: Network::Cee,
        use_tcd: true,
        burst_bytes: 100 * 1024,
        burst_gap: SimDuration::from_us(450),
        load: 0.5,
        seed: a.seed,
        ..Default::default()
    };
    report::header(
        "Ablation",
        "TCD design choices on the victim scenario (CEE)",
    );

    let tcd_cfg = cee_tcd_config(Rate::from_gbps(40), SimDuration::from_us(4), 0.05);
    let red = RedConfig::dcqcn_40g();

    let variants: Vec<(&str, DetectorKind)> = vec![
        ("ecn-red (baseline)", DetectorKind::EcnRed(red)),
        (
            "np-ecn (PCN)",
            DetectorKind::NpEcn {
                threshold_bytes: 200 * 1024,
            },
        ),
        (
            "tcd static (paper rec.)",
            DetectorKind::TcdRed(tcd_cfg, red),
        ),
        (
            "tcd literal windows",
            DetectorKind::TcdRed(tcd_cfg.literal(), red),
        ),
        (
            "tcd confirm=3",
            DetectorKind::TcdRed(tcd_cfg.with_confirm(3), red),
        ),
        (
            "tcd adaptive max(Ton)",
            DetectorKind::TcdRed(
                tcd_cfg.adaptive(AdaptiveMaxTon::default_for(tcd_cfg.max_ton)),
                red,
            ),
        ),
    ];

    let mut t = report::Table::new(vec![
        "variant",
        "victims CE-flagged",
        "victims UE-flagged",
        "victim pkts CE",
        "mean victim FCT us",
    ]);
    for (name, det) in variants {
        let r = victim::run_with_detector(base_opts(), det);
        let ce_flagged = r.victims_with(|d| d.ce > 0);
        let ue_flagged = r.victims_with(|d| d.ue > 0);
        let (mut pkts, mut ce) = (0u64, 0u64);
        for d in r.victim_deliveries() {
            pkts += d.pkts;
            ce += d.ce;
        }
        t.row(vec![
            name.to_string(),
            format!("{ce_flagged}/{}", r.victims.len()),
            format!("{ue_flagged}/{}", r.victims.len()),
            pct(if pkts == 0 {
                0.0
            } else {
                ce as f64 / pkts as f64
            }),
            format!("{:.1}", r.victim_mean_fct().unwrap_or(0.0) * 1e6),
        ]);
    }
    t.print();
    println!("(static TCD and its hardened variants keep victims clean; NP-ECN");
    println!(" improves on RED but cannot see through the ON-OFF rate masking)");

    // HPCC (INT-driven, no marking): its "CE" column is not applicable,
    // but its victim FCT shows whether utilization telemetry protects
    // victims. A paused hop reads as overutilized, so HPCC throttles
    // victims just like the delay/queue baselines (§7).
    report::header("Ablation", "HPCC (INT) on the same victim scenario");
    let r = victim::run(Options {
        use_tcd: false,
        cc: Some(Cc {
            algo: CcAlgo::Hpcc,
            tcd: false,
        }),
        ..base_opts()
    });
    println!(
        "hpcc: victims {} | mean victim FCT {:.1} us | pause frames {}",
        r.victims.len(),
        r.victim_mean_fct().unwrap_or(0.0) * 1e6,
        r.sim.trace.pause_frames
    );
}
