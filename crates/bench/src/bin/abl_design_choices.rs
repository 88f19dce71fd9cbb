//! Ablation study of TCD's design choices (paper §6 "Design tradeoff" and
//! §7 related work), on the victim-flow scenario:
//!
//! * **static vs adaptive `max(T_on)`** — the paper argues a static bound
//!   is enough; the adaptive estimator (EWMA of observed ON periods) is
//!   the §6 alternative;
//! * **⑤-transition debounce** (`confirm_periods`) — robustness of the
//!   undetermined → congestion classification;
//! * **paper-literal vs hardened trend windows** — see Fig. 14;
//! * **NP-ECN** (PCN, NSDI'20) — the related-work alternative that skips
//!   marking packets whose wait overlapped a PAUSE, as an extra baseline
//!   between plain ECN and TCD.

use lossless_flowctl::{Rate, SimDuration};
use lossless_netsim::config::DetectorKind;
use tcd_bench::report::{self, pct};
use tcd_bench::scenarios::victim::{self, Options};
use tcd_bench::scenarios::{cee_tcd_config, Cc, CcAlgo, Network};
use tcd_core::baseline::RedConfig;
use tcd_core::detector::AdaptiveMaxTon;

fn base_opts(seed: u64) -> Options {
    Options {
        network: Network::Cee,
        use_tcd: true,
        burst_bytes: 100 * 1024,
        burst_gap: SimDuration::from_us(450),
        load: 0.5,
        seed,
        ..Default::default()
    }
}

fn run_with(detector: DetectorKind, seed: u64) -> victim::Run {
    let mut opt = base_opts(seed);
    // Build through the standard path, then override the detector.
    opt.use_tcd = true;
    let mut r = victim::run_with_detector(opt, detector);
    r.sim.trace.record_marks = false;
    r
}

fn main() {
    let args = report::ExpArgs::parse(1.0);
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
        let r = run_with(det, args.seed);
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
    let mut opt = base_opts(args.seed);
    opt.use_tcd = false;
    opt.cc = Some(Cc {
        algo: CcAlgo::Hpcc,
        tcd: false,
    });
    let r = victim::run(opt);
    println!(
        "hpcc: victims {} | mean victim FCT {:.1} us | pause frames {}",
        r.victims.len(),
        r.victim_mean_fct().unwrap_or(0.0) * 1e6,
        r.sim.trace.pause_frames
    );
}
