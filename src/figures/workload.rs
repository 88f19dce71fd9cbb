//! The fat-tree workloads: FCT slowdown under DCQCN and TIMELY (Figs. 16
//! and 19) and message completion under IB CC (Fig. 17). These are the
//! only figures with a default scale below the paper's; `--full` restores
//! it.

use super::Args;
use crate::harness::{self, Sweep};
use crate::report::{self, f2};
use crate::scenarios::workload::{self, run_hpc, HpcOptions, Workload};
use crate::scenarios::{victim, Cc, CcAlgo, Network};
use lossless_flowctl::{SimDuration, SimTime};
use lossless_stats::{mean, SlowdownSummary};

/// `full` (the paper's count) at `scale`, keeping at least `min`.
fn scaled(scale: f64, full: usize, min: usize) -> usize {
    ((full as f64 * scale).round() as usize).max(min)
}

/// Figure 16 — overall FCT slowdown under realistic workloads, DCQCN ±
/// TCD (§5.2.1).
///
/// Fat-tree k = 10 (250 hosts), 40 Gbps links, 4 µs delay, 60% average
/// load, Hadoop and WebSearch flow-size distributions, plus a
/// supplementary incast-heavy cell.
///
/// Expected shape: DCQCN+TCD wins, most strongly for small flows; the
/// paper quotes 3.3× median and 2.0× p99 improvements (Hadoop, small
/// flows: median 10.8 → 3.6).
pub(super) fn fig16_dcqcn_workloads(a: &Args) {
    workload_fct_figure(16, CcAlgo::Dcqcn, a);
}

/// Figure 19 — overall FCT slowdown under realistic workloads, TIMELY ±
/// TCD (§5.2.3). Same network settings as Fig. 16.
///
/// Expected shape: TIMELY with TCD improves median and tail slowdowns,
/// especially for small and medium flows (the paper quotes Hadoop <50 KB
/// p99 going from 50.3 to 36.6).
pub(super) fn fig19_timely_workloads(a: &Args) {
    workload_fct_figure(19, CcAlgo::Timely, a);
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
fn workload_fct_figure(fig: u32, algo: CcAlgo, a: &Args) {
    const STATS: [&str; 5] = ["count", "p50", "p95", "p99", "mean"];
    const FABRIC: &str = "fat-tree k=10, 60% load";
    let flows = scaled(a.scale, 40_000, 500);
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
            let seed = a.seed;
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
    let rep = sweep.run(a.threads);

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

/// Figure 17 — message completion time under IB CC ± TCD (§5.2.2).
///
/// (a) Victim-flow MCT in the head-of-line scenario (messages larger than
///     the BDP benefit from accurate detection: I/O messages are not
///     throttled innocently).
/// (b) Overall average MCT on a fat-tree with D-mod-k routing, MPI (2–32
///     KB, >50% at 2 KB) + 10% I/O (512 KB–4 MB) messages; the paper uses
///     k = 16 with 1024 hosts and 80 k messages (scaled down by default;
///     `--full` restores it) and reports a 1.22× overall improvement,
///     up to 1.5× for 512 KB I/O messages.
pub(super) fn fig17_ibcc_mct(a: &Args) {
    // (a) Victim MCT, broken down by message class. Heavier bursts than
    // the Table-3 detection study so FECN's mistaken throttling of victims
    // actually costs throughput (message sizes exceed the BDP, so the
    // benefit comes from accurate detection — §5.2.2).
    report::header("Fig. 17a", "victim message completion (IB CC vs IB CC+TCD)");
    let mut t = report::Table::new(vec![
        "class",
        "ibcc mean MCT us",
        "ibcc+tcd mean MCT us",
        "speedup",
    ]);
    let mut per_class: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); 3]; 2];
    let labels = ["MPI (2-32KB)", "I/O <=1MB", "I/O >1MB"];
    let class = |size: u64| -> usize {
        if size <= 32 * 1024 {
            0
        } else if size <= 1024 * 1024 {
            1
        } else {
            2
        }
    };
    for (i, tcd) in [false, true].into_iter().enumerate() {
        let r = victim::run(victim::Options {
            network: Network::Ib,
            use_tcd: tcd,
            burst_gap: SimDuration::from_us(700),
            load: 0.3,
            io_fraction: 0.1,
            seed: a.seed,
            ..Default::default()
        });
        for f in &r.victims {
            let rec = &r.sim.trace.flows[f.0 as usize];
            if let Some(fct) = rec.fct() {
                per_class[i][class(rec.size)].push(fct.as_secs_f64() * 1e6);
            }
        }
    }
    for c in 0..3 {
        let a = mean(&per_class[0][c]).unwrap_or(0.0);
        let b = mean(&per_class[1][c]).unwrap_or(0.0);
        t.row(vec![
            labels[c].to_string(),
            format!("{a:.1}"),
            format!("{b:.1}"),
            format!("{:.2}x", if b > 0.0 { a / b } else { 0.0 }),
        ]);
    }
    t.print();

    // (b) Overall MCT on the HPC fat-tree: the paper's k = 16 under
    // `--full`, k = 8 at the default scale.
    let k = if a.full { 16 } else { 8 };
    let messages = scaled(a.scale, 80_000, 1_000);
    report::header(
        "Fig. 17b",
        &format!("overall MCT, fat-tree k={k}, {messages} messages, 10% I/O, D-mod-k"),
    );
    let mut runs = Vec::new();
    for tcd in [false, true] {
        let r = run_hpc(HpcOptions {
            cc: Network::Ib.cc(tcd),
            use_tcd: tcd,
            k,
            messages,
            io_fraction: 0.1,
            seed: a.seed,
            deadline: SimTime::from_ms(2_000),
        });
        runs.push((if tcd { "ibcc+tcd" } else { "ibcc" }, r));
    }
    let mut t = report::Table::new(vec![
        "class",
        "ibcc mean slowdown",
        "ibcc+tcd mean slowdown",
    ]);
    let class = |size: u64| -> usize {
        if size <= 32 * 1024 {
            0 // MPI
        } else if size <= 512 * 1024 {
            1
        } else if size <= 1024 * 1024 {
            2
        } else if size <= 2 * 1024 * 1024 {
            3
        } else {
            4
        }
    };
    let labels = ["MPI (2-32KB)", "512KB I/O", "1MB I/O", "2MB I/O", "4MB I/O"];
    let mut grouped: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); 5]; 2];
    for (i, (_, r)) in runs.iter().enumerate() {
        for &(size, s) in &r.slowdowns {
            grouped[i][class(size)].push(s);
        }
    }
    for c in 0..5 {
        t.row(vec![
            labels[c].to_string(),
            mean(&grouped[0][c]).map(f2).unwrap_or_else(|| "-".into()),
            mean(&grouped[1][c]).map(f2).unwrap_or_else(|| "-".into()),
        ]);
    }
    t.print();
    let all: Vec<f64> = runs[0].1.slowdowns.iter().map(|&(_, s)| s).collect();
    let all_tcd: Vec<f64> = runs[1].1.slowdowns.iter().map(|&(_, s)| s).collect();
    if let (Some(a), Some(b)) = (mean(&all), mean(&all_tcd)) {
        println!("overall mean improvement: {:.2}x (paper: 1.22x)", a / b);
    }
    for (name, r) in &runs {
        println!("{name}: completion rate {:.1}%", r.completion_rate * 100.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_respects_minimum() {
        assert_eq!(scaled(0.01, 40_000, 100), 400);
        assert_eq!(scaled(0.01, 50, 100), 100);
    }
}
