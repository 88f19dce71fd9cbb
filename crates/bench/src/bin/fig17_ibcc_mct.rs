//! Figure 17 — message completion time under IB CC ± TCD (§5.2.2).
//!
//! (a) Victim-flow MCT in the head-of-line scenario (messages larger than
//!     the BDP benefit from accurate detection: I/O messages are not
//!     throttled innocently).
//! (b) Overall average MCT on a fat-tree with D-mod-k routing, MPI (2–32
//!     KB, >50% at 2 KB) + 10% I/O (512 KB–4 MB) messages; the paper uses
//!     k = 16 with 1024 hosts and 80 k messages (scaled down by default;
//!     `--full` restores it) and reports a 1.22× overall improvement,
//!     up to 1.5× for 512 KB I/O messages.

use lossless_flowctl::{SimDuration, SimTime};
use lossless_stats::mean;
use tcd_bench::report::{self, f2};
use tcd_bench::scenarios::victim;
use tcd_bench::scenarios::workload::{run_hpc, HpcOptions};
use tcd_bench::scenarios::Network;

fn main() {
    let args = report::ExpArgs::parse(0.05);

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
            seed: args.seed,
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
        let a = lossless_stats::mean(&per_class[0][c]).unwrap_or(0.0);
        let b = lossless_stats::mean(&per_class[1][c]).unwrap_or(0.0);
        t.row(vec![
            labels[c].to_string(),
            format!("{a:.1}"),
            format!("{b:.1}"),
            format!("{:.2}x", if b > 0.0 { a / b } else { 0.0 }),
        ]);
    }
    t.print();

    // (b) Overall MCT on the HPC fat-tree.
    let k = if args.scale >= 1.0 { 16 } else { 8 };
    let messages = args.scaled(80_000, 1_000);
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
            seed: args.seed,
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
