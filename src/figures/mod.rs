//! The paper's evaluation as one table: every row of [`FIGURES`] prints
//! one table or figure of *"Congestion Detection in Lossless Networks"*
//! (SIGCOMM 2021) to stdout, and `results/<name>.txt` is that output at
//! the default arguments. `tcdsim fig <name>` runs a row; DESIGN.md maps
//! each figure to the modules it exercises and EXPERIMENTS.md compares it
//! with the paper.
//!
//! The printers are grouped by the scenario family they drive:
//! [`observation`] (the §3.1 Figure-2 scenarios, the testbed and the
//! fairness run), [`flowctl`] (lossy vs lossless, the ON-OFF model and
//! practical ON periods), [`victim`] (the head-of-line victim scenario)
//! and [`workload`] (the fat-tree workloads). Sweep-shaped figures fan
//! their independent runs out on the deterministic [`harness`], so their
//! output is identical at any `--threads`.
//!
//! [`harness`]: crate::harness

mod flowctl;
mod observation;
mod victim;
mod workload;

use lossless_netsim::{NodeId, Simulator};
use lossless_stats::timeseries::{rate_series, RatePoint};

/// What a row's printer is handed: the command line's values resolved
/// against the row.
struct Args {
    seed: u64,
    threads: usize,
    /// `--full`: run at the paper's own scale.
    full: bool,
    /// Work scale relative to the paper's set-up: 1.0 under `--full`,
    /// else the row's default.
    scale: f64,
}

/// One table or figure of the paper's evaluation.
pub struct Figure {
    /// The one name of this figure (also its `results/` file stem).
    pub name: &'static str,
    /// What it shows.
    pub about: &'static str,
    /// Whether `--seed` changes its output.
    pub seed: bool,
    /// Whether its runs fan out on `--threads` workers.
    pub threads: bool,
    /// Its default work scale, if it has one; `--full` (scale 1.0) is
    /// honoured exactly by the rows that do.
    pub scale: Option<f64>,
    print: fn(&Args),
}

impl Figure {
    /// A row whose set-up is fixed, honouring none of the flags; the three
    /// methods below record what a row honours otherwise.
    const fn new(name: &'static str, about: &'static str, print: fn(&Args)) -> Figure {
        Figure {
            name,
            about,
            seed: false,
            threads: false,
            scale: None,
            print,
        }
    }

    /// Its runs draw from `--seed`.
    const fn seeded(self) -> Figure {
        Figure { seed: true, ..self }
    }

    /// Its independent runs fan out on `--threads` workers.
    const fn threaded(self) -> Figure {
        Figure {
            threads: true,
            ..self
        }
    }

    /// It runs at `scale` of the paper's work unless `--full` is given.
    const fn scaled(self, scale: f64) -> Figure {
        Figure {
            scale: Some(scale),
            ..self
        }
    }

    /// Whether command-line `flag` changes what this row prints.
    pub fn honours(&self, flag: &str) -> bool {
        match flag {
            "--seed" => self.seed,
            "--threads" => self.threads,
            "--full" => self.scale.is_some(),
            _ => false,
        }
    }

    /// Print the figure from runs at `seed` on `threads` workers, at the
    /// paper's own scale when `full`.
    pub fn print(&self, seed: u64, threads: usize, full: bool) {
        let scale = match self.scale {
            Some(scale) if !full => scale,
            _ => 1.0,
        };
        (self.print)(&Args {
            seed,
            threads,
            full,
            scale,
        });
    }
}

/// Every figure, in the paper's order. README.md's "Reproducing the
/// paper" table is the prose copy of this array.
pub static FIGURES: [Figure; 17] = [
    Figure::new(
        "fig00_lossless_motivation",
        "§1 premise: incast tails on lossy vs lossless Ethernet",
        flowctl::fig00_lossless_motivation,
    )
    .seeded(),
    Figure::new(
        "fig03_single_cp",
        "single congestion point: PAUSE-built queue, improper ECN/FECN marks",
        observation::fig03_single_cp,
    ),
    Figure::new(
        "fig04_multi_cp",
        "multiple congestion points: the masked input rate of a covered root",
        observation::fig04_multi_cp,
    ),
    Figure::new(
        "fig08_ton_surface",
        "the T_on(eps, R_d) surface of the ON-OFF model",
        flowctl::fig08_ton_surface,
    ),
    Figure::new(
        "fig10_on_periods",
        "practical ON periods under PFC and CBFC vs the max(T_on) bound",
        flowctl::fig10_on_periods,
    ),
    Figure::new(
        "fig11_testbed",
        "the testbed marking timeline of F0 (simulated)",
        observation::fig11_testbed,
    ),
    Figure::new(
        "fig12_tcd_single_cp",
        "TCD, single congestion point: undetermined -> non-congestion",
        observation::fig12_tcd_single_cp,
    ),
    Figure::new(
        "fig13_tcd_multi_cp",
        "TCD, multiple congestion points: undetermined -> congestion",
        observation::fig13_tcd_multi_cp,
    ),
    Figure::new(
        "tab3_victim_flows",
        "Table 3: victim flows mistakenly marked CE",
        victim::tab3_victim_flows,
    )
    .seeded(),
    Figure::new(
        "fig14_epsilon_sensitivity",
        "mistaken CE marks vs epsilon, literal and hardened classifier",
        victim::fig14_epsilon_sensitivity,
    )
    .seeded()
    .threaded(),
    Figure::new(
        "fig15_dcqcn_victim",
        "victim FCT under DCQCN +- TCD, by size and burst size",
        victim::fig15_dcqcn_victim,
    )
    .seeded()
    .threaded(),
    Figure::new(
        "fig16_dcqcn_workloads",
        "fat-tree FCT slowdown under DCQCN +- TCD, Hadoop and WebSearch",
        workload::fig16_dcqcn_workloads,
    )
    .seeded()
    .threaded()
    .scaled(0.05),
    Figure::new(
        "fig17_ibcc_mct",
        "message completion times under IB CC +- TCD",
        workload::fig17_ibcc_mct,
    )
    .seeded()
    .scaled(0.05),
    Figure::new(
        "fig18_timely_victim",
        "victim FCT under TIMELY +- TCD, by size and burst size",
        victim::fig18_timely_victim,
    )
    .seeded()
    .threaded(),
    Figure::new(
        "fig19_timely_workloads",
        "fat-tree FCT slowdown under TIMELY +- TCD, Hadoop and WebSearch",
        workload::fig19_timely_workloads,
    )
    .seeded()
    .threaded()
    .scaled(0.05),
    Figure::new(
        "fig20_fairness",
        "rate hold under UE, fair-share convergence after the root emerges",
        observation::fig20_fairness,
    ),
    Figure::new(
        "abl_design_choices",
        "ablations: adaptive max(T_on), debounce, literal windows, NP-ECN, HPCC",
        victim::abl_design_choices,
    )
    .seeded(),
];

/// The row called `name`: the one lookup `tcdsim fig` resolves through.
pub fn by_name(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// The table as the indented `name  about` lines `tcdsim fig` prints when
/// a figure name is missing or unknown.
pub fn listing() -> String {
    FIGURES
        .iter()
        .map(|f| format!("  {:26} {}\n", f.name, f.about))
        .collect()
}

/// The sending-rate series (Gbps per sample interval) of one sampled
/// egress.
fn port_rate_series(sim: &Simulator, node: NodeId, port: u16, prio: u8) -> Vec<RatePoint> {
    let samples = sim.trace.samples_of(node, port, prio);
    let cum: Vec<_> = samples.iter().map(|s| (s.t, s.tx_bytes)).collect();
    rate_series(&cum)
}
