//! The five workloads. One repetition is set-up, run and report, each
//! timed from outside through public functions only, followed by untimed
//! checks of what the simulator computed.

use crate::alloc;
use crate::gen::{self, FlowInput, Sender, LINK_DELAY, LINK_RATE};
use crate::quant;
use crate::spans::Spans;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use tcd_repro::flowctl::{SimDuration, SimTime};
use tcd_repro::harness::{self, RunOutcome, Sweep};
use tcd_repro::netsim::cchooks::FixedRate;
use tcd_repro::netsim::config::{DetectorKind, FeedbackMode};
use tcd_repro::netsim::topology::{fat_tree, figure2, Figure2Options};
use tcd_repro::netsim::Simulator;
use tcd_repro::obs::prof::{ProfConfig, ProfSummary};
use tcd_repro::obs::ObsLevel;
use tcd_repro::obs_export;
use tcd_repro::scenarios::{default_config, victim, Cc, CcAlgo, Network};
use tcd_repro::stats::{ideal_fct, SizeBuckets, SlowdownSummary};

/// A benchmark workload. The names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ft6Dcqcn,
    Ft6Ibcc,
    Fig2Storm,
    Ft6DcqcnObs,
    VictimSweep,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Ft6Dcqcn,
        Workload::Ft6Ibcc,
        Workload::Fig2Storm,
        Workload::Ft6DcqcnObs,
        Workload::VictimSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ft6Dcqcn => "ft6-dcqcn",
            Workload::Ft6Ibcc => "ft6-ibcc",
            Workload::Fig2Storm => "fig2-storm",
            Workload::Ft6DcqcnObs => "ft6-dcqcn-obs",
            Workload::VictimSweep => "victim-sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload is one simulator run (the sweep is many).
    pub fn is_sim(self) -> bool {
        self != Workload::VictimSweep
    }

    /// How often set-up and report are repeated inside one repetition, the
    /// fastest iteration being that repetition's value. Phases that take
    /// microseconds (24 boxed closures, a fingerprint over 18 flows) are
    /// mostly allocator calls, and on a shared host such code runs
    /// 1.3-1.6x slower for a good part of a second at a time while the
    /// pure-ALU canary moves by a few percent: a median of back-to-back
    /// iterations reads the spell it fell into, the fastest of hundreds
    /// reads the program (README.md, "End-to-end metrics"). Phases that
    /// take a good fraction of a second are steady as they are.
    fn phase_iters(self) -> (usize, usize) {
        match self {
            Workload::Fig2Storm => (129, 1025),
            Workload::VictimSweep => (2049, 257),
            _ => (1, 1),
        }
    }
}

/// How a repetition departs from the workload as named.
#[derive(Debug, Clone, Copy, Default)]
pub struct Variant {
    /// Swap every detector for `NullDetector` (`core.run_share`).
    pub null_detector: bool,
    /// Arm the simulator's profiler (the traced run).
    pub profile: bool,
    /// Sweep worker threads (`harness.par2_speedup`); 0 means 1.
    pub threads: usize,
}

/// The simulated statistics of one repetition, printed beside the timings
/// so that two commits can show their simulated results are identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    pub fingerprint: u64,
    pub events: u64,
    pub hops: u64,
    pub flows: u64,
    pub completed: u64,
    pub pause_frames: u64,
    /// Marks + deliveries + port samples recorded.
    pub records: u64,
    /// Further named statistics (slowdown percentiles, victim CE shares).
    pub notes: Vec<(String, f64)>,
}

/// Everything one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    pub report_s: f64,
    /// Peak live heap bytes over set-up + run + report, above what was
    /// live when the repetition began.
    pub peak_heap_bytes: u64,
    /// Allocations and bytes requested across the run phase.
    pub run_allocs: u64,
    pub run_alloc_bytes: u64,
    pub stats: SimStats,
    /// Operations attempted: one per simulator run or sweep cell.
    pub ops: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Wall milliseconds of each sweep cell.
    pub cell_ms: Vec<f64>,
    pub profile: Option<ProfSummary>,
}

/// Run `f` `iters` times and return its last output with the seconds of
/// the fastest iteration. Each output is dropped, untimed, before the next is built, so
/// the peak heap never holds two of them. Only the first iteration records
/// spans (under `name`).
fn timed_fastest<T>(
    iters: usize,
    spans: &mut Spans,
    name: &'static str,
    mut f: impl FnMut(&mut Spans) -> T,
) -> (T, f64) {
    let mut out = None;
    let mut secs = Vec::with_capacity(iters);
    let mut off = Spans::off();
    for i in 0..iters {
        drop(out.take());
        let t = Instant::now();
        out = Some(if i == 0 {
            spans.scope(name, &mut f)
        } else {
            f(&mut off)
        });
        secs.push(t.elapsed().as_secs_f64());
    }
    (out.expect("at least one iteration"), quant::fastest(&secs))
}

/// Time `f` as the run phase: its output, and a `Rep` holding the wall
/// seconds and the allocator's deltas across it.
fn timed_run<T>(spans: &mut Spans, f: impl FnOnce() -> T) -> (T, Rep) {
    let a0 = alloc::snapshot();
    let t = Instant::now();
    let out = spans.scope("run", |_| f());
    let run_s = t.elapsed().as_secs_f64();
    let a1 = alloc::snapshot();
    let cost = Rep {
        run_s,
        run_allocs: a1.allocs - a0.allocs,
        run_alloc_bytes: a1.bytes - a0.bytes,
        ..Rep::default()
    };
    (out, cost)
}

/// One repetition of `w` on inputs generated from `seed`.
pub fn rep(w: Workload, seed: u64, variant: Variant, spans: &mut Spans) -> Rep {
    let (setup_iters, report_iters) = w.phase_iters();
    let live0 = alloc::reset_peak();
    let mut out = if w.is_sim() {
        let (mut sim, setup_s) = timed_fastest(setup_iters, spans, "setup", |sp| {
            setup_sim(w, seed, variant, sp)
        });
        if variant.profile {
            sim.enable_profiler(ProfConfig::default());
        }
        let ((), run) = timed_run(spans, || sim.run());
        let (stats, report_s) =
            timed_fastest(report_iters, spans, "report", |sp| report_sim(w, &sim, sp));
        let mut failures = flow_violations(&sim);
        if sim.trace.drops != 0 {
            failures.push(format!("{} drops on a lossless fabric", sim.trace.drops));
        }
        if sim.trace.completed_count == 0 {
            failures.push("no flow completed".to_string());
        }
        if !failures.is_empty() {
            failures = vec![format!("{}: {}", w.name(), failures.join("; "))];
        }
        Rep {
            setup_s,
            report_s,
            stats,
            ops: 1,
            failures,
            profile: sim.profile(),
            ..run
        }
    } else {
        let (sweep, setup_s) = timed_fastest(setup_iters, spans, "setup", |_| victim_grid(seed));
        let (report, run) = timed_run(spans, || sweep.run(variant.threads.max(1)));
        let (stats, report_s) = timed_fastest(report_iters, spans, "report", |sp| {
            report_sweep(&report, sp)
        });
        Rep {
            setup_s,
            report_s,
            stats,
            ops: report.results.len() as u64,
            failures: sweep_failures(&report),
            cell_ms: report.results.iter().map(|r| r.wall_s * 1e3).collect(),
            ..run
        }
    };
    out.peak_heap_bytes = alloc::peak() - live0;
    out
}

// ---------------------------------------------------------------------------
// Simulator workloads
// ---------------------------------------------------------------------------

fn setup_sim(w: Workload, seed: u64, variant: Variant, sp: &mut Spans) -> Simulator {
    if w == Workload::Fig2Storm {
        let fig = sp.scope("setup.topology", |_| figure2(Figure2Options::default()));
        let flows = sp.scope("setup.generate", |_| gen::storm_flows(&fig, seed));
        let mut sim = sp.scope("setup.sim_new", |_| {
            let end = SimTime::from_ms(gen::STORM_END_MS);
            let mut cfg = default_config(Network::Cee, true, end);
            cfg.feedback = FeedbackMode::None;
            cfg.seed = seed;
            cfg.obs.level = ObsLevel::Off;
            if variant.null_detector {
                cfg.detector = DetectorKind::None;
            }
            Simulator::new(fig.topo, cfg, Network::Cee.routing())
        });
        sp.scope("setup.add_flows", |_| add_flows(&mut sim, &flows, None));
        return sim;
    }

    let (network, algo) = match w {
        Workload::Ft6Ibcc => (Network::Ib, CcAlgo::IbCc),
        _ => (Network::Cee, CcAlgo::Dcqcn),
    };
    let cc = Cc { algo, tcd: true };
    let ft = sp.scope("setup.topology", |_| fat_tree(6, LINK_RATE, LINK_DELAY));
    let flows = sp.scope("setup.generate", |_| gen::fat_tree_flows(&ft, seed));
    let mut sim = sp.scope("setup.sim_new", |_| {
        let mut cfg = default_config(network, true, SimTime::from_ms(5));
        cfg.feedback = cc.feedback();
        cfg.seed = seed;
        if w == Workload::Ft6DcqcnObs {
            // One uplink per edge switch: towards the first aggregation
            // switch of its pod.
            let half = ft.k / 2;
            cfg.trace_interval = Some(SimDuration::from_us(5));
            cfg.sample_ports = ft
                .edges
                .iter()
                .enumerate()
                .map(|(i, &e)| {
                    let up = ft.topo.port_towards(e, ft.aggs[i / half * half]);
                    (e, up.expect("edge links to its pod's aggs"), cfg.data_prio)
                })
                .collect();
        } else {
            cfg.obs.level = ObsLevel::Off;
        }
        let mut sim = Simulator::new(ft.topo, cfg, network.routing());
        if w == Workload::Ft6DcqcnObs {
            sim.record_marks(true);
            sim.record_deliveries(true);
        }
        sim
    });
    sp.scope("setup.add_flows", |_| add_flows(&mut sim, &flows, Some(cc)));
    sim
}

fn add_flows(sim: &mut Simulator, flows: &[FlowInput], cc: Option<Cc>) {
    for f in flows {
        let controller = match f.sender {
            Sender::Controlled => cc.expect("controlled flows need a CC").controller(),
            Sender::LineRate => Box::new(FixedRate::line_rate()),
            Sender::Fixed(r) => Box::new(FixedRate::new(r)),
        };
        sim.add_flow(f.src, f.dst, f.size, f.start, controller);
    }
}

/// Everything this workload's user gets once `run()` returns.
fn report_sim(w: Workload, sim: &Simulator, sp: &mut Spans) -> SimStats {
    let fingerprint = sp.scope("report.fingerprint", |_| harness::fingerprint_sim(sim));
    let (p50, p99) = sp.scope("report.stats", |_| {
        let slowdowns = slowdowns(sim);
        let all: Vec<f64> = slowdowns.iter().map(|&(_, s)| s).collect();
        let buckets = SizeBuckets::hadoop_buckets().group(&slowdowns);
        let per_bucket: Vec<_> = buckets.iter().map(|b| SlowdownSummary::of(b)).collect();
        std::hint::black_box(per_bucket);
        SlowdownSummary::of(&all).map_or((0.0, 0.0), |s| (s.p50, s.p99))
    });
    if w == Workload::Ft6DcqcnObs {
        let trace = sp.scope("report.export.perfetto", |_| {
            obs_export::perfetto_trace_json(sim)
        });
        let registry = sp.scope("report.export.registry", |_| obs_export::metrics_json(sim));
        let golden = sp.scope("report.export.golden", |_| {
            harness::golden_trace(sim, w.name())
        });
        std::hint::black_box((trace, registry, golden));
    }
    let t = &sim.trace;
    SimStats {
        fingerprint,
        events: t.events,
        hops: t.forwarded_pkts,
        flows: t.flows.len() as u64,
        completed: t.completed_count as u64,
        pause_frames: t.pause_frames,
        records: (t.marks.len() + t.deliveries.len() + t.port_samples.len()) as u64,
        notes: vec![
            ("slowdown_p50".to_string(), p50),
            ("slowdown_p99".to_string(), p99),
        ],
    }
}

/// Links on the path a completed flow took.
fn path_links(sim: &Simulator, rec: &tcd_repro::netsim::trace::FlowRecord) -> u64 {
    sim.routing()
        .path(sim.topology(), rec.src, rec.dst, rec.flow)
        .len() as u64
}

/// `(size, FCT slowdown)` of every completed flow against the idle-network
/// FCT: serialization at line rate plus per-hop propagation and
/// store-and-forward of one MTU (as `scenarios::workload` computes it).
fn slowdowns(sim: &Simulator) -> Vec<(u64, f64)> {
    let per_hop = LINK_DELAY + LINK_RATE.serialize_time(1000);
    sim.trace
        .completed()
        .filter_map(|rec| {
            let ideal = ideal_fct(rec.size, LINK_RATE, per_hop * path_links(sim, rec));
            Some((rec.size, rec.fct()?.as_secs_f64() / ideal.as_secs_f64()))
        })
        .collect()
}

/// Completed flows that break a physical bound: bytes delivered differ
/// from the flow's size, or the flow finished faster than serializing it
/// at the fastest link rate plus the propagation delay of its path.
fn flow_violations(sim: &Simulator) -> Vec<String> {
    let mut bad = Vec::new();
    for rec in sim.trace.completed() {
        if rec.delivered.bytes != rec.size {
            bad.push(format!(
                "flow {} delivered {} of {} bytes",
                rec.flow.0, rec.delivered.bytes, rec.size
            ));
        }
        let floor = ideal_fct(rec.size, LINK_RATE, LINK_DELAY * path_links(sim, rec));
        if rec.fct().is_some_and(|fct| fct < floor) {
            bad.push(format!("flow {} finished faster than light", rec.flow.0));
        }
    }
    bad.truncate(4);
    bad
}

// ---------------------------------------------------------------------------
// The sweep workload
// ---------------------------------------------------------------------------

/// The Table-3 victim grid: {cee, ib} x {baseline, TCD} x seeds 1..=6,
/// each cell a default 30 ms `scenarios::victim` run that builds its own
/// topology, routing and simulator — the cells `tcdsim sweep --seeds 6`
/// runs. The benchmark's seed decides the order in which they are
/// submitted (and so merged), not which cells there are: the peak heap of
/// a sweep is that of its hungriest cell, and which seeds happen to hold a
/// hungry cell would otherwise swing the metric by half from one
/// benchmark seed to the next.
fn victim_grid(seed: u64) -> Sweep {
    let mut cells = Vec::new();
    for network in [Network::Cee, Network::Ib] {
        for use_tcd in [false, true] {
            cells.extend((1..=6u64).map(|s| (network, use_tcd, s)));
        }
    }
    // Fisher-Yates.
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.gen_range(0..=i));
    }
    let mut sweep = Sweep::new();
    for (network, use_tcd, s) in cells {
        let net = if network == Network::Ib { "ib" } else { "cee" };
        let det = if use_tcd { "tcd" } else { "base" };
        sweep.add(format!("victim_{net}_{det}_s{s}"), move || {
            victim_cell(network, use_tcd, s)
        });
    }
    sweep
}

/// One cell, as `tcdsim sweep` runs it. The physical-bound check needs the
/// simulator, which does not outlive the cell, so the cell hands out the
/// two raw figures the check is made of — one pass over the flow records,
/// no routing lookup — and `sweep_failures` judges them untimed.
fn victim_cell(network: Network, use_tcd: bool, seed: u64) -> RunOutcome {
    let r = victim::run(victim::Options {
        network,
        use_tcd,
        seed,
        ..Default::default()
    });
    let t = &r.sim.trace;
    let size_mismatches = t.completed().filter(|f| f.delivered.bytes != f.size);
    let metrics = [
        ("victim_ce_fraction", r.victim_ce_fraction()),
        (
            "victim_mean_fct_us",
            r.victim_mean_fct().unwrap_or(0.0) * 1e6,
        ),
        ("pause_frames", t.pause_frames as f64),
        ("forwarded_pkts", t.forwarded_pkts as f64),
        ("drops", t.drops as f64),
        ("flows", t.flows.len() as f64),
        ("completed", t.completed_count as f64),
        ("size_mismatches", size_mismatches.count() as f64),
        ("min_fct_slack_ps", min_fct_slack_ps(t) as f64),
    ];
    let metrics = metrics.map(|(k, v)| (k.to_string(), v)).to_vec();
    harness::outcome_of(&r.sim, metrics)
}

/// The least any completed flow took beyond serializing itself at the
/// fastest link rate, in picoseconds (`u64::MAX` if none completed). No
/// path is shorter than two links, so less than two propagation delays is
/// faster than light.
fn min_fct_slack_ps(trace: &tcd_repro::netsim::trace::Trace) -> u64 {
    trace
        .completed()
        .filter_map(|f| {
            let serialize = LINK_RATE.serialize_time(f.size).as_ps();
            Some(f.fct()?.as_ps().saturating_sub(serialize))
        })
        .min()
        .unwrap_or(u64::MAX)
}

fn cell_metric(r: &harness::RunResult, name: &str) -> f64 {
    r.outcome.metric(name).unwrap_or(0.0)
}

/// `(network, detector)` of a cell, from its id `victim_<net>_<det>_s<n>`.
fn cell_kind(id: &str) -> (&str, &str) {
    let mut parts = id.split('_').skip(1);
    (parts.next().unwrap_or(""), parts.next().unwrap_or(""))
}

fn report_sweep(report: &harness::SweepReport, sp: &mut Spans) -> SimStats {
    let fingerprint = sp.scope("report.merge_fingerprint", |_| report.merged_fingerprint());
    let registry = sp.scope("report.merge_registry", |_| report.merged_registry());
    let json = sp.scope("report.to_json", |_| report.to_json());
    std::hint::black_box((registry, json));
    sp.scope("report.stats", |_| {
        let sum = |name: &str| -> u64 {
            report
                .results
                .iter()
                .map(|r| cell_metric(r, name) as u64)
                .sum()
        };
        // Table 3: the share of victim flows marked CE, per network and
        // detector, averaged over the seeds.
        let mut notes = Vec::new();
        for net in ["cee", "ib"] {
            for det in ["base", "tcd"] {
                let ce: Vec<f64> = report
                    .results
                    .iter()
                    .filter(|r| cell_kind(&r.id) == (net, det))
                    .map(|r| cell_metric(r, "victim_ce_fraction"))
                    .collect();
                let mean = ce.iter().sum::<f64>() / ce.len().max(1) as f64;
                notes.push((format!("victim_ce.{net}.{det}"), mean));
            }
        }
        SimStats {
            fingerprint,
            events: report.total_events(),
            hops: sum("forwarded_pkts"),
            flows: sum("flows"),
            completed: sum("completed"),
            pause_frames: sum("pause_frames"),
            records: 0,
            notes,
        }
    })
}

/// Failed cells, one line each, plus one line per network whose baseline
/// cells marked no victim at all (the paper's Table 3 has the baselines
/// marking some victims and TCD none).
fn sweep_failures(report: &harness::SweepReport) -> Vec<String> {
    let mut failures = Vec::new();
    for r in &report.results {
        let mut why = Vec::new();
        if cell_metric(r, "drops") != 0.0 {
            why.push("drops on a lossless fabric");
        }
        if cell_metric(r, "completed") == 0.0 {
            why.push("no flow completed");
        }
        if cell_metric(r, "size_mismatches") != 0.0 {
            why.push("a completed flow delivered other than its size");
        }
        if cell_metric(r, "min_fct_slack_ps") < (LINK_DELAY * 2).as_ps() as f64 {
            why.push("a completed flow finished faster than light");
        }
        if cell_kind(&r.id).1 == "tcd" && cell_metric(r, "victim_ce_fraction") >= 0.001 {
            why.push("TCD marked victim flows CE");
        }
        if !why.is_empty() {
            failures.push(format!("{}: {}", r.id, why.join("; ")));
        }
    }
    for net in ["cee", "ib"] {
        let mut base = report
            .results
            .iter()
            .filter(|r| cell_kind(&r.id) == (net, "base"));
        if base.all(|r| cell_metric(r, "victim_ce_fraction") == 0.0) {
            failures.push(format!(
                "victim_{net}_base: no baseline cell marked a victim"
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("ft6"), None);
        assert_eq!(cell_kind("victim_ib_tcd_s12"), ("ib", "tcd"));
    }

    #[test]
    fn timed_fastest_keeps_the_last_output_and_one_span() {
        let mut sp = Spans::on();
        let mut calls = 0;
        let (out, secs) = timed_fastest(5, &mut sp, "setup", |sp| {
            calls += 1;
            sp.scope("setup.topology", |_| calls)
        });
        assert_eq!((out, calls), (5, 5));
        assert!(secs >= 0.0);
        assert_eq!(
            sp.chrome_trace_json("t").matches("setup.topology").count(),
            1
        );
    }
}
