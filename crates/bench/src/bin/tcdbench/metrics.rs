//! The metric tables (names, units, bounds — mirrored in `BENCHMARK.json`),
//! the results of one set of runs, and how per-layer values are derived
//! from them.

use crate::quant::{fastest, median, Summary};
use crate::spans::Spans;
use crate::workloads::{Rep, SimStats, Workload};
use std::collections::BTreeMap;

/// An end-to-end metric: host time or memory a user of the simulator
/// sees. Lower is better for all of them. `bound` is the share of the
/// baseline by which the metric may get worse before a change counts as
/// a regression (the figure in `BENCHMARK.json`). The bounds are as wide
/// as they are because of the host, not the program: see "Protocol" in
/// README.md. `floor` is an absolute allowance in the metric's unit for
/// `--repeat`: set-up and report take microseconds on `fig2-storm` and
/// `victim-sweep`, where a share of the baseline would gate on the timer.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
    pub floor: f64,
}

impl EndToEnd {
    /// By how much the metric may exceed `baseline` before it counts as
    /// worse: `bound` of it, or `floor`, whichever is larger.
    pub fn allowance(&self, baseline: f64) -> f64 {
        (self.bound * baseline).max(self.floor)
    }
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        floor: 0.010,
    },
    EndToEnd {
        name: "run_wall_s",
        unit: "s",
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "report_s",
        unit: "s",
        bound: 0.25,
        floor: 0.010,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        bound: 0.1,
        floor: 0.0,
    },
];

/// Per-layer metrics as `(name, unit)`. A metric a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("event.hold_ns.n1k", "ns"),
    ("event.hold_ns.n360k", "ns"),
    ("event.fill_ns", "ns"),
    ("sim.events", "count"),
    ("sim.events_per_hop", "ratio"),
    ("sim.ns_per_event", "ns"),
    ("sim.mhops_per_s", "M/s"),
    ("sim.allocs_per_kevent", "count"),
    ("sim.alloc_kb_per_kevent", "KB"),
    ("sim.share.port_tx", "ratio"),
    ("sim.share.packet_arrival", "ratio"),
    ("sim.share.cc_timer", "ratio"),
    ("sim.share.other", "ratio"),
    ("switch.dispatch_ns", "ns"),
    ("ibswitch.dispatch_ns", "ns"),
    ("host.dispatch_ns", "ns"),
    ("switch.share", "ratio"),
    ("ibswitch.share", "ratio"),
    ("host.share", "ratio"),
    ("flowctl.pfc_pair_ns", "ns"),
    ("flowctl.cbfc_pair_ns", "ns"),
    ("flowctl.pause_frames", "count"),
    ("core.tcd_dequeue_ns", "ns"),
    ("core.tcd_onoff_dequeue_ns", "ns"),
    ("core.ecn_dequeue_ns", "ns"),
    ("core.fecn_dequeue_ns", "ns"),
    ("core.tcd_over_ecn", "ratio"),
    ("core.run_share", "ratio"),
    ("cc.dcqcn_event_ns", "ns"),
    ("cc.ibcc_event_ns", "ns"),
    ("cc.timely_event_ns", "ns"),
    ("topology.fat_tree_ms.k6", "ms"),
    ("routing.build_ms.k6", "ms"),
    ("routing.out_port_ns", "ns"),
    ("workloads.gen_ms", "ms"),
    ("workloads.sample_ns", "ns"),
    ("setup.topology_ms", "ms"),
    ("setup.sim_new_ms", "ms"),
    ("setup.add_flows_ms", "ms"),
    ("setup.cold_ms", "ms"),
    ("obs.run_ratio", "ratio"),
    ("obs.prof_ratio", "ratio"),
    ("obs.perfetto_ms", "ms"),
    ("obs.registry_json_ms", "ms"),
    ("obs.golden_trace_ms", "ms"),
    ("trace.records", "count"),
    ("harness.cell_ms.p50", "ms"),
    ("harness.merge_ms", "ms"),
    ("harness.to_json_ms", "ms"),
    ("harness.fingerprint_ms", "ms"),
    ("harness.par2_speedup", "ratio"),
    ("stats.summary_ms", "ms"),
    ("host.canary_ns", "ns"),
];

/// The traced run of one workload: one more repetition with the span
/// recorder on (and, for a simulator workload, the profiler armed).
pub struct Traced {
    pub rep: Rep,
    pub spans: Spans,
}

/// Everything measured on one workload in one set of runs.
pub struct WorkloadResult {
    pub workload: Workload,
    /// The untimed warm-up, also the reference every later repetition's
    /// fingerprint and event count are checked against.
    pub cold: Rep,
    pub reps: Vec<Rep>,
    pub traced: Option<Traced>,
    /// `run_wall_s` of reference variants: `fig2-storm` with
    /// `NullDetector`, the obs-Off twin of `ft6-dcqcn-obs`, the sweep on
    /// two threads, a simulator workload with the profiler armed. Empty
    /// where the workload has no such variant.
    pub null_run_s: Vec<f64>,
    pub twin_run_s: Vec<f64>,
    pub par2_run_s: Vec<f64>,
    pub profiled_run_s: Vec<f64>,
    /// Operations attempted and failed over every repetition above.
    pub ops_attempted: u64,
    pub failures: Vec<String>,
}

impl WorkloadResult {
    pub fn ops_failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.ops_attempted)
    }

    /// The simulated statistics every repetition must reproduce.
    pub fn stats(&self) -> &SimStats {
        &self.cold.stats
    }

    /// The samples of one end-to-end metric over the timed repetitions.
    pub fn samples(&self, metric: &str) -> Vec<f64> {
        let pick = |r: &Rep| match metric {
            "setup_s" => r.setup_s,
            "run_wall_s" => r.run_s,
            "report_s" => r.report_s,
            "peak_heap_mb" => r.peak_heap_bytes as f64 / (1024.0 * 1024.0),
            other => unreachable!("no end-to-end metric called {other}"),
        };
        self.reps.iter().map(pick).collect()
    }

    pub fn summary(&self, metric: &str) -> Option<Summary> {
        Summary::of(&self.samples(metric))
    }

    /// The reported value of an end-to-end metric: the best (lowest)
    /// repetition. Other tenants of a shared host only ever add time, in
    /// bursts of seconds, so the fastest of a dozen repetitions of the
    /// same deterministic work repeats from run to run far better than
    /// their median does (README.md, "Protocol", has the measurements).
    pub fn best(&self, metric: &str) -> f64 {
        fastest(&self.samples(metric))
    }
}

/// One set of runs.
pub struct Suite {
    pub seed: u64,
    pub results: Vec<WorkloadResult>,
    /// Workload-independent layer metrics (empty unless traced).
    pub layers: Vec<(&'static str, f64)>,
    /// `host.canary_ns` samples taken before, between and after rounds.
    pub canary: Vec<f64>,
}

impl Suite {
    pub fn result(&self, w: Workload) -> Option<&WorkloadResult> {
        self.results.iter().find(|r| r.workload == w)
    }

    /// Whether the host was too unsteady for a timing to be compared: the
    /// canary kernel, which nothing in the repository can move, spread by
    /// more than 10 % of its median between its quartiles.
    pub fn noisy(&self) -> bool {
        Summary::of(&self.canary).is_some_and(|s| s.spread() > 0.10)
    }

    pub fn ops_attempted(&self) -> u64 {
        self.results.iter().map(|r| r.ops_attempted).sum()
    }

    pub fn ops_failed(&self) -> u64 {
        self.results.iter().map(|r| r.ops_failed()).sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer metric of `wr` as `(name, unit, value)`, in
/// [`PER_LAYER`] order.
pub fn per_layer(suite: &Suite, wr: &WorkloadResult) -> Vec<(&'static str, &'static str, f64)> {
    let mut m: BTreeMap<&str, f64> = suite.layers.iter().copied().collect();
    m.insert("host.canary_ns", median(&suite.canary));

    let st = wr.stats();
    let run_s = wr.best("run_wall_s");
    let events = st.events as f64;
    m.insert("sim.events", events);
    m.insert("sim.events_per_hop", ratio(events, st.hops as f64));
    m.insert("sim.ns_per_event", ratio(run_s * 1e9, events));
    m.insert("sim.mhops_per_s", ratio(st.hops as f64 / 1e6, run_s));
    // Allocation counts are exact; the warm-up's include one-off lazy
    // initialisation, so a timed repetition's are reported.
    let kevents = events / 1e3;
    let warm = wr.reps.last().unwrap_or(&wr.cold);
    m.insert(
        "sim.allocs_per_kevent",
        ratio(warm.run_allocs as f64, kevents),
    );
    m.insert(
        "sim.alloc_kb_per_kevent",
        ratio(warm.run_alloc_bytes as f64 / 1024.0, kevents),
    );
    m.insert("flowctl.pause_frames", st.pause_frames as f64);
    m.insert("trace.records", st.records as f64);
    m.insert("setup.cold_ms", wr.cold.setup_s * 1e3);

    if !wr.null_run_s.is_empty() {
        m.insert(
            "core.run_share",
            1.0 - ratio(fastest(&wr.null_run_s), run_s),
        );
    }
    // Where the set of runs includes `ft6-dcqcn` itself, its repetitions
    // are the obs-Off twin.
    if wr.workload == Workload::Ft6DcqcnObs {
        let twin = match suite.result(Workload::Ft6Dcqcn) {
            Some(off) => off.best("run_wall_s"),
            None => fastest(&wr.twin_run_s),
        };
        m.insert("obs.run_ratio", ratio(run_s, twin));
    }
    if !wr.par2_run_s.is_empty() {
        m.insert(
            "harness.par2_speedup",
            ratio(run_s, fastest(&wr.par2_run_s)),
        );
    }
    let cells: Vec<f64> = wr
        .reps
        .iter()
        .flat_map(|r| r.cell_ms.iter().copied())
        .collect();
    m.insert("harness.cell_ms.p50", median(&cells));

    if let Some(t) = &wr.traced {
        let ms = |span: &str| t.spans.seconds(span) * 1e3;
        m.insert("setup.topology_ms", ms("setup.topology"));
        m.insert("workloads.gen_ms", ms("setup.generate"));
        m.insert("setup.sim_new_ms", ms("setup.sim_new"));
        m.insert("setup.add_flows_ms", ms("setup.add_flows"));
        m.insert("obs.perfetto_ms", ms("report.export.perfetto"));
        m.insert("obs.registry_json_ms", ms("report.export.registry"));
        m.insert("obs.golden_trace_ms", ms("report.export.golden"));
        m.insert("harness.merge_ms", ms("report.merge_registry"));
        m.insert("harness.to_json_ms", ms("report.to_json"));
        m.insert(
            "harness.fingerprint_ms",
            ms("report.fingerprint") + ms("report.merge_fingerprint"),
        );
        m.insert("stats.summary_ms", ms("report.stats"));
        if let Some(p) = &t.rep.profile {
            m.insert("obs.prof_ratio", ratio(fastest(&wr.profiled_run_s), run_s));
            let kinds = p.sampled_total_ns() as f64;
            let mut other = 1.0;
            for (kind, name) in [
                ("port_tx", "sim.share.port_tx"),
                ("packet_arrival", "sim.share.packet_arrival"),
                ("cc_timer", "sim.share.cc_timer"),
            ] {
                let spent = p.per_kind.iter().find(|k| k.name.ends_with(kind));
                let share = ratio(spent.map_or(0, |k| k.total_ns) as f64, kinds);
                other -= share;
                m.insert(name, share);
            }
            m.insert("sim.share.other", other.max(0.0));
            let classes: u64 = p.per_class.iter().map(|c| c.total_ns).sum();
            for (class, ns_name, share) in [
                ("eth_switch", "switch.dispatch_ns", "switch.share"),
                ("ib_switch", "ibswitch.dispatch_ns", "ibswitch.share"),
                ("host", "host.dispatch_ns", "host.share"),
            ] {
                if let Some(c) = p.per_class.iter().find(|c| c.name == class) {
                    m.insert(ns_name, c.mean_ns());
                    m.insert(share, ratio(c.total_ns as f64, classes as f64));
                }
            }
        }
    }

    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, m.get(name).copied().unwrap_or(0.0)))
        .collect()
}

/// Self-consistency of a simulator workload's traced run: the child spans
/// of `setup` and `report` account for their parent (within 2 % or 20 µs:
/// the recorder's clock reads and pushes between the children and the
/// drop of the generated inputs read 1-5 µs, which is more than 2 % of
/// `fig2-storm`'s 80 µs set-up), the event-kind shares sum to 1, and the
/// profiler saw exactly the events the trace counted.
pub fn consistency_failures(suite: &Suite, wr: &WorkloadResult) -> Vec<String> {
    let mut bad = Vec::new();
    let Some(t) = wr.traced.as_ref().filter(|_| wr.workload.is_sim()) else {
        return bad;
    };
    let name = wr.workload.name();
    for parent in ["setup", "report"] {
        let (whole, parts) = (t.spans.seconds(parent), t.spans.children_seconds(parent));
        if (whole - parts).abs() > (0.02 * whole).max(20e-6) {
            bad.push(format!(
                "{name}: children of `{parent}` sum to {parts:.6} s, the span is {whole:.6} s"
            ));
        }
    }
    let shares: f64 = per_layer(suite, wr)
        .iter()
        .filter(|(name, _, _)| name.starts_with("sim.share."))
        .map(|&(_, _, v)| v)
        .sum();
    if (shares - 1.0).abs() > 0.01 {
        bad.push(format!("{name}: sim.share.* sums to {shares:.4}"));
    }
    match &t.rep.profile {
        Some(p) if p.events == t.rep.stats.events => {}
        Some(p) => bad.push(format!(
            "{name}: the profiler saw {} events, the trace {}",
            p.events, t.rep.stats.events
        )),
        None => bad.push(format!("{name}: the traced run produced no profile")),
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcd_repro::obs::json;

    #[test]
    fn benchmark_json_mirrors_the_metric_tables() {
        let doc = json::parse(include_str!("../../../../../BENCHMARK.json")).expect("valid JSON");
        let list = |key: &str| doc.get(key).and_then(|v| v.as_arr()).unwrap().to_vec();
        let field =
            |v: &json::Value, k: &str| v.get(k).and_then(|s| s.as_str()).unwrap().to_string();

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), "lower");
            assert_eq!(got.get("bound").and_then(|b| b.as_f64()), Some(want.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(
                (field(got, "name"), field(got, "unit")),
                (want.0.into(), want.1.into())
            );
        }
        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
        let paths = list("paths");
        assert_eq!(paths[0].as_str(), Some("crates/bench/src/bin/tcdbench"));
    }
}
