//! Observability exporters: Chrome/Perfetto trace JSON and the
//! self-describing metrics dump for a finished simulator run.
//!
//! The trace maps simulator concepts onto the Chrome-trace process/thread
//! hierarchy: one *process* per simulated node, and per sampled
//! `(port, prio)` a queue-depth counter track, a ternary-state slice
//! track, a paused slice track, and a mark-instant track. The resulting
//! `trace.json` opens directly in `chrome://tracing` or
//! [ui.perfetto.dev](https://ui.perfetto.dev).
//!
//! Everything here is a pure read of the [`Simulator`]'s trace and
//! registry — exporting never perturbs a run, so fingerprints are
//! unaffected by whether a trace was written.

use lossless_netsim::trace::PortSample;
use lossless_netsim::Simulator;
use lossless_obs::perfetto::{Name, TraceBuilder};
use std::collections::BTreeMap;
use tcd_core::{CodePoint, TernaryState};

/// Bytes the document reserves per port sample: its queue counter is
/// ~70 bytes, plus a share of the state and paused slices.
const SAMPLE_BYTES: usize = 80;

/// Track ids within a node's process: per sampled `(port, prio)` the
/// state track sits at `port*16 + (prio%8)*2 + 1`, the paused track one
/// above it, and the per-port mark track at `port*16 + 15`. Priorities
/// collide only above 7, far past the simulated priority counts.
fn state_tid(port: u16, prio: u8) -> u32 {
    u32::from(port) * 16 + u32::from(prio % 8) * 2 + 1
}

fn paused_tid(port: u16, prio: u8) -> u32 {
    state_tid(port, prio) + 1
}

fn mark_tid(port: u16) -> u32 {
    u32::from(port) * 16 + 15
}

/// Render a finished run as Chrome-trace JSON. Deterministic: track
/// enumeration follows the sorted `(node, port, prio)` order and sample
/// order follows the trace.
pub fn perfetto_trace_json(sim: &Simulator) -> String {
    let trace = &sim.trace;
    // Sized for the sample tracks. Only the marks on sampled ports are
    // written, and how many those are is known only once they are.
    let mut tb = TraceBuilder::with_capacity(trace.port_samples.len() * SAMPLE_BYTES);

    // Group port samples by track, preserving per-track time order.
    let mut tracks: BTreeMap<(u32, u16, u8), Vec<&PortSample>> = BTreeMap::new();
    for s in &trace.port_samples {
        tracks
            .entry((s.node.0, s.port, s.prio))
            .or_default()
            .push(s);
    }

    let [non_congestion, congestion, undetermined, paused] = [
        "non-congestion (0)",
        "congestion (1)",
        "undetermined (/)",
        "paused",
    ]
    .map(Name::new);
    let state_name = |s: TernaryState| match s.symbol() {
        '1' => &congestion,
        '/' => &undetermined,
        _ => &non_congestion,
    };

    let mut named_node = None;
    for (&(node, port, prio), samples) in &tracks {
        // Tracks iterate in node order, so each node is named at its first.
        if named_node != Some(node) {
            named_node = Some(node);
            tb.process_name(
                node,
                &format!(
                    "{} (node {node})",
                    sim.topology().name(lossless_netsim::NodeId(node))
                ),
            );
        }
        let st = state_tid(port, prio);
        let pt = paused_tid(port, prio);
        tb.thread_name(node, st, &format!("p{port}/{prio} state"));
        tb.thread_sort_index(node, st, i64::from(st));
        tb.thread_name(node, pt, &format!("p{port}/{prio} paused"));
        tb.thread_sort_index(node, pt, i64::from(pt));

        let counter = Name::new(&format!("queue p{port}/{prio} (bytes)"));
        for s in samples {
            tb.counter(node, &counter, s.t, s.queue_bytes);
        }

        // Run-length encode the sampled ternary state and paused flag into
        // slices spanning [run start, run end sample].
        let mut run_start = 0usize;
        for i in 1..=samples.len() {
            let run_over = i == samples.len() || samples[i].state != samples[run_start].state;
            if run_over {
                tb.slice(
                    node,
                    st,
                    state_name(samples[run_start].state),
                    samples[run_start].t,
                    samples[i - 1].t,
                );
                run_start = i;
            }
        }
        let mut paused_since: Option<usize> = None;
        for (i, s) in samples.iter().enumerate() {
            match (s.paused, paused_since) {
                (true, None) => paused_since = Some(i),
                (false, Some(j)) => {
                    tb.slice(node, pt, &paused, samples[j].t, s.t);
                    paused_since = None;
                }
                _ => {}
            }
        }
        if let (Some(j), Some(last)) = (paused_since, samples.last()) {
            tb.slice(node, pt, &paused, samples[j].t, last.t);
        }
    }

    // Mark instants on the sampled ports (marks carry no priority, so the
    // track is per port). Requires `record_marks(true)` during the run.
    // Each sampled port maps to whether its mark track is named yet.
    let mut mark_tracks: BTreeMap<(u32, u16), bool> =
        tracks.keys().map(|&(n, p, _)| ((n, p), false)).collect();
    let [not_capable, capable, ue, ce] = [
        CodePoint::NotCapable,
        CodePoint::Capable,
        CodePoint::UndeterminedEncountered,
        CodePoint::CongestionEncountered,
    ]
    .map(|cp| Name::new(lossless_obs::mark_counter_name(cp)));
    for m in &trace.marks {
        let Some(named) = mark_tracks.get_mut(&(m.node.0, m.port)) else {
            continue;
        };
        let tid = mark_tid(m.port);
        if !*named {
            *named = true;
            tb.thread_name(m.node.0, tid, &format!("p{} marks", m.port));
            tb.thread_sort_index(m.node.0, tid, i64::from(tid));
        }
        let name = match m.code {
            CodePoint::NotCapable => &not_capable,
            CodePoint::Capable => &capable,
            CodePoint::UndeterminedEncountered => &ue,
            CodePoint::CongestionEncountered => &ce,
        };
        tb.instant(m.node.0, tid, name, m.t);
    }

    tb.into_json()
}

/// Render the run's metrics registry (engine counters folded in) as the
/// self-describing `tcd-metrics-v1` JSON document.
pub fn metrics_json(sim: &Simulator) -> String {
    sim.obs_registry().to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{by_name, Scale};
    use lossless_flowctl::SimTime;
    use lossless_obs::perfetto::validate_chrome_trace;

    /// Run the catalog row `name` for `end` at the exporters' sampling.
    fn run(name: &str, end: SimTime) -> Simulator {
        by_name(name).expect("catalog row").run(Scale::new(end))
    }

    #[test]
    fn fig03_trace_is_valid_and_has_all_track_kinds() {
        let doc = perfetto_trace_json(&run("fig03", SimTime::from_us(600)));
        let n = validate_chrome_trace(&doc).expect("valid Chrome trace");
        assert!(n > 0, "trace must contain events");
        assert!(doc.contains("queue p"), "queue-depth counter track");
        assert!(doc.contains("state"), "ternary-state slice track");
        assert!(doc.contains("\"ph\":\"X\""), "slices present");
        assert!(doc.contains("\"ph\":\"C\""), "counters present");
    }

    #[test]
    fn fig03_metrics_dump_parses_and_self_describes() {
        let doc = metrics_json(&run("fig03", SimTime::from_us(600)));
        let v = lossless_obs::json::parse(&doc).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("tcd-metrics-v1")
        );
        assert!(v.get("fingerprint").is_some());
        assert!(v.get("counters").and_then(|c| c.as_arr()).is_some());
        // The engine counters folded in by obs_registry.
        assert!(doc.contains("engine.events"));
        assert!(doc.contains("engine.dispatch.packet_arrival"));
        // Pool hit/miss counters are not part of the registry: exporting
        // them would move the committed registry fingerprint.
        assert!(!doc.contains("pool.hit"));
    }

    #[test]
    fn unknown_scenario_is_rejected() {
        for gone in ["nope", "fig12", "fig13", "ib-tcd", "leaf-spine"] {
            assert!(by_name(gone).is_none(), "{gone}");
        }
    }

    #[test]
    fn fault_scenarios_export_tcd_timelines_and_fault_counters() {
        let sim = run("fault-degrade", SimTime::from_ms(2));
        let doc = perfetto_trace_json(&sim);
        validate_chrome_trace(&doc).expect("valid Chrome trace");
        assert!(doc.contains("state"), "TCD ternary-state track present");
        let metrics = metrics_json(&sim);
        assert!(metrics.contains("fault.degrade"), "onset counter exported");
        assert!(
            metrics.contains("fault.restore"),
            "recovery counter exported"
        );

        let sim = run("deadlock-triangle", SimTime::from_us(400));
        let doc = perfetto_trace_json(&sim);
        validate_chrome_trace(&doc).expect("valid Chrome trace");
        assert!(doc.contains("state"), "ring egress timeline present");
        assert!(
            metrics_json(&sim).contains("fault.route_update"),
            "route swap exported"
        );
    }

    #[test]
    fn exporting_never_perturbs_the_run() {
        let a = run("fig03", SimTime::from_us(400));
        let _ = perfetto_trace_json(&a);
        let _ = metrics_json(&a);
        let b = run("fig03", SimTime::from_us(400));
        assert_eq!(
            crate::harness::fingerprint_sim(&a),
            crate::harness::fingerprint_sim(&b)
        );
        assert_eq!(
            a.obs_registry().fingerprint(),
            b.obs_registry().fingerprint()
        );
    }
}
