//! Both text exporters — `harness::golden_trace` and
//! `obs_export::perfetto_trace_json` — write into one buffer with
//! hand-written number writers. This suite keeps the plain `format!`
//! renderers as a reference model and asserts that the exporters print the
//! same bytes on catalog rows that between them exercise every track kind
//! (queue counters, state and paused slices, mark instants) and both flow
//! endings (`end=<ps>` and `end=-1`, including never-started flows). The
//! reference's `fingerprint` line comes from its own byte-at-a-time FNV-1a
//! over the fields it prints, so a fault in the shared hash kernel shows
//! here too. A run that registers flows between `run_until` calls, so
//! that slot order differs from id order, is held to the same reference.

use std::collections::BTreeMap;

use tcd_repro::flowctl::{SimDuration, SimTime};
use tcd_repro::harness::{fingerprint_sim, golden_trace};
use tcd_repro::netsim::cchooks::FixedRate;
use tcd_repro::netsim::config::SimConfig;
use tcd_repro::netsim::routing::RouteSelect;
use tcd_repro::netsim::topology::{figure2, Figure2Options};
use tcd_repro::netsim::trace::PortSample;
use tcd_repro::netsim::{NodeId, Simulator};
use tcd_repro::obs::json;
use tcd_repro::obs_export::perfetto_trace_json;
use tcd_repro::scenarios::{by_name, Scale};
use tcd_repro::tcd::TernaryState;

/// Catalog rows and the (short) run lengths they are compared at.
const ROWS: &[(&str, SimTime)] = &[
    ("fig03", SimTime::from_us(600)),
    ("ib-multi-cp", SimTime::from_us(600)),
    ("deadlock-triangle", SimTime::from_us(400)),
    ("fault-degrade", SimTime::from_ms(2)),
    ("fat-tree-k4", SimTime::from_us(300)),
];

fn run(name: &str, end: SimTime) -> Simulator {
    let row = by_name(name).unwrap_or_else(|| panic!("catalog row {name}"));
    row.run(Scale::new(end))
}

/// The run fingerprint by its definition, independent of the crate's
/// hashing code: FNV-1a-64, one byte at a time, over the little-endian
/// bytes of every flow line's fields (`end=-1` as `u64::MAX`) and then
/// the forwarded, pause, drop, port-sample and event counts.
fn reference_fingerprint(sim: &Simulator) -> u64 {
    let t = &sim.trace;
    let mut words: Vec<u64> = Vec::new();
    for r in t.records() {
        words.extend([
            u64::from(r.flow.0),
            r.size,
            r.start.as_ps(),
            r.end.map_or(u64::MAX, |e| e.as_ps()),
            r.delivered.pkts,
            r.delivered.bytes,
            r.delivered.ce,
            r.delivered.ue,
        ]);
    }
    words.extend([
        t.forwarded_pkts,
        t.pause_frames,
        t.drops,
        t.port_samples.len() as u64,
        t.events,
    ]);
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf29ce484222325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
        })
}

/// The golden trace, one `format!` per line.
fn reference_golden(sim: &Simulator, label: &str) -> String {
    let t = &sim.trace;
    let mut s = String::new();
    s.push_str(&format!("# golden trace: {label}\n"));
    s.push_str(&format!(
        "fingerprint {:016x}\n",
        reference_fingerprint(sim)
    ));
    s.push_str(&format!("events {}\n", t.events));
    s.push_str(&format!("forwarded {}\n", t.forwarded_pkts));
    s.push_str(&format!("pauses {}\n", t.pause_frames));
    s.push_str(&format!("drops {}\n", t.drops));
    s.push_str(&format!(
        "completed {}/{}\n",
        t.completed_count,
        t.flows.len()
    ));
    for r in t.records() {
        s.push_str(&format!(
            "flow {} size={} start={} end={} pkts={} bytes={} ce={} ue={}\n",
            r.flow.0,
            r.size,
            r.start.as_ps(),
            r.end.map(|e| e.as_ps() as i64).unwrap_or(-1),
            r.delivered.pkts,
            r.delivered.bytes,
            r.delivered.ce,
            r.delivered.ue,
        ));
    }
    for p in &t.port_samples {
        s.push_str(&format!(
            "port n{}p{}v{} t={} q={} tx={} state={} paused={}\n",
            p.node.0,
            p.port,
            p.prio,
            p.t.as_ps(),
            p.queue_bytes,
            p.tx_bytes,
            p.state.symbol(),
            u8::from(p.paused),
        ));
    }
    s
}

/// The Chrome-trace document, one `format!` per event.
fn reference_perfetto(sim: &Simulator) -> String {
    let ts = |t: SimTime| json::num_f64(t.as_us_f64());
    let esc = json::escape;
    let state_tid = |port: u16, prio: u8| u32::from(port) * 16 + u32::from(prio % 8) * 2 + 1;
    let mut ev: Vec<String> = Vec::new();

    let mut tracks: BTreeMap<(u32, u16, u8), Vec<&PortSample>> = BTreeMap::new();
    for s in &sim.trace.port_samples {
        tracks
            .entry((s.node.0, s.port, s.prio))
            .or_default()
            .push(s);
    }
    let mut named_nodes: Vec<u32> = Vec::new();
    for (&(node, port, prio), samples) in &tracks {
        if !named_nodes.contains(&node) {
            named_nodes.push(node);
            let name = format!("{} (node {node})", sim.topology().name(NodeId(node)));
            ev.push(format!(
                "{{\"ph\":\"M\",\"pid\":{node},\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
                esc(&name)
            ));
        }
        let st = state_tid(port, prio);
        let pt = st + 1;
        for (tid, what) in [(st, "state"), (pt, "paused")] {
            ev.push(format!(
                "{{\"ph\":\"M\",\"pid\":{node},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                esc(&format!("p{port}/{prio} {what}"))
            ));
            ev.push(format!(
                "{{\"ph\":\"M\",\"pid\":{node},\"tid\":{tid},\"name\":\"thread_sort_index\",\"args\":{{\"sort_index\":{tid}}}}}"
            ));
        }
        let counter = format!("queue p{port}/{prio} (bytes)");
        for s in samples {
            ev.push(format!(
                "{{\"ph\":\"C\",\"pid\":{node},\"name\":{},\"ts\":{},\"args\":{{\"value\":{}}}}}",
                esc(&counter),
                ts(s.t),
                s.queue_bytes
            ));
        }
        let slice = |tid: u32, name: &str, start: SimTime, end: SimTime| {
            format!(
                "{{\"ph\":\"X\",\"pid\":{node},\"tid\":{tid},\"name\":{},\"ts\":{},\"dur\":{}}}",
                esc(name),
                ts(start),
                json::num_f64(end.saturating_since(start).as_us_f64())
            )
        };
        let state_name = |s: TernaryState| match s.symbol() {
            '1' => "congestion (1)",
            '/' => "undetermined (/)",
            _ => "non-congestion (0)",
        };
        let mut run_start = 0usize;
        for i in 1..=samples.len() {
            if i == samples.len() || samples[i].state != samples[run_start].state {
                ev.push(slice(
                    st,
                    state_name(samples[run_start].state),
                    samples[run_start].t,
                    samples[i - 1].t,
                ));
                run_start = i;
            }
        }
        let mut paused_since: Option<usize> = None;
        for (i, s) in samples.iter().enumerate() {
            match (s.paused, paused_since) {
                (true, None) => paused_since = Some(i),
                (false, Some(j)) => {
                    ev.push(slice(pt, "paused", samples[j].t, s.t));
                    paused_since = None;
                }
                _ => {}
            }
        }
        if let (Some(j), Some(last)) = (paused_since, samples.last()) {
            ev.push(slice(pt, "paused", samples[j].t, last.t));
        }
    }

    let mut sampled_ports: Vec<(u32, u16)> = tracks.keys().map(|&(n, p, _)| (n, p)).collect();
    sampled_ports.dedup();
    let mut mark_tracks_named: Vec<(u32, u16)> = Vec::new();
    for m in &sim.trace.marks {
        let key = (m.node.0, m.port);
        if !sampled_ports.contains(&key) {
            continue;
        }
        let (node, tid) = (m.node.0, u32::from(m.port) * 16 + 15);
        if !mark_tracks_named.contains(&key) {
            mark_tracks_named.push(key);
            ev.push(format!(
                "{{\"ph\":\"M\",\"pid\":{node},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                esc(&format!("p{} marks", m.port))
            ));
            ev.push(format!(
                "{{\"ph\":\"M\",\"pid\":{node},\"tid\":{tid},\"name\":\"thread_sort_index\",\"args\":{{\"sort_index\":{tid}}}}}"
            ));
        }
        ev.push(format!(
            "{{\"ph\":\"i\",\"pid\":{node},\"tid\":{tid},\"s\":\"t\",\"name\":{},\"ts\":{}}}",
            esc(tcd_repro::obs::mark_counter_name(m.code)),
            ts(m.t)
        ));
    }
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
        ev.join(",\n")
    )
}

#[test]
fn exporters_match_the_format_reference() {
    let (mut unfinished, mut never_started, mut marks, mut paused) = (false, false, false, false);
    for &(name, end) in ROWS {
        let sim = run(name, end);

        let golden = golden_trace(&sim, name);
        assert!(
            golden == reference_golden(&sim, name),
            "{name}: golden trace differs from the format! reference"
        );
        assert_eq!(fingerprint_sim(&sim), reference_fingerprint(&sim), "{name}");
        unfinished |= golden.contains(" end=-1 ");
        never_started |= golden.contains(" end=-1 pkts=0 bytes=0 ce=0 ue=0\n");

        let trace = perfetto_trace_json(&sim);
        assert!(
            trace == reference_perfetto(&sim),
            "{name}: Chrome trace differs from the format! reference"
        );
        marks |= trace.contains("\"ph\":\"i\"");
        paused |= trace.contains("\"name\":\"paused\"");
    }
    // The rows must reach every branch the writers have.
    assert!(unfinished, "no row left a flow unfinished (end=-1)");
    assert!(
        never_started,
        "no row printed a never-started flow (its tail is hashed from a table)"
    );
    assert!(marks, "no row exported a mark instant");
    assert!(paused, "no row exported a paused slice");
}

#[test]
fn fingerprint_reference_covers_mid_run_registration() {
    // Flows registered latest start first, then more between two
    // `run_until` calls, so the started flows' slots run in another order
    // than their ids. Some finish, one is too large to, and two start after
    // the run ends.
    let f2 = figure2(Figure2Options::default());
    let b = &f2.bursters;
    let mut sim = Simulator::new(
        f2.topo.clone(),
        SimConfig::cee_baseline(SimTime::from_us(600)),
        RouteSelect::Ecmp,
    );
    let us = |t: u64| SimTime::ZERO + SimDuration::from_us(t);
    let add = |sim: &mut Simulator, flows: &[(NodeId, NodeId, u64, u64)]| {
        for &(src, dst, size, start) in flows {
            sim.add_flow(src, dst, size, us(start), Box::new(FixedRate::line_rate()));
        }
    };
    add(
        &mut sim,
        &[
            (b[0], f2.r1, 60_000, 40),
            (b[1], f2.r1, 10_000_000, 10),
            (b[2], f2.r0, 9_000, 900),
            (b[3], f2.r1, 50_000, 0),
        ],
    );
    sim.run_until(us(20));
    add(
        &mut sim,
        &[(b[4], f2.r1, 30_000, 25), (b[5], f2.r0, 20_000, 700)],
    );
    sim.run_until(us(30));
    add(&mut sim, &[(b[6], f2.r0, 40_000, 35)]);
    sim.run();

    let t = &sim.trace;
    let slots: Vec<u32> = t.flows.iter().map(|f| f.slot).collect();
    assert_eq!(slots, [4, 1, u32::MAX, 0, 2, u32::MAX, 3]);
    assert!(t.completed_count > 0 && t.completed_count < t.flows.len() - 2);
    let label = "mid-run registration";
    assert!(golden_trace(&sim, label) == reference_golden(&sim, label));
    assert_eq!(fingerprint_sim(&sim), reference_fingerprint(&sim));
}
