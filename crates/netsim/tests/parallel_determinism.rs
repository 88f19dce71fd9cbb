//! Bit-identity of the conservative-parallel executor: the same
//! scenario run serially and at every worker count must agree on every
//! observable output — event count, per-flow deliveries, the full mark
//! and port-sample streams, the delivery stream, and the merged metrics
//! registry fingerprint — with zero window-barrier causality violations.
//!
//! These tests live in the netsim crate (not the workspace root) on
//! purpose: the root crate's test targets enable the `audit` feature,
//! which compiles the parallel executor out (audit hooks are serial by
//! design), so a root-level "parallel" test would silently exercise the
//! serial fallback. Here the default feature set applies and the
//! parallel path genuinely engages.

#![cfg(not(feature = "audit"))]

use lossless_flowctl::{Rate, SimDuration, SimTime};
use lossless_netsim::cchooks::FixedRate;
use lossless_netsim::config::SimConfig;
use lossless_netsim::fault::FaultPlan;
use lossless_netsim::routing::RouteSelect;
use lossless_netsim::topology::{dumbbell, fat_tree, leaf_spine, NodeId, NodeKind, Topology};
use lossless_netsim::Simulator;
use proptest::prelude::*;

/// Every observable surface of a run, captured as owned values so two
/// runs can be compared with one `assert_eq!`. The mark, port-sample
/// and delivery streams are compared through their `Debug` rendering:
/// that covers every field (including timestamps and code points), so
/// a parallel run that reorders or re-times anything fails loudly.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    events: u64,
    forwarded: u64,
    drops: u64,
    pause_frames: u64,
    completed: usize,
    flows: String,
    marks: String,
    port_samples: String,
    deliveries: String,
    registry_fp: u64,
}

fn observe(sim: &Simulator) -> Observed {
    Observed {
        events: sim.trace.events,
        forwarded: sim.trace.forwarded_pkts,
        drops: sim.trace.drops,
        pause_frames: sim.trace.pause_frames,
        completed: sim.trace.completed_count,
        flows: format!("{:?}", sim.trace.flows),
        marks: format!("{:?}", sim.trace.marks),
        port_samples: format!("{:?}", sim.trace.port_samples),
        deliveries: format!("{:?}", sim.trace.deliveries),
        registry_fp: sim.obs_registry().fingerprint(),
    }
}

/// All switch egresses — fault-plan candidates, as in `fault_order.rs`.
fn candidates(topo: &Topology) -> Vec<(NodeId, u16)> {
    let mut out = Vec::new();
    for n in 0..topo.node_count() as u32 {
        let id = NodeId(n);
        if topo.kind(id) != NodeKind::Switch {
            continue;
        }
        for p in 0..topo.ports(id).len() as u16 {
            out.push((id, p));
        }
    }
    out
}

/// The globals-heavy scenario: a k=4 fat-tree under a permutation plus
/// a small incast, with periodic trace ticks, sampled ports and a
/// seeded fault plan. Trace ticks and fault events are engine-global
/// events, so this drives the executor's gather/re-scatter machinery
/// on every tick, not just the steady-state window loop.
fn run_fat_tree(partitions: usize) -> Observed {
    let ft = fat_tree(4, Rate::from_gbps(40), SimDuration::from_us(1));
    let mut cfg = SimConfig::cee_baseline(SimTime::from_us(400));
    // Explicit, including for the serial reference: a nonzero value
    // overrides the TCD_PARTITIONS environment variable, so these runs
    // mean what they say even under `TCD_PARTITIONS=8 cargo test`.
    cfg.partitions = partitions;
    cfg.trace_interval = Some(SimDuration::from_us(20));
    cfg.sample_ports = vec![(ft.edges[0], 0, 0), (ft.aggs[0], 0, 0), (ft.cores[0], 0, 0)];
    cfg.fault_plan = FaultPlan::random(7, &candidates(&ft.topo), SimTime::from_us(300), 4);

    let mut sim = Simulator::new(ft.topo, cfg, RouteSelect::Ecmp);
    sim.record_marks(true);
    sim.record_deliveries(true);
    let n = ft.hosts.len();
    for i in 0..n {
        // Permutation shift-by-one...
        sim.add_flow(
            ft.hosts[i],
            ft.hosts[(i + 1) % n],
            100_000,
            SimTime::from_ns(200 * i as u64),
            Box::new(FixedRate::line_rate()),
        );
    }
    for i in 1..5 {
        // ...plus a 4-way incast onto host 0.
        sim.add_flow(
            ft.hosts[i * 3],
            ft.hosts[0],
            60_000,
            SimTime::from_us(40),
            Box::new(FixedRate::line_rate()),
        );
    }
    sim.run();
    assert_eq!(
        sim.par_causality_violations(),
        0,
        "window barrier admitted an event below the causality ceiling"
    );
    observe(&sim)
}

/// The globals-free scenario: a leaf-spine incast with no trace ticks,
/// no sampled ports and no faults. Nothing ever forces a mid-run
/// gather, so an entire epoch runs window-by-window — the pure
/// steady-state path.
fn run_leaf_spine(partitions: usize) -> Observed {
    let ls = leaf_spine(3, 2, 4, Rate::from_gbps(40), SimDuration::from_us(1));
    let mut cfg = SimConfig::cee_baseline(SimTime::from_us(400));
    cfg.partitions = partitions;

    let mut sim = Simulator::new(ls.topo, cfg, RouteSelect::Ecmp);
    sim.record_marks(true);
    sim.record_deliveries(true);
    let n = ls.hosts.len();
    for i in 1..n {
        sim.add_flow(
            ls.hosts[i],
            ls.hosts[0],
            150_000,
            SimTime::from_ns(100 * i as u64),
            Box::new(FixedRate::line_rate()),
        );
    }
    sim.run();
    assert_eq!(sim.par_causality_violations(), 0);
    observe(&sim)
}

#[test]
fn fat_tree_identical_at_every_worker_count() {
    let serial = run_fat_tree(1);
    assert!(serial.events > 0 && serial.forwarded > 0);
    for workers in [2, 4, 8] {
        let par = run_fat_tree(workers);
        assert_eq!(serial, par, "run diverged at {workers} workers");
    }
}

#[test]
fn leaf_spine_identical_at_every_worker_count() {
    let serial = run_leaf_spine(1);
    assert!(serial.events > 0 && serial.forwarded > 0);
    for workers in [2, 4, 8] {
        let par = run_leaf_spine(workers);
        assert_eq!(serial, par, "run diverged at {workers} workers");
    }
}

/// One randomized scenario: topology shape, flow layout and fault count
/// all seeded. Returns (serial, parallel-at-3) so the property below is
/// a single equality.
fn run_random(shape: u8, seed: u64, faults: usize, partitions: usize) -> Observed {
    let (topo, hosts): (Topology, Vec<NodeId>) = match shape % 3 {
        0 => {
            let d = dumbbell(Rate::from_gbps(40), SimDuration::from_us(2));
            (d.topo, vec![d.h0, d.h1])
        }
        1 => {
            let ls = leaf_spine(2, 2, 3, Rate::from_gbps(40), SimDuration::from_us(1));
            (ls.topo, ls.hosts)
        }
        _ => {
            let ft = fat_tree(4, Rate::from_gbps(40), SimDuration::from_us(1));
            (ft.topo, ft.hosts)
        }
    };
    let mut cfg = SimConfig::cee_baseline(SimTime::from_us(300));
    cfg.partitions = partitions;
    cfg.fault_plan = FaultPlan::random(seed, &candidates(&topo), SimTime::from_us(200), faults);

    let mut sim = Simulator::new(topo, cfg, RouteSelect::Ecmp);
    sim.record_marks(true);
    sim.record_deliveries(true);
    let n = hosts.len();
    for i in 0..n {
        sim.add_flow(
            hosts[(i + seed as usize) % n],
            hosts[(i + 1 + seed as usize) % n],
            80_000,
            SimTime::from_ns(150 * i as u64),
            Box::new(FixedRate::line_rate()),
        );
    }
    sim.run();
    assert_eq!(sim.par_causality_violations(), 0);
    observe(&sim)
}

proptest! {
    // Each case is two full simulations; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random topology + random fault plan: a 3-worker parallel run is
    /// bit-identical to serial, with zero causality violations.
    #[test]
    fn random_scenarios_identical_serial_vs_parallel(
        shape in any::<u8>(),
        seed in any::<u64>(),
        faults in 0usize..6,
    ) {
        let serial = run_random(shape, seed, faults, 1);
        let par = run_random(shape, seed, faults, 3);
        prop_assert_eq!(serial, par, "parallel run diverged from serial");
    }
}
