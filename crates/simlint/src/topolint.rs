//! Level 2: static scenario/topology analysis.
//!
//! Loads a scenario (topology + simulation config + route selection),
//! builds the directed buffer-dependency graph the routing tables induce,
//! and reports — before a single event is scheduled —
//!
//! * **deadlock-cycle** (error): cyclic buffer dependencies, i.e. potential
//!   PFC/CBFC deadlock cycles à la DCFIT, printed as full switch/port hop
//!   sequences;
//! * **unreachable** / **bad-override** (error): host pairs with no route,
//!   or explicit route overrides that do not follow physical links;
//! * **pfc-headroom** (error): links whose rate·delay product needs more
//!   PAUSE headroom than the scenario provisions — a guaranteed-drop
//!   configuration that today only fails at runtime via the audit layer;
//! * **route-asymmetry** (warning, D-mod-k only): forward and reverse
//!   concrete paths of a host pair that disagree;
//! * **cbfc-line-rate** (warning): CBFC buffers too small to sustain line
//!   rate across the FCCL update period (`B > C·T_c`, §4.4).
//!
//! Errors gate CI; warnings are informational.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use lossless_flowctl::pfc::required_headroom_bytes;
use lossless_netsim::config::FlowControlMode;
use lossless_netsim::routing::{Channel, RouteSelect, Routing};
use lossless_netsim::topology::NodeKind;
use lossless_netsim::{FlowId, NodeId, SimConfig, Topology};
use tcd_core::cycles;

/// Default provisioned PFC headroom above `X_off` per ingress counter —
/// kept equal to the runtime audit layer's default so the static check and
/// the runtime check gate the same configuration.
pub const DEFAULT_PFC_HEADROOM_BYTES: u64 = 96 * 1024;

/// Everything the static analyzer needs to know about one scenario.
pub struct TopoSpec {
    /// Scenario name (used in diagnostics).
    pub name: String,
    /// The physical topology.
    pub topo: Topology,
    /// The simulation configuration (flow control mode, MTU, priorities).
    pub config: SimConfig,
    /// Path-selection discipline the scenario runs with.
    pub select: RouteSelect,
    /// Explicit full node paths overriding shortest-path routing for
    /// specific `(src, dst)` host pairs — the mechanism by which scenarios
    /// (and tests) express non-minimal, possibly up-down-violating routes.
    pub route_overrides: Vec<(NodeId, NodeId, Vec<NodeId>)>,
    /// Provisioned PFC headroom above `X_off`, bytes per ingress counter.
    pub pfc_headroom_bytes: u64,
}

impl TopoSpec {
    /// A spec with no overrides and the audit layer's default headroom.
    pub fn new(
        name: impl Into<String>,
        topo: Topology,
        config: SimConfig,
        select: RouteSelect,
    ) -> TopoSpec {
        TopoSpec {
            name: name.into(),
            topo,
            config,
            select,
            route_overrides: Vec::new(),
            pfc_headroom_bytes: DEFAULT_PFC_HEADROOM_BYTES,
        }
    }
}

/// Diagnostic severity. Only errors affect the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: legitimate in some configurations.
    Warning,
    /// A configuration that can deadlock, drop, or fail to route.
    Error,
}

/// One finding from the topology analyzer.
#[derive(Debug, Clone)]
pub struct TopoDiag {
    /// Severity (errors gate CI).
    pub severity: Severity,
    /// Stable check identifier, e.g. `deadlock-cycle`.
    pub check: &'static str,
    /// Human-readable description, with switch/port hops where relevant.
    pub message: String,
    /// For cycle findings: the hops as `(node name, egress port)`, in
    /// dependency order, first hop *not* repeated at the end. Empty for
    /// non-cycle checks. This is the machine-readable form `lint --json`
    /// emits and the runtime-watchdog cross-check consumes.
    pub cycle: Vec<(String, u16)>,
}

/// A cycle-free diagnostic.
fn diag(severity: Severity, check: &'static str, message: String) -> TopoDiag {
    TopoDiag {
        severity,
        check,
        message,
        cycle: Vec::new(),
    }
}

impl fmt::Display for TopoDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "{sev}[{}]: {}", self.check, self.message)
    }
}

/// Analysis result for one scenario.
pub struct TopoReport {
    /// Scenario name.
    pub scenario: String,
    /// Number of directed channels (egress buffers) in the topology.
    pub channels: usize,
    /// Number of edges in the buffer-dependency graph.
    pub dependencies: usize,
    /// All findings, errors first.
    pub diags: Vec<TopoDiag>,
}

impl TopoReport {
    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Whether the scenario fails the gate.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }
}

/// Render a channel as `Name[port]`.
fn chan_name(topo: &Topology, c: Channel) -> String {
    format!("{}[{}]", topo.name(c.0), c.1)
}

/// Run every static check against `spec`.
pub fn analyze(spec: &TopoSpec) -> TopoReport {
    let topo = &spec.topo;
    let routing = Routing::new(topo, spec.select);
    let mut diags = Vec::new();

    // --- Reachability and override validity -----------------------------
    let hosts = topo.hosts();
    let overridden: BTreeSet<(NodeId, NodeId)> = spec
        .route_overrides
        .iter()
        .map(|(s, d, _)| (*s, *d))
        .collect();
    let mut unreachable = Vec::new();
    for &s in &hosts {
        for &d in &hosts {
            if s != d && !overridden.contains(&(s, d)) && routing.candidates(s, d).is_empty() {
                unreachable.push((s, d));
            }
        }
    }
    if !unreachable.is_empty() {
        let (s, d) = unreachable[0];
        diags.push(diag(
            Severity::Error,
            "unreachable",
            format!(
                "{} host pair(s) have no route, e.g. {} -> {}",
                unreachable.len(),
                topo.name(s),
                topo.name(d)
            ),
        ));
    }
    for (s, d, path) in &spec.route_overrides {
        let valid = path.len() >= 2
            && path.first() == Some(s)
            && path.last() == Some(d)
            && path
                .windows(2)
                .all(|w| topo.port_towards(w[0], w[1]).is_some())
            && path[1..path.len() - 1]
                .iter()
                .all(|&n| topo.kind(n) == NodeKind::Switch);
        if !valid {
            diags.push(diag(
                Severity::Error,
                "bad-override",
                format!(
                    "route override {} -> {} does not follow physical links \
                     host-to-host through switches",
                    topo.name(*s),
                    topo.name(*d)
                ),
            ));
        }
    }

    // --- Buffer-dependency graph ----------------------------------------
    // Start from the conservative routing-table view, then add the
    // dependencies the explicit overrides introduce.
    let mut deps: BTreeSet<(Channel, Channel)> = routing.channel_dependencies(topo);
    for (_, _, path) in &spec.route_overrides {
        let chans: Vec<Channel> = path
            .windows(2)
            .filter_map(|w| topo.port_towards(w[0], w[1]).map(|p| (w[0], p)))
            .collect();
        for w in chans.windows(2) {
            deps.insert((w[0], w[1]));
        }
    }
    let channels: usize = (0..topo.node_count())
        .map(|n| topo.ports(NodeId(n as u32)).len())
        .sum();
    let n_deps = deps.len();

    // --- Deadlock cycles (lossless modes only) --------------------------
    // Hop-by-hop back-pressure exists per priority/VL, but data and
    // feedback classes traverse the same pair set (all ordered host
    // pairs), so one graph covers every lossless VL.
    if !spec.config.is_lossy() {
        for cycle in cycles::find(deps.iter().copied()) {
            let mut hops: Vec<String> = cycle.iter().map(|&c| chan_name(topo, c)).collect();
            hops.push(chan_name(topo, cycle[0]));
            diags.push(TopoDiag {
                severity: Severity::Error,
                check: "deadlock-cycle",
                message: format!(
                    "cyclic buffer dependency ({} channels): {} — under {} back-pressure \
                     every hop can wait on the next, a potential deadlock",
                    cycle.len(),
                    hops.join(" -> "),
                    if spec.config.is_ib() {
                        "CBFC credit"
                    } else {
                        "PFC PAUSE"
                    },
                ),
                cycle: cycle
                    .iter()
                    .map(|&(n, p)| (topo.name(n).to_string(), p))
                    .collect(),
            });
        }
    }

    // --- Fault-plan route swaps -----------------------------------------
    // A `RouteChange(Some(set))` fault event atomically rebuilds the
    // routing tables from the pristine baseline and pins every path in
    // `fault_plan.route_sets[set]` (the runtime's `RouteUpdate` handler).
    // Compose each registered set the same way here and re-run the cycle
    // finder: a plan that swaps routes into a cyclic buffer dependency
    // becomes a *static* finding, cross-checked at runtime by the
    // PFC-deadlock watchdog. Paths the runtime would panic on
    // (non-link hops, non-host destination) are flagged instead of
    // applied.
    for (si, paths) in spec.config.fault_plan.route_sets.iter().enumerate() {
        let mut applicable = true;
        for (pi, path) in paths.iter().enumerate() {
            let valid = path.len() >= 2
                && path
                    .windows(2)
                    .all(|w| topo.port_towards(w[0], w[1]).is_some())
                && path.last().is_some_and(|&n| topo.kind(n) == NodeKind::Host);
            if !valid {
                applicable = false;
                diags.push(diag(
                    Severity::Error,
                    "fault-route-invalid",
                    format!(
                        "fault plan route set {si}, path {pi} ({}): does not follow \
                         physical links to a host — the runtime RouteUpdate would panic \
                         installing it",
                        path.iter()
                            .map(|&n| topo.name(n).to_string())
                            .collect::<Vec<_>>()
                            .join(" -> ")
                    ),
                ));
            }
        }
        if !applicable || spec.config.is_lossy() {
            continue;
        }
        let mut swapped = routing.clone();
        for (_, _, path) in &spec.route_overrides {
            // Baseline at runtime includes the scenario's overrides;
            // mirror that before pinning the fault set (skipping overrides
            // already reported as bad).
            if path.len() >= 2
                && path
                    .windows(2)
                    .all(|w| topo.port_towards(w[0], w[1]).is_some())
                && path.last().is_some_and(|&n| topo.kind(n) == NodeKind::Host)
            {
                swapped.apply_path(topo, path);
            }
        }
        for path in paths {
            swapped.apply_path(topo, path);
        }
        for cycle in cycles::find(swapped.channel_dependencies(topo)) {
            let mut hops: Vec<String> = cycle.iter().map(|&c| chan_name(topo, c)).collect();
            hops.push(chan_name(topo, cycle[0]));
            diags.push(TopoDiag {
                severity: Severity::Error,
                check: "fault-route-cycle",
                message: format!(
                    "fault plan route set {si} swaps routing into a cyclic buffer \
                     dependency ({} channels): {} — after the RouteChange fires, every \
                     hop can wait on the next under lossless back-pressure",
                    cycle.len(),
                    hops.join(" -> "),
                ),
                cycle: cycle
                    .iter()
                    .map(|&(n, p)| (topo.name(n).to_string(), p))
                    .collect(),
            });
        }
    }

    // --- Flow-control provisioning --------------------------------------
    // Group links by (rate, delay): the check depends on nothing else.
    let mut link_classes: BTreeMap<(u64, u64), (u64, Channel)> = BTreeMap::new();
    for n in 0..topo.node_count() {
        let node = NodeId(n as u32);
        for (p, l) in topo.ports(node).iter().enumerate() {
            let key = (l.rate.as_bps(), l.delay.as_ps());
            let e = link_classes.entry(key).or_insert((0, (node, p as u16)));
            e.0 += 1;
        }
    }
    match spec.config.flow_control {
        FlowControlMode::Pfc(_) => {
            for (&(bps, _), &(count, example)) in &link_classes {
                let l = topo.link(example.0, example.1);
                let need = required_headroom_bytes(l.rate, l.delay, spec.config.mtu);
                if need > spec.pfc_headroom_bytes {
                    diags.push(diag(
                        Severity::Error,
                        "pfc-headroom",
                        format!(
                            "{} directed link(s) at {} / {:?} delay (e.g. {}) need {} B of \
                             PAUSE headroom above X_off but only {} B are provisioned — \
                             worst-case bursts are guaranteed to drop",
                            count,
                            lossless_flowctl::Rate::from_bps(bps),
                            l.delay,
                            chan_name(topo, example),
                            need,
                            spec.pfc_headroom_bytes
                        ),
                    ));
                }
            }
        }
        FlowControlMode::Cbfc(cbfc) => {
            for (&(bps, _), &(count, example)) in &link_classes {
                let l = topo.link(example.0, example.1);
                let slack = l.rate.bytes_in(l.delay);
                if !cbfc.sustains_line_rate(bps, slack) {
                    diags.push(diag(
                        Severity::Warning,
                        "cbfc-line-rate",
                        format!(
                            "{} directed link(s) at {} / {:?} delay (e.g. {}): CBFC buffer \
                             ({} blocks) cannot sustain line rate across the {:?} FCCL \
                             period (B > C*T_c violated) — uncongested senders will stall \
                             for credits",
                            count,
                            lossless_flowctl::Rate::from_bps(bps),
                            l.delay,
                            chan_name(topo, example),
                            cbfc.buffer_blocks,
                            cbfc.update_period
                        ),
                    ));
                }
            }
        }
        FlowControlMode::Lossy { .. } => {}
    }

    // --- Routing asymmetry (D-mod-k only) -------------------------------
    // BFS shortest-path candidate DAGs on symmetric links are provably
    // reverse-symmetric, and per-flow ECMP hashes forward and reverse
    // directions independently by design; only the deterministic D-mod-k
    // selection is expected to yield mirrored concrete paths, so only
    // there is a mismatch worth surfacing.
    if spec.select == RouteSelect::DModK {
        let mut asymmetric = Vec::new();
        for (i, &s) in hosts.iter().enumerate() {
            for &d in hosts.iter().skip(i + 1) {
                if overridden.contains(&(s, d))
                    || overridden.contains(&(d, s))
                    || routing.candidates(s, d).is_empty()
                    || routing.candidates(d, s).is_empty()
                {
                    continue;
                }
                let fwd: Vec<NodeId> = routing
                    .path(topo, s, d, FlowId(0))
                    .iter()
                    .map(|&(n, _)| n)
                    .chain([d])
                    .collect();
                let mut rev: Vec<NodeId> = routing
                    .path(topo, d, s, FlowId(0))
                    .iter()
                    .map(|&(n, _)| n)
                    .chain([s])
                    .collect();
                rev.reverse();
                if fwd != rev {
                    asymmetric.push((s, d));
                }
            }
        }
        if !asymmetric.is_empty() {
            let (s, d) = asymmetric[0];
            diags.push(diag(
                Severity::Warning,
                "route-asymmetry",
                format!(
                    "{} host pair(s) take different forward and reverse D-mod-k paths, \
                     e.g. {} <-> {} — congestion signals (CNP/BECN) will not retrace \
                     the data path",
                    asymmetric.len(),
                    topo.name(s),
                    topo.name(d)
                ),
            ));
        }
    }

    diags.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.check.cmp(b.check))
    });
    TopoReport {
        scenario: spec.name.clone(),
        channels,
        dependencies: n_deps,
        diags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lossless_flowctl::{Rate, SimDuration, SimTime};
    use lossless_netsim::topology::{dumbbell, fat_tree};

    fn cee(end_us: u64) -> SimConfig {
        SimConfig::cee_baseline(SimTime::from_us(end_us))
    }

    #[test]
    fn dumbbell_is_clean() {
        let db = dumbbell(Rate::from_gbps(40), SimDuration::from_us(4));
        let spec = TopoSpec::new("dumbbell", db.topo, cee(100), RouteSelect::Ecmp);
        let rep = analyze(&spec);
        assert!(!rep.has_errors(), "{:?}", rep.diags);
        assert!(rep.dependencies > 0);
    }

    #[test]
    fn fat_tree_is_deadlock_free_under_updown_routing() {
        let ft = fat_tree(4, Rate::from_gbps(40), SimDuration::from_us(4));
        let spec = TopoSpec::new("ft4", ft.topo, cee(100), RouteSelect::DModK);
        let rep = analyze(&spec);
        assert!(!rep.has_errors(), "{:?}", rep.diags);
    }

    #[test]
    fn triangle_with_wraparound_overrides_reports_exact_cycle() {
        // Three switches in a triangle, one host each. Shortest-path
        // routing is deadlock-free here; the overrides force every pair
        // "the long way round", creating the classic cyclic buffer
        // dependency s0->s1 => s1->s2 => s2->s0 => s0->s1.
        let mut b = Topology::builder();
        let s: Vec<NodeId> = (0..3).map(|i| b.switch(format!("s{i}"))).collect();
        let h: Vec<NodeId> = (0..3).map(|i| b.host(format!("h{i}"))).collect();
        let r = Rate::from_gbps(40);
        let d = SimDuration::from_us(4);
        for i in 0..3 {
            b.link(h[i], s[i], r, d);
            b.link(s[i], s[(i + 1) % 3], r, d);
        }
        let topo = b.build();
        let mut spec = TopoSpec::new("triangle", topo, cee(100), RouteSelect::Ecmp);
        spec.route_overrides = vec![
            (h[0], h[2], vec![h[0], s[0], s[1], s[2], h[2]]),
            (h[1], h[0], vec![h[1], s[1], s[2], s[0], h[0]]),
            (h[2], h[1], vec![h[2], s[2], s[0], s[1], h[1]]),
        ];
        let rep = analyze(&spec);
        let cycles: Vec<&TopoDiag> = rep
            .diags
            .iter()
            .filter(|d| d.check == "deadlock-cycle")
            .collect();
        assert_eq!(cycles.len(), 1, "{:?}", rep.diags);
        let msg = &cycles[0].message;
        assert!(
            msg.contains("s0[") && msg.contains("s1[") && msg.contains("s2["),
            "{msg}"
        );
    }

    /// A 3-switch ring, one host per switch: `(topo, switches, hosts)`.
    fn ring3() -> (Topology, Vec<NodeId>, Vec<NodeId>) {
        let mut b = Topology::builder();
        let s: Vec<NodeId> = (0..3).map(|i| b.switch(format!("s{i}"))).collect();
        let h: Vec<NodeId> = (0..3).map(|i| b.host(format!("h{i}"))).collect();
        let r = Rate::from_gbps(40);
        let d = SimDuration::from_us(4);
        for i in 0..3 {
            b.link(h[i], s[i], r, d);
            b.link(s[i], s[(i + 1) % 3], r, d);
        }
        (b.build(), s, h)
    }

    #[test]
    fn fault_plan_route_swap_into_a_cycle_is_a_static_error() {
        let (topo, s, h) = ring3();
        let mut cfg = cee(100);
        // The deadlock_ring construction: every host two hops clockwise.
        cfg.fault_plan.route_sets.push(
            (0..3)
                .map(|i| vec![h[i], s[i], s[(i + 1) % 3], s[(i + 2) % 3], h[(i + 2) % 3]])
                .collect(),
        );
        cfg.fault_plan.route_change(SimTime::ZERO, Some(0));
        let spec = TopoSpec::new("ring-swap", topo.clone(), cfg, RouteSelect::Ecmp);
        let rep = analyze(&spec);
        // Baseline shortest paths on an odd ring are acyclic...
        assert!(
            !rep.diags.iter().any(|d| d.check == "deadlock-cycle"),
            "{:?}",
            rep.diags
        );
        // ...but the composed fault set is the classic 3-cycle.
        let cyc: Vec<&TopoDiag> = rep
            .diags
            .iter()
            .filter(|d| d.check == "fault-route-cycle")
            .collect();
        assert_eq!(cyc.len(), 1, "{:?}", rep.diags);
        // In ring order from the smallest channel, s0's.
        let want: Vec<(String, u16)> = (0..3)
            .map(|i| {
                let p = topo.port_towards(s[i], s[(i + 1) % 3]).expect("ring link");
                (format!("s{i}"), p)
            })
            .collect();
        assert_eq!(cyc[0].cycle, want);
        assert!(rep.has_errors());
    }

    #[test]
    fn fault_plan_path_off_the_physical_links_is_flagged_not_applied() {
        let (topo, s, h) = ring3();
        let mut cfg = cee(100);
        // h0 -> s0 -> h1 skips the link structure: s0 has no link to h1.
        cfg.fault_plan.route_sets.push(vec![vec![h[0], s[0], h[1]]]);
        cfg.fault_plan.route_change(SimTime::ZERO, Some(0));
        let spec = TopoSpec::new("ring-bad-swap", topo, cfg, RouteSelect::Ecmp);
        let rep = analyze(&spec);
        assert!(
            rep.diags.iter().any(|d| d.check == "fault-route-invalid"),
            "{:?}",
            rep.diags
        );
        assert!(!rep.diags.iter().any(|d| d.check == "fault-route-cycle"));
        assert!(rep.has_errors());
    }

    #[test]
    fn baseline_cycle_diag_carries_structured_hops() {
        let (topo, s, h) = ring3();
        let mut spec = TopoSpec::new("triangle", topo, cee(100), RouteSelect::Ecmp);
        spec.route_overrides = vec![
            (h[0], h[2], vec![h[0], s[0], s[1], s[2], h[2]]),
            (h[1], h[0], vec![h[1], s[1], s[2], s[0], h[0]]),
            (h[2], h[1], vec![h[2], s[2], s[0], s[1], h[1]]),
        ];
        let rep = analyze(&spec);
        let cyc = rep
            .diags
            .iter()
            .find(|d| d.check == "deadlock-cycle")
            .expect("cycle reported");
        assert_eq!(cyc.cycle.len(), 3, "{:?}", cyc.cycle);
        assert!(cyc.cycle.iter().all(|(n, _)| n.starts_with('s')));
    }

    #[test]
    fn disconnected_hosts_are_reported_unreachable() {
        let mut b = Topology::builder();
        let s1 = b.switch("s1");
        let s2 = b.switch("s2");
        let h1 = b.host("h1");
        let h2 = b.host("h2");
        let r = Rate::from_gbps(40);
        let d = SimDuration::from_us(4);
        b.link(h1, s1, r, d);
        b.link(h2, s2, r, d);
        let spec = TopoSpec::new("split", b.build(), cee(100), RouteSelect::Ecmp);
        let rep = analyze(&spec);
        assert!(rep.diags.iter().any(|d| d.check == "unreachable"));
        assert!(rep.has_errors());
    }

    #[test]
    fn long_delay_links_violate_pfc_headroom() {
        let db = dumbbell(Rate::from_gbps(100), SimDuration::from_us(100));
        let spec = TopoSpec::new("wan-dumbbell", db.topo, cee(100), RouteSelect::Ecmp);
        let rep = analyze(&spec);
        assert!(
            rep.diags.iter().any(|d| d.check == "pfc-headroom"),
            "{:?}",
            rep.diags
        );
        assert!(rep.has_errors());
    }
}
