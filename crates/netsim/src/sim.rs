//! The simulation engine: node construction, flow registration, the event
//! loop, and trace sampling.

use crate::cchooks::RateController;
use crate::config::{FlowControlMode, SimConfig};
use crate::event::{Event, EventQueue, TxGate};
use crate::host::Host;
use crate::ibswitch::IbSwitch;
use crate::packet::{FlowId, Packet, PacketPool};
use crate::routing::{Channel, RouteSelect, Routing};
use crate::switch::EthSwitch;
use crate::topology::{NodeId, NodeKind, Topology};
use crate::trace::{FlowSpec, PortSample, Trace};
use lossless_flowctl::{SimDuration, SimTime};

/// Dispatches between two checks of the deadlock watchdog (a power of
/// two, so the per-event cost is one mask test). A check reads the
/// forwarded-packet counter; only a check that finds it unchanged since
/// the previous one walks the wait-for graph. Small enough that the 2 µs
/// trace tick a wedged ring keeps running (~2 500 events over the rest of
/// a 5 ms run) spans several checks.
const LIVENESS_EVERY: u64 = 512;

/// A PFC/CBFC deadlock found by the engine's watchdog
/// ([`Simulator::deadlock`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deadlock {
    /// Simulation time of the check that found it.
    pub t: SimTime,
    /// The blocked `(switch, egress port)` channels, each waiting on the
    /// next and the last on the first, in the canonical form of
    /// [`tcd_core::cycles::find`]: from the smallest channel, which is not
    /// repeated at the end.
    pub cycle: Vec<Channel>,
}

impl Deadlock {
    /// The cycle as hops named after `topo`'s nodes, closed back on the
    /// first: `s0[1] -> s1[2] -> s2[2] -> s0[1]`.
    pub fn hops(&self, topo: &Topology) -> String {
        let hops: Vec<String> = self
            .cycle
            .iter()
            .chain(self.cycle.first())
            .map(|&(n, p)| format!("{}[{p}]", topo.name(n)))
            .collect();
        hops.join(" -> ")
    }
}

/// Shared context handed to node handlers. Splitting the simulator's fields
/// this way lets a handler mutate its node and the context simultaneously.
pub struct Ctx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The event queue.
    pub q: &'a mut EventQueue,
    /// The network topology.
    pub topo: &'a Topology,
    /// Routing tables.
    pub routing: &'a Routing,
    /// Run configuration.
    pub cfg: &'a SimConfig,
    /// Measurement sink.
    pub trace: &'a mut Trace,
    /// Recycling allocator for packets; handlers box new packets through
    /// it and return consumed ones to it.
    pub pool: &'a mut PacketPool,
    /// The observability layer (always compiled; inert at
    /// [`ObsLevel::Off`](lossless_obs::ObsLevel)): handlers feed it
    /// control frames, marks, stalls and state transitions.
    pub obs: &'a mut lossless_obs::Obs,
    /// The per-port link records: peer, delay, health (fault injection),
    /// effective rate and transmitter gate. Nodes reach it through
    /// [`tx_ready`](Ctx::tx_ready), [`kick`](Ctx::kick) and
    /// [`transmit`](Ctx::transmit) — a downed port holds its queues, a
    /// degraded one serializes at the overridden rate.
    pub links: &'a mut crate::fault::LinkState,
    /// The invariant auditor (audit builds only); handlers feed it state
    /// transitions, marks, and PFC threshold crossings.
    #[cfg(feature = "audit")]
    pub audit: &'a mut crate::audit::Audit,
}

impl Ctx<'_> {
    /// Enter a `PortTx` handler for `(node, port)`: consume the pending
    /// wake-up and report whether a frame may start now (transmitter free
    /// and link up). The link is checked only after the gate consumed the
    /// event — returning earlier would leave the gate believing a `PortTx`
    /// is still pending and the port would never restart after recovery.
    pub(crate) fn tx_ready(&mut self, node: NodeId, port: u16) -> bool {
        let l = self.links.port_mut(node, port);
        l.gate.on_event(self.now) && l.up
    }

    /// Ask for a `PortTx` at `(node, port)` as soon as the transmitter
    /// could usefully run. A downed link transmits nothing; the node's
    /// `on_link_state` re-kicks on recovery so held queues (and control
    /// frames) drain then.
    pub(crate) fn kick(&mut self, node: NodeId, port: u16) {
        let l = self.links.port_mut(node, port);
        if l.up {
            wake(&mut l.gate, self.q, node, port, self.now);
        }
    }

    /// Schedule a `PortTx` at `(node, port)` for `at` (or when the
    /// transmitter frees up, if later) unless an earlier-or-equal one is
    /// already pending.
    pub(crate) fn wake_at(&mut self, node: NodeId, port: u16, at: SimTime) {
        let l = self.links.port_mut(node, port);
        wake(&mut l.gate, self.q, node, port, at);
    }

    /// Put `pkt` on the wire at `(node, port)`: schedule its arrival at
    /// the peer and the transmitter's next `PortTx` slot.
    pub(crate) fn transmit(&mut self, node: NodeId, port: u16, pkt: Box<Packet>) {
        let l = self.links.port_mut(node, port);
        // Latent-assumption tripwire: reaching here on a downed link
        // means a caller skipped the link gate. Surface it as a
        // structured violation (audited builds) or assert (plain debug
        // builds), then transmit anyway — the packet stays in flight, so
        // conservation holds either way.
        if !l.up {
            #[cfg(feature = "audit")]
            self.audit.report(crate::audit::Violation {
                family: crate::audit::InvariantFamily::ProtocolLegality,
                t: self.now,
                node,
                port,
                prio: u8::MAX,
                message: "transmit scheduled on a downed link".into(),
            });
            #[cfg(not(feature = "audit"))]
            debug_assert!(false, "transmit scheduled on a downed link at port {port}");
        }
        let ser = l.rate.serialize_time(pkt.size);
        self.q.schedule(
            self.now + ser + l.delay,
            Event::PacketArrival {
                node: l.peer,
                in_port: l.peer_port,
                pkt,
            },
        );
        let free = l.gate.begin_tx(self.now, ser);
        self.q.schedule(free, Event::PortTx { node, port });
        l.gate.note_scheduled(free);
    }
}

fn wake(gate: &mut TxGate, q: &mut EventQueue, node: NodeId, port: u16, at: SimTime) {
    if let Some(at) = gate.want(at) {
        q.schedule(at, Event::PortTx { node, port });
        gate.note_scheduled(at);
    }
}

enum Node {
    Host(Host),
    Eth(EthSwitch),
    Ib(IbSwitch),
}

/// Attribute a dispatched event to the class of network element whose
/// handler does the work; engine-level events (flow starts, trace ticks,
/// fault and route updates) go to [`NodeClass::Engine`]. Read-only — used
/// solely by the self-profiler's span attribution.
///
/// [`NodeClass::Engine`]: lossless_obs::prof::NodeClass::Engine
fn node_class(nodes: &[Node], ev: &Event) -> lossless_obs::prof::NodeClass {
    use lossless_obs::prof::NodeClass;
    let node = match ev {
        Event::PacketArrival { node, .. }
        | Event::PortTx { node, .. }
        | Event::FcclTick { node, .. }
        | Event::DetectorTimer { node, .. }
        | Event::CcTimer { node, .. }
        | Event::HostDrain { node } => *node,
        _ => return NodeClass::Engine,
    };
    match nodes.get(node.index()) {
        Some(Node::Host(_)) => NodeClass::Host,
        Some(Node::Eth(_)) => NodeClass::EthSwitch,
        Some(Node::Ib(_)) => NodeClass::IbSwitch,
        None => NodeClass::Engine,
    }
}

/// Dispatch a node-targeted event (everything except flow starts and the
/// engine-global trace / fault / route events) against the node table. A
/// free function so the handler can borrow its node and the rest of the
/// simulator (the [`Ctx`]) mutably at once.
#[expect(
    clippy::indexing_slicing,
    reason = "event node ids are created against this topology at setup, so they index nodes in bounds"
)]
fn dispatch_node_event(nodes: &mut [Node], ctx: &mut Ctx, ev: Event) {
    match ev {
        Event::PacketArrival { node, in_port, pkt } => match &mut nodes[node.index()] {
            Node::Host(h) => h.on_packet(ctx, pkt),
            Node::Eth(s) => s.on_packet(ctx, in_port, pkt),
            Node::Ib(s) => s.on_packet(ctx, in_port, pkt),
        },
        Event::PortTx { node, port } => match &mut nodes[node.index()] {
            Node::Host(h) => h.port_tx(ctx),
            Node::Eth(s) => s.port_tx(ctx, port),
            Node::Ib(s) => s.port_tx(ctx, port),
        },
        Event::FcclTick { node, port, vl } => match &mut nodes[node.index()] {
            Node::Host(h) => h.on_fccl_tick(ctx, vl),
            Node::Ib(s) => s.on_fccl_tick(ctx, port, vl),
            Node::Eth(_) => unreachable!("FCCL tick in CEE mode"),
        },
        Event::DetectorTimer { node, port, prio } => match &mut nodes[node.index()] {
            Node::Eth(s) => s.on_detector_timer(ctx, port, prio),
            Node::Ib(s) => s.on_detector_timer(ctx, port, prio),
            Node::Host(_) => unreachable!("detector timer at a host"),
        },
        Event::CcTimer { node, flow, timer } => match &mut nodes[node.index()] {
            Node::Host(h) => h.on_cc_timer(ctx, flow, timer),
            _ => unreachable!("CC timer at a switch"),
        },
        Event::HostDrain { node } => match &mut nodes[node.index()] {
            Node::Host(h) => h.on_host_drain(ctx),
            _ => unreachable!("HostDrain at a switch"),
        },
        _ => unreachable!("engine-global event routed to dispatch_node_event"),
    }
}

/// The handler context of simulator `$sim` at `$now`. A macro, not a
/// method, so the borrows split: the nodes stay free for the handler.
macro_rules! ctx {
    ($sim:ident, $now:expr) => {
        Ctx {
            now: $now,
            q: &mut $sim.queue,
            topo: &$sim.topo,
            routing: &$sim.routing,
            cfg: &$sim.cfg,
            trace: &mut $sim.trace,
            pool: &mut $sim.pool,
            obs: &mut $sim.obs,
            links: &mut $sim.links,
            #[cfg(feature = "audit")]
            audit: &mut $sim.audit,
        }
    };
}

/// The simulator: topology + nodes + flows + event loop.
pub struct Simulator {
    topo: Topology,
    routing: Routing,
    cfg: SimConfig,
    queue: EventQueue,
    /// The node table, indexed by `NodeId`.
    nodes: Vec<Node>,
    /// Controllers waiting for their flow's start event.
    pending_cc: Vec<Option<Box<dyn RateController>>>,
    /// The start chain: registered flows whose start is not in the event
    /// queue, sorted so that the smallest `(start, seq)` is last. Flows
    /// registered since the last `drive` (ids `filed..`) join it when the
    /// next one begins.
    unqueued: Vec<FlowId>,
    /// Flows already filed into the start chain or the queue.
    filed: usize,
    /// Starts in the event queue, and the largest `(start, seq)` among
    /// them (meaningful while `queued > 0`). Every key in `unqueued` is
    /// above it.
    queued: u32,
    queued_max: (SimTime, u64),
    /// Packet allocation pool shared by all nodes.
    pool: PacketPool,
    /// Runtime link health table, mutated by fault events.
    links: crate::fault::LinkState,
    /// Baseline routing tables, captured lazily at the first
    /// `RouteUpdate` so route sets always compose from (and revert to)
    /// the pristine tables.
    base_routing: Option<Routing>,
    /// `trace.forwarded_pkts` at the previous deadlock-watchdog check.
    last_forwarded: u64,
    /// The first deadlock the watchdog found, if any.
    deadlock: Option<Deadlock>,
    /// The invariant auditor (audit builds only).
    #[cfg(feature = "audit")]
    audit: crate::audit::Audit,
    /// Violation count already handed to the flight recorder, so each new
    /// violation triggers exactly one history dump (audit builds only).
    #[cfg(feature = "audit")]
    audit_obs_seen: u64,
    /// Whether a checkpoint already reported [`Simulator::deadlock`] as a
    /// Liveness violation (audit builds only; the wedge persists).
    #[cfg(feature = "audit")]
    audit_deadlock_reported: bool,
    /// Collected measurements.
    pub trace: Trace,
    /// The observability layer: metrics registry + flight recorder.
    pub obs: lossless_obs::Obs,
    /// The wall-clock span sampler. Read-only with respect to simulation
    /// state: it times sampled dispatches but never schedules events or
    /// feeds a wall-clock value back, so runs are bit-identical with it
    /// on or off. Disabled until [`Simulator::enable_profiler`].
    profiler: lossless_obs::prof::Prof,
}

impl Simulator {
    /// Build a simulator over `topo` with routing discipline `select`.
    pub fn new(topo: Topology, cfg: SimConfig, select: RouteSelect) -> Simulator {
        assert!(cfg.data_prio < cfg.num_prios && cfg.feedback_prio < cfg.num_prios);
        assert!(
            !(cfg.is_lossy() && cfg.host_rx_rate.is_some()),
            "slow receivers are modelled for lossless modes only"
        );
        assert!(
            !cfg.is_lossy() || matches!(cfg.feedback, crate::config::FeedbackMode::AckPerPacket),
            "lossy mode requires AckPerPacket feedback for go-back-N reliability"
        );
        let routing = Routing::new(&topo, select);
        let mut nodes = Vec::with_capacity(topo.node_count());
        let mut queue = EventQueue::new();
        let seed = cfg.seed;

        for n in 0..topo.node_count() as u32 {
            let id = NodeId(n);
            match topo.kind(id) {
                NodeKind::Host => {
                    let line_rate = topo.link(id, 0).rate;
                    nodes.push(Node::Host(Host::new(
                        id,
                        line_rate,
                        &cfg.flow_control,
                        cfg.num_prios,
                    )));
                }
                NodeKind::Switch => {
                    let n_ports = topo.ports(id).len();
                    let mk = |p: u16, pr: u8| {
                        cfg.detector_for(pr).build(splitmix(
                            seed ^ ((n as u64) << 24) ^ ((p as u64) << 8) ^ pr as u64,
                        ))
                    };
                    match cfg.flow_control {
                        FlowControlMode::Pfc(_) | FlowControlMode::Lossy { .. } => {
                            nodes.push(Node::Eth(EthSwitch::new(
                                id,
                                n_ports,
                                cfg.num_prios,
                                &cfg.flow_control,
                                mk,
                            )));
                        }
                        FlowControlMode::Cbfc(_) => {
                            nodes.push(Node::Ib(IbSwitch::new(
                                id,
                                n_ports,
                                cfg.num_prios,
                                &cfg.flow_control,
                                cfg.vl_weights.clone(),
                                cfg.feedback_prio,
                                mk,
                            )));
                        }
                    }
                }
            }
        }

        // In IB mode every (node, port, vl) emits periodic credit updates.
        // Stagger the first tick deterministically to avoid a synchronized
        // FCCL storm at t = 0.
        if let FlowControlMode::Cbfc(c) = cfg.flow_control {
            let mut stagger: u64 = 0;
            for n in 0..topo.node_count() as u32 {
                let id = NodeId(n);
                let n_ports = topo.ports(id).len();
                for p in 0..n_ports as u16 {
                    for vl in 0..cfg.num_prios {
                        let offset = SimDuration::from_ps(
                            stagger.wrapping_mul(7919) % c.update_period.as_ps().max(1),
                        );
                        queue.schedule(
                            SimTime::ZERO + offset,
                            Event::FcclTick {
                                node: id,
                                port: p,
                                vl,
                            },
                        );
                        stagger += 1;
                    }
                }
            }
        }

        let mut trace = Trace::new(false);
        trace.max_marks = cfg.max_marks;
        trace.max_port_samples = cfg.max_port_samples;
        // Trace ticks only do per-sample-port work; with nothing to
        // sample they would be pure event-loop overhead, so skip the
        // whole tick train.
        if cfg.trace_interval.is_some() && !cfg.sample_ports.is_empty() {
            queue.schedule(SimTime::ZERO, Event::TraceTick);
        }
        // Fault plan: turn every scheduled fault into a regular engine
        // event so flaps, degradations and route changes dispatch in the
        // same deterministic (time, seq) order as everything else. An
        // empty plan schedules nothing, keeping fault-free sequence
        // numbers (and hence fingerprints) bit-identical.
        for f in &cfg.fault_plan.events {
            use crate::fault::FaultKind;
            let ev = match f.kind {
                FaultKind::LinkDown => Event::LinkState {
                    node: f.node,
                    port: f.port,
                    up: false,
                },
                FaultKind::LinkUp => Event::LinkState {
                    node: f.node,
                    port: f.port,
                    up: true,
                },
                FaultKind::Degrade(r) => Event::LinkRate {
                    node: f.node,
                    port: f.port,
                    rate: Some(r),
                },
                FaultKind::Restore => Event::LinkRate {
                    node: f.node,
                    port: f.port,
                    rate: None,
                },
                FaultKind::RouteChange(set) => {
                    let set = set.map_or(u32::MAX, |s| {
                        assert!(
                            s < cfg.fault_plan.route_sets.len(),
                            "route change references undefined route set {s}"
                        );
                        s as u32
                    });
                    Event::RouteUpdate { set }
                }
            };
            queue.schedule(f.at, ev);
        }
        let links = crate::fault::LinkState::new(&topo);
        let obs = lossless_obs::Obs::new(cfg.obs);

        Simulator {
            topo,
            routing,
            cfg,
            queue,
            nodes,
            pending_cc: Vec::new(),
            unqueued: Vec::new(),
            filed: 0,
            queued: 0,
            queued_max: (SimTime::ZERO, 0),
            pool: PacketPool::new(),
            links,
            base_routing: None,
            last_forwarded: 0,
            deadlock: None,
            #[cfg(feature = "audit")]
            audit: crate::audit::Audit::default(),
            #[cfg(feature = "audit")]
            audit_obs_seen: 0,
            #[cfg(feature = "audit")]
            audit_deadlock_reported: false,
            trace,
            obs,
            profiler: lossless_obs::prof::Prof::disabled(),
        }
    }

    /// The invariant auditor (audit builds only).
    #[cfg(feature = "audit")]
    pub fn audit(&self) -> &crate::audit::Audit {
        &self.audit
    }

    /// Mutable access to the invariant auditor (audit builds only), e.g.
    /// to switch it to [`AuditMode::Record`](crate::audit::AuditMode)
    /// before a run that deliberately provokes violations.
    #[cfg(feature = "audit")]
    pub fn audit_mut(&mut self) -> &mut crate::audit::Audit {
        &mut self.audit
    }

    /// The first PFC/CBFC deadlock the engine's watchdog found, if any.
    /// Every `run*` call checks every `LIVENESS_EVERY` (512) dispatches
    /// and once when it returns; a check that sees no packet forwarded since
    /// the previous one searches the wait-for graph of blocked channels
    /// for a cycle. The watchdog never schedules an event, so event counts
    /// and fingerprints do not depend on it.
    pub fn deadlock(&self) -> Option<&Deadlock> {
        self.deadlock.as_ref()
    }

    /// Runtime link health (fault injection): which ports are up and
    /// which carry a degraded-rate override.
    pub fn links(&self) -> &crate::fault::LinkState {
        &self.links
    }

    /// Arm the wall-clock self-profiler for subsequent `run*` calls,
    /// discarding any previously collected profile. Profiling never
    /// perturbs the run: fingerprints and traces are bit-identical with
    /// it on or off.
    pub fn enable_profiler(&mut self, cfg: lossless_obs::prof::ProfConfig) {
        self.profiler.enable(cfg);
    }

    /// Snapshot the wall-clock profile collected so far; `None` unless
    /// the profiler was armed via [`Simulator::enable_profiler`].
    pub fn profile(&self) -> Option<lossless_obs::prof::ProfSummary> {
        self.profiler.summary(&Event::KIND_NAMES)
    }

    /// Switch the auditor (when compiled in) from panicking on the first
    /// invariant violation to recording violations for inspection. A
    /// no-op without the `audit` feature, so scenario code that
    /// deliberately provokes violations — e.g. driving a CDC-cyclic
    /// fabric into PFC deadlock — can call it unconditionally.
    pub fn record_violations(&mut self) {
        #[cfg(feature = "audit")]
        {
            self.audit.config_mut().mode = crate::audit::AuditMode::Record;
        }
    }

    /// Record individual [`MarkEvent`](crate::trace::MarkEvent)s (off by
    /// default; voluminous).
    pub fn record_marks(&mut self, on: bool) {
        self.trace.record_marks = on;
    }

    /// Record individual [`DeliveryEvent`](crate::trace::DeliveryEvent)s
    /// (off by default; voluminous).
    pub fn record_deliveries(&mut self, on: bool) {
        self.trace.record_deliveries = on;
    }

    /// Register a flow; it starts automatically at `start`. It pops at
    /// `start` in the order of registration among ties, exactly as if its
    /// start event were scheduled now, but it costs the event queue and
    /// its receiver nothing until shortly before it starts.
    pub fn add_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        size: u64,
        start: SimTime,
        cc: Box<dyn RateController>,
    ) -> FlowId {
        self.add_flow_prio(src, dst, size, start, self.cfg.data_prio, cc)
    }

    /// Register a flow on an explicit priority/VL.
    pub fn add_flow_prio(
        &mut self,
        src: NodeId,
        dst: NodeId,
        size: u64,
        start: SimTime,
        prio: u8,
        cc: Box<dyn RateController>,
    ) -> FlowId {
        assert_eq!(
            self.topo.kind(src),
            NodeKind::Host,
            "flow source must be a host"
        );
        assert_eq!(
            self.topo.kind(dst),
            NodeKind::Host,
            "flow destination must be a host"
        );
        assert!(size > 0, "flows must carry at least one byte");
        assert!(prio < self.cfg.num_prios);
        let id = FlowId(self.trace.flows.len() as u32);
        self.trace.flows.push(FlowSpec {
            src,
            dst,
            size,
            start,
            seq: self.queue.reserve_seq(),
            slot: u32::MAX,
            prio,
        });
        self.pending_cc.push(Some(cc));
        id
    }

    /// The pop key of a registered flow's start.
    fn start_key(flows: &[FlowSpec], id: FlowId) -> (SimTime, u64) {
        match flows.get(id.0 as usize) {
            Some(f) => (f.start, f.seq),
            None => unreachable!("flow ids index the table that minted them"),
        }
    }

    /// File the flows registered since the last call into the start chain,
    /// make room for the record of each that starts by the configured end
    /// (so the started table never grows mid-run), then queue starts until
    /// the queue holds the chain's earliest.
    ///
    /// Flows that a workload registers in start order arrive here already
    /// sorted, which the sort detects in one pass.
    fn file_new_flows(&mut self) {
        let flows = &self.trace.flows;
        if self.filed < flows.len() {
            let end = self.cfg.end_time;
            let new = flows.iter().skip(self.filed);
            let starting = new.filter(|f| f.start <= end).count();
            self.unqueued
                .extend((self.filed..flows.len()).rev().map(|i| FlowId(i as u32)));
            self.unqueued
                .sort_unstable_by_key(|&id| std::cmp::Reverse(Self::start_key(flows, id)));
            self.filed = flows.len();
            self.trace.reserve_starts(starting);
        }
        self.queue_starts();
    }

    /// Move starts from the chain into the event queue: the earliest if
    /// none is queued, plus every one whose key is below a queued start
    /// (only flows registered after that start was queued can be). Then
    /// everything the queue pops before a queued start has a smaller key
    /// than every start left in the chain, so the pop order is the one a
    /// queue holding every start since registration would give.
    fn queue_starts(&mut self) {
        while let Some(&id) = self.unqueued.last() {
            let key = Self::start_key(&self.trace.flows, id);
            if self.queued == 0 {
                self.queued_max = key;
            } else if key > self.queued_max {
                break;
            }
            self.unqueued.pop();
            self.queued += 1;
            self.queue
                .schedule_reserved(key.0, key.1, Event::FlowStart { flow: id });
        }
    }

    /// A queued start popped: give the flow its record, start it at its
    /// source, and queue the next start if it was the last one queued.
    fn start_flow(&mut self, now: SimTime, flow: FlowId) {
        let Some(cc) = self
            .pending_cc
            .get_mut(flow.0 as usize)
            .and_then(Option::take)
        else {
            unreachable!("flow {flow:?} started twice or was never registered");
        };
        let spec = self.trace.start(flow);
        let mut ctx = ctx!(self, now);
        let Some(Node::Host(sender)) = self.nodes.get_mut(spec.src.index()) else {
            unreachable!("flow sources are checked to be hosts at registration");
        };
        sender.start_flow(&mut ctx, flow, &spec, cc);
        self.queued -= 1;
        if self.queued == 0 {
            self.queue_starts();
        }
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The routing tables.
    pub fn routing(&self) -> &Routing {
        &self.routing
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// A host's current CC rate for a flow (None once it finished sending,
    /// or if it was never registered).
    pub fn flow_rate(&self, flow: FlowId) -> Option<lossless_flowctl::Rate> {
        let spec = self.trace.flows.get(flow.0 as usize)?;
        match self.node(spec.src) {
            Node::Host(h) => h.flow_rate(flow),
            _ => None,
        }
    }

    /// The node table entry for `id`.
    #[expect(
        clippy::indexing_slicing,
        reason = "node ids are minted by the topology the node table was built from"
    )]
    fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The single inner event loop every `run*` entry point drives:
    /// dispatch events at or before `until` (clamped to the configured
    /// end time), optionally stopping early once all registered flows
    /// have completed.
    fn drive(&mut self, until: SimTime, stop_when_complete: bool) {
        let end = until.min(self.cfg.end_time);
        let total = self.trace.flows.len();
        self.file_new_flows();
        #[cfg(feature = "audit")]
        let checkpoint_every = self.audit.config().checkpoint_every.max(1);
        while !(stop_when_complete && self.trace.completed_count >= total) {
            // The batched pop stages the whole same-timestamp group on its
            // first call at a new time, so the ordering core is consulted
            // once per distinct timestamp, not once per event; the pop
            // order is identical either way.
            let Some((now, ev)) = self.queue.pop_batched(end) else {
                break;
            };
            // Self-profiler span: `arm_span` is a pure dispatch-counter
            // check (no clock read), so which branch runs is a
            // deterministic function of the event sequence — and both
            // branches perform the identical `dispatch` call. The clock
            // reads in `span_open`/`span_close` surround dispatch without
            // feeding anything back into simulation state.
            if self.profiler.arm_span() {
                let kind = ev.kind_index();
                let class = node_class(&self.nodes, &ev);
                self.profiler.span_open();
                self.dispatch(now, ev);
                self.profiler.span_close(kind, class);
            } else {
                self.dispatch(now, ev);
            }
            // The flight recorder's checkpoint cadence is driven by the
            // dispatch count (always compiled), so recorder contents are
            // identical with or without the auditor.
            self.obs.maybe_checkpoint(now, self.trace.events);
            if self.trace.events & (LIVENESS_EVERY - 1) == 0 {
                self.check_liveness();
            }
            // Checkpoints run between dispatches, never as scheduled
            // events, so event counts and fingerprints are identical with
            // the auditor on or off.
            #[cfg(feature = "audit")]
            if self.trace.events.is_multiple_of(checkpoint_every) {
                self.checked_audit_checkpoint();
            }
        }
        self.check_liveness();
        #[cfg(feature = "audit")]
        self.checked_audit_checkpoint();
    }

    /// One deadlock-watchdog check: if no packet was forwarded since the
    /// previous check, the network may be wedged, so search the wait-for
    /// graph for a cycle. The first one found is kept.
    fn check_liveness(&mut self) {
        let forwarded = self.trace.forwarded_pkts;
        let stalled = forwarded == self.last_forwarded;
        self.last_forwarded = forwarded;
        if stalled && self.deadlock.is_none() {
            let t = self.queue.now();
            self.deadlock = self.blocked_cycle().map(|cycle| Deadlock { t, cycle });
        }
    }

    /// A cycle in the wait-for graph of *blocked channels*, if any.
    ///
    /// A blocked channel `(u, p)` is a switch egress holding data it is
    /// not allowed to transmit (PFC-paused, or out of CBFC credits). It
    /// waits on a downstream channel `(v, q)` — where `v` is the peer of
    /// `(u, p)` — iff the buffer `v` is accounting against that ingress
    /// sits in front of `v`'s blocked egress `q`. For CEE the packets
    /// remember their ingress (`Packet::in_port`); for IB the VoQ is
    /// indexed by ingress structurally. A cycle means every channel on it
    /// waits, transitively, on itself: no event can ever drain them.
    fn blocked_cycle(&self) -> Option<Vec<Channel>> {
        let mut blocked = std::collections::BTreeSet::new();
        for (n, node) in self.nodes.iter().enumerate() {
            let id = NodeId(n as u32);
            match node {
                Node::Eth(s) => blocked.extend(s.blocked_channels().map(|p| (id, p))),
                Node::Ib(s) => blocked.extend(s.blocked_channels().map(|p| (id, p))),
                Node::Host(_) => {}
            }
        }
        let mut edges = Vec::new();
        for &(u, p) in &blocked {
            let l = self.topo.link(u, p);
            let succ = match self.node(l.peer) {
                Node::Eth(s) => s.wait_successors(l.peer_port),
                Node::Ib(s) => s.wait_successors(l.peer_port),
                Node::Host(_) => Vec::new(),
            };
            edges.extend(
                succ.into_iter()
                    .map(|q| (l.peer, q))
                    .filter(|c| blocked.contains(c))
                    .map(|c| ((u, p), c)),
            );
        }
        tcd_core::cycles::find(edges).into_iter().next()
    }

    /// Run an audit checkpoint and, if it surfaced new violations (Record
    /// mode — Panic mode never returns), hand the flight-recorder history
    /// window to the observability layer next to the violation snapshot.
    #[cfg(feature = "audit")]
    fn checked_audit_checkpoint(&mut self) {
        self.audit_checkpoint();
        // A watermark (not a before/after delta) so violations raised by
        // per-event hooks between checkpoints are dumped too.
        let total = self.audit.total_violations();
        if total > self.audit_obs_seen {
            self.audit_obs_seen = total;
            self.obs.on_violation(self.queue.now(), total);
        }
    }

    /// Verify every simulation invariant against the current state: packet
    /// conservation, per-node buffer accounting, hop-by-hop protocol
    /// legality (including a global CBFC credit ledger per link), and
    /// event-queue causality. Runs automatically every
    /// [`AuditConfig::checkpoint_every`](crate::audit::AuditConfig) events
    /// and once at the end of each `run*` call; it never schedules events,
    /// so traces and fingerprints are identical with the auditor on or off.
    #[cfg(feature = "audit")]
    pub fn audit_checkpoint(&mut self) {
        use crate::audit::{InvariantFamily, Violation};

        let now = self.queue.now();
        let engine = NodeId(u32::MAX);

        // (e) Causality: the queue logs any schedule into the past.
        for (at, then) in self.queue.take_past_schedules() {
            self.audit.report(Violation {
                family: InvariantFamily::Causality,
                t: then,
                node: engine,
                port: u16::MAX,
                prio: u8::MAX,
                message: format!("event scheduled at {at}, before the clock ({then})"),
            });
        }
        let past_dropped = self.queue.take_past_dropped();
        if past_dropped > 0 {
            self.audit.report(Violation {
                family: InvariantFamily::Causality,
                t: now,
                node: engine,
                port: u16::MAX,
                prio: u8::MAX,
                message: format!(
                    "{past_dropped} further past-schedules dropped from the causality log \
                     (cap {})",
                    crate::event::PAST_LOG_CAP
                ),
            });
        }
        self.audit.note_check(InvariantFamily::Causality);

        // (a) Packet conservation: every packet the pool handed out is
        // either on a wire (in-flight event) or queued in some node.
        let outstanding = self.pool.outstanding();
        let in_flight = self.queue.packets_in_flight() as u64;
        let queued: u64 = self
            .nodes
            .iter()
            .map(|n| {
                let q = match n {
                    Node::Host(h) => h.audit_queued_packets(),
                    Node::Eth(s) => s.audit_queued_packets(),
                    Node::Ib(s) => s.audit_queued_packets(),
                };
                q as u64
            })
            .sum();
        if outstanding != in_flight + queued {
            self.audit.report(Violation {
                family: InvariantFamily::Conservation,
                t: now,
                node: engine,
                port: u16::MAX,
                prio: u8::MAX,
                message: format!(
                    "packet conservation broken: {outstanding} live != \
                     {in_flight} in-flight + {queued} queued"
                ),
            });
        }
        if !self.cfg.is_lossy() && self.trace.drops > 0 {
            self.audit.report(Violation {
                family: InvariantFamily::Conservation,
                t: now,
                node: engine,
                port: u16::MAX,
                prio: u8::MAX,
                message: format!("lossless mode dropped {} packets", self.trace.drops),
            });
        }
        self.audit.note_check(InvariantFamily::Conservation);

        // (b) Per-node buffer accounting and local protocol state.
        for node in &self.nodes {
            match node {
                Node::Host(h) => h.audit_check(&mut self.audit, now),
                Node::Eth(s) => s.audit_check(&mut self.audit, now),
                Node::Ib(s) => s.audit_check(&mut self.audit, now),
            }
        }
        self.links.audit_check(&self.topo, &mut self.audit, now);
        self.audit.note_check(InvariantFamily::BufferAccounting);

        // (c) Global CBFC credit ledger: along every directed link, the
        // sender's consumed credits equal the receiver's accepted credits
        // plus the blocks currently on the wire, and the advertised limit
        // never exceeds what the receive buffer could absorb.
        if self.cfg.is_ib() {
            use lossless_flowctl::units::bytes_to_blocks;
            use std::collections::BTreeMap;

            let mut inflight: BTreeMap<(u32, u16, u8), u64> = BTreeMap::new();
            for (node, in_port, pkt) in self.queue.packet_arrivals() {
                if pkt.kind.is_link_local() {
                    continue; // credit-exempt by construction
                }
                *inflight.entry((node.0, in_port, pkt.prio)).or_default() +=
                    bytes_to_blocks(pkt.size);
            }
            for n in 0..self.topo.node_count() as u32 {
                let id = NodeId(n);
                for p in 0..self.topo.ports(id).len() as u16 {
                    let lnk = self.topo.link(id, p);
                    for vl in 0..self.cfg.num_prios {
                        let tx = match self.node(id) {
                            Node::Ib(s) => Some(s.audit_cbfc_tx(p, vl)),
                            Node::Host(h) => h.audit_cbfc_tx(vl),
                            Node::Eth(_) => None,
                        };
                        let rx = match self.node(lnk.peer) {
                            Node::Ib(s) => Some(s.audit_cbfc_rx(lnk.peer_port, vl)),
                            Node::Host(h) => h.audit_cbfc_rx(vl),
                            Node::Eth(_) => None,
                        };
                        let (Some((fctbs, fccl)), Some((abr, _occ, cap))) = (tx, rx) else {
                            continue;
                        };
                        let fly = inflight
                            .get(&(lnk.peer.0, lnk.peer_port, vl))
                            .copied()
                            .unwrap_or(0);
                        if fctbs != abr + fly {
                            self.audit.report(Violation {
                                family: InvariantFamily::ProtocolLegality,
                                t: now,
                                node: id,
                                port: p,
                                prio: vl,
                                message: format!(
                                    "CBFC credits not conserved towards node {} port {}: \
                                     FCTBS {fctbs} != ABR {abr} + {fly} blocks in flight",
                                    lnk.peer.0, lnk.peer_port
                                ),
                            });
                        }
                        if fccl > abr + cap {
                            self.audit.report(Violation {
                                family: InvariantFamily::ProtocolLegality,
                                t: now,
                                node: id,
                                port: p,
                                prio: vl,
                                message: format!(
                                    "FCCL {fccl} exceeds ABR {abr} + buffer capacity {cap} blocks"
                                ),
                            });
                        }
                    }
                }
            }
        }
        self.audit.note_check(InvariantFamily::ProtocolLegality);

        // (f) Liveness: the engine's watchdog, which runs in every build,
        // found a cycle of blocked channels — a genuine PFC/CBFC deadlock
        // (DCFIT-style runtime detection). Reported once: the wedge
        // persists across checkpoints.
        let unreported = self
            .deadlock
            .as_ref()
            .filter(|_| !self.audit_deadlock_reported);
        if let Some(d) = unreported {
            let (node, port) = d.cycle.first().copied().unwrap_or((engine, u16::MAX));
            self.audit.report(Violation {
                family: InvariantFamily::Liveness,
                t: d.t,
                node,
                port,
                prio: u8::MAX,
                message: format!(
                    "deadlock: progress stalled with a cyclic hop-by-hop wait ({} channels): {}",
                    d.cycle.len(),
                    d.hops(&self.topo)
                ),
            });
            self.audit_deadlock_reported = true;
        }
        self.audit.note_check(InvariantFamily::Liveness);
    }

    /// Run until the configured end time (or the event queue drains).
    pub fn run(&mut self) {
        self.drive(SimTime::MAX, false);
    }

    /// Run only the events at or before `until` (which must not exceed the
    /// configured end time). Lets callers interleave simulation with
    /// inspection — e.g. taking congestion-tree snapshots mid-run — and
    /// then continue with another `run_until`/`run` call.
    pub fn run_until(&mut self, until: SimTime) {
        self.drive(until, false);
    }

    /// Snapshot the network's detection state for `prio`: every switch
    /// egress port's ternary state, plus the pause edges for
    /// [`tcd_core::tree`] congestion-tree reconstruction.
    ///
    /// Edge semantics: when a switch is back-pressuring (pausing /
    /// credit-constraining) an upstream egress `U`, the paper attributes
    /// that pressure to the congested (or still-undetermined) egress ports
    /// of the pausing switch — the buffer the ingress is accounting for
    /// sits in front of them. Shared-buffer switches cannot attribute the
    /// pressure to a single egress, so every non-idle egress of the
    /// pausing switch gains an edge to `U`; on tree-shaped pause patterns
    /// this reconstructs exactly the paper's trees.
    ///
    /// Port keys are encoded as `node_index << 16 | port_index`.
    pub fn congestion_snapshot(&self, prio: u8) -> tcd_core::tree::Snapshot {
        let key = |n: NodeId, p: u16| ((n.0 as u64) << 16) | p as u64;
        let mut snap = tcd_core::tree::Snapshot::new();
        for n in 0..self.topo.node_count() as u32 {
            let id = NodeId(n);
            let n_ports = self.topo.ports(id).len() as u16;
            // (state per egress, upstream egresses we are pausing)
            let mut states = Vec::with_capacity(n_ports as usize);
            let mut paused_upstreams = Vec::new();
            match self.node(id) {
                Node::Eth(sw) => {
                    for p in 0..n_ports {
                        states.push(sw.port(p).port_state(prio));
                        if sw.port(p).is_pausing_upstream(prio) {
                            let l = self.topo.link(id, p);
                            if self.topo.kind(l.peer) == NodeKind::Switch {
                                paused_upstreams.push(key(l.peer, l.peer_port));
                            }
                        }
                    }
                }
                Node::Ib(sw) => {
                    for p in 0..n_ports {
                        states.push(sw.port(p).port_state(prio));
                        let l = self.topo.link(id, p);
                        if self.topo.kind(l.peer) == NodeKind::Switch
                            && sw.port(p).is_constraining_upstream(prio, l.rate)
                        {
                            paused_upstreams.push(key(l.peer, l.peer_port));
                        }
                    }
                }
                Node::Host(_) => continue,
            }
            for (p, &st) in states.iter().enumerate() {
                let me = key(id, p as u16);
                snap.state(me, st);
                if st != tcd_core::TernaryState::NonCongestion {
                    for &u in &paused_upstreams {
                        if u != me {
                            snap.pause(me, u);
                        }
                    }
                }
            }
        }
        snap
    }

    /// Run until every registered flow has completed, or the configured
    /// end time is reached (whichever comes first). Returns `true` if all
    /// flows completed.
    pub fn run_until_all_complete(&mut self) -> bool {
        self.drive(SimTime::MAX, true);
        self.trace.completed_count == self.trace.flows.len()
    }

    #[expect(
        clippy::indexing_slicing,
        clippy::expect_used,
        reason = "event node ids are created against this topology at setup, so they index nodes in bounds; the RouteUpdate baseline is an invariant the expect() message documents"
    )]
    fn dispatch(&mut self, now: SimTime, ev: Event) {
        self.trace.events += 1;
        self.obs.dispatched(ev.kind_index());
        match ev {
            Event::TraceTick => {
                self.sample_ports(now);
                if let Some(dt) = self.cfg.trace_interval {
                    if now + dt <= self.cfg.end_time {
                        self.queue.schedule(now + dt, Event::TraceTick);
                    }
                }
            }
            Event::LinkState { node, port, up } => {
                // A link fault affects both directions: mark both
                // endpoints, then give each a chance to react (shed a
                // dark egress in lossy mode, restart transmission on
                // recovery). Frames already serialized onto the wire
                // still arrive — only new transmissions are gated.
                let l = *self.topo.link(node, port);
                self.links.set_up(node, port, up);
                self.links.set_up(l.peer, l.peer_port, up);
                self.obs.fault(
                    now,
                    node.0,
                    port,
                    if up {
                        "fault.link_up"
                    } else {
                        "fault.link_down"
                    },
                );
                let mut ctx = ctx!(self, now);
                for (n, p) in [(node, port), (l.peer, l.peer_port)] {
                    match &mut self.nodes[n.index()] {
                        Node::Host(h) => h.on_link_state(&mut ctx, up),
                        Node::Eth(s) => s.on_link_state(&mut ctx, p, up),
                        Node::Ib(s) => s.on_link_state(&mut ctx, p, up),
                    }
                }
            }
            Event::LinkRate { node, port, rate } => {
                // Rate overrides apply to the next transmission on each
                // side; in-flight serializations keep the rate they
                // started with (as on real hardware, where a frame's
                // clocking is fixed once it starts).
                let l = *self.topo.link(node, port);
                self.links.set_rate(node, port, rate, l.rate);
                self.links.set_rate(l.peer, l.peer_port, rate, l.rate);
                self.obs.fault(
                    now,
                    node.0,
                    port,
                    if rate.is_some() {
                        "fault.degrade"
                    } else {
                        "fault.restore"
                    },
                );
            }
            Event::RouteUpdate { set } => {
                // Swap routing tables atomically at the event boundary:
                // packets already queued keep flowing, lookups after this
                // instant see the new tables. Sets always compose from
                // the pristine baseline so updates never stack.
                if self.base_routing.is_none() {
                    self.base_routing = Some(self.routing.clone());
                }
                let base = self
                    .base_routing
                    .as_ref()
                    .expect("baseline routing captured above");
                let mut r = base.clone();
                if set != u32::MAX {
                    for path in &self.cfg.fault_plan.route_sets[set as usize] {
                        r.apply_path(&self.topo, path);
                    }
                }
                self.routing = r;
                self.obs
                    .fault(now, u32::MAX, u16::MAX, "fault.route_update");
            }
            // Its own arm, so the start chain's bookkeeping stays out of
            // the generic node dispatch that every packet event takes.
            Event::FlowStart { flow } => self.start_flow(now, flow),
            ev => {
                let mut ctx = ctx!(self, now);
                dispatch_node_event(&mut self.nodes, &mut ctx, ev);
            }
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "sample_ports entries are validated node ids at config time"
    )]
    fn sample_ports(&mut self, now: SimTime) {
        for &(node, port, prio) in &self.cfg.sample_ports {
            let s = match &self.nodes[node.index()] {
                Node::Eth(sw) => {
                    let p = sw.port(port);
                    PortSample {
                        t: now,
                        node,
                        port,
                        prio,
                        queue_bytes: p.queue_bytes(prio),
                        tx_bytes: p.tx_bytes,
                        state: p.port_state(prio),
                        paused: p.is_paused(prio),
                    }
                }
                Node::Ib(sw) => {
                    let p = sw.port(port);
                    PortSample {
                        t: now,
                        node,
                        port,
                        prio,
                        queue_bytes: p.queue_bytes(prio),
                        tx_bytes: p.tx_bytes,
                        state: p.port_state(prio),
                        paused: p.is_blocked(prio),
                    }
                }
                Node::Host(h) => PortSample {
                    t: now,
                    node,
                    port,
                    prio,
                    queue_bytes: 0,
                    tx_bytes: h.tx_bytes,
                    state: tcd_core::TernaryState::NonCongestion,
                    paused: false,
                },
            };
            self.trace.push_port_sample(s);
        }
    }

    /// A snapshot of the metrics registry with the engine-side counters
    /// that live outside it (per-kind dispatch counts, trace drop
    /// counters) folded in. Pure read — safe to call
    /// at any point, typically once after `run*`. Empty when observability
    /// is off.
    pub fn obs_registry(&self) -> lossless_obs::Registry {
        use lossless_obs::Key;
        let mut reg = self.obs.reg.clone();
        if self.obs.on() {
            for (i, name) in Event::KIND_NAMES.iter().enumerate() {
                reg.set_counter(Key::global(name), self.obs.dispatch_count(i));
            }
            reg.set_counter(Key::global("trace.dropped_marks"), self.trace.dropped_marks);
            reg.set_counter(
                Key::global("trace.dropped_port_samples"),
                self.trace.dropped_port_samples,
            );
            reg.set_counter(Key::global("engine.events"), self.trace.events);
            // Zero in every causally sound run; emitted only when set so
            // clean-run registry fingerprints are unchanged.
            if self.queue.clamped_past() > 0 {
                reg.set_counter(Key::global("event.clamped_past"), self.queue.clamped_past());
            }
        }
        reg
    }
}

/// SplitMix64's increment, the 64-bit golden ratio.
pub(crate) const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 — derives decorrelated per-detector seeds from the master
/// seed, and draws fault plans (`state += GOLDEN` between draws).
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cchooks::FixedRate;
    use crate::config::SimConfig;
    use crate::topology::dumbbell;
    use lossless_flowctl::Rate;

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix(1), splitmix(1));
        assert_ne!(splitmix(1), splitmix(2));
        // Nearby seeds produce far-apart outputs.
        let d = splitmix(100) ^ splitmix(101);
        assert!(d.count_ones() > 16, "poor mixing: {d:b}");
    }

    #[test]
    fn empty_simulation_terminates_immediately() {
        let db = dumbbell(Rate::from_gbps(40), SimDuration::from_us(4));
        let mut sim = Simulator::new(
            db.topo.clone(),
            SimConfig::cee_baseline(SimTime::from_ms(1)),
            crate::routing::RouteSelect::Ecmp,
        );
        sim.run();
        assert_eq!(sim.now(), SimTime::ZERO);
        assert!(sim.trace.flows.is_empty());
    }

    #[test]
    fn congestion_snapshot_of_idle_network_has_no_trees() {
        let db = dumbbell(Rate::from_gbps(40), SimDuration::from_us(4));
        let sim = Simulator::new(
            db.topo.clone(),
            SimConfig::cee_baseline(SimTime::from_ms(1)),
            crate::routing::RouteSelect::Ecmp,
        );
        let snap = sim.congestion_snapshot(1);
        assert!(tcd_core::tree::trees(&snap).is_empty());
        assert!(snap.pause_edges.is_empty());
    }

    #[test]
    fn run_until_respects_the_boundary() {
        let db = dumbbell(Rate::from_gbps(40), SimDuration::from_us(4));
        let mut sim = Simulator::new(
            db.topo.clone(),
            SimConfig::cee_baseline(SimTime::from_ms(10)),
            crate::routing::RouteSelect::Ecmp,
        );
        sim.add_flow(
            db.h0,
            db.h1,
            10_000_000,
            SimTime::ZERO,
            Box::new(FixedRate::line_rate()),
        );
        sim.run_until(SimTime::from_ms(1));
        assert!(sim.now() <= SimTime::from_ms(1));
        let partial = sim.trace.flow(FlowId(0)).delivered.bytes;
        assert!(
            partial > 0 && partial < 10_000_000,
            "mid-flight at 1 ms: {partial}"
        );
        sim.run();
        assert_eq!(sim.trace.flow(FlowId(0)).delivered.bytes, 10_000_000);
    }

    #[test]
    #[should_panic]
    fn flow_from_switch_is_rejected() {
        let db = dumbbell(Rate::from_gbps(40), SimDuration::from_us(4));
        let mut sim = Simulator::new(
            db.topo.clone(),
            SimConfig::cee_baseline(SimTime::from_ms(1)),
            crate::routing::RouteSelect::Ecmp,
        );
        let _ = sim.add_flow(
            db.sw,
            db.h1,
            1000,
            SimTime::ZERO,
            Box::new(FixedRate::line_rate()),
        );
    }
}
