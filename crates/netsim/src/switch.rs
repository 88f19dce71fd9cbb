//! The Converged-Enhanced-Ethernet switch: shared buffer, per-egress FIFO
//! queues per priority, per-ingress PFC byte accounting, and a congestion
//! detector on every egress (port, data-priority).
//!
//! The architecture follows the ns-3 RDMA model the paper builds on
//! (§5.2.1): packets are physically queued at their egress, while a
//! per-(ingress port, priority) byte counter tracks how much of the shared
//! buffer each ingress is responsible for. When a counter exceeds `X_off`
//! the switch sends a PAUSE upstream through that ingress port; when it
//! drains to `X_on` it sends RESUME. An egress that receives a PAUSE stops
//! serving that priority — that is the ON-OFF pattern TCD observes.

use crate::config::FlowControlMode;
use crate::event::Event;
use crate::packet::{Packet, PacketKind};
use crate::sim::Ctx;
use crate::topology::NodeId;
use lossless_flowctl::pfc::{PfcCommand, PfcEgress, PfcIngress};
use lossless_flowctl::units::CTRL_FRAME_BYTES;
use lossless_flowctl::SimTime;
use std::collections::VecDeque;
use tcd_core::detector::{CongestionDetector, DequeueContext};
use tcd_core::TernaryState;

/// One (port, priority) lane of an Ethernet switch: the egress FIFO with
/// its pause state and detector, plus the PFC accounting of packets that
/// *arrived* through this port on this priority.
struct EthLane {
    /// Egress FIFO.
    q: VecDeque<Box<Packet>>,
    /// Queued bytes.
    qbytes: u64,
    /// Pause state of this egress (set by the downstream switch's PAUSE
    /// frames).
    paused: PfcEgress,
    /// PFC accounting for packets that arrived through this port.
    pfc_in: PfcIngress,
    /// Number of times this egress was paused. Packets stamp the epoch at
    /// enqueue; an advance during their wait means they were "delayed by
    /// flow control" — the input NP-ECN-style detectors need.
    pause_epoch: u64,
    /// Congestion detector (only the data priority's is consulted, but
    /// every lane owns one for uniformity).
    det: Box<dyn CongestionDetector>,
    /// Earliest pending detector-timer event.
    det_timer: Option<SimTime>,
    /// Last detector state observed, used to detect Fig.-6 transitions
    /// for the observability layer without polling.
    last_state: TernaryState,
}

/// The per-port state that is not per-priority.
struct EthPortCtl {
    /// Link-local control frames (PAUSE/RESUME) to send out this port;
    /// preempt all data.
    ctrl: VecDeque<Box<Packet>>,
    /// Cumulative data bytes transmitted (trace sampling).
    tx_bytes: u64,
}

/// A read-only view of one port of an Ethernet switch (egress queues +
/// ingress accounting), for traces and tests.
pub struct EthPort<'a> {
    lanes: &'a [EthLane],
    /// Cumulative data bytes transmitted (trace sampling).
    pub tx_bytes: u64,
}

impl EthPort<'_> {
    #[expect(
        clippy::indexing_slicing,
        reason = "prio < num_prios is validated at config build; a port's lane slice is num_prios long"
    )]
    fn lane(&self, prio: u8) -> &EthLane {
        &self.lanes[prio as usize]
    }

    /// Egress queue length in bytes for `prio`.
    pub fn queue_bytes(&self, prio: u8) -> u64 {
        self.lane(prio).qbytes
    }

    /// Whether this egress is paused for `prio`.
    pub fn is_paused(&self, prio: u8) -> bool {
        self.lane(prio).paused.is_paused()
    }

    /// The detector's current belief for `prio`.
    pub fn port_state(&self, prio: u8) -> TernaryState {
        self.lane(prio).det.port_state()
    }

    /// Total PAUSE frames this port's ingress accounting has emitted.
    pub fn pauses_sent(&self) -> u64 {
        self.lanes.iter().map(|l| l.pfc_in.pauses_sent()).sum()
    }

    /// Whether this port's ingress accounting currently has an outstanding
    /// PAUSE towards its upstream neighbour for `prio`.
    pub fn is_pausing_upstream(&self, prio: u8) -> bool {
        self.lane(prio).pfc_in.is_pausing_upstream()
    }
}

/// A shared-buffer Ethernet switch with PFC, or a drop-tail lossy switch.
pub struct EthSwitch {
    id: NodeId,
    /// Priorities per port.
    np: usize,
    /// One record per (port, priority): `lanes[port * np + prio]`.
    lanes: Vec<EthLane>,
    ports: Vec<EthPortCtl>,
    /// Total bytes buffered across the switch (high-water tracked).
    buffered: u64,
    /// Buffer high-water mark.
    pub max_buffered: u64,
    /// Lossy mode: per-(egress, priority) drop-tail limit. `None` = PFC
    /// (lossless) mode.
    drop_tail: Option<u64>,
}

impl EthSwitch {
    /// Build a switch for `node` with `n_ports` ports of `num_prios`
    /// lanes each. `mk_det` builds the detector for each `(port, prio)`.
    #[expect(
        clippy::panic,
        reason = "construction contract: the simulator builds an EthSwitch only when the flow-control mode is PFC or lossy"
    )]
    pub fn new(
        id: NodeId,
        n_ports: usize,
        num_prios: u8,
        fc: &FlowControlMode,
        mut mk_det: impl FnMut(u16, u8) -> Box<dyn CongestionDetector>,
    ) -> EthSwitch {
        let (pfc_cfg, drop_tail) = match fc {
            FlowControlMode::Pfc(p) => (*p, None),
            FlowControlMode::Lossy {
                egress_buffer_bytes,
            } => {
                // PFC machinery is instantiated but the thresholds are
                // unreachable (drop-tail caps the buffers far below them).
                (
                    lossless_flowctl::pfc::PfcConfig::new(u64::MAX - 1, u64::MAX - 2),
                    Some(*egress_buffer_bytes),
                )
            }
            FlowControlMode::Cbfc(_) => panic!("EthSwitch cannot run CBFC"),
        };
        let np = num_prios as usize;
        let mut lanes = Vec::with_capacity(n_ports * np);
        for p in 0..n_ports {
            for pr in 0..np {
                let det = mk_det(p as u16, pr as u8);
                lanes.push(EthLane {
                    q: VecDeque::new(),
                    qbytes: 0,
                    paused: PfcEgress::new(),
                    pfc_in: PfcIngress::new(pfc_cfg),
                    pause_epoch: 0,
                    last_state: det.port_state(),
                    det,
                    det_timer: None,
                });
            }
        }
        let ports = (0..n_ports)
            .map(|_| EthPortCtl {
                ctrl: VecDeque::new(),
                tx_bytes: 0,
            })
            .collect();
        EthSwitch {
            id,
            np,
            lanes,
            ports,
            buffered: 0,
            max_buffered: 0,
            drop_tail,
        }
    }

    /// Access a port (for traces and tests).
    #[expect(
        clippy::indexing_slicing,
        reason = "port indices come from the topology, which sized the ports vec and (x num_prios) the lanes vec"
    )]
    pub fn port(&self, p: u16) -> EthPort<'_> {
        let first = p as usize * self.np;
        EthPort {
            lanes: &self.lanes[first..first + self.np],
            tx_bytes: self.ports[p as usize].tx_bytes,
        }
    }

    /// The lane record of `(port, prio)`.
    #[expect(
        clippy::indexing_slicing,
        reason = "ports come from the topology/routing tables that sized this switch, prio < num_prios is validated at config build"
    )]
    fn lane(&mut self, port: u16, prio: usize) -> &mut EthLane {
        &mut self.lanes[port as usize * self.np + prio]
    }

    /// Push a PAUSE/RESUME frame out through `port` (towards the upstream
    /// node that is over/under-filling us).
    #[expect(
        clippy::indexing_slicing,
        reason = "port indices come from the topology, which sized the ports vec"
    )]
    fn send_pfc(&mut self, ctx: &mut Ctx<'_>, port: u16, prio: u8, pause: bool) {
        let frame = ctx.pool.boxed(Packet::link_local(
            PacketKind::Pause { prio, pause },
            CTRL_FRAME_BYTES,
            0,
        ));
        self.ports[port as usize].ctrl.push_back(frame);
        ctx.trace.pause_frames += 1;
        ctx.obs.pfc_frame_tx(ctx.now, self.id.0, port, prio, pause);
        ctx.kick(self.id, port);
    }

    /// Report a detector state change for `(port, prio)` to the
    /// observability layer (cheap two-byte compare when nothing changed).
    fn obs_note_state(&mut self, ctx: &mut Ctx<'_>, port: u16, prio: u8) {
        let id = self.id;
        let l = self.lane(port, prio as usize);
        let cur = l.det.port_state();
        let prev = l.last_state;
        if cur != prev {
            l.last_state = cur;
            ctx.obs.transition(ctx.now, id.0, port, prio, prev, cur);
        }
    }

    /// Re-sync the detector timer for `(port, prio)` with the engine.
    fn sync_det_timer(&mut self, ctx: &mut Ctx<'_>, port: u16, prio: u8) {
        let node = self.id;
        let l = self.lane(port, prio as usize);
        if let Some(dl) = l.det.timer_deadline() {
            if l.det_timer.is_none_or(|t| dl < t) {
                ctx.q
                    .schedule(dl, Event::DetectorTimer { node, port, prio });
                l.det_timer = Some(dl);
            }
        }
    }

    /// A detector trend timer fired.
    pub fn on_detector_timer(&mut self, ctx: &mut Ctx<'_>, port: u16, prio: u8) {
        // Back-pressure signal: is this switch currently pausing any
        // upstream on this priority? (Shared-buffer accounting cannot
        // attribute the pause to one egress, so this is switch-wide — a
        // conservative approximation discussed in DESIGN.md.)
        let backpressured = self
            .lanes
            .iter()
            .skip(prio as usize)
            .step_by(self.np)
            .any(|l| l.pfc_in.is_pausing_upstream());
        {
            let l = self.lane(port, prio as usize);
            if l.det_timer == Some(ctx.now) {
                l.det_timer = None;
            }
            if l.det.timer_deadline() == Some(ctx.now) {
                l.det.on_timer(ctx.now, l.qbytes, backpressured);
            }
        }
        self.obs_note_state(ctx, port, prio);
        #[cfg(feature = "audit")]
        self.audit_note_state(ctx, port, prio);
        self.sync_det_timer(ctx, port, prio);
    }

    /// A packet finished arriving through `in_port`.
    pub fn on_packet(&mut self, ctx: &mut Ctx<'_>, in_port: u16, mut pkt: Box<Packet>) {
        let id = self.id;
        if let PacketKind::Pause { prio, pause } = pkt.kind {
            // PAUSE from the downstream node on this link: gate our egress.
            let l = self.lane(in_port, prio as usize);
            let changed = l.paused.on_frame(pause);
            if changed {
                ctx.obs.pfc_frame_rx(ctx.now, id.0, in_port, prio, pause);
                if pause {
                    l.pause_epoch += 1;
                    l.det.on_pause(ctx.now);
                } else {
                    l.det.on_resume(ctx.now);
                    self.sync_det_timer(ctx, in_port, prio);
                    ctx.kick(id, in_port);
                }
                self.obs_note_state(ctx, in_port, prio);
                #[cfg(feature = "audit")]
                self.audit_note_state(ctx, in_port, prio);
            }
            ctx.pool.recycle(pkt);
            return;
        }
        if pkt.kind.is_link_local() {
            // An FCCL frame can only reach an Ethernet switch through a
            // wiring bug: report it (audited builds), assert (plain debug
            // builds), and consume the frame instead of mis-forwarding it.
            #[cfg(feature = "audit")]
            ctx.audit
                .misrouted_control_frame(ctx.now, id, in_port, "FCCL at an Ethernet switch");
            #[cfg(not(feature = "audit"))]
            debug_assert!(false, "FCCL frame at an Ethernet switch");
            ctx.pool.recycle(pkt);
            return;
        }

        // Forward: enqueue at the routed egress, account the ingress.
        let out = ctx.routing.out_port(id, pkt.dst, pkt.flow);
        let prio = pkt.prio as usize;
        // Lossy mode: drop-tail at the egress queue. Feedback packets are
        // spared (they are tiny and model hardware-prioritized control).
        if let Some(limit) = self.drop_tail {
            if pkt.is_data() && self.lane(out, prio).qbytes + pkt.size > limit {
                ctx.trace.drops += 1;
                ctx.pool.recycle(pkt);
                return;
            }
        }
        pkt.in_port = in_port;
        self.buffered += pkt.size;
        self.max_buffered = self.max_buffered.max(self.buffered);
        if let Some(PfcCommand::SendPause) = self.lane(in_port, prio).pfc_in.on_enqueue(pkt.size) {
            #[cfg(feature = "audit")]
            {
                let pin = &self.lane(in_port, prio).pfc_in;
                ctx.audit.pfc_pause_sent(
                    ctx.now,
                    id,
                    in_port,
                    prio as u8,
                    pin.buffered_bytes(),
                    pin.config().xoff_bytes,
                );
            }
            self.send_pfc(ctx, in_port, prio as u8, true);
        }
        let ol = self.lane(out, prio);
        pkt.enq_epoch = ol.pause_epoch;
        ol.qbytes += pkt.size;
        ol.q.push_back(pkt);
        ctx.kick(id, out);
    }

    /// The egress transmitter of `port` is (possibly) free.
    #[expect(
        clippy::indexing_slicing,
        reason = "port echoes back from events this switch scheduled, so it indexes the ports vec and (x num_prios) the lanes vec in bounds"
    )]
    pub fn port_tx(&mut self, ctx: &mut Ctx<'_>, port: u16) {
        let id = self.id;
        if !ctx.tx_ready(id, port) {
            return;
        }

        // Control frames preempt data and ignore pause state.
        if let Some(frame) = self.ports[port as usize].ctrl.pop_front() {
            ctx.transmit(id, port, frame);
            return;
        }

        // Strict priority among unpaused, non-empty queues.
        let first = port as usize * self.np;
        let Some(prio) = self.lanes[first..first + self.np]
            .iter()
            .position(|l| !l.paused.is_paused() && !l.q.is_empty())
        else {
            return; // idle; a future enqueue/RESUME will kick us
        };
        let l = self.lane(port, prio);

        // The scan above saw a non-empty queue; an empty pop here means the
        // queue/byte accounting diverged. Surface a structured violation
        // (audited builds) or assert (plain debug builds) instead of
        // panicking on `unwrap`, and leave the port idle otherwise.
        let Some(mut pkt) = l.q.pop_front() else {
            #[cfg(feature = "audit")]
            ctx.audit
                .empty_dequeue(ctx.now, id, port, prio as u8, l.qbytes);
            #[cfg(not(feature = "audit"))]
            debug_assert!(false, "empty dequeue at port {port} prio {prio}");
            return;
        };
        let q_incl = l.qbytes;
        l.qbytes -= pkt.size;
        self.buffered -= pkt.size;

        // Ingress accounting: the departing packet frees its ingress share.
        let in_port = pkt.in_port;
        if let Some(PfcCommand::SendResume) = self.lane(in_port, prio).pfc_in.on_dequeue(pkt.size) {
            #[cfg(feature = "audit")]
            {
                let pin = &self.lane(in_port, prio).pfc_in;
                ctx.audit.pfc_resume_sent(
                    ctx.now,
                    id,
                    in_port,
                    prio as u8,
                    pin.buffered_bytes(),
                    pin.config().xon_bytes,
                );
            }
            self.send_pfc(ctx, in_port, prio as u8, false);
        }

        // Congestion detection on the dequeue path (data packets on the
        // data priority only; feedback is never marked).
        if pkt.is_data() && pkt.prio == ctx.cfg.data_prio {
            let l = self.lane(port, prio);
            // "Delayed by flow control": the egress was paused at some
            // point while this packet waited (pause-epoch advanced).
            let dctx = DequeueContext {
                now: ctx.now,
                queue_bytes: q_incl,
                delayed_by_fc: l.pause_epoch > pkt.enq_epoch,
            };
            if let Some(mark) = l.det.on_dequeue(&dctx) {
                pkt.code = pkt.code.apply(mark);
                ctx.trace.on_mark(ctx.now, id, port, pkt.flow, mark);
                ctx.obs.mark(ctx.now, id.0, port, prio as u8, mark, q_incl);
                #[cfg(feature = "audit")]
                ctx.audit
                    .note_mark(ctx.now, id, port, prio as u8, mark, l.det.port_state());
            }
            self.obs_note_state(ctx, port, prio as u8);
            #[cfg(feature = "audit")]
            self.audit_note_state(ctx, port, prio as u8);
            self.sync_det_timer(ctx, port, prio as u8);
        }

        pkt.in_port = u16::MAX;
        ctx.trace.forwarded_pkts += 1;
        let pc = &mut self.ports[port as usize];
        pc.tx_bytes += pkt.size;
        if ctx.cfg.int_telemetry && pkt.is_data() {
            pkt.int.push(crate::packet::IntHop {
                qlen_bytes: q_incl - pkt.size,
                tx_bytes: pc.tx_bytes,
                ts: ctx.now,
                rate: ctx.topo.link(id, port).rate,
            });
        }
        ctx.transmit(id, port, pkt);
    }

    /// The link on `port` changed state (fault injection). On recovery
    /// the egress restarts — held control frames (PAUSE/RESUME queued
    /// while the port was dark) drain first, re-arming the peer's PFC
    /// state before any data moves. On failure a lossless switch holds
    /// everything (zero-loss policy); a lossy switch sheds the dark
    /// egress as counted drops.
    pub fn on_link_state(&mut self, ctx: &mut Ctx<'_>, port: u16, up: bool) {
        if up {
            ctx.kick(self.id, port);
            return;
        }
        if self.drop_tail.is_none() {
            return; // lossless: hold queues until the link recovers
        }
        // Drain the dark egress, keeping byte and ingress accounting
        // exact. Lossy mode parks the PFC thresholds at u64::MAX, so the
        // on_dequeue calls can never emit a RESUME here.
        for prio in 0..self.np {
            while let Some(pkt) = self.lane(port, prio).q.pop_front() {
                self.lane(port, prio).qbytes -= pkt.size;
                self.buffered -= pkt.size;
                let _ = self.lane(pkt.in_port, prio).pfc_in.on_dequeue(pkt.size);
                ctx.trace.drops += 1;
                ctx.pool.recycle(pkt);
            }
        }
    }

    /// Blocked channels for the runtime deadlock watchdog: egress ports
    /// holding data they are not allowed to transmit (PFC-paused on a
    /// non-empty priority). Downed links are excluded — they resolve on
    /// recovery and are not a wait-for dependency.
    #[cfg(feature = "audit")]
    pub(crate) fn audit_blocked_channels(&self) -> Vec<u16> {
        self.lanes
            .chunks(self.np)
            .enumerate()
            .filter(|(_, port)| port.iter().any(|l| l.paused.is_paused() && !l.q.is_empty()))
            .map(|(pi, _)| pi as u16)
            .collect()
    }

    /// Wait-for successors of the upstream channel feeding `ingress`:
    /// for each priority this switch is currently pausing that upstream
    /// on, the paused egresses holding at least one packet that entered
    /// through `ingress` — the buffer share the upstream is being paused
    /// for sits in front of exactly those egresses.
    #[cfg(feature = "audit")]
    #[expect(
        clippy::indexing_slicing,
        reason = "ingress comes from the topology that sized this switch, prio ranges over 0..num_prios and chunks(np) yields np-long slices"
    )]
    pub(crate) fn audit_wait_successors(&self, ingress: u16) -> Vec<u16> {
        let mut v = Vec::new();
        for prio in 0..self.np {
            if !self.lanes[ingress as usize * self.np + prio]
                .pfc_in
                .is_pausing_upstream()
            {
                continue;
            }
            for (pi, port) in self.lanes.chunks(self.np).enumerate() {
                let l = &port[prio];
                if l.paused.is_paused() && l.q.iter().any(|k| k.in_port == ingress) {
                    v.push(pi as u16);
                }
            }
        }
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Feed the auditor the detector's current state for `(port, prio)`.
    #[cfg(feature = "audit")]
    #[expect(
        clippy::indexing_slicing,
        reason = "called with the (port, prio) of the lane the caller just worked on"
    )]
    fn audit_note_state(&self, ctx: &mut Ctx<'_>, port: u16, prio: u8) {
        let l = &self.lanes[port as usize * self.np + prio as usize];
        ctx.audit.note_state(
            ctx.now,
            self.id,
            port,
            prio,
            l.det.port_state(),
            l.pause_epoch,
        );
    }

    /// Boxes currently queued in this switch (conservation check).
    #[cfg(feature = "audit")]
    pub(crate) fn audit_queued_packets(&self) -> usize {
        self.ports.iter().map(|p| p.ctrl.len()).sum::<usize>()
            + self.lanes.iter().map(|l| l.q.len()).sum::<usize>()
    }

    /// Checkpoint checks: per-priority byte counters match the queue
    /// contents, per-ingress PFC counters sum to the shared-buffer
    /// occupancy and respect the thresholds, and the pause state is
    /// consistent with the counters.
    #[cfg(feature = "audit")]
    pub(crate) fn audit_check(&self, a: &mut crate::audit::Audit, now: SimTime) {
        use crate::audit::{InvariantFamily, Violation};
        let headroom = a.config().pfc_headroom_bytes;
        let lossy = self.drop_tail.is_some();
        let mut queued_total: u64 = 0;
        let mut ingress_total: u64 = 0;
        for (pi, port) in self.lanes.chunks(self.np).enumerate() {
            for (prio, l) in port.iter().enumerate() {
                let actual: u64 = l.q.iter().map(|k| k.size).sum();
                if actual != l.qbytes {
                    a.report(Violation {
                        family: InvariantFamily::BufferAccounting,
                        t: now,
                        node: self.id,
                        port: pi as u16,
                        prio: prio as u8,
                        message: format!(
                            "egress byte counter {} != queued bytes {actual}",
                            l.qbytes
                        ),
                    });
                }
                queued_total += actual;
                let pin = &l.pfc_in;
                let b = pin.buffered_bytes();
                ingress_total += b;
                // Lossy mode parks the PFC thresholds at u64::MAX; only
                // lossless mode makes threshold claims.
                if !lossy {
                    let cfg = pin.config();
                    if b > cfg.xoff_bytes.saturating_add(headroom) {
                        a.report(Violation {
                            family: InvariantFamily::BufferAccounting,
                            t: now,
                            node: self.id,
                            port: pi as u16,
                            prio: prio as u8,
                            message: format!(
                                "ingress counter {b} exceeds X_off {} + headroom {headroom}",
                                cfg.xoff_bytes
                            ),
                        });
                    }
                    if pin.is_pausing_upstream() && b <= cfg.xon_bytes {
                        a.report(Violation {
                            family: InvariantFamily::ProtocolLegality,
                            t: now,
                            node: self.id,
                            port: pi as u16,
                            prio: prio as u8,
                            message: format!(
                                "PAUSE outstanding while counter {b} <= X_on {}",
                                cfg.xon_bytes
                            ),
                        });
                    }
                    if !pin.is_pausing_upstream() && b > cfg.xoff_bytes {
                        a.report(Violation {
                            family: InvariantFamily::ProtocolLegality,
                            t: now,
                            node: self.id,
                            port: pi as u16,
                            prio: prio as u8,
                            message: format!(
                                "no PAUSE outstanding while counter {b} > X_off {}",
                                cfg.xoff_bytes
                            ),
                        });
                    }
                }
            }
        }
        if queued_total != self.buffered {
            a.report(Violation {
                family: InvariantFamily::BufferAccounting,
                t: now,
                node: self.id,
                port: u16::MAX,
                prio: u8::MAX,
                message: format!(
                    "shared-buffer counter {} != queued bytes {queued_total}",
                    self.buffered
                ),
            });
        }
        if ingress_total != self.buffered {
            a.report(Violation {
                family: InvariantFamily::BufferAccounting,
                t: now,
                node: self.id,
                port: u16::MAX,
                prio: u8::MAX,
                message: format!(
                    "per-ingress PFC counters sum to {ingress_total} but occupancy is {}",
                    self.buffered
                ),
            });
        }
    }
}
