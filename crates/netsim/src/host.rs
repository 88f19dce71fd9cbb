//! Host (endpoint) model: a rate-pacing NIC, sender-side congestion
//! controllers, and receiver-side feedback generation.
//!
//! The NIC mirrors how RDMA NICs schedule queue pairs: there is no deep
//! per-packet egress queue; instead each active flow has a paced
//! next-transmission time, and whenever the wire is free the NIC picks the
//! most overdue eligible flow and puts one MTU on the wire. Hop-by-hop flow
//! control gates eligibility (PFC pause per priority in CEE; per-VL credits
//! in InfiniBand), so a paused host naturally backlogs without modelling an
//! unbounded NIC queue.
//!
//! On the receive side the host sinks data at line rate (granting CBFC
//! credits back immediately in IB mode), so it never back-pressures its
//! ToR: congestion trees are rooted at switch egress ports. It accounts
//! flow completion and generates feedback per the configured
//! [`FeedbackMode`]: DCQCN-style CNPs for marked packets, per-packet ACKs
//! for TIMELY, or nothing.

use crate::cchooks::{CcAction, CcEvent, RateController};
use crate::config::{FeedbackMode, FlowControlMode};
use crate::event::Event;
use crate::packet::{FlowId, Packet, PacketKind};
use crate::sim::Ctx;
use crate::topology::NodeId;
use crate::trace::FlowSpec;
use lossless_flowctl::cbfc::{CbfcReceiver, CbfcSender};
use lossless_flowctl::pfc::PfcEgress;
use lossless_flowctl::units::FCCL_FRAME_BYTES;
use lossless_flowctl::{Rate, SimTime};
use std::collections::VecDeque;
use tcd_core::CodePoint;

/// Reserved timer id for the go-back-N retransmission timeout (lossy
/// mode); controllers must not use it.
const RTO_TIMER: u32 = u32::MAX;

/// The expected fire time of each timer id a flow has outstanding
/// (stale-timer guard): at most the controller's two ids plus
/// [`RTO_TIMER`], held inline. Only ever looked up by id, so slot order
/// never reaches event scheduling.
#[derive(Debug, Default)]
struct FlowTimers {
    slots: [Option<(u32, SimTime)>; 3],
}

impl FlowTimers {
    /// Expect `id` at `at`; a later request for the same id supersedes
    /// the earlier one.
    #[expect(
        clippy::panic,
        reason = "documented contract: a controller keeps at most two timer ids outstanding per flow, a third is a controller bug (ROADMAP item 8 makes it a structured error)"
    )]
    fn set(&mut self, id: u32, at: SimTime) {
        let slots = &mut self.slots;
        let i = slots
            .iter()
            .position(|s| s.is_some_and(|s| s.0 == id))
            .or_else(|| slots.iter().position(Option::is_none));
        match i.and_then(|i| slots.get_mut(i)) {
            Some(slot) => *slot = Some((id, at)),
            None => panic!("controller keeps more than two timer ids outstanding (id {id})"),
        }
    }

    /// When `id` is expected to fire, if it is outstanding.
    fn get(&self, id: u32) -> Option<SimTime> {
        self.slots.iter().flatten().find(|s| s.0 == id).map(|s| s.1)
    }

    /// `id` fired.
    fn clear(&mut self, id: u32) {
        for s in &mut self.slots {
            if s.is_some_and(|s| s.0 == id) {
                *s = None;
            }
        }
    }
}

/// Sender-side state of one active flow.
struct SenderFlow {
    id: FlowId,
    dst: NodeId,
    size: u64,
    /// Next byte offset to put on the wire (rewound on loss recovery).
    sent: u64,
    /// Cumulatively acknowledged bytes (lossy mode; unused in lossless
    /// modes, where delivery is guaranteed).
    acked: u64,
    /// Consecutive duplicate cumulative ACKs (fast-retransmit trigger).
    dup_acks: u32,
    prio: u8,
    next_tx: SimTime,
    cc: Box<dyn RateController>,
    /// `cc.rate()` as of the controller's last `start`/`on_event` — the
    /// only calls that may change it — so the NIC scan and the pacer read
    /// a field instead of making a virtual call per flow. Refreshed in
    /// [`Host::apply_action`].
    rate: Rate,
    timers: FlowTimers,
}

/// Hop-by-hop flow-control state of one priority/VL at the NIC.
enum LaneFc {
    /// CEE, lossless or lossy.
    Eth {
        /// Pause state (set by PAUSE frames from the ToR).
        paused: PfcEgress,
    },
    /// InfiniBand.
    Ib {
        /// Credit sender towards the ToR.
        tx: CbfcSender,
        /// "Wanted to send but had no credits."
        blocked: bool,
        /// Credit receiver (the host's own ingress buffer; drained
        /// instantly, so it only advertises credits back upstream).
        rx: CbfcReceiver,
    },
}

impl LaneFc {
    /// May a `bytes`-long frame leave on this lane now?
    fn can_send(&self, bytes: u64) -> bool {
        match self {
            LaneFc::Eth { paused } => !paused.is_paused(),
            LaneFc::Ib { tx, .. } => tx.can_send(bytes),
        }
    }

    /// IB: remember that a frame was held back for credits, so the next
    /// FCCL re-kicks the NIC.
    fn note_blocked(&mut self) {
        if let LaneFc::Ib { blocked, .. } = self {
            *blocked = true;
        }
    }
}

/// A host endpoint.
pub struct Host {
    id: NodeId,
    line_rate: Rate,
    /// Flow-control state per priority/VL.
    lanes: Vec<LaneFc>,
    /// Outgoing link-local control frames (FCCL), sent before anything else.
    ctrl: VecDeque<Box<Packet>>,
    /// Outgoing end-to-end feedback packets awaiting the NIC.
    feedback_q: VecDeque<Box<Packet>>,
    /// Active sender flows (small; linear scans are fine).
    active: Vec<SenderFlow>,
    /// Cumulative data bytes transmitted (trace sampling).
    pub tx_bytes: u64,
}

impl Host {
    /// Create a host attached to a link of `line_rate`, configured per
    /// `fc` with `num_prios` priorities/VLs.
    pub fn new(id: NodeId, line_rate: Rate, fc: &FlowControlMode, num_prios: u8) -> Host {
        let lanes = (0..num_prios)
            .map(|_| match fc {
                FlowControlMode::Cbfc(c) => LaneFc::Ib {
                    tx: CbfcSender::new(*c),
                    blocked: false,
                    rx: CbfcReceiver::new(*c),
                },
                FlowControlMode::Pfc(_) | FlowControlMode::Lossy { .. } => LaneFc::Eth {
                    paused: PfcEgress::new(),
                },
            })
            .collect();
        Host {
            id,
            line_rate,
            lanes,
            ctrl: VecDeque::new(),
            feedback_q: VecDeque::new(),
            active: Vec::new(),
            tx_bytes: 0,
        }
    }

    /// The NIC's line rate.
    pub fn line_rate(&self) -> Rate {
        self.line_rate
    }

    /// The current CC rate of an active flow, if still sending.
    pub fn flow_rate(&self, flow: FlowId) -> Option<Rate> {
        self.active.iter().find(|f| f.id == flow).map(|f| f.rate)
    }

    /// Start a flow: install its controller and kick the NIC.
    pub fn start_flow(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: FlowId,
        spec: &FlowSpec,
        mut cc: Box<dyn RateController>,
    ) {
        let action = cc.start(ctx.now, self.line_rate);
        let mut flow = SenderFlow {
            id,
            dst: spec.dst,
            size: spec.size,
            sent: 0,
            acked: 0,
            dup_acks: 0,
            prio: spec.prio,
            next_tx: ctx.now,
            cc,
            rate: Rate::ZERO,
            timers: FlowTimers::default(),
        };
        Self::apply_action(ctx, self.id, &mut flow, action);
        if ctx.cfg.is_lossy() {
            // Arm the retransmission timeout.
            let at = ctx.now + ctx.cfg.rto;
            flow.timers.set(RTO_TIMER, at);
            ctx.q.schedule(
                at,
                Event::CcTimer {
                    node: self.id,
                    flow: id,
                    timer: RTO_TIMER,
                },
            );
        }
        self.active.push(flow);
        self.kick(ctx);
    }

    /// Finish a controller call (`start` or `on_event`): schedule the
    /// timers it asked for and re-read its rate.
    fn apply_action(ctx: &mut Ctx<'_>, host: NodeId, flow: &mut SenderFlow, action: CcAction) {
        flow.rate = flow.cc.rate();
        for (id, delay) in action.timers() {
            let at = ctx.now + delay;
            flow.timers.set(id, at);
            ctx.q.schedule(
                at,
                Event::CcTimer {
                    node: host,
                    flow: flow.id,
                    timer: id,
                },
            );
        }
    }

    /// Deliver a CC timer expiry.
    #[expect(
        clippy::indexing_slicing,
        reason = "flow index comes from position() on the same vec"
    )]
    pub fn on_cc_timer(&mut self, ctx: &mut Ctx<'_>, flow_id: FlowId, timer: u32) {
        let Some(idx) = self.active.iter().position(|f| f.id == flow_id) else {
            return; // flow finished sending; stale timer
        };
        let flow = &mut self.active[idx];
        if flow.timers.get(timer) != Some(ctx.now) {
            return; // superseded
        }
        flow.timers.clear(timer);
        if timer == RTO_TIMER {
            // Go-back-N: rewind to the last acknowledged byte and re-arm.
            if flow.acked < flow.size {
                flow.sent = flow.acked;
                flow.next_tx = ctx.now;
                let at = ctx.now + ctx.cfg.rto;
                flow.timers.set(RTO_TIMER, at);
                ctx.q.schedule(
                    at,
                    Event::CcTimer {
                        node: self.id,
                        flow: flow_id,
                        timer: RTO_TIMER,
                    },
                );
            }
            self.kick(ctx);
            return;
        }
        let ev = CcEvent::Timer { id: timer };
        ctx.obs.cc_event(self.id.0, ev.kind_name());
        let action = flow.cc.on_event(ctx.now, ev);
        Self::apply_action(ctx, self.id, flow, action);
        self.kick(ctx);
    }

    /// Ask the engine to run `port_tx` as soon as the NIC could usefully
    /// transmit.
    pub fn kick(&mut self, ctx: &mut Ctx<'_>) {
        ctx.kick(self.id, 0);
    }

    /// The lane record of `prio`.
    #[expect(
        clippy::indexing_slicing,
        reason = "prio < num_prios is validated at flow registration and config build; lanes is sized num_prios at construction"
    )]
    fn lane(&mut self, prio: u8) -> &mut LaneFc {
        &mut self.lanes[prio as usize]
    }

    /// The NIC transmitter is (possibly) free: send the next frame.
    #[expect(
        clippy::indexing_slicing,
        reason = "the flow index comes from enumerate() over the same vec; flow prios index lanes, sized num_prios at construction"
    )]
    pub fn port_tx(&mut self, ctx: &mut Ctx<'_>) {
        if !ctx.tx_ready(self.id, 0) {
            return;
        }

        // 1. Link-local control (FCCL) preempts everything and is ungated.
        if let Some(pkt) = self.ctrl.pop_front() {
            ctx.transmit(self.id, 0, pkt);
            return;
        }

        // 2. End-to-end feedback next.
        if let Some(pkt) = self.feedback_q.front() {
            let (prio, size) = (pkt.prio, pkt.size);
            if self.lane(prio).can_send(size) {
                if let Some(pkt) = self.feedback_q.pop_front() {
                    self.transmit(ctx, pkt);
                }
                return;
            }
            self.lane(ctx.cfg.feedback_prio).note_blocked();
        }

        // 3. Data: pick the most overdue eligible flow.
        let mtu = ctx.cfg.mtu;
        let mut best: Option<usize> = None;
        let mut best_key = (SimTime::MAX, u32::MAX);
        let mut pacing_wake: Option<SimTime> = None;
        for (i, f) in self.active.iter().enumerate() {
            if f.sent >= f.size {
                // Lossy mode: everything sent, waiting for ACKs (or an RTO
                // rewind).
                continue;
            }
            let seg = mtu.min(f.size - f.sent);
            let lane = &mut self.lanes[f.prio as usize];
            if !lane.can_send(seg) {
                lane.note_blocked();
                continue;
            }
            if f.rate == Rate::ZERO {
                continue; // fully throttled; a CC event will re-kick
            }
            if f.next_tx <= ctx.now {
                let key = (f.next_tx, f.id.0);
                if key < best_key {
                    best_key = key;
                    best = Some(i);
                }
            } else {
                pacing_wake = Some(match pacing_wake {
                    Some(w) => w.min(f.next_tx),
                    None => f.next_tx,
                });
            }
        }

        let Some(i) = best else {
            // Nothing due now; wake when the earliest pacer allows.
            if let Some(w) = pacing_wake {
                ctx.wake_at(self.id, 0, w);
            }
            return;
        };

        let lossy = ctx.cfg.is_lossy();
        let f = &mut self.active[i];
        let seg = mtu.min(f.size - f.sent);
        let last = f.sent + seg == f.size;
        let mut pkt = ctx.pool.boxed(Packet::data(
            f.id,
            self.id,
            f.dst,
            seg,
            f.prio,
            f.sent,
            last,
            CodePoint::Capable,
        ));
        pkt.sent_at = ctx.now;
        f.sent += seg;
        // Pace the next segment at the CC rate.
        f.next_tx = ctx.now + f.rate.serialize_time(seg);
        let ev = CcEvent::Sent { bytes: seg };
        ctx.obs.cc_event(self.id.0, ev.kind_name());
        let action = f.cc.on_event(ctx.now, ev);
        let fid = f.id;
        {
            let f = &mut self.active[i];
            Self::apply_action(ctx, self.id, f, action);
        }
        // Lossless modes: delivery is guaranteed, the flow leaves the
        // sender once everything is on the wire. Lossy mode: the flow
        // stays until cumulatively acknowledged.
        if last && !lossy {
            self.active.retain(|f| f.id != fid);
        }
        self.tx_bytes += seg;
        self.transmit(ctx, pkt);
    }

    /// Put a credit-gated frame (feedback or data) on the wire.
    fn transmit(&mut self, ctx: &mut Ctx<'_>, pkt: Box<Packet>) {
        if let LaneFc::Ib { tx, .. } = self.lane(pkt.prio) {
            tx.on_send(pkt.size);
        }
        ctx.transmit(self.id, 0, pkt);
    }

    /// A packet finished arriving at this host.
    pub fn on_packet(&mut self, ctx: &mut Ctx<'_>, mut pkt: Box<Packet>) {
        match pkt.kind {
            PacketKind::Pause { prio, pause } => {
                if let LaneFc::Eth { paused } = self.lane(prio) {
                    if paused.on_frame(pause) {
                        ctx.obs.pfc_frame_rx(ctx.now, self.id.0, 0, prio, pause);
                        if !pause {
                            self.kick(ctx);
                        }
                    }
                }
                ctx.pool.recycle(pkt);
            }
            PacketKind::Fccl { vl, fccl } => {
                if let LaneFc::Ib { tx, blocked, .. } = self.lane(vl) {
                    tx.on_fccl(fccl);
                    if *blocked && tx.available_blocks() > 0 {
                        *blocked = false;
                        self.kick(ctx);
                    }
                }
                ctx.pool.recycle(pkt);
            }
            PacketKind::Data => self.on_data(ctx, pkt),
            PacketKind::Ack {
                data_sent_at,
                echo,
                acked_bytes,
            } => {
                self.account_feedback_rx(pkt.prio, pkt.size);
                if ctx.cfg.is_lossy() {
                    self.on_reliable_ack(ctx, pkt.flow, acked_bytes);
                }
                let rtt = ctx.now.saturating_since(data_sent_at);
                let flow = pkt.flow;
                let int = std::mem::take(&mut pkt.int);
                ctx.pool.recycle(pkt);
                self.deliver_cc_event(
                    ctx,
                    flow,
                    CcEvent::Ack {
                        rtt,
                        code: echo,
                        bytes: acked_bytes,
                        int,
                    },
                );
            }
            PacketKind::Cnp { code } => {
                self.account_feedback_rx(pkt.prio, pkt.size);
                let flow = pkt.flow;
                ctx.pool.recycle(pkt);
                self.deliver_cc_event(ctx, flow, CcEvent::Feedback { code });
            }
        }
    }

    /// IB mode: feedback packets occupy this host's receive buffer like any
    /// other arrival and are freed immediately by NIC-level processing. The
    /// upstream switch paid CBFC credits to deliver them, so skipping this
    /// accounting would let its FCTBS drift ahead of our ABR and slowly
    /// leak credits out of the loop.
    fn account_feedback_rx(&mut self, prio: u8, bytes: u64) {
        if let LaneFc::Ib { rx, .. } = self.lane(prio) {
            rx.on_packet_received(bytes);
            rx.on_buffer_freed(bytes);
        }
    }

    /// Go-back-N reliability (lossy mode): process a cumulative ACK.
    #[expect(
        clippy::indexing_slicing,
        reason = "flow index comes from position() on the same vec"
    )]
    fn on_reliable_ack(&mut self, ctx: &mut Ctx<'_>, flow_id: FlowId, cum: u64) {
        let Some(idx) = self.active.iter().position(|f| f.id == flow_id) else {
            return;
        };
        let f = &mut self.active[idx];
        if cum > f.acked {
            f.acked = cum;
            f.dup_acks = 0;
            if f.acked >= f.size {
                // Fully acknowledged: the flow is done at the sender.
                self.active.retain(|x| x.id != flow_id);
                return;
            }
            // Progress: push the RTO out.
            let at = ctx.now + ctx.cfg.rto;
            f.timers.set(RTO_TIMER, at);
            ctx.q.schedule(
                at,
                Event::CcTimer {
                    node: self.id,
                    flow: flow_id,
                    timer: RTO_TIMER,
                },
            );
        } else {
            // Duplicate cumulative ACK: after three, fast-retransmit by
            // rewinding to the hole.
            f.dup_acks += 1;
            if f.dup_acks >= 3 {
                f.dup_acks = 0;
                f.sent = f.acked;
                f.next_tx = ctx.now;
                self.kick(ctx);
            }
        }
    }

    fn deliver_cc_event(&mut self, ctx: &mut Ctx<'_>, flow_id: FlowId, ev: CcEvent) {
        if let Some(f) = self.active.iter_mut().find(|f| f.id == flow_id) {
            ctx.obs.cc_event(self.id.0, ev.kind_name());
            let action = f.cc.on_event(ctx.now, ev);
            Self::apply_action(ctx, self.id, f, action);
            self.kick(ctx);
        }
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, mut pkt: Box<Packet>) {
        if let LaneFc::Ib { rx, .. } = self.lane(pkt.prio) {
            // Account and immediately free the host ingress buffer, so the
            // next FCCL advertises the space back upstream.
            rx.on_packet_received(pkt.size);
            rx.on_buffer_freed(pkt.size);
        }

        // A segment that lossy mode's go-back-N discards (a duplicate, or
        // one past a gap) still elicits a (duplicate) cumulative ACK.
        let lossy = ctx.cfg.is_lossy();
        let in_order = ctx.trace.receive(ctx.now, &pkt, lossy);

        match ctx.cfg.feedback {
            FeedbackMode::None => ctx.pool.recycle(pkt),
            FeedbackMode::CnpOnMarked {
                min_interval,
                notify_ue,
            } => {
                let notify = pkt.code.is_ce() || (notify_ue && pkt.code.is_ue());
                if notify && ctx.trace.cnp_due(pkt.flow, ctx.now, min_interval) {
                    let cnp = ctx.pool.boxed(Packet::feedback(
                        pkt.flow,
                        self.id,
                        pkt.src,
                        ctx.cfg.feedback_bytes,
                        ctx.cfg.feedback_prio,
                        PacketKind::Cnp { code: pkt.code },
                    ));
                    self.feedback_q.push_back(cnp);
                    self.kick(ctx);
                }
                ctx.pool.recycle(pkt);
            }
            FeedbackMode::AckPerPacket => {
                // Lossy mode carries the *cumulative* in-order byte count
                // (the go-back-N ACK); lossless modes carry the segment
                // size (TIMELY only uses the RTT).
                let acked_bytes = if lossy { in_order } else { pkt.size };
                let mut ack = Packet::feedback(
                    pkt.flow,
                    self.id,
                    pkt.src,
                    ctx.cfg.feedback_bytes,
                    ctx.cfg.feedback_prio,
                    PacketKind::Ack {
                        data_sent_at: pkt.sent_at,
                        echo: pkt.code,
                        acked_bytes,
                    },
                );
                // Echo the in-band telemetry back to the sender, and reuse
                // the delivered data packet's allocation for its ACK.
                ack.int = std::mem::take(&mut pkt.int);
                *pkt = ack;
                self.feedback_q.push_back(pkt);
                self.kick(ctx);
            }
        }
    }

    /// Periodic CBFC credit update: advertise this host's ingress buffer
    /// upstream and reschedule the tick.
    pub fn on_fccl_tick(&mut self, ctx: &mut Ctx<'_>, vl: u8) {
        let LaneFc::Ib { rx, .. } = self.lane(vl) else {
            return; // FCCL ticks are only scheduled in InfiniBand mode
        };
        let (period, fccl) = (rx.update_period(), rx.fccl());
        // A dark link carries no credit updates, but the tick train keeps
        // running so advertisement resumes on recovery.
        if ctx.links.is_up(self.id, 0) {
            let msg = ctx.pool.boxed(Packet::link_local(
                PacketKind::Fccl { vl, fccl },
                FCCL_FRAME_BYTES,
                ctx.cfg.feedback_prio,
            ));
            self.ctrl.push_back(msg);
            self.kick(ctx);
        }
        ctx.q.schedule(
            ctx.now + period,
            Event::FcclTick {
                node: self.id,
                port: 0,
                vl,
            },
        );
    }

    /// The NIC's link changed state (fault injection). Hosts are held by
    /// the lossless policy on failure; on recovery the kick restarts the
    /// transmitter and held control/feedback/data drain in order.
    pub fn on_link_state(&mut self, ctx: &mut Ctx<'_>, up: bool) {
        if up {
            self.kick(ctx);
        }
    }

    /// Packets currently buffered in this host (control + feedback queue).
    #[cfg(feature = "audit")]
    pub(crate) fn audit_queued_packets(&self) -> usize {
        self.ctrl.len() + self.feedback_q.len()
    }

    /// Checkpoint: the host's CBFC receive buffer must be empty (it frees
    /// every arrival at once), its credit senders must respect the
    /// switch's advertised limit, and every sender flow's cached rate must
    /// be its controller's.
    #[cfg(feature = "audit")]
    pub(crate) fn audit_check(&self, a: &mut crate::audit::Audit, now: SimTime) {
        use crate::audit::{InvariantFamily, Violation};

        for f in &self.active {
            let want = f.cc.rate();
            if f.rate != want {
                a.report(Violation {
                    family: InvariantFamily::BufferAccounting,
                    t: now,
                    node: self.id,
                    port: 0,
                    prio: f.prio,
                    message: format!(
                        "flow {} paces at a cached {:?} but its controller says {want:?}",
                        f.id.0, f.rate
                    ),
                });
            }
        }
        for (prio, lane) in self.lanes.iter().enumerate() {
            let LaneFc::Ib { tx, rx, .. } = lane else {
                continue;
            };
            let mut report = |family, message| {
                a.report(Violation {
                    family,
                    t: now,
                    node: self.id,
                    port: 0,
                    prio: prio as u8,
                    message,
                })
            };
            let occ = rx.occupied_blocks();
            if occ != 0 {
                report(
                    InvariantFamily::BufferAccounting,
                    format!("host ingress occupancy {occ} blocks, want 0"),
                );
            }
            let cap = rx.capacity_blocks();
            if occ > cap {
                report(
                    InvariantFamily::BufferAccounting,
                    format!("host receive buffer holds {occ} blocks, capacity is {cap}"),
                );
            }
            let (fctbs, fccl) = (tx.fctbs(), tx.fccl_limit());
            if fctbs > fccl {
                report(
                    InvariantFamily::ProtocolLegality,
                    format!("FCTBS {fctbs} exceeds the advertised FCCL {fccl}"),
                );
            }
        }
    }

    /// Sender-side credit state towards the ToR: `(FCTBS, FCCL)`.
    #[cfg(feature = "audit")]
    pub(crate) fn audit_cbfc_tx(&self, vl: u8) -> Option<(u64, u64)> {
        match self.lanes.get(vl as usize)? {
            LaneFc::Ib { tx, .. } => Some((tx.fctbs(), tx.fccl_limit())),
            LaneFc::Eth { .. } => None,
        }
    }

    /// Receiver-side credit state: `(ABR, occupied, capacity)`.
    #[cfg(feature = "audit")]
    pub(crate) fn audit_cbfc_rx(&self, vl: u8) -> Option<(u64, u64, u64)> {
        match self.lanes.get(vl as usize)? {
            LaneFc::Ib { rx, .. } => Some((rx.abr(), rx.occupied_blocks(), rx.capacity_blocks())),
            LaneFc::Eth { .. } => None,
        }
    }
}
