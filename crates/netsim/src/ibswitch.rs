//! The InfiniBand switch: virtual cut-through, input buffering with virtual
//! output queues (VoQ), per-VL credit-based flow control, and a congestion
//! detector on every egress (port, VL) — the architecture the paper's IB
//! simulations use (§5.2.2).
//!
//! Each input port owns a receive buffer (paper: 280 KB) organised as VoQs
//! per (VL, output port). The buffer is paid for with CBFC credits: the
//! upstream node may only send while it holds credits, and this switch
//! advertises fresh credits (FCCL) every `T_c` as packets leave the input
//! buffer. Each egress arbitrates round-robin over the input VoQs destined
//! to it; a head packet that cannot leave for lack of *downstream* credits
//! is flagged `delayed_by_fc` — the IB CC FECN "victim" signal — and the
//! egress registers an OFF period for the TCD detector.

use crate::config::FlowControlMode;
use crate::event::Event;
use crate::packet::{Packet, PacketKind};
use crate::sim::Ctx;
use crate::topology::NodeId;
use lossless_flowctl::cbfc::{CbfcReceiver, CbfcSender};
use lossless_flowctl::units::{bytes_to_blocks, FCCL_FRAME_BYTES};
use lossless_flowctl::{Rate, SimTime};
use std::collections::VecDeque;
use tcd_core::detector::{CongestionDetector, DequeueContext};
use tcd_core::TernaryState;

/// One (port, VL) lane of an InfiniBand switch: the ingress side of the
/// port's receive buffer on this VL and the egress side towards its peer.
struct IbLane {
    /// Ingress: credit receiver (this port's receive buffer).
    rx: CbfcReceiver,
    /// Egress: credit sender (towards this port's peer).
    tx: CbfcSender,
    /// Egress: wanted to send but lacked credits.
    blocked: bool,
    /// Egress: number of times `blocked` transitioned to true. Packets
    /// stamp this at enqueue; an advance during their wait marks them
    /// "delayed due to lack of credits" (the FECN victim input).
    block_epoch: u64,
    /// Egress: detector.
    det: Box<dyn CongestionDetector>,
    /// Earliest pending detector-timer event.
    det_timer: Option<SimTime>,
    /// Last detector state observed, used to detect Fig.-6 transitions
    /// for the observability layer without polling.
    last_state: TernaryState,
    /// Egress: round-robin pointer over input ports.
    rr: usize,
    /// Egress: total backlog destined to this output (sum over all input
    /// VoQs) — the "output queue length" of the IB CC rule.
    out_backlog: u64,
}

impl IbLane {
    /// Whether this lane's ingress is currently credit-constraining its
    /// upstream: the free space is below what a sender at `line_rate`
    /// would need per credit-update period.
    fn is_constraining_upstream(&self, line_rate: Rate) -> bool {
        let line_blocks = bytes_to_blocks(line_rate.bytes_in(self.rx.update_period()));
        self.rx.free_blocks() < line_blocks
    }
}

/// The per-port state that is not per-VL.
struct IbPortCtl {
    /// Egress: link-local FCCL frames to emit.
    ctrl: VecDeque<Box<Packet>>,
    /// Egress: remaining weighted-round-robin quantum per VL, in bytes
    /// (empty unless the switch has VL weights configured).
    wrr_deficit: Vec<i64>,
    /// Egress: WRR pointer over the data VLs.
    wrr_next: usize,
    /// Cumulative data bytes transmitted (trace sampling).
    tx_bytes: u64,
}

/// A read-only view of one port of an InfiniBand switch, for traces and
/// tests.
pub struct IbPort<'a> {
    lanes: &'a [IbLane],
    /// Cumulative data bytes transmitted (trace sampling).
    pub tx_bytes: u64,
}

impl IbPort<'_> {
    #[expect(
        clippy::indexing_slicing,
        reason = "vl < num_vls is validated at config build; a port's lane slice is num_vls long"
    )]
    fn lane(&self, vl: u8) -> &IbLane {
        &self.lanes[vl as usize]
    }

    /// Output backlog in bytes for `vl` (the IB "output queue length").
    pub fn queue_bytes(&self, vl: u8) -> u64 {
        self.lane(vl).out_backlog
    }

    /// Whether this egress is currently credit-blocked for `vl`.
    pub fn is_blocked(&self, vl: u8) -> bool {
        self.lane(vl).blocked
    }

    /// The detector's current belief for `vl`.
    pub fn port_state(&self, vl: u8) -> TernaryState {
        self.lane(vl).det.port_state()
    }

    /// Whether this port's ingress is currently credit-constraining its
    /// upstream for `vl`: the free space is below what a sender at
    /// `line_rate` would need per credit-update period.
    pub fn is_constraining_upstream(&self, vl: u8, line_rate: Rate) -> bool {
        self.lane(vl).is_constraining_upstream(line_rate)
    }
}

/// Round-robin arbitration over the inputs feeding one egress lane: the
/// first occupied input at or after `start`, wrapping around. Bit `i` of
/// `occ` (word `i / 64`) says input `i`'s VoQ holds a packet; bits at or
/// beyond `n_ports` are never set.
fn next_input(occ: &[u64], start: usize, n_ports: usize) -> Option<usize> {
    debug_assert!(start < n_ports && n_ports <= occ.len() * 64);
    let (w0, below) = (start / 64, (1u64 << (start % 64)) - 1);
    let pick = |w: usize, bits: u64| (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize);
    let at = |w: usize| occ.get(w).copied().unwrap_or(0);
    pick(w0, at(w0) & !below)
        .or_else(|| (w0 + 1..occ.len()).find_map(|w| pick(w, at(w))))
        .or_else(|| (0..w0).find_map(|w| pick(w, at(w))))
        .or_else(|| pick(w0, at(w0) & below))
}

/// The inputs whose bit is set in `occ`, ascending.
fn occupied(occ: &[u64]) -> impl Iterator<Item = usize> + '_ {
    occ.iter().enumerate().flat_map(|(w, &bits)| {
        let mut rest = bits;
        std::iter::from_fn(move || {
            let b = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
            rest &= rest - 1;
            Some(w * 64 + b)
        })
    })
}

/// A VL service order, held inline: VL indices are `u8`, so 256 slots
/// cover every configuration.
struct VlList {
    vls: [u8; 256],
    len: usize,
}

impl VlList {
    fn new() -> VlList {
        VlList {
            vls: [0; 256],
            len: 0,
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "an order lists each of at most 256 VLs once"
    )]
    fn push(&mut self, vl: usize) {
        self.vls[self.len] = vl as u8;
        self.len += 1;
    }

    /// The `k`-th VL to offer the transmitter.
    #[expect(
        clippy::indexing_slicing,
        reason = "k < num_vls == len: wrr_order lists every VL exactly once"
    )]
    fn get(&self, k: usize) -> usize {
        self.vls[k] as usize
    }
}

/// Weighted round-robin VL order for one egress (§4.5): the feedback VL
/// first; then the data VLs that still hold quantum, starting from the
/// WRR pointer; then the exhausted ones, so the link never idles while
/// work exists. Quanta are `weight x mtu` bytes and are refilled (in
/// `deficits`) when no backlogged data VL has any left.
#[expect(
    clippy::indexing_slicing,
    reason = "every index is a VL in 0..weights.len(), and deficits has one entry per weight (both sized num_vls in new())"
)]
fn wrr_order(
    weights: &[u32],
    deficits: &mut [i64],
    backlogged: impl Fn(usize) -> bool,
    wrr_next: usize,
    feedback_vl: usize,
    mtu: u64,
) -> VlList {
    let n_data = weights.len() - 1;
    // The k-th data VL: VL indices with the feedback VL skipped.
    let data = |k: usize| k + usize::from(k >= feedback_vl);
    let mut order = VlList::new();
    order.push(feedback_vl);
    if !(0..n_data)
        .map(data)
        .any(|v| backlogged(v) && deficits[v] > 0)
    {
        for v in (0..n_data).map(data) {
            deficits[v] = weights[v] as i64 * mtu as i64;
        }
    }
    for i in 0..n_data {
        let v = data((wrr_next + i) % n_data);
        if deficits[v] > 0 {
            order.push(v);
        }
    }
    for v in (0..n_data).map(data) {
        if deficits[v] <= 0 {
            order.push(v);
        }
    }
    order
}

/// An input-buffered VoQ InfiniBand switch.
pub struct IbSwitch {
    id: NodeId,
    n_ports: usize,
    /// VLs per port.
    nvl: usize,
    /// One record per (port, VL): `lanes[port * nvl + vl]`.
    lanes: Vec<IbLane>,
    ports: Vec<IbPortCtl>,
    /// The VoQs, egress-lane-major: the packets that arrived through
    /// input `i` for egress lane `e = out * nvl + vl` wait in
    /// `voqs[e * n_ports + i]`, so one egress arbitrates over one
    /// contiguous run. (The buffer they occupy is still the *input's*:
    /// `lanes[i * nvl + vl].rx`.)
    voqs: Vec<VecDeque<Box<Packet>>>,
    /// Which of those VoQs are non-empty: `occ_words` words per egress
    /// lane, bit `i` of `occ[e * occ_words..]` for input `i`.
    occ: Vec<u64>,
    occ_words: usize,
    /// VL arbitration weights (paper §4.5); `None` = strict priority.
    vl_weights: Option<Vec<u32>>,
    /// The VL with absolute priority (feedback), exempt from WRR.
    feedback_vl: u8,
}

impl IbSwitch {
    /// Build a switch with `n_ports` ports of `num_vls` lanes each.
    /// `mk_det` builds the detector for each `(port, vl)`.
    #[expect(
        clippy::panic,
        reason = "construction contract: the simulator builds an IbSwitch only when the flow-control mode is CBFC"
    )]
    pub fn new(
        id: NodeId,
        n_ports: usize,
        num_vls: u8,
        fc: &FlowControlMode,
        vl_weights: Option<Vec<u32>>,
        feedback_vl: u8,
        mut mk_det: impl FnMut(u16, u8) -> Box<dyn CongestionDetector>,
    ) -> IbSwitch {
        let FlowControlMode::Cbfc(cbfc_cfg) = fc else {
            panic!("IbSwitch requires CBFC flow control");
        };
        if let Some(w) = &vl_weights {
            assert_eq!(w.len(), num_vls as usize, "one weight per VL");
            assert!(w.iter().any(|&x| x > 0), "at least one positive VL weight");
        }
        let nvl = num_vls as usize;
        let mut lanes = Vec::with_capacity(n_ports * nvl);
        for p in 0..n_ports {
            for vl in 0..nvl {
                let det = mk_det(p as u16, vl as u8);
                lanes.push(IbLane {
                    rx: CbfcReceiver::new(*cbfc_cfg),
                    tx: CbfcSender::new(*cbfc_cfg),
                    blocked: false,
                    block_epoch: 0,
                    last_state: det.port_state(),
                    det,
                    det_timer: None,
                    rr: 0,
                    out_backlog: 0,
                });
            }
        }
        let ports = (0..n_ports)
            .map(|_| IbPortCtl {
                ctrl: VecDeque::new(),
                wrr_deficit: vec![0; vl_weights.as_ref().map_or(0, Vec::len)],
                wrr_next: 0,
                tx_bytes: 0,
            })
            .collect();
        let occ_words = n_ports.div_ceil(64);
        IbSwitch {
            id,
            n_ports,
            nvl,
            lanes,
            ports,
            voqs: (0..n_ports * nvl * n_ports)
                .map(|_| VecDeque::new())
                .collect(),
            occ: vec![0; n_ports * nvl * occ_words],
            occ_words,
            vl_weights,
            feedback_vl,
        }
    }

    /// The WRR order in which `port` offers its VLs the transmitter, or
    /// `None` under strict priority (plain index order).
    #[expect(
        clippy::indexing_slicing,
        reason = "port echoes back from this switch's events, so it indexes the ports vec and (x num_vls) the lanes vec in bounds; the closure is only asked about VLs in 0..num_vls"
    )]
    fn wrr_order(&mut self, port: u16, mtu: u64) -> Option<VlList> {
        let weights = self.vl_weights.as_deref()?;
        let first = port as usize * self.nvl;
        let lanes = &self.lanes[first..first + self.nvl];
        let p = &mut self.ports[port as usize];
        Some(wrr_order(
            weights,
            &mut p.wrr_deficit,
            |v| lanes[v].out_backlog > 0,
            p.wrr_next,
            self.feedback_vl as usize,
            mtu,
        ))
    }

    /// Charge a WRR transmission to `vl`'s quantum and advance the pointer.
    #[expect(
        clippy::indexing_slicing,
        reason = "port echoes back from this switch's events; vl comes from wrr_order, which only yields indices in 0..num_vls == wrr_deficit.len()"
    )]
    fn wrr_charge(&mut self, port: u16, vl: usize, bytes: u64) {
        if self.vl_weights.is_none() || vl == self.feedback_vl as usize {
            return;
        }
        let p = &mut self.ports[port as usize];
        p.wrr_deficit[vl] -= bytes as i64;
        if p.wrr_deficit[vl] <= 0 {
            // Move on to the next data VL.
            let data_count = self.nvl.saturating_sub(1).max(1);
            p.wrr_next = (p.wrr_next + 1) % data_count;
        }
    }

    /// Access a port (for traces and tests).
    #[expect(
        clippy::indexing_slicing,
        reason = "port indices come from the topology, which sized the ports vec and (x num_vls) the lanes vec"
    )]
    pub fn port(&self, p: u16) -> IbPort<'_> {
        let first = p as usize * self.nvl;
        IbPort {
            lanes: &self.lanes[first..first + self.nvl],
            tx_bytes: self.ports[p as usize].tx_bytes,
        }
    }

    /// The lane record of `(port, vl)`.
    #[expect(
        clippy::indexing_slicing,
        reason = "ports come from the topology/routing tables that sized this switch or echo back from its own events; vl < num_vls is validated at config build"
    )]
    fn lane(&mut self, port: u16, vl: usize) -> &mut IbLane {
        &mut self.lanes[port as usize * self.nvl + vl]
    }

    /// The occupancy words of egress lane `(port, vl)`.
    #[expect(
        clippy::indexing_slicing,
        reason = "occ holds occ_words words for each of the n_ports x num_vls egress lanes"
    )]
    fn occ_of(&self, port: u16, vl: usize) -> &[u64] {
        let e = port as usize * self.nvl + vl;
        &self.occ[e * self.occ_words..(e + 1) * self.occ_words]
    }

    /// Report a detector state change for `(port, vl)` to the
    /// observability layer (cheap two-byte compare when nothing changed).
    fn obs_note_state(&mut self, ctx: &mut Ctx<'_>, port: u16, vl: u8) {
        let id = self.id;
        let l = self.lane(port, vl as usize);
        let cur = l.det.port_state();
        let prev = l.last_state;
        if cur != prev {
            l.last_state = cur;
            ctx.obs.transition(ctx.now, id.0, port, vl, prev, cur);
        }
    }

    fn sync_det_timer(&mut self, ctx: &mut Ctx<'_>, port: u16, vl: u8) {
        let node = self.id;
        let l = self.lane(port, vl as usize);
        if let Some(dl) = l.det.timer_deadline() {
            if l.det_timer.is_none_or(|t| dl < t) {
                ctx.q.schedule(
                    dl,
                    Event::DetectorTimer {
                        node,
                        port,
                        prio: vl,
                    },
                );
                l.det_timer = Some(dl);
            }
        }
    }

    /// A detector trend timer fired.
    #[expect(
        clippy::indexing_slicing,
        reason = "occupied() yields inputs below n_ports, and vl < num_vls, so the lane index is in bounds"
    )]
    pub fn on_detector_timer(&mut self, ctx: &mut Ctx<'_>, port: u16, vl: u8) {
        // Back-pressure signal: some input holding traffic for this egress
        // is credit-constrained by us. Under CBFC an input in steady state
        // equilibrates with free space equal to the upstream's granted
        // share per credit period, so "constrained" means the free space
        // is below what a line-rate sender would need per period
        // (C · T_c): the upstream is being held under its line rate.
        let backpressured = occupied(self.occ_of(port, vl as usize)).any(|i| {
            let line = ctx.topo.link(self.id, i as u16).rate;
            self.lanes[i * self.nvl + vl as usize].is_constraining_upstream(line)
        });
        {
            let l = self.lane(port, vl as usize);
            if l.det_timer == Some(ctx.now) {
                l.det_timer = None;
            }
            if l.det.timer_deadline() == Some(ctx.now) {
                l.det.on_timer(ctx.now, l.out_backlog, backpressured);
            }
        }
        self.obs_note_state(ctx, port, vl);
        #[cfg(feature = "audit")]
        self.audit_note_state(ctx, port, vl);
        self.sync_det_timer(ctx, port, vl);
    }

    /// Periodic credit update for `(port, vl)`: advertise the input
    /// buffer's FCCL upstream and reschedule.
    #[expect(
        clippy::indexing_slicing,
        reason = "port echoes back from FcclTick events this switch scheduled"
    )]
    pub fn on_fccl_tick(&mut self, ctx: &mut Ctx<'_>, port: u16, vl: u8) {
        let rx = &self.lane(port, vl as usize).rx;
        let (period, fccl) = (rx.update_period(), rx.fccl());
        // A dark port emits no credit updates (nothing crosses a downed
        // link), but the tick train keeps running so advertisement
        // resumes on recovery.
        if ctx.links.is_up(self.id, port) {
            let frame = ctx.pool.boxed(Packet::link_local(
                PacketKind::Fccl { vl, fccl },
                FCCL_FRAME_BYTES,
                0,
            ));
            self.ports[port as usize].ctrl.push_back(frame);
            ctx.obs.fccl_tx(ctx.now, self.id.0, port, vl, fccl);
            ctx.kick(self.id, port);
        }
        ctx.q.schedule(
            ctx.now + period,
            Event::FcclTick {
                node: self.id,
                port,
                vl,
            },
        );
    }

    /// A packet finished arriving through `in_port`.
    #[expect(
        clippy::indexing_slicing,
        reason = "in_port/out come from the topology and routing table, both below n_ports; vl validated at config build; voqs and occ are sized for every (egress lane, input) pair"
    )]
    pub fn on_packet(&mut self, ctx: &mut Ctx<'_>, in_port: u16, mut pkt: Box<Packet>) {
        let id = self.id;
        if let PacketKind::Fccl { vl, fccl } = pkt.kind {
            // Fresh credits for our egress on this link.
            let l = self.lane(in_port, vl as usize);
            l.tx.on_fccl(fccl);
            if l.blocked && l.tx.available_blocks() > 0 {
                l.blocked = false;
                l.det.on_resume(ctx.now);
                ctx.obs.credit_stall(ctx.now, id.0, in_port, vl, false);
                self.obs_note_state(ctx, in_port, vl);
                #[cfg(feature = "audit")]
                self.audit_note_state(ctx, in_port, vl);
                self.sync_det_timer(ctx, in_port, vl);
                ctx.kick(id, in_port);
            }
            ctx.pool.recycle(pkt);
            return;
        }
        if pkt.kind.is_link_local() {
            // A PAUSE frame can only reach an InfiniBand switch through a
            // wiring bug: report it (audited builds), assert (plain debug
            // builds), and consume the frame instead of mis-forwarding it.
            #[cfg(feature = "audit")]
            ctx.audit.misrouted_control_frame(
                ctx.now,
                id,
                in_port,
                "PAUSE at an InfiniBand switch",
            );
            #[cfg(not(feature = "audit"))]
            debug_assert!(false, "PAUSE frame at an InfiniBand switch");
            ctx.pool.recycle(pkt);
            return;
        }

        // Buffer at this input; route to a VoQ.
        let vl = pkt.prio as usize;
        let out = ctx.routing.out_port(id, pkt.dst, pkt.flow);
        let size = pkt.size;
        pkt.in_port = in_port;
        let ol = self.lane(out, vl);
        pkt.enq_epoch = ol.block_epoch;
        ol.out_backlog += size;
        self.lane(in_port, vl).rx.on_packet_received(size);
        let e = out as usize * self.nvl + vl;
        self.voqs[e * self.n_ports + in_port as usize].push_back(pkt);
        self.occ[e * self.occ_words + in_port as usize / 64] |= 1 << (in_port % 64);
        ctx.kick(id, out);
    }

    /// The egress transmitter of `port` is (possibly) free.
    #[expect(
        clippy::indexing_slicing,
        reason = "port echoes back from this switch's events; VLs come from 0..num_vls or wrr_order, inputs from next_input (below n_ports); lanes, voqs and occ are sized for every such index"
    )]
    pub fn port_tx(&mut self, ctx: &mut Ctx<'_>, port: u16) {
        let id = self.id;
        if !ctx.tx_ready(id, port) {
            return;
        }

        // FCCL frames preempt data and are not credit-gated (real IB
        // reserves dedicated credits for flow-control packets).
        if let Some(frame) = self.ports[port as usize].ctrl.pop_front() {
            ctx.transmit(id, port, frame);
            return;
        }

        // VL order: strict priority, or WRR when weights are configured
        // (§4.5); round-robin across input ports within a VL.
        let wrr = self.wrr_order(port, ctx.cfg.mtu);
        let (n_ports, nvl, words) = (self.n_ports, self.nvl, self.occ_words);
        for k in 0..nvl {
            let vl = wrr.as_ref().map_or(k, |order| order.get(k));
            let e = port as usize * nvl + vl;
            let lane = &mut self.lanes[e];
            if lane.out_backlog == 0 {
                continue;
            }
            // The next input holding a head packet for (vl, port).
            let head = next_input(&self.occ[e * words..(e + 1) * words], lane.rr, n_ports)
                .and_then(|i| Some((i, self.voqs[e * n_ports + i].front_mut()?)));
            let Some((i, head)) = head else {
                // A positive backlog counter with no VoQ head behind it
                // means the accounting diverged: structured violation
                // instead of an opaque panic.
                #[cfg(feature = "audit")]
                ctx.audit
                    .empty_dequeue(ctx.now, id, port, vl as u8, lane.out_backlog);
                #[cfg(not(feature = "audit"))]
                debug_assert!(false, "backlog without a VoQ head");
                continue;
            };
            if !lane.tx.can_send(head.size) {
                // Out of credits: the head is a flow-control victim and
                // this egress enters an OFF period.
                head.delayed_by_fc = true;
                lane.tx.note_credit_stall();
                if !lane.blocked {
                    lane.blocked = true;
                    lane.block_epoch += 1;
                    lane.det.on_pause(ctx.now);
                    ctx.obs.credit_stall(ctx.now, id.0, port, vl as u8, true);
                    self.obs_note_state(ctx, port, vl as u8);
                    #[cfg(feature = "audit")]
                    self.audit_note_state(ctx, port, vl as u8);
                }
                continue; // other VLs may still have credits
            }

            // Dequeue the head (`front_mut` above proved the VoQ
            // non-empty) and hand its buffer space back to the input.
            let voq = &mut self.voqs[e * n_ports + i];
            let Some(mut pkt) = voq.pop_front() else {
                continue;
            };
            if voq.is_empty() {
                self.occ[e * words + i / 64] &= !(1 << (i % 64));
            }
            self.lanes[i * nvl + vl].rx.on_buffer_freed(pkt.size);
            let lane = &mut self.lanes[e];
            let q_incl = lane.out_backlog;
            lane.out_backlog -= pkt.size;
            lane.rr = (i + 1) % n_ports;
            lane.tx.on_send(pkt.size);

            if pkt.is_data() && pkt.prio == ctx.cfg.data_prio {
                // "Delayed due to lack of credits": the packet was at the
                // head during a stall, or the egress stalled at any point
                // while it waited (the block epoch advanced).
                let dctx = DequeueContext {
                    now: ctx.now,
                    queue_bytes: q_incl,
                    delayed_by_fc: pkt.delayed_by_fc || lane.block_epoch > pkt.enq_epoch,
                };
                if let Some(mark) = lane.det.on_dequeue(&dctx) {
                    pkt.code = pkt.code.apply(mark);
                    ctx.trace.on_mark(ctx.now, id, port, pkt.flow, mark);
                    ctx.obs.mark(ctx.now, id.0, port, vl as u8, mark, q_incl);
                    #[cfg(feature = "audit")]
                    ctx.audit
                        .note_mark(ctx.now, id, port, vl as u8, mark, lane.det.port_state());
                }
                self.obs_note_state(ctx, port, vl as u8);
                #[cfg(feature = "audit")]
                self.audit_note_state(ctx, port, vl as u8);
                self.sync_det_timer(ctx, port, vl as u8);
            }

            pkt.in_port = u16::MAX;
            pkt.delayed_by_fc = false;
            ctx.trace.forwarded_pkts += 1;
            self.ports[port as usize].tx_bytes += pkt.size;
            self.wrr_charge(port, vl, pkt.size);
            ctx.transmit(id, port, pkt);
            return;
        }
        // Nothing sendable: idle until a kick (enqueue or FCCL arrival).
    }

    /// The link on `port` changed state (fault injection). IB is always
    /// lossless: on failure every VoQ holds its contents and the credit
    /// machinery simply stops advertising; on recovery the next FCCL
    /// tick re-arms the peer and the kick restarts the transmitter.
    pub fn on_link_state(&mut self, ctx: &mut Ctx<'_>, port: u16, up: bool) {
        if up {
            ctx.kick(self.id, port);
        }
    }

    /// Blocked channels for the runtime deadlock watchdog: egress ports
    /// with backlog they are not allowed to transmit (credit-blocked on
    /// a VL with queued bytes). Downed links are excluded — they resolve
    /// on recovery and are not a wait-for dependency.
    #[cfg(feature = "audit")]
    pub(crate) fn audit_blocked_channels(&self) -> Vec<u16> {
        self.lanes
            .chunks(self.nvl)
            .enumerate()
            .filter(|(_, port)| port.iter().any(|l| l.blocked && l.out_backlog > 0))
            .map(|(pi, _)| pi as u16)
            .collect()
    }

    /// The VoQ holding what arrived through `ingress` for egress lane
    /// `(out, vl)`.
    #[cfg(feature = "audit")]
    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass ingress/out below n_ports and vl below num_vls; voqs is sized for every such triple"
    )]
    fn audit_voq(&self, ingress: usize, vl: usize, out: usize) -> &VecDeque<Box<Packet>> {
        &self.voqs[(out * self.nvl + vl) * self.n_ports + ingress]
    }

    /// Wait-for successors of the upstream channel feeding `ingress`:
    /// the upstream is out of credits because this ingress buffer cannot
    /// drain, and the bytes occupying it sit in VoQs — indexed by
    /// ingress structurally — in front of credit-blocked egresses.
    #[cfg(feature = "audit")]
    #[expect(
        clippy::indexing_slicing,
        reason = "out ranges over 0..n_ports and vl over 0..num_vls, the ranges lanes is sized from"
    )]
    pub(crate) fn audit_wait_successors(&self, ingress: u16) -> Vec<u16> {
        (0..self.n_ports)
            .filter(|&out| {
                (0..self.nvl).any(|vl| {
                    !self.audit_voq(ingress as usize, vl, out).is_empty()
                        && self.lanes[out * self.nvl + vl].blocked
                })
            })
            .map(|out| out as u16)
            .collect()
    }

    /// Record the detector's current belief for `(port, vl)` with the
    /// auditor, which validates the transition against Fig. 6.
    #[cfg(feature = "audit")]
    #[expect(
        clippy::indexing_slicing,
        reason = "called with the (port, vl) of the lane the caller just worked on"
    )]
    fn audit_note_state(&self, ctx: &mut Ctx<'_>, port: u16, vl: u8) {
        let l = &self.lanes[port as usize * self.nvl + vl as usize];
        ctx.audit.note_state(
            ctx.now,
            self.id,
            port,
            vl,
            l.det.port_state(),
            l.block_epoch,
        );
    }

    /// Packets currently buffered in this switch (control + all VoQs).
    #[cfg(feature = "audit")]
    pub(crate) fn audit_queued_packets(&self) -> usize {
        self.ports.iter().map(|p| p.ctrl.len()).sum::<usize>()
            + self.voqs.iter().map(|q| q.len()).sum::<usize>()
    }

    /// Checkpoint: VoQ contents vs. credit-receiver occupancy, receive
    /// buffers within capacity, senders within their advertised limit,
    /// egress backlog counters vs. the VoQs feeding them, and the
    /// occupancy bitset vs. VoQ emptiness.
    #[cfg(feature = "audit")]
    #[expect(
        clippy::indexing_slicing,
        reason = "pi and vl enumerate 0..n_ports and 0..num_vls, the ranges that sized lanes, voqs and occ"
    )]
    pub(crate) fn audit_check(&self, a: &mut crate::audit::Audit, now: SimTime) {
        use crate::audit::{InvariantFamily, Violation};

        for (pi, port) in self.lanes.chunks(self.nvl).enumerate() {
            for (vl, l) in port.iter().enumerate() {
                let mut report = |family, message| {
                    a.report(Violation {
                        family,
                        t: now,
                        node: self.id,
                        port: pi as u16,
                        prio: vl as u8,
                        message,
                    })
                };
                // Ingress: the receive buffer is exactly the VoQ contents.
                let blocks: u64 = (0..self.n_ports)
                    .flat_map(|out| self.audit_voq(pi, vl, out))
                    .map(|k| bytes_to_blocks(k.size))
                    .sum();
                let occ = l.rx.occupied_blocks();
                if occ != blocks {
                    report(
                        InvariantFamily::BufferAccounting,
                        format!("ingress occupancy {occ} blocks != VoQ contents {blocks} blocks"),
                    );
                }
                let cap = l.rx.capacity_blocks();
                if occ > cap {
                    report(
                        InvariantFamily::BufferAccounting,
                        format!("receive buffer holds {occ} blocks, capacity is {cap}"),
                    );
                }
                // Egress: a sender must never have consumed past its limit.
                let fctbs = l.tx.fctbs();
                let fccl = l.tx.fccl_limit();
                if fctbs > fccl {
                    report(
                        InvariantFamily::ProtocolLegality,
                        format!("FCTBS {fctbs} exceeds the advertised FCCL {fccl}"),
                    );
                }
                // Egress: backlog counter vs. the VoQs that feed it.
                let fed: u64 = (0..self.n_ports)
                    .flat_map(|ip| self.audit_voq(ip, vl, pi))
                    .map(|k| k.size)
                    .sum();
                if fed != l.out_backlog {
                    report(
                        InvariantFamily::BufferAccounting,
                        format!(
                            "egress backlog counter {} != queued bytes {fed}",
                            l.out_backlog
                        ),
                    );
                }
                // Egress: the arbiter's occupancy bits vs. the VoQs they
                // summarize (and no stray bit beyond the last input).
                let occ = self.occ_of(pi as u16, vl);
                for ip in 0..self.occ_words * 64 {
                    let bit = occ[ip / 64] >> (ip % 64) & 1 == 1;
                    let holds = ip < self.n_ports && !self.audit_voq(ip, vl, pi).is_empty();
                    if bit != holds {
                        report(
                            InvariantFamily::BufferAccounting,
                            format!(
                                "occupancy bit for input {ip} is {bit} but its VoQ \
                                 non-empty is {holds}"
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Sender-side credit state towards `port`'s peer: `(FCTBS, FCCL)`.
    #[cfg(feature = "audit")]
    #[expect(
        clippy::indexing_slicing,
        reason = "the checkpoint enumerates (port, vl) from the topology that sized this switch"
    )]
    pub(crate) fn audit_cbfc_tx(&self, port: u16, vl: u8) -> (u64, u64) {
        let tx = &self.lanes[port as usize * self.nvl + vl as usize].tx;
        (tx.fctbs(), tx.fccl_limit())
    }

    /// Receiver-side credit state at `port`: `(ABR, occupied, capacity)`.
    #[cfg(feature = "audit")]
    #[expect(
        clippy::indexing_slicing,
        reason = "the checkpoint enumerates (port, vl) from the topology that sized this switch"
    )]
    pub(crate) fn audit_cbfc_rx(&self, port: u16, vl: u8) -> (u64, u64, u64) {
        let rx = &self.lanes[port as usize * self.nvl + vl as usize].rx;
        (rx.abr(), rx.occupied_blocks(), rx.capacity_blocks())
    }
}

#[cfg(test)]
mod tests {
    //! The two arbitration decisions against reference models: the
    //! previous implementations, moved here verbatim (a linear
    //! `(start + step) % n_ports` scan; a `Vec`-building VL order).

    use super::*;
    use proptest::prelude::*;

    /// Reference: probe every input in round-robin order from `start`.
    fn naive_next_input(nonempty: &[bool], start: usize) -> Option<usize> {
        let n_ports = nonempty.len();
        let mut found: Option<usize> = None;
        for step in 0..n_ports {
            let i = (start + step) % n_ports;
            if nonempty[i] {
                found = Some(i);
                break;
            }
        }
        found
    }

    /// Reference: the WRR arm of the `Vec`-returning `vl_order`, over
    /// plain slices in place of the port's per-VL vectors. (Its strict
    /// arm was `(0..nvl).collect()`, which `port_tx` now walks directly.)
    fn naive_vl_order(
        weights: &[u32],
        wrr_deficit: &mut [i64],
        out_backlog: &[u64],
        wrr_next: usize,
        fb: usize,
        mtu: u64,
    ) -> Vec<usize> {
        let nvl = out_backlog.len();
        let mut order = vec![fb];
        // Data VLs with backlog and remaining quantum, starting from the
        // WRR pointer.
        let data_vls: Vec<usize> = (0..nvl).filter(|&v| v != fb).collect();
        let eligible = |v: usize| out_backlog[v] > 0;
        // Refill when no backlogged VL has quantum left.
        if !data_vls.iter().any(|&v| eligible(v) && wrr_deficit[v] > 0) {
            for &v in &data_vls {
                let w = weights[v] as i64;
                wrr_deficit[v] = w * mtu as i64;
            }
        }
        let start = wrr_next;
        let n = data_vls.len().max(1);
        for i in 0..data_vls.len() {
            let v = data_vls[(start + i) % n];
            if wrr_deficit[v] > 0 {
                order.push(v);
            }
        }
        // Fall back to any remaining data VLs so the link never idles
        // while work exists.
        for &v in &data_vls {
            if !order.contains(&v) {
                order.push(v);
            }
        }
        order
    }

    fn bitset(nonempty: &[bool]) -> Vec<u64> {
        let mut occ = vec![0u64; nonempty.len().div_ceil(64)];
        for (i, _) in nonempty.iter().enumerate().filter(|(_, &b)| b) {
            occ[i / 64] |= 1 << (i % 64);
        }
        occ
    }

    proptest! {
        #[test]
        fn next_input_matches_the_linear_scan(
            extra_ports in 2usize..200,
            density in 0u64..=100,
            seed in any::<u64>(),
        ) {
            // Port counts on both sides of a word boundary, one spanning
            // three words, and a random one. `density` percent of the
            // inputs hold a packet (0 and 100 included: nothing to pick,
            // and every start is its own pick).
            let mut x = seed;
            for n_ports in [1, 63, 64, 65, 130, extra_ports] {
                let nonempty: Vec<bool> = (0..n_ports)
                    .map(|_| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        (x >> 33) % 100 < density
                    })
                    .collect();
                let occ = bitset(&nonempty);
                for start in 0..n_ports {
                    prop_assert_eq!(
                        next_input(&occ, start, n_ports),
                        naive_next_input(&nonempty, start),
                        "n_ports {} start {}", n_ports, start
                    );
                }
                let set: Vec<usize> = (0..n_ports).filter(|&i| nonempty[i]).collect();
                prop_assert_eq!(occupied(&occ).collect::<Vec<_>>(), set);
            }
        }

        #[test]
        fn wrr_order_matches_the_vec_building_reference(
            lanes in proptest::collection::vec((0u32..5, -3000i64..6000, 0u64..3), 1..12),
            fb_pick in any::<usize>(),
            next_pick in any::<usize>(),
            mtu in 1u64..2000,
        ) {
            let nvl = lanes.len();
            let fb = fb_pick % nvl;
            let wrr_next = next_pick % nvl.saturating_sub(1).max(1);
            let weights: Vec<u32> = lanes.iter().map(|l| l.0).collect();
            let backlog: Vec<u64> = lanes.iter().map(|l| l.2).collect();
            let mut want_deficits: Vec<i64> = lanes.iter().map(|l| l.1).collect();
            let mut got_deficits = want_deficits.clone();

            let want =
                naive_vl_order(&weights, &mut want_deficits, &backlog, wrr_next, fb, mtu);
            let got = wrr_order(
                &weights,
                &mut got_deficits,
                |v| backlog[v] > 0,
                wrr_next,
                fb,
                mtu,
            );
            let got: Vec<usize> = (0..got.len).map(|k| got.get(k)).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(got_deficits, want_deficits, "refill must match too");
        }
    }
}
