//! Measurement collection: queue-length/rate/state timeseries, marking
//! records, and per-flow delivery statistics.
//!
//! The engine samples the ports listed in
//! [`SimConfig::sample_ports`](crate::config::SimConfig) every
//! `trace_interval`; switches and hosts push event records through the
//! methods here. Everything is plain `Vec`s so experiments can post-process
//! freely.

use crate::packet::{FlowId, Packet};
use crate::topology::NodeId;
use lossless_flowctl::{SimDuration, SimTime};
use lossless_obs::fnv::Block;
use lossless_obs::Fnv;
use tcd_core::{CodePoint, TernaryState};

/// One periodic sample of an egress (port, priority).
#[derive(Debug, Clone, Copy)]
pub struct PortSample {
    /// Sample time.
    pub t: SimTime,
    /// Node.
    pub node: NodeId,
    /// Egress port.
    pub port: u16,
    /// Priority / VL.
    pub prio: u8,
    /// Queue length in bytes (CEE: egress queue; IB: VoQ backlog destined
    /// to this output).
    pub queue_bytes: u64,
    /// Cumulative data bytes transmitted by this egress (diff successive
    /// samples for the sending rate).
    pub tx_bytes: u64,
    /// Detector's current belief about the port state.
    pub state: TernaryState,
    /// Whether the egress is currently blocked by hop-by-hop flow control.
    pub paused: bool,
}

/// A packet-marking event at a switch (optional, can be voluminous).
#[derive(Debug, Clone, Copy)]
pub struct MarkEvent {
    /// When.
    pub t: SimTime,
    /// Marking node.
    pub node: NodeId,
    /// Egress port.
    pub port: u16,
    /// The flow whose packet was marked.
    pub flow: FlowId,
    /// The code point applied.
    pub code: CodePoint,
}

/// Delivery statistics of one flow, accumulated at the destination.
#[derive(Debug, Clone, Copy, Default)]
pub struct Delivered {
    /// Data packets delivered.
    pub pkts: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Packets that arrived with CE.
    pub ce: u64,
    /// Packets that arrived with UE.
    pub ue: u64,
}

/// A registered flow: everything known about it before it starts. Its id
/// is its index in [`Trace::flows`]; [`Trace::flow`] assembles its
/// [`FlowRecord`].
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Flow size in bytes.
    pub size: u64,
    /// Start time.
    pub start: SimTime,
    /// The event sequence number reserved for the flow's start at
    /// registration: the start pops at `(start, seq)`, wherever it waits
    /// until then.
    pub(crate) seq: u64,
    /// Index of the flow's record among the started flows, numbered in
    /// start order; `u32::MAX` until the flow starts.
    pub slot: u32,
    /// Priority / VL.
    pub prio: u8,
}

// Every registered flow carries one, started or not: tcdbench's fat-tree
// workloads register 360 000 flows, of which 8 584 start within the run.
// This spec in place of a 16-byte spec plus an 80-byte record measured
// `setup_s` 0.042 -> 0.028 s on `ft6-dcqcn` and 0.042 -> 0.027 s on
// `ft6-ibcc` (`scripts/pairs.sh`, 10 of 10 pairs each) and cut
// `peak_heap_mb` by 28 MB on both.
const _: () = assert!(std::mem::size_of::<FlowSpec>() == 40);

impl FlowSpec {
    /// The record of this flow, registered as `flow`, before it starts.
    #[inline]
    fn unstarted(&self, flow: FlowId) -> FlowRecord {
        FlowRecord {
            flow,
            src: self.src,
            dst: self.dst,
            size: self.size,
            start: self.start,
            end: None,
            delivered: Delivered::default(),
        }
    }
}

/// Lifecycle record of one flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowRecord {
    /// The flow.
    pub flow: FlowId,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Flow size in bytes.
    pub size: u64,
    /// Start time (when the flow became active at the source).
    pub start: SimTime,
    /// Completion time (last byte delivered), if it finished.
    pub end: Option<SimTime>,
    /// Delivery statistics.
    pub delivered: Delivered,
}

impl FlowRecord {
    /// Flow completion time, if finished.
    pub fn fct(&self) -> Option<SimDuration> {
        self.end.map(|e| e.saturating_since(self.start))
    }

    /// What the run fingerprint covers of this record, in hash order (the
    /// golden trace's flow-line order); `end` is `u64::MAX` for a flow
    /// that did not finish.
    pub fn words(&self) -> [u64; 8] {
        [
            self.flow.0 as u64,
            self.size,
            self.start.as_ps(),
            self.end.map_or(u64::MAX, |e| e.as_ps()),
            self.delivered.pkts,
            self.delivered.bytes,
            self.delivered.ce,
            self.delivered.ue,
        ]
    }
}

/// A started flow's record, and when its destination last sent it a CNP:
/// the one piece of receive state the record does not already hold.
#[derive(Debug, Clone, Copy)]
struct Started {
    rec: FlowRecord,
    last_cnp: Option<SimTime>,
}

/// The last five of [`FlowRecord::words`] for a flow that has not
/// finished and has delivered nothing — every flow that never started,
/// which in a large registered workload is most of them.
pub const IDLE_TAIL: [u64; 5] = [u64::MAX, 0, 0, 0, 0];

/// [`IDLE_TAIL`]'s 40 bytes as one FNV-1a step.
static IDLE_TAIL_BLOCK: Block = Block::of_words(&IDLE_TAIL);

/// Fold one flow's words into `f`; true when its tail was [`IDLE_TAIL`].
#[inline]
fn hash_flow(f: &mut Fnv, words: &[u64; 8]) -> bool {
    let [id, size, start, tail @ ..] = words;
    for &w in [id, size, start] {
        f.write_u64(w);
    }
    if *tail == IDLE_TAIL {
        f.block(&IDLE_TAIL_BLOCK);
        return true;
    }
    for &w in tail {
        f.write_u64(w);
    }
    false
}

/// One logged data-packet delivery (only when `record_deliveries` is on).
#[derive(Debug, Clone, Copy)]
pub struct DeliveryEvent {
    /// Arrival time at the destination.
    pub t: SimTime,
    /// The flow.
    pub flow: FlowId,
    /// Final code point carried by the packet.
    pub code: CodePoint,
    /// Payload bytes.
    pub bytes: u64,
}

/// All measurements of one run.
#[derive(Debug, Default)]
pub struct Trace {
    /// Periodic port samples (only for configured `sample_ports`).
    pub port_samples: Vec<PortSample>,
    /// Individual marking events (only when `record_marks` is on).
    pub marks: Vec<MarkEvent>,
    /// Whether to record individual [`MarkEvent`]s.
    pub record_marks: bool,
    /// Individual delivery events (only when `record_deliveries` is on).
    pub deliveries: Vec<DeliveryEvent>,
    /// Whether to record individual [`DeliveryEvent`]s.
    pub record_deliveries: bool,
    /// Every registered flow's spec, indexed by `FlowId.0`.
    pub flows: Vec<FlowSpec>,
    /// The started flows, indexed by [`FlowSpec::slot`].
    started: Vec<Started>,
    /// Number of flows that have completed.
    pub completed_count: usize,
    /// Total PFC frames (PAUSE and RESUME) sent by switches (CEE) across
    /// the network.
    pub pause_frames: u64,
    /// Total data packets forwarded by switches.
    pub forwarded_pkts: u64,
    /// Packets dropped (lossy mode only; always 0 in lossless modes).
    pub drops: u64,
    /// Total events dispatched by the engine (throughput accounting:
    /// events ÷ wall time is the headline simulator-performance metric).
    pub events: u64,
}

impl Trace {
    /// Fresh, empty trace.
    pub fn new(record_marks: bool) -> Self {
        Trace {
            record_marks,
            ..Default::default()
        }
    }

    /// Record a marking decision at a switch egress.
    #[inline]
    pub fn on_mark(&mut self, t: SimTime, node: NodeId, port: u16, flow: FlowId, code: CodePoint) {
        if self.record_marks {
            self.marks.push(MarkEvent {
                t,
                node,
                port,
                flow,
                code,
            });
        }
    }

    /// Start registered flow `flow`: give it the next slot and its record.
    pub(crate) fn start(&mut self, flow: FlowId) -> FlowSpec {
        let slot = self.started.len() as u32;
        let Some(spec) = self.flows.get_mut(flow.0 as usize) else {
            unreachable!("flow {flow:?} was never registered");
        };
        debug_assert_eq!(spec.slot, u32::MAX, "flow {flow:?} started twice");
        spec.slot = slot;
        self.started.push(Started {
            rec: spec.unstarted(flow),
            last_cnp: None,
        });
        *spec
    }

    /// Make room for `n` more started flows.
    pub(crate) fn reserve_starts(&mut self, n: usize) {
        self.started.reserve_exact(n);
    }

    fn started_mut(&mut self, flow: FlowId) -> &mut Started {
        let slot = self.flows.get(flow.0 as usize).map_or(u32::MAX, |s| s.slot);
        let Some(st) = self.started.get_mut(slot as usize) else {
            unreachable!("flow {flow:?} has not started");
        };
        st
    }

    /// Account data packet `pkt` at its destination at `t`. With
    /// `go_back_n` (lossy mode) only the next in-order segment is
    /// accepted; lossless modes are in order by construction. Returns the
    /// bytes delivered in order so far, the go-back-N cumulative ACK.
    pub(crate) fn receive(&mut self, t: SimTime, pkt: &Packet, go_back_n: bool) -> u64 {
        let rec = &mut self.started_mut(pkt.flow).rec;
        let d = &mut rec.delivered;
        if go_back_n && pkt.seq != d.bytes {
            return d.bytes;
        }
        d.pkts += 1;
        d.bytes += pkt.size;
        match pkt.code {
            CodePoint::CongestionEncountered => d.ce += 1,
            CodePoint::UndeterminedEncountered => d.ue += 1,
            _ => {}
        }
        let in_order = d.bytes;
        if in_order >= rec.size && rec.end.is_none() {
            rec.end = Some(t);
            self.completed_count += 1;
        }
        if self.record_deliveries {
            self.deliveries.push(DeliveryEvent {
                t,
                flow: pkt.flow,
                code: pkt.code,
                bytes: pkt.size,
            });
        }
        in_order
    }

    /// Whether the destination of `flow` may send it a CNP at `now`, at
    /// least `gap` after the last one; if so, `now` becomes the last.
    pub(crate) fn cnp_due(&mut self, flow: FlowId, now: SimTime, gap: SimDuration) -> bool {
        let last = &mut self.started_mut(flow).last_cnp;
        let due = last.is_none_or(|t| now.saturating_since(t) >= gap);
        if due {
            *last = Some(now);
        }
        due
    }

    /// The record of a registered flow; one that never started has not
    /// finished and has delivered nothing.
    pub fn flow(&self, id: FlowId) -> FlowRecord {
        let Some(spec) = self.flows.get(id.0 as usize) else {
            unreachable!("flow {id:?} was never registered");
        };
        self.record(id, spec)
    }

    #[inline]
    fn record(&self, id: FlowId, spec: &FlowSpec) -> FlowRecord {
        self.started
            .get(spec.slot as usize)
            .map_or_else(|| spec.unstarted(id), |st| st.rec)
    }

    /// Every registered flow's record, in `FlowId` order.
    pub fn records(&self) -> impl Iterator<Item = FlowRecord> + '_ {
        (0..)
            .zip(&self.flows)
            .map(|(i, spec)| self.record(FlowId(i), spec))
    }

    /// Flows that finished, as records, in `FlowId` order.
    pub fn completed(&self) -> impl Iterator<Item = &FlowRecord> {
        let started = self
            .flows
            .iter()
            .filter_map(|s| self.started.get(s.slot as usize));
        started.map(|st| &st.rec).filter(|r| r.end.is_some())
    }

    /// Per-flow CE-marked fraction of delivered packets (paper Table 3 /
    /// Fig. 11 metric).
    pub fn ce_fraction(&self, flow: FlowId) -> f64 {
        let d = self.flow(flow).delivered;
        if d.pkts == 0 {
            0.0
        } else {
            d.ce as f64 / d.pkts as f64
        }
    }

    /// Per-flow UE-marked fraction of delivered packets.
    pub fn ue_fraction(&self, flow: FlowId) -> f64 {
        let d = self.flow(flow).delivered;
        if d.pkts == 0 {
            0.0
        } else {
            d.ue as f64 / d.pkts as f64
        }
    }

    /// FNV-1a digest of everything a run observably computed: every
    /// flow's [`words`](FlowRecord::words), then the forwarded, PAUSE,
    /// drop, port-sample and event counts. Two runs with equal
    /// fingerprints delivered the same bytes with the same markings at
    /// the same (picosecond) times.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_visit(|_, _| {})
    }

    /// [`fingerprint`](Trace::fingerprint), handing `visit` each flow's
    /// words as they are hashed, with whether the tail was [`IDLE_TAIL`]
    /// — so an exporter can print what it hashes in one pass.
    pub fn fingerprint_visit(&self, mut visit: impl FnMut(&[u64; 8], bool)) -> u64 {
        let mut f = Fnv::new();
        for r in self.records() {
            let words = r.words();
            let idle = hash_flow(&mut f, &words);
            visit(&words, idle);
        }
        for w in [
            self.forwarded_pkts,
            self.pause_frames,
            self.drops,
            self.port_samples.len() as u64,
            self.events,
        ] {
            f.write_u64(w);
        }
        f.finish()
    }

    /// Samples of one `(node, port, prio)` egress, in time order.
    pub fn samples_of(&self, node: NodeId, port: u16, prio: u8) -> Vec<&PortSample> {
        self.port_samples
            .iter()
            .filter(|s| s.node == node && s.port == port && s.prio == prio)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace with one registered 10 kB flow, started unless `idle`.
    fn one_flow(idle: bool) -> Trace {
        let mut tr = Trace::new(false);
        tr.flows.push(FlowSpec {
            src: NodeId(0),
            dst: NodeId(1),
            size: 10_000,
            start: SimTime::from_us(5),
            seq: 0,
            slot: u32::MAX,
            prio: 1,
        });
        if !idle {
            tr.start(FlowId(0));
        }
        tr
    }

    fn deliver(tr: &mut Trace, t: SimTime, code: CodePoint) {
        let pkt = Packet::data(FlowId(0), NodeId(0), NodeId(1), 1000, 1, 0, false, code);
        tr.receive(t, &pkt, false);
    }

    #[test]
    fn delivery_accounting() {
        let mut tr = one_flow(false);
        for code in [
            CodePoint::Capable,
            CodePoint::CE,
            CodePoint::UE,
            CodePoint::CE,
        ] {
            deliver(&mut tr, SimTime::ZERO, code);
        }
        let d = tr.flow(FlowId(0)).delivered;
        assert_eq!(d.pkts, 4);
        assert_eq!(d.bytes, 4000);
        assert_eq!(d.ce, 2);
        assert_eq!(d.ue, 1);
        assert!((tr.ce_fraction(FlowId(0)) - 0.5).abs() < 1e-12);
        assert!((tr.ue_fraction(FlowId(0)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn completion_and_fct() {
        let mut tr = one_flow(false);
        for us in 96..105 {
            deliver(&mut tr, SimTime::from_us(us), CodePoint::Capable);
        }
        assert_eq!(tr.completed().count(), 0);
        deliver(&mut tr, SimTime::from_us(105), CodePoint::Capable);
        assert_eq!(tr.completed().count(), 1);
        let fct = tr.flow(FlowId(0)).fct().unwrap();
        assert_eq!(fct, SimDuration::from_us(100));
    }

    #[test]
    fn mark_recording_is_optional() {
        let mut off = Trace::new(false);
        off.on_mark(SimTime::ZERO, NodeId(0), 0, FlowId(0), CodePoint::CE);
        assert!(off.marks.is_empty());
        let mut on = Trace::new(true);
        for i in 0..5 {
            on.on_mark(SimTime::from_us(i), NodeId(0), 0, FlowId(0), CodePoint::CE);
        }
        // Unbounded: every record is kept, in order.
        let kept: Vec<SimTime> = on.marks.iter().map(|m| m.t).collect();
        assert_eq!(kept, (0..5).map(SimTime::from_us).collect::<Vec<_>>());
    }

    #[test]
    fn empty_flow_fractions_are_zero() {
        for idle in [true, false] {
            let tr = one_flow(idle);
            assert_eq!(tr.ce_fraction(FlowId(0)), 0.0);
            assert_eq!(tr.ue_fraction(FlowId(0)), 0.0);
        }
    }
}
