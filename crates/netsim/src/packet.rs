//! Packets and control frames.
//!
//! One [`Packet`] struct models every unit the simulator moves: data
//! segments, end-to-end feedback (ACK / CNP), and link-local control frames
//! (PFC PAUSE/RESUME, CBFC FCCL). Link-local frames are never routed; the
//! switch consumes them on arrival.

use crate::topology::NodeId;
use lossless_flowctl::{Rate, SimTime};
use tcd_core::CodePoint;

/// Identifier of a flow (CEE) or message/QP (InfiniBand).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

/// One hop's in-band network telemetry record (HPCC, SIGCOMM'19 — the
/// paper's §7 switch+endpoint collaborative detection example). Appended
/// by each switch egress when INT is enabled; echoed to the sender in the
/// ACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntHop {
    /// Egress queue length at dequeue, bytes.
    pub qlen_bytes: u64,
    /// Cumulative bytes transmitted by the egress.
    pub tx_bytes: u64,
    /// Timestamp of the record.
    pub ts: SimTime,
    /// Egress link capacity.
    pub rate: Rate,
}

/// What a packet is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A data segment of a flow.
    Data,
    /// End-to-end acknowledgement (generated per data packet when the
    /// feedback mode asks for it). Carries the data packet's wire
    /// timestamp for RTT measurement and echoes its code point.
    Ack {
        /// When the acknowledged data packet was put on the wire by the
        /// sending NIC.
        data_sent_at: SimTime,
        /// Code point observed on the acknowledged data packet.
        echo: CodePoint,
        /// Payload bytes acknowledged.
        acked_bytes: u64,
    },
    /// Congestion notification packet (DCQCN CNP / InfiniBand BECN).
    /// Carries the code point that triggered it — CE, or UE under TCD.
    Cnp {
        /// The triggering code point.
        code: CodePoint,
    },
    /// Link-local PFC PAUSE (`pause = true`) or RESUME (`pause = false`)
    /// for one priority.
    Pause {
        /// Priority class being paused/resumed.
        prio: u8,
        /// true = PAUSE, false = RESUME.
        pause: bool,
    },
    /// Link-local CBFC credit update for one virtual lane.
    Fccl {
        /// Virtual lane.
        vl: u8,
        /// The advertised Flow Control Credit Limit, in 64-byte blocks.
        fccl: u64,
    },
}

impl PacketKind {
    /// Link-local control frames are consumed by the adjacent node and
    /// never routed.
    pub fn is_link_local(&self) -> bool {
        matches!(self, PacketKind::Pause { .. } | PacketKind::Fccl { .. })
    }
}

/// A packet in flight or buffered.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Flow this packet belongs to (meaningless for link-local frames,
    /// where it is `FlowId(u32::MAX)`).
    pub flow: FlowId,
    /// Source host.
    pub src: NodeId,
    /// Destination host (routing key).
    pub dst: NodeId,
    /// Size on the wire, bytes.
    pub size: u64,
    /// Priority class (CEE) / virtual lane (InfiniBand).
    pub prio: u8,
    /// Payload kind.
    pub kind: PacketKind,
    /// TCD / ECN code point, updated by switches on dequeue.
    pub code: CodePoint,
    /// Byte offset of this segment within the flow (data packets).
    pub seq: u64,
    /// True when this is the flow's final data segment.
    pub last: bool,
    /// When the sending NIC put the packet on the wire (set by the host at
    /// transmission; used for RTT measurement).
    pub sent_at: SimTime,
    /// Per-hop metadata: the ingress port through which the packet entered
    /// the node currently buffering it. Maintained by switches for PFC
    /// accounting and VoQ bookkeeping.
    pub in_port: u16,
    /// Per-hop metadata: set while the packet waits at the head of an
    /// InfiniBand VoQ without credits; the IB CC FECN "victim" input.
    pub delayed_by_fc: bool,
    /// Per-hop metadata: the egress's credit-block epoch at enqueue time.
    /// If the egress blocks at any point while the packet waits, the epoch
    /// advances and the packet counts as "delayed due to lack of credits"
    /// even if it was not at the head during the stall.
    pub enq_epoch: u64,
    /// In-band telemetry records, one per traversed switch egress (empty
    /// unless `SimConfig::int_telemetry` is on; ACKs carry the data
    /// packet's records back to the sender).
    pub int: Vec<IntHop>,
}

/// Sentinel flow id for link-local control frames.
pub const CTRL_FLOW: FlowId = FlowId(u32::MAX);

impl Packet {
    /// Build a data segment.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per header field of a data segment; every caller sets them all"
    )]
    pub fn data(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        size: u64,
        prio: u8,
        seq: u64,
        last: bool,
        code: CodePoint,
    ) -> Packet {
        Packet {
            flow,
            src,
            dst,
            size,
            prio,
            kind: PacketKind::Data,
            code,
            seq,
            last,
            sent_at: SimTime::ZERO,
            in_port: u16::MAX,
            delayed_by_fc: false,
            enq_epoch: 0,
            int: Vec::new(),
        }
    }

    /// Build a link-local control frame (PAUSE or FCCL).
    pub fn link_local(kind: PacketKind, size: u64, prio: u8) -> Packet {
        debug_assert!(kind.is_link_local());
        Packet {
            flow: CTRL_FLOW,
            src: NodeId(u32::MAX),
            dst: NodeId(u32::MAX),
            size,
            prio,
            kind,
            code: CodePoint::NotCapable,
            seq: 0,
            last: false,
            sent_at: SimTime::ZERO,
            in_port: u16::MAX,
            delayed_by_fc: false,
            enq_epoch: 0,
            int: Vec::new(),
        }
    }

    /// Build an end-to-end feedback packet (ACK or CNP) from `src` to
    /// `dst` for `flow`.
    pub fn feedback(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        size: u64,
        prio: u8,
        kind: PacketKind,
    ) -> Packet {
        debug_assert!(matches!(
            kind,
            PacketKind::Ack { .. } | PacketKind::Cnp { .. }
        ));
        Packet {
            flow,
            src,
            dst,
            size,
            prio,
            kind,
            code: CodePoint::NotCapable,
            seq: 0,
            last: false,
            sent_at: SimTime::ZERO,
            in_port: u16::MAX,
            delayed_by_fc: false,
            enq_epoch: 0,
            int: Vec::new(),
        }
    }

    /// Whether this is a data segment.
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data)
    }
}

/// Upper bound on retained free boxes, so the pool cannot outgrow the
/// peak number of packets simultaneously in flight by much.
const MAX_POOLED: usize = 4096;

/// Recycling allocator for the packets that ride the event queue.
///
/// Packets move through the engine as `Box<Packet>`: a box is allocated
/// once when the source NIC (or a switch's control plane) creates the
/// packet, travels every hop by moving the 8-byte pointer through events
/// and queues — never re-boxed on requeue — and returns here when the
/// packet is consumed. `boxed` then reuses the allocation (and the INT
/// vector's capacity) for the next packet, so steady-state forwarding
/// performs no per-event heap allocation.
#[derive(Debug, Default)]
pub struct PacketPool {
    #[expect(
        clippy::vec_box,
        reason = "the boxes themselves are the resource being pooled: events hold Box<Packet>, so recycling must keep each allocation intact"
    )]
    free: Vec<Box<Packet>>,
    /// Live packets: boxed and not yet recycled. The auditor's packet
    /// conservation check compares this against what the event queue and
    /// the nodes are actually holding.
    #[cfg(feature = "audit")]
    outstanding: u64,
}

impl PacketPool {
    /// An empty pool.
    pub fn new() -> Self {
        PacketPool::default()
    }

    /// Number of boxes currently available for reuse.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// Live packets: boxed through this pool and not yet recycled.
    #[cfg(feature = "audit")]
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// Box `pkt`, reusing a recycled allocation when one is available.
    pub fn boxed(&mut self, pkt: Packet) -> Box<Packet> {
        #[cfg(feature = "audit")]
        {
            self.outstanding += 1;
        }
        match self.free.pop() {
            Some(mut b) => {
                let mut spare = std::mem::take(&mut b.int);
                *b = pkt;
                // Keep the recycled INT vector's capacity unless the new
                // packet brought its own records (an ACK echoing INT).
                if b.int.is_empty() && spare.capacity() > 0 {
                    spare.clear();
                    b.int = spare;
                }
                b
            }
            None => Box::new(pkt),
        }
    }

    /// Return a consumed packet's allocation for reuse.
    pub fn recycle(&mut self, pkt: Box<Packet>) {
        // Saturating: tests may recycle boxes that never went through
        // `boxed`, which must not poison the conservation counter.
        #[cfg(feature = "audit")]
        {
            self.outstanding = self.outstanding.saturating_sub(1);
        }
        if self.free.len() < MAX_POOLED {
            self.free.push(pkt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_packet_fields() {
        let p = Packet::data(
            FlowId(3),
            NodeId(0),
            NodeId(1),
            1000,
            1,
            4000,
            false,
            CodePoint::Capable,
        );
        assert!(p.is_data());
        assert!(!p.kind.is_link_local());
        assert_eq!(p.size, 1000);
        assert_eq!(p.seq, 4000);
        assert!(!p.delayed_by_fc);
    }

    #[test]
    fn control_frames_are_link_local() {
        let pause = Packet::link_local(
            PacketKind::Pause {
                prio: 1,
                pause: true,
            },
            64,
            0,
        );
        assert!(pause.kind.is_link_local());
        assert_eq!(pause.flow, CTRL_FLOW);
        let fccl = Packet::link_local(PacketKind::Fccl { vl: 1, fccl: 42 }, 64, 0);
        assert!(fccl.kind.is_link_local());
    }

    #[test]
    fn pool_reuses_allocations_and_int_capacity() {
        let mut pool = PacketPool::new();
        let mut p = pool.boxed(Packet::data(
            FlowId(0),
            NodeId(0),
            NodeId(1),
            1000,
            1,
            0,
            false,
            CodePoint::Capable,
        ));
        p.int.push(IntHop {
            qlen_bytes: 1,
            tx_bytes: 2,
            ts: SimTime::ZERO,
            rate: Rate::from_gbps(40),
        });
        let cap = p.int.capacity();
        let addr = &*p as *const Packet as usize;
        pool.recycle(p);
        assert_eq!(pool.pooled(), 1);
        let q = pool.boxed(Packet::link_local(
            PacketKind::Pause {
                prio: 1,
                pause: true,
            },
            64,
            0,
        ));
        assert_eq!(&*q as *const Packet as usize, addr, "allocation not reused");
        assert!(q.int.is_empty());
        assert!(q.int.capacity() >= cap, "INT capacity not retained");
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn pool_keeps_incoming_int_records() {
        let mut pool = PacketPool::new();
        pool.recycle(Box::new(Packet::link_local(
            PacketKind::Pause {
                prio: 0,
                pause: true,
            },
            64,
            0,
        )));
        let mut ack = Packet::feedback(
            FlowId(1),
            NodeId(0),
            NodeId(1),
            64,
            0,
            PacketKind::Ack {
                data_sent_at: SimTime::ZERO,
                echo: CodePoint::Capable,
                acked_bytes: 1000,
            },
        );
        ack.int.push(IntHop {
            qlen_bytes: 7,
            tx_bytes: 8,
            ts: SimTime::ZERO,
            rate: Rate::from_gbps(100),
        });
        let b = pool.boxed(ack);
        assert_eq!(b.int.len(), 1, "echoed INT records must survive pooling");
        assert_eq!(b.int[0].qlen_bytes, 7);
    }

    #[test]
    fn feedback_kinds() {
        let cnp = Packet::feedback(
            FlowId(1),
            NodeId(5),
            NodeId(6),
            64,
            0,
            PacketKind::Cnp {
                code: CodePoint::CE,
            },
        );
        assert!(!cnp.is_data());
        assert!(!cnp.kind.is_link_local());
    }
}
