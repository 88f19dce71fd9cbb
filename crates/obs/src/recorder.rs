//! The flight recorder: per-node fixed-capacity ring buffers of compact
//! binary records.
//!
//! Like an aircraft FDR, the recorder keeps only the most recent history —
//! old records are overwritten in place (and counted, never silently
//! lost). When the audit layer flags a violation, or on request from
//! `tcdsim`, the recorder dumps the last *N* µs of records across all
//! nodes, merged into one `(time, seq)`-ordered timeline next to the
//! violation snapshot.

use std::collections::BTreeMap;

use lossless_flowctl::{SimDuration, SimTime};

use crate::Fnv;

/// What a record describes. Stored as a raw `u8` in the binary encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RecordKind {
    /// Fig. 6 ternary-state transition; `a` = from-state symbol byte,
    /// `b` = to-state symbol byte.
    StateTransition = 1,
    /// PFC PAUSE frame sent; `a` = 1 for XOFF, 0 for XON.
    PfcFrame = 2,
    /// CBFC FCCL credit update sent; `a` = FCCL value.
    CbfcFccl = 3,
    /// Output blocked on credits (`a` = 1) or unblocked (`a` = 0).
    CreditStall = 4,
    /// Periodic engine checkpoint; `a` = events dispatched so far.
    Checkpoint = 5,
    /// Audit violation observed; `a` = total violations so far.
    Violation = 6,
    /// Packet marked; `a` = code-point byte, `b` = queue depth.
    Mark = 7,
    /// Fault-injection event applied (link flap, rate change, route
    /// update); `a` = 1 for onset (down/degrade), 0 for recovery.
    Fault = 8,
}

impl RecordKind {
    /// Decode from the stored byte.
    pub fn from_u8(v: u8) -> Option<RecordKind> {
        Some(match v {
            1 => RecordKind::StateTransition,
            2 => RecordKind::PfcFrame,
            3 => RecordKind::CbfcFccl,
            4 => RecordKind::CreditStall,
            5 => RecordKind::Checkpoint,
            6 => RecordKind::Violation,
            7 => RecordKind::Mark,
            8 => RecordKind::Fault,
            _ => return None,
        })
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            RecordKind::StateTransition => "state_transition",
            RecordKind::PfcFrame => "pfc_frame",
            RecordKind::CbfcFccl => "cbfc_fccl",
            RecordKind::CreditStall => "credit_stall",
            RecordKind::Checkpoint => "checkpoint",
            RecordKind::Violation => "violation",
            RecordKind::Mark => "mark",
            RecordKind::Fault => "fault",
        }
    }
}

/// One flight-recorder record. 40 bytes in the compact binary encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Simulation time of the event.
    pub t: SimTime,
    /// Global sequence number (total order across all nodes).
    pub seq: u64,
    /// Node the record belongs to.
    pub node: u32,
    /// Port, 0 when not applicable.
    pub port: u16,
    /// Priority / VL, 0 when not applicable.
    pub prio: u8,
    /// Record kind byte (see [`RecordKind`]).
    pub kind: u8,
    /// First payload word (kind-specific).
    pub a: u64,
    /// Second payload word (kind-specific).
    pub b: u64,
}

/// Size of one encoded record.
pub const RECORD_BYTES: usize = 40;

impl Record {
    /// Compact little-endian binary encoding.
    pub fn encode(&self) -> [u8; RECORD_BYTES] {
        let mut out = [0u8; RECORD_BYTES];
        out[0..8].copy_from_slice(&self.t.as_ps().to_le_bytes());
        out[8..16].copy_from_slice(&self.seq.to_le_bytes());
        out[16..20].copy_from_slice(&self.node.to_le_bytes());
        out[20..22].copy_from_slice(&self.port.to_le_bytes());
        out[22] = self.prio;
        out[23] = self.kind;
        out[24..32].copy_from_slice(&self.a.to_le_bytes());
        out[32..40].copy_from_slice(&self.b.to_le_bytes());
        out
    }

    /// Inverse of [`Record::encode`].
    #[expect(
        clippy::expect_used,
        reason = "each range is a constant sub-slice of the [u8; RECORD_BYTES] array, exactly as wide as the integer it converts to"
    )]
    pub fn decode(buf: &[u8; RECORD_BYTES]) -> Record {
        let u64le = |r: &[u8]| u64::from_le_bytes(r.try_into().expect("8 bytes"));
        Record {
            t: SimTime::from_ps(u64le(&buf[0..8])),
            seq: u64le(&buf[8..16]),
            node: u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes")),
            port: u16::from_le_bytes(buf[20..22].try_into().expect("2 bytes")),
            prio: buf[22],
            kind: buf[23],
            a: u64le(&buf[24..32]),
            b: u64le(&buf[32..40]),
        }
    }
}

/// One node's ring.
#[derive(Debug, Clone, Default)]
struct Ring {
    buf: Vec<Record>,
    /// Next write position (buf.len() < cap means not yet wrapped).
    next: usize,
    /// Total records ever pushed to this ring.
    total: u64,
}

impl Ring {
    #[expect(
        clippy::indexing_slicing,
        reason = "next wraps modulo cap and buf.len() == cap once the else branch is reachable"
    )]
    fn push(&mut self, cap: usize, r: Record) {
        if self.buf.len() < cap {
            self.buf.push(r);
        } else {
            self.buf[self.next] = r;
        }
        self.next = (self.next + 1) % cap;
        self.total += 1;
    }

    /// Records in chronological (push) order.
    #[expect(
        clippy::indexing_slicing,
        reason = "split is next % len (0 while the ring is empty), so split <= buf.len()"
    )]
    fn ordered(&self) -> impl Iterator<Item = &Record> + '_ {
        // Until the first wraparound `total == len` and the buffer is
        // already chronological; afterwards the oldest record sits at
        // `next` (the slot about to be overwritten).
        let split = if self.total as usize == self.buf.len() {
            0
        } else {
            self.next % self.buf.len().max(1)
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }

    fn overwritten(&self) -> u64 {
        self.total - self.buf.len() as u64
    }
}

/// The flight recorder: one bounded ring per node plus a global sequence
/// counter. Capacity 0 disables recording entirely.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    rings: BTreeMap<u32, Ring>,
    seq: u64,
}

impl FlightRecorder {
    /// A recorder keeping up to `capacity` records per node.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity,
            rings: BTreeMap::new(),
            seq: 0,
        }
    }

    /// Per-node ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether recording is enabled.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Append a record. `seq` is assigned internally; the caller's value
    /// is ignored.
    pub fn push(&mut self, mut r: Record) {
        if self.capacity == 0 {
            return;
        }
        r.seq = self.seq;
        self.seq += 1;
        self.rings.entry(r.node).or_default().push(self.capacity, r);
    }

    /// Total records ever pushed (including overwritten ones).
    pub fn total(&self) -> u64 {
        self.rings.values().map(|r| r.total).sum()
    }

    /// Records lost to ring wraparound, across all nodes.
    pub fn overwritten(&self) -> u64 {
        self.rings.values().map(|r| r.overwritten()).sum()
    }

    /// All retained records whose time is within `window` of `now`,
    /// merged across nodes and sorted by `(t, seq)`.
    pub fn dump(&self, now: SimTime, window: SimDuration) -> Vec<Record> {
        let cutoff = SimTime::from_ps(now.as_ps().saturating_sub(window.as_ps()));
        let mut out: Vec<Record> = self
            .rings
            .values()
            .flat_map(|ring| ring.ordered())
            .filter(|r| r.t >= cutoff && r.t <= now)
            .copied()
            .collect();
        out.sort_by_key(|r| (r.t, r.seq));
        out
    }

    /// FNV-1a fingerprint over the binary encoding of a full-history dump
    /// (every retained record, ordered by `(t, seq)`).
    pub fn fingerprint(&self) -> u64 {
        let mut records: Vec<Record> = self
            .rings
            .values()
            .flat_map(|ring| ring.ordered())
            .copied()
            .collect();
        records.sort_by_key(|r| (r.t, r.seq));
        let mut f = Fnv::new();
        for r in &records {
            f.bytes(&r.encode());
        }
        f.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t_ns: u64, node: u32, kind: RecordKind, a: u64) -> Record {
        Record {
            t: SimTime::from_ns(t_ns),
            seq: 0,
            node,
            port: 1,
            prio: 0,
            kind: kind as u8,
            a,
            b: 0,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let r = Record {
            t: SimTime::from_us(123),
            seq: 77,
            node: 4,
            port: 2,
            prio: 3,
            kind: RecordKind::PfcFrame as u8,
            a: 1,
            b: u64::MAX,
        };
        assert_eq!(Record::decode(&r.encode()), r);
        assert_eq!(RecordKind::from_u8(r.kind), Some(RecordKind::PfcFrame));
        assert_eq!(RecordKind::from_u8(200), None);
    }

    #[test]
    fn ring_wraparound_keeps_newest_and_counts_losses() {
        let mut fr = FlightRecorder::new(4);
        for i in 0..10u64 {
            fr.push(rec(i, 1, RecordKind::Checkpoint, i));
        }
        assert_eq!(fr.total(), 10);
        assert_eq!(fr.overwritten(), 6);
        let dump = fr.dump(SimTime::from_ms(1), SimDuration::from_ms(1));
        assert_eq!(dump.len(), 4);
        // Exactly the newest four, in order, with monotone seq.
        let a: Vec<u64> = dump.iter().map(|r| r.a).collect();
        assert_eq!(a, vec![6, 7, 8, 9]);
        assert!(dump.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn wraparound_mid_ring_preserves_chronology() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..5u64 {
            fr.push(rec(i * 10, 2, RecordKind::Mark, i));
        }
        // Ring holds [3, 4, 2] physically; ordered() must yield 2, 3, 4.
        let dump = fr.dump(SimTime::from_ms(1), SimDuration::from_ms(1));
        let a: Vec<u64> = dump.iter().map(|r| r.a).collect();
        assert_eq!(a, vec![2, 3, 4]);
    }

    #[test]
    fn dump_window_filters_and_merges_nodes() {
        let mut fr = FlightRecorder::new(16);
        fr.push(rec(100, 1, RecordKind::PfcFrame, 1));
        fr.push(rec(5_000, 2, RecordKind::PfcFrame, 0));
        fr.push(rec(5_000, 1, RecordKind::StateTransition, 7));
        fr.push(rec(9_000, 3, RecordKind::CreditStall, 1));
        let now = SimTime::from_ns(10_000);
        let dump = fr.dump(now, SimDuration::from_ns(6_000));
        // Cutoff at 4 µs: the t=100ns record is out of window.
        assert_eq!(dump.len(), 3);
        assert_eq!(dump[0].t, SimTime::from_ns(5_000));
        // Tie on t broken by global seq: node-2 record was pushed first.
        assert_eq!(dump[0].node, 2);
        assert_eq!(dump[1].node, 1);
        assert_eq!(dump[2].node, 3);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let mut fr = FlightRecorder::new(0);
        assert!(!fr.enabled());
        fr.push(rec(1, 1, RecordKind::Mark, 0));
        assert_eq!(fr.total(), 0);
        assert_eq!(fr.fingerprint(), FlightRecorder::new(0).fingerprint());
    }

    #[test]
    fn fingerprint_tracks_content() {
        let mut a = FlightRecorder::new(8);
        let mut b = FlightRecorder::new(8);
        a.push(rec(1, 1, RecordKind::Mark, 5));
        b.push(rec(1, 1, RecordKind::Mark, 5));
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.push(rec(2, 1, RecordKind::Mark, 5));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
