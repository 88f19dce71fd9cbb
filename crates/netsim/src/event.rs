//! The deterministic event queue.
//!
//! Events are ordered by `(time, insertion sequence)`: ties at the same
//! instant execute in the order they were scheduled, so a run is a pure
//! function of its configuration. This property underpins every regression
//! test in the workspace.
//!
//! The ordering core is a calendar queue in two parts. Time is quantized
//! into ticks of `2^GRAN_BITS` ps (~8 ns), and ticks into blocks of
//! `2^BLOCK_BITS` = 512 ticks (~4.2 µs). A **near ring** with one slot
//! per tick covers the block the clock is in and the next one: an event
//! due in that window — a serialization or a link delay ahead, most of
//! the traffic — is pushed into the slot of its exact tick once and stays
//! there until its tick is staged. Anything later waits in a
//! hierarchical **far wheel** keyed by block: [`LEVELS`] levels of 64
//! slots, each covering 64× the blocks of the level below, so it spans
//! `2^(GRAN_BITS + BLOCK_BITS + 6·LEVELS)` ps (~80 h of simulated time),
//! and beyond that an overflow list. Each time the clock enters a new
//! block, the far wheel hands the block after it to the ring (cascading
//! at most once per level on the way down); when the ring runs empty
//! the clock jumps straight to the far wheel's first block.
//!
//! Same-timestamp groups dispatch as a staged batch through
//! [`EventQueue::pop_batched`]: the sorted current-tick buffer serves
//! pops directly and absorbs zero-delay schedules by ordered insertion,
//! so the engine touches the ring once per group instead of once per
//! event, and a group hands out events in exact `(at, seq)` order. That
//! order is the one a `BinaryHeap<Reverse<(at, seq)>>` yields;
//! `tests/event_order.rs` drives such a heap as the reference model in
//! lock-step with the queue.

use crate::packet::{FlowId, Packet};
use crate::topology::NodeId;
use lossless_flowctl::SimTime;
use std::cmp::Reverse;

/// A simulation event.
#[derive(Debug)]
pub enum Event {
    /// A packet finished arriving at `node` through `in_port`.
    PacketArrival {
        /// Receiving node.
        node: NodeId,
        /// Ingress port at the receiving node.
        in_port: u16,
        /// The packet. Boxed (and pooled, see
        /// [`PacketPool`](crate::packet::PacketPool)) so the event stays
        /// pointer-sized on the queue's hot paths and the same
        /// allocation travels every hop without re-boxing on requeue.
        pkt: Box<Packet>,
    },
    /// `(node, port)`'s transmitter may start the next transmission.
    PortTx {
        /// The node.
        node: NodeId,
        /// The egress port.
        port: u16,
    },
    /// Periodic CBFC credit update: `(node, port, vl)` should emit an FCCL
    /// message upstream.
    FcclTick {
        /// The node.
        node: NodeId,
        /// The port whose receive buffer is advertised.
        port: u16,
        /// Virtual lane.
        vl: u8,
    },
    /// A congestion detector's trend-check timer expired.
    DetectorTimer {
        /// The node.
        node: NodeId,
        /// The egress port.
        port: u16,
        /// Priority / VL.
        prio: u8,
    },
    /// A flow becomes active at its source host.
    FlowStart {
        /// The flow.
        flow: FlowId,
    },
    /// A congestion-controller timer at a host expired.
    CcTimer {
        /// The host.
        node: NodeId,
        /// The flow whose controller owns the timer.
        flow: FlowId,
        /// Controller-defined timer id.
        timer: u32,
    },
    /// Periodic trace sampling tick.
    TraceTick,
    /// A scheduled fault takes the link at `(node, port)` down or brings
    /// it back up (both directions; see [`crate::fault::FaultPlan`]).
    LinkState {
        /// The node whose port identifies the link.
        node: NodeId,
        /// The port at `node`.
        port: u16,
        /// `true` = link up, `false` = link down.
        up: bool,
    },
    /// A scheduled fault overrides (or restores) the capacity of the link
    /// at `(node, port)`.
    LinkRate {
        /// The node whose port identifies the link.
        node: NodeId,
        /// The port at `node`.
        port: u16,
        /// `Some` = degraded capacity, `None` = nominal.
        rate: Option<lossless_flowctl::Rate>,
    },
    /// A scheduled fault atomically swaps the routing overrides to the
    /// given route set (`u32::MAX` reverts to the baseline tables).
    RouteUpdate {
        /// Index into [`crate::fault::FaultPlan::route_sets`], or
        /// `u32::MAX` for the baseline.
        set: u32,
    },
}

impl Event {
    /// Dense kind index, used by the observability layer's per-kind
    /// dispatch counters. Indexes into [`Event::KIND_NAMES`].
    #[inline]
    pub fn kind_index(&self) -> usize {
        match self {
            Event::PacketArrival { .. } => 0,
            Event::PortTx { .. } => 1,
            Event::FcclTick { .. } => 2,
            Event::DetectorTimer { .. } => 3,
            Event::FlowStart { .. } => 4,
            Event::CcTimer { .. } => 5,
            Event::TraceTick => 6,
            Event::LinkState { .. } => 7,
            Event::LinkRate { .. } => 8,
            Event::RouteUpdate { .. } => 9,
        }
    }

    /// Metric names of the event kinds, indexed by
    /// [`Event::kind_index`].
    pub const KIND_NAMES: [&'static str; 10] = [
        "engine.dispatch.packet_arrival",
        "engine.dispatch.port_tx",
        "engine.dispatch.fccl_tick",
        "engine.dispatch.detector_timer",
        "engine.dispatch.flow_start",
        "engine.dispatch.cc_timer",
        "engine.dispatch.trace_tick",
        "engine.dispatch.link_state",
        "engine.dispatch.link_rate",
        "engine.dispatch.route_update",
    ];
}

// `Obs::dispatched` counts only kinds below this bound and skips the rest.
const _: () = assert!(Event::KIND_NAMES.len() <= lossless_obs::MAX_EVENT_KINDS);

#[derive(Debug)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    ev: Event,
}

/// Tick width: `2^GRAN_BITS` ps (8 192 ps ≈ 8 ns), short enough that a
/// same-tick `cur` group is a few dozen events — one cheap sort each.
/// Exactness does not depend on the tick width: a group is extracted by
/// `(at, seq)` order within the tick, never by tick alone.
const GRAN_BITS: u32 = 13;
/// log2(ticks per block). A block is 512 ticks (~4.2 µs), so the near
/// window — the rest of the current block plus all of the next — always
/// reaches at least one block ahead: one link delay (4 µs) plus one
/// serialization (128–256 ns) lands in the ring on first insert, and so
/// do the 67–95 % of schedules (per tcdbench workload) that fall one
/// serialization or one link ahead.
const BLOCK_BITS: u32 = 9;
/// Near-ring slots: one per tick of two blocks.
const RING: usize = 2 << BLOCK_BITS;
/// Words of the ring's occupancy bitmap.
const RING_WORDS: usize = RING / 64;
/// log2(slots per far level).
const SLOT_BITS: u32 = 6;
/// Slots per far level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of far levels. Level `l` buckets blocks by bits `[6l, 6l+6)`
/// of their distance from the far wheel's position.
const LEVELS: usize = 6;
/// Block bits the far wheel spans; events further out wait in overflow.
const FAR_BITS: u32 = SLOT_BITS * LEVELS as u32;
/// Cap on the audited causality log (entries beyond it are counted, not
/// stored).
#[cfg(feature = "audit")]
pub(crate) const PAST_LOG_CAP: usize = 64;

/// The near ring and far wheel over `Scheduled` entries.
///
/// Invariants (`blk` = `elapsed >> BLOCK_BITS` is the current block, and
/// an event's block is its tick `>> BLOCK_BITS`):
/// - `cur` holds every stored event with `tick ≤ elapsed`, sorted
///   *descending* by `(at, seq)` — the queue head pops from the back
///   with no shifting, and a rare insert at-or-behind the current tick
///   binary-searches its position;
/// - `ring[t % RING]` holds exactly the events of tick `t`, for every
///   tick `t` of the near window `(elapsed, last tick of block blk + 1]`,
///   and every other ring slot is empty. The window is shorter than
///   `RING`, so a ring slot is one exact tick;
/// - every other event is in block `blk + 2` or later and waits in the
///   far wheel or `overflow`. An occupied far slot at level `l` holds
///   events whose block is greater than `far_pos` and differs from it
///   first in bit range `[6l, 6l+6)`; `overflow` holds events whose
///   block differs from `far_pos` above bit `FAR_BITS`, which makes them
///   later than everything in the far levels;
/// - `far_pos ≤ blk + 1` and only moves forward: to the start of the
///   block range of the then-earliest far slot when that slot cascades,
///   or anywhere while the far levels are empty (re-filing `overflow`
///   when that changes the bits above `FAR_BITS`). So far slot indices
///   never wrap past the position, and the lowest set bit of the lowest
///   occupied level's bitmap names the slot holding the earliest far
///   event.
#[derive(Debug)]
struct Wheel {
    /// Current position, in ticks.
    elapsed: u64,
    /// The staged head group (`tick ≤ elapsed`), sorted descending by
    /// `(at, seq)`.
    cur: Vec<Scheduled>,
    /// The near ring: `RING` one-tick buckets, unordered within a bucket.
    ring: Vec<Vec<Scheduled>>,
    /// Ring occupancy: bit `s % 64` of word `s / 64` set ⇔ `ring[s]` is
    /// non-empty.
    ring_occ: [u64; RING_WORDS],
    /// Emptied buffers, handed to ring slots as they fill. Staging a slot
    /// moves its buffer into `cur` and leaves the slot without one, so the
    /// live buffers number the occupied slots, not all `RING` of them.
    spare: Vec<Vec<Scheduled>>,
    /// Far-wheel position, in blocks.
    far_pos: u64,
    /// Per-level occupancy bitmaps: bit `s` set ⇔ `far[l*SLOTS + s]` is
    /// non-empty.
    far_occ: [u64; LEVELS],
    /// `LEVELS × SLOTS` far buckets, unordered within a bucket.
    far: Vec<Vec<Scheduled>>,
    /// Events beyond the far wheel's horizon.
    overflow: Vec<Scheduled>,
    len: usize,
}

impl Wheel {
    fn new() -> Wheel {
        Wheel {
            elapsed: 0,
            cur: Vec::new(),
            ring: (0..RING).map(|_| Vec::new()).collect(),
            ring_occ: [0; RING_WORDS],
            spare: Vec::new(),
            far_pos: 1,
            far_occ: [0; LEVELS],
            far: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            len: 0,
        }
    }

    fn insert(&mut self, s: Scheduled) {
        self.len += 1;
        self.place(s);
    }

    /// File `s` where its tick belongs (`len` is the caller's to keep).
    #[expect(
        clippy::indexing_slicing,
        reason = "the ring slot is masked to RING - 1 and RING_WORDS = RING / 64; level < LEVELS because x fits in FAR_BITS = 6*LEVELS bits on that branch, and the far slot is masked to SLOTS - 1"
    )]
    fn place(&mut self, s: Scheduled) {
        let tick = s.at.as_ps() >> GRAN_BITS;
        if tick <= self.elapsed {
            // Into the staged group: binary-insert to keep it sorted.
            // Descending order makes the common case (a zero-delay event
            // at the head timestamp, fresh = largest seq) an insert next
            // to the back, i.e. a tiny memmove.
            let pos = self.cur.partition_point(|e| (e.at, e.seq) > (s.at, s.seq));
            self.cur.insert(pos, s);
            return;
        }
        let block = tick >> BLOCK_BITS;
        if block <= (self.elapsed >> BLOCK_BITS) + 1 {
            let slot = (tick % RING as u64) as usize;
            let bit = 1u64 << (slot % 64);
            let word = &mut self.ring_occ[slot / 64];
            let bucket = &mut self.ring[slot];
            if *word & bit == 0 {
                *word |= bit;
                if let Some(buf) = self.spare.pop() {
                    *bucket = buf;
                }
            }
            bucket.push(s);
            return;
        }
        let x = block ^ self.far_pos;
        if x >> FAR_BITS != 0 {
            self.overflow.push(s);
        } else {
            let level = ((63 - x.leading_zeros()) / SLOT_BITS) as usize;
            let slot = ((block >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            self.far[level * SLOTS + slot].push(s);
            self.far_occ[level] |= 1 << slot;
        }
    }

    /// The earliest occupied tick of the near window, if any. Every slot
    /// outside the window is empty, so this is the first occupied slot at
    /// or after `elapsed + 1`'s, going round the ring; the window ends on
    /// a block edge, a word edge of the bitmap, so it never wraps back
    /// into the first word.
    #[expect(
        clippy::indexing_slicing,
        reason = "word indices are reduced modulo RING_WORDS"
    )]
    fn ring_next(&self) -> Option<u64> {
        let from = ((self.elapsed + 1) % RING as u64) as usize;
        let w0 = from / 64;
        for i in 0..RING_WORDS {
            let w = (w0 + i) % RING_WORDS;
            let mut bits = self.ring_occ[w];
            if i == 0 {
                bits &= !0 << (from % 64);
            }
            if bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                return Some(self.elapsed + 1 + ((slot + RING - from) % RING) as u64);
            }
        }
        None
    }

    /// The bucket holding the earliest event beyond the ring: the lowest
    /// occupied slot of the lowest occupied far level (slot block ranges
    /// are disjoint and ordered), else `overflow`.
    #[expect(
        clippy::indexing_slicing,
        reason = "level < LEVELS from the range, slot < SLOTS from trailing_zeros of a non-zero u64"
    )]
    fn far_first(&self) -> &[Scheduled] {
        match (0..LEVELS).find(|&l| self.far_occ[l] != 0) {
            Some(l) => &self.far[l * SLOTS + self.far_occ[l].trailing_zeros() as usize],
            None => &self.overflow,
        }
    }

    /// Timestamp of the earliest stored event. Pure: never advances the
    /// queue, so it is safe to call with a `limit` in hand and walk away.
    #[expect(
        clippy::indexing_slicing,
        reason = "ring_next returns a tick, and its slot is masked to RING - 1"
    )]
    fn peek_min(&self) -> Option<SimTime> {
        if let Some(s) = self.cur.last() {
            return Some(s.at);
        }
        let bucket = match self.ring_next() {
            Some(tick) => &self.ring[(tick % RING as u64) as usize],
            None => self.far_first(),
        };
        bucket.iter().map(|s| s.at).min()
    }

    /// Pop the earliest event if its timestamp is ≤ `limit`.
    fn pop_next(&mut self, limit: SimTime) -> Option<Scheduled> {
        if self.cur.is_empty() && !self.advance() {
            return None;
        }
        if self.cur.last().is_some_and(|s| s.at > limit) {
            return None;
        }
        let s = self.cur.pop()?;
        self.len -= 1;
        Some(s)
    }

    /// Stage the earliest pending tick group into `cur`, handing far
    /// blocks to the ring as the position enters new blocks. Returns
    /// whether any event is staged. Advancing `elapsed` eagerly — possibly
    /// past a caller's time limit — is safe because `insert` routes
    /// anything at or behind the new position into the sorted `cur` group.
    // Out of line: this is the once-per-tick-group slow path, and inlined
    // into `pop_next` it makes `pop_batched` too large to inline into the
    // drive loop (tcdbench fig2-storm run_wall_s 0.36 s without the
    // attribute against 0.30 s with it, median of 6 alternating pairs on a
    // 2-core VM).
    #[inline(never)]
    #[expect(
        clippy::indexing_slicing,
        reason = "ring_next returns a tick, its slot is masked to RING - 1, and RING_WORDS = RING / 64"
    )]
    fn advance(&mut self) -> bool {
        loop {
            if !self.cur.is_empty() {
                return true;
            }
            let Some(tick) = self.ring_next() else {
                // The ring is empty: jump to just before the first far
                // block, and the hand-over moves that block in.
                let Some(block) = self
                    .far_first()
                    .iter()
                    .map(|s| s.at.as_ps() >> (GRAN_BITS + BLOCK_BITS))
                    .min()
                else {
                    return false;
                };
                self.elapsed = (block << BLOCK_BITS) - 1;
                self.far_take(block);
                continue;
            };
            let entered = tick >> BLOCK_BITS != self.elapsed >> BLOCK_BITS;
            self.elapsed = tick;
            // A ring slot holds exactly one tick: it becomes the new
            // staged group, and cur's old (empty) buffer waits in `spare`
            // for the next slot to fill.
            let slot = (tick % RING as u64) as usize;
            self.ring_occ[slot / 64] &= !(1u64 << (slot % 64));
            let old = std::mem::replace(&mut self.cur, std::mem::take(&mut self.ring[slot]));
            self.spare.push(old);
            // Descending, so the earliest (at, seq) pops from the back
            // without shifting. Keys are unique, so unstable is safe.
            self.cur.sort_unstable_by_key(|s| Reverse((s.at, s.seq)));
            if entered {
                self.far_take((tick >> BLOCK_BITS) + 1);
            }
            return true;
        }
    }

    /// The position just entered block `b - 1`: hand the far wheel's
    /// events of block `b` to the ring, cascading every bucket whose block
    /// range starts at or before `b`.
    #[expect(
        clippy::indexing_slicing,
        reason = "level < LEVELS from the range, slot < SLOTS from trailing_zeros of a non-zero u64"
    )]
    fn far_take(&mut self, b: u64) {
        while let Some(level) = (0..LEVELS).find(|&l| self.far_occ[l] != 0) {
            let slot = self.far_occ[level].trailing_zeros() as usize;
            let shift = SLOT_BITS * level as u32;
            let start =
                (self.far_pos & !((1u64 << (shift + SLOT_BITS)) - 1)) | ((slot as u64) << shift);
            if start > b {
                return;
            }
            // Cascade: move to the start of this bucket's block range and
            // re-file its events, which now land at a strictly lower level
            // or, for block `b`, in the ring.
            self.far_pos = start;
            let idx = level * SLOTS + slot;
            let mut drained = std::mem::take(&mut self.far[idx]);
            self.far_occ[level] &= !(1u64 << slot);
            for s in drained.drain(..) {
                self.place(s);
            }
            // Hand the emptied buffer back to the bucket.
            self.far[idx] = drained;
        }
        // The far levels are empty: re-centre them on `b` so later events
        // land low. If that moves the horizon, re-file the overflow.
        let moved = (self.far_pos ^ b) >> FAR_BITS != 0;
        self.far_pos = b;
        if moved && !self.overflow.is_empty() {
            let mut drained = std::mem::take(&mut self.overflow);
            for s in drained.drain(..) {
                self.place(s);
            }
            if self.overflow.is_empty() {
                self.overflow = drained;
            }
        }
    }

    /// Every stored entry, staged group included (scheduled but not yet
    /// dispatched, so e.g. their packets are still in flight).
    #[cfg(feature = "audit")]
    fn iter(&self) -> impl Iterator<Item = &Scheduled> {
        self.cur
            .iter()
            .chain(self.ring.iter().flatten())
            .chain(self.far.iter().flatten())
            .chain(self.overflow.iter())
    }
}

/// Pending-event set with deterministic `(time, seq)` total order and
/// batched same-timestamp extraction.
#[derive(Debug)]
pub struct EventQueue {
    wheel: Wheel,
    seq: u64,
    now: SimTime,
    /// How many past-scheduled events were clamped to `now` (release
    /// builds); surfaced as the `event.clamped_past` metric so causality
    /// bugs are visible outside audit builds.
    clamped_past: u64,
    /// Causality-violation log: `(requested time, clock at request)` for
    /// every attempt to schedule into the past. Drained by the auditor at
    /// checkpoints.
    #[cfg(feature = "audit")]
    past_schedules: Vec<(SimTime, SimTime)>,
    /// Entries not stored in `past_schedules` because the log was at
    /// [`PAST_LOG_CAP`]; reported (not silently lost) by the auditor.
    #[cfg(feature = "audit")]
    past_dropped: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// Empty queue at t = 0.
    pub fn new() -> Self {
        EventQueue {
            wheel: Wheel::new(),
            seq: 0,
            now: SimTime::ZERO,
            clamped_past: 0,
            #[cfg(feature = "audit")]
            past_schedules: Vec::new(),
            #[cfg(feature = "audit")]
            past_dropped: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `ev` at absolute time `at`. Scheduling in the past is a
    /// logic error: audited builds log it for the auditor's causality
    /// check, plain debug builds assert, and release builds clamp to
    /// `now` to stay monotonic — counting every clamp in
    /// [`clamped_past`](EventQueue::clamped_past).
    #[inline]
    pub fn schedule(&mut self, at: SimTime, ev: Event) {
        let seq = self.reserve_seq();
        self.schedule_reserved(at, seq, ev);
    }

    /// Take the next sequence number without scheduling anything. An
    /// event later filed under it by
    /// [`schedule_reserved`](EventQueue::schedule_reserved) pops exactly
    /// where it would have popped had it been scheduled now.
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedule `ev` at `at` under a sequence number taken earlier from
    /// [`reserve_seq`](EventQueue::reserve_seq). The caller keeps the
    /// contract that makes this exact: `(at, seq)` is above the key of
    /// every event popped so far. Past times are handled as in
    /// [`schedule`](EventQueue::schedule).
    #[inline]
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, ev: Event) {
        #[cfg(feature = "audit")]
        if at < self.now {
            if self.past_schedules.len() < PAST_LOG_CAP {
                self.past_schedules.push((at, self.now));
            } else {
                self.past_dropped += 1;
            }
        }
        #[cfg(not(feature = "audit"))]
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let at = if at < self.now {
            self.clamped_past += 1;
            self.now
        } else {
            at
        };
        self.wheel.insert(Scheduled { at, seq, ev });
    }

    /// Pop the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_batched(SimTime::MAX)
    }

    /// Pop the next event if its timestamp is ≤ `limit`, advancing the
    /// clock; `None` past the limit or when empty. The first pop at a new
    /// head group stages the whole group into the sorted `cur` buffer, so
    /// consecutive same-time pops bypass the ring and the far wheel.
    pub fn pop_batched(&mut self, limit: SimTime) -> Option<(SimTime, Event)> {
        let s = self.wheel.pop_next(limit)?;
        debug_assert!(s.at >= self.now);
        self.now = s.at;
        Some((s.at, s.ev))
    }

    /// Timestamp of the next event without popping.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek_min()
    }

    /// Number of pending events. A registered flow's start is filed here
    /// only shortly before it runs (see the simulator's start chain), so
    /// flows that have not started are mostly not counted.
    pub fn len(&self) -> usize {
        self.wheel.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many past-scheduled events were silently clamped to `now`.
    /// Always 0 in a causally sound run.
    pub fn clamped_past(&self) -> u64 {
        self.clamped_past
    }

    /// Drain the log of attempts to schedule into the past.
    #[cfg(feature = "audit")]
    pub(crate) fn take_past_schedules(&mut self) -> Vec<(SimTime, SimTime)> {
        std::mem::take(&mut self.past_schedules)
    }

    /// Number of causality-log entries dropped beyond [`PAST_LOG_CAP`]
    /// since the last drain; resets on read.
    #[cfg(feature = "audit")]
    pub(crate) fn take_past_dropped(&mut self) -> u64 {
        std::mem::take(&mut self.past_dropped)
    }

    /// Number of pending `PacketArrival` events (packets on the wire).
    #[cfg(feature = "audit")]
    pub(crate) fn packets_in_flight(&self) -> usize {
        self.wheel
            .iter()
            .filter(|s| matches!(s.ev, Event::PacketArrival { .. }))
            .count()
    }

    /// Iterate pending packet arrivals as `(receiver, in_port, packet)`.
    #[cfg(feature = "audit")]
    pub(crate) fn packet_arrivals(&self) -> impl Iterator<Item = (NodeId, u16, &Packet)> {
        self.wheel.iter().filter_map(|s| match &s.ev {
            Event::PacketArrival { node, in_port, pkt } => Some((*node, *in_port, &**pkt)),
            _ => None,
        })
    }
}

/// Transmission gate of one egress port: tracks when the transmitter is
/// free and deduplicates pending `PortTx` wake-ups so each port keeps at
/// most a couple of outstanding events regardless of how often it is
/// kicked.
///
/// Protocol:
/// 1. at the top of a `PortTx` handler call [`on_event`](TxGate::on_event);
///    proceed only if it returns `true`;
/// 2. after starting a transmission call [`begin_tx`](TxGate::begin_tx) and
///    schedule the follow-up `PortTx` at the returned time (then
///    [`note_scheduled`](TxGate::note_scheduled));
/// 3. to kick the port from anywhere, consult [`want`](TxGate::want) and
///    schedule + [`note_scheduled`](TxGate::note_scheduled) if it returns a
///    time.
///
/// Handlers must tolerate spurious wake-ups (they re-check all send
/// conditions), which keeps the bookkeeping simple and robust.
#[derive(Debug, Clone, Default)]
pub struct TxGate {
    free_at: SimTime,
    pending_at: Option<SimTime>,
}

impl TxGate {
    /// A gate that is free immediately.
    pub fn new() -> Self {
        TxGate::default()
    }

    /// Enter a `PortTx` handler. Returns whether the transmitter is free.
    pub fn on_event(&mut self, now: SimTime) -> bool {
        if let Some(p) = self.pending_at {
            if p <= now {
                self.pending_at = None;
            }
        }
        now >= self.free_at
    }

    /// Record the start of a transmission lasting `ser`; returns the time
    /// the transmitter frees up (schedule the next `PortTx` there).
    pub fn begin_tx(&mut self, now: SimTime, ser: lossless_flowctl::SimDuration) -> SimTime {
        debug_assert!(now >= self.free_at);
        self.free_at = now + ser;
        self.free_at
    }

    /// When the port would next need a `PortTx` event if kicked at `at`;
    /// `None` if an earlier-or-equal event is already pending.
    pub fn want(&self, at: SimTime) -> Option<SimTime> {
        let at = at.max(self.free_at);
        match self.pending_at {
            Some(p) if p <= at => None,
            _ => Some(at),
        }
    }

    /// Record that a `PortTx` was scheduled at `at`.
    pub fn note_scheduled(&mut self, at: SimTime) {
        self.pending_at = Some(at);
    }

    /// When the transmitter frees up.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(node: u32, port: u16) -> Event {
        Event::PortTx {
            node: NodeId(node),
            port,
        }
    }

    #[test]
    fn kind_indices_cover_the_name_table_once() {
        let (node, flow) = (NodeId(0), FlowId(0));
        let every = [
            Event::PacketArrival {
                node,
                in_port: 0,
                pkt: Box::new(Packet::data(
                    flow,
                    node,
                    node,
                    1000,
                    1,
                    0,
                    true,
                    tcd_core::CodePoint::Capable,
                )),
            },
            tx(0, 0),
            Event::FcclTick {
                node,
                port: 0,
                vl: 0,
            },
            Event::DetectorTimer {
                node,
                port: 0,
                prio: 0,
            },
            Event::FlowStart { flow },
            Event::CcTimer {
                node,
                flow,
                timer: 0,
            },
            Event::TraceTick,
            Event::LinkState {
                node,
                port: 0,
                up: true,
            },
            Event::LinkRate {
                node,
                port: 0,
                rate: None,
            },
            Event::RouteUpdate { set: 0 },
        ];
        let mut hits = [0u32; Event::KIND_NAMES.len()];
        for ev in &every {
            let Some(h) = hits.get_mut(ev.kind_index()) else {
                panic!("{ev:?} indexes past KIND_NAMES");
            };
            *h += 1;
        }
        assert_eq!(hits, [1; Event::KIND_NAMES.len()]);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(3), tx(3, 0));
        q.schedule(SimTime::from_us(1), tx(1, 0));
        q.schedule(SimTime::from_us(2), tx(2, 0));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::PortTx { node, .. } => node.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(5);
        for i in 0..10 {
            q.schedule(t, tx(i, 0));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::PortTx { node, .. } => node.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[cfg(feature = "audit")]
    #[test]
    fn schedules_into_the_past_are_logged_for_the_auditor() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(10), tx(0, 0));
        let _ = q.pop(); // clock is now at 10us
        q.schedule(SimTime::from_us(5), tx(1, 0));
        let past = q.take_past_schedules();
        assert_eq!(past, vec![(SimTime::from_us(5), SimTime::from_us(10))]);
        // The log is drained by the take.
        assert!(q.take_past_schedules().is_empty());
    }

    #[cfg(feature = "audit")]
    #[test]
    fn past_log_overflow_is_counted_not_lost() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(10), tx(0, 0));
        let _ = q.pop();
        for i in 0..(PAST_LOG_CAP as u32 + 7) {
            q.schedule(SimTime::from_us(5), tx(i, 0));
        }
        assert_eq!(q.take_past_schedules().len(), PAST_LOG_CAP);
        assert_eq!(q.take_past_dropped(), 7);
        // Both reset on drain.
        assert_eq!(q.take_past_dropped(), 0);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn release_clamps_are_counted() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(10), tx(0, 0));
        let _ = q.pop();
        q.schedule(SimTime::from_us(5), tx(1, 0));
        assert_eq!(q.clamped_past(), 1);
        // The clamped event runs at `now`, not in the past.
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_us(10));
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(2), tx(0, 0));
        q.schedule(SimTime::from_us(2), tx(1, 0));
        q.schedule(SimTime::from_us(7), tx(2, 0));
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(q.now(), SimTime::from_us(7));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(4), tx(0, 0));
        assert_eq!(q.peek_time(), Some(SimTime::from_us(4)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn pop_batched_respects_limit_and_resumes() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(1), tx(0, 0));
        q.schedule(SimTime::from_us(3), tx(1, 0));
        assert!(q.pop_batched(SimTime::from_us(2)).is_some());
        // Next event is past the limit: peeking must not advance the
        // clock or lose the event.
        assert!(q.pop_batched(SimTime::from_us(2)).is_none());
        assert_eq!(q.now(), SimTime::from_us(1));
        assert_eq!(q.len(), 1);
        // A later bound picks it up.
        let (t, _) = q.pop_batched(SimTime::from_us(5)).unwrap();
        assert_eq!(t, SimTime::from_us(3));
    }

    #[test]
    fn zero_delay_schedules_during_a_batch_keep_fifo_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(1);
        q.schedule(t, tx(0, 0));
        q.schedule(t, tx(1, 0));
        // Pop the first of the pair; the group is now staged.
        let (now, _) = q.pop().unwrap();
        assert_eq!(now, t);
        // A zero-delay schedule lands after the staged remainder.
        q.schedule(t, tx(2, 0));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::PortTx { node, .. } => node.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, [1, 2]);
    }

    #[test]
    fn far_future_events_cross_wheel_levels() {
        let mut q = EventQueue::new();
        // One event in the ring, one per far level, plus one beyond the
        // ~80 h horizon.
        let mut expect = vec![SimTime::from_ps(1 << GRAN_BITS)];
        q.schedule(expect[0], tx(99, 0));
        for lvl in 0..=LEVELS as u32 {
            let at = SimTime::from_ps(1u64 << (GRAN_BITS + BLOCK_BITS + 1 + SLOT_BITS * lvl));
            q.schedule(at, tx(lvl, 0));
            expect.push(at);
        }
        let times: Vec<SimTime> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(times, expect);
        assert!(q.is_empty());
    }

    #[test]
    fn txgate_busy_until_serialization_done() {
        use lossless_flowctl::SimDuration;
        let mut g = TxGate::new();
        assert!(g.on_event(SimTime::ZERO));
        let free = g.begin_tx(SimTime::ZERO, SimDuration::from_ns(200));
        assert_eq!(free, SimTime::from_ns(200));
        assert!(!g.on_event(SimTime::from_ns(100)));
        assert!(g.on_event(SimTime::from_ns(200)));
    }

    #[test]
    fn txgate_deduplicates_kicks() {
        let mut g = TxGate::new();
        // First kick schedules...
        let at = g.want(SimTime::from_us(1)).unwrap();
        g.note_scheduled(at);
        // ...an equal-or-later kick is suppressed...
        assert_eq!(g.want(SimTime::from_us(1)), None);
        assert_eq!(g.want(SimTime::from_us(2)), None);
        // ...but an earlier need is not.
        assert_eq!(g.want(SimTime::from_ns(500)), Some(SimTime::from_ns(500)));
        let mut g2 = TxGate::new();
        g2.note_scheduled(SimTime::from_us(10)); // a pacing wake far out
        assert_eq!(g2.want(SimTime::from_us(1)), Some(SimTime::from_us(1)));
    }

    #[test]
    fn txgate_kick_while_busy_lands_at_free_time() {
        use lossless_flowctl::SimDuration;
        let mut g = TxGate::new();
        assert!(g.on_event(SimTime::ZERO));
        let free = g.begin_tx(SimTime::ZERO, SimDuration::from_us(1));
        g.note_scheduled(free);
        // A kick mid-transmission is absorbed by the pending completion
        // event.
        assert_eq!(g.want(SimTime::from_ns(300)), None);
    }
}
