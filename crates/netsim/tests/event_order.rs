//! Property-based tests of the event queue's ordering contract: pops come
//! out sorted by `(time, insertion sequence)` — i.e. time-ordered with
//! FIFO ties — for any schedule whatsoever. Every determinism guarantee
//! in the workspace (including the parallel harness's bit-identical
//! sweeps) reduces to this property.

use lossless_flowctl::{SimDuration, SimTime};
use lossless_netsim::event::{Event, EventQueue};
use lossless_netsim::NodeId;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Tag an event with its schedule index so the pop order is observable.
fn tagged(i: u32) -> Event {
    Event::PortTx {
        node: NodeId(i),
        port: 0,
    }
}

fn tag(ev: &Event) -> u32 {
    match ev {
        Event::PortTx { node, .. } => node.0,
        _ => unreachable!("only PortTx events are scheduled here"),
    }
}

proptest! {
    /// Pops are sorted by time, and among equal times by insertion order.
    #[test]
    fn pops_sorted_by_time_then_fifo(times in proptest::collection::vec(0u64..50, 0..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ns(t), tagged(i as u32));
        }
        let mut popped: Vec<(SimTime, u32)> = Vec::new();
        while let Some((t, ev)) = q.pop() {
            popped.push((t, tag(&ev)));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            let ((t0, i0), (t1, i1)) = (w[0], w[1]);
            prop_assert!(t0 <= t1, "time order violated: {t0} after {t1}");
            if t0 == t1 {
                prop_assert!(i0 < i1, "FIFO tie-break violated at {t0}: {i0} before {i1}");
            }
        }
        // Each timestamp's events come out exactly in schedule order.
        let mut expect: Vec<(u64, u32)> =
            times.iter().enumerate().map(|(i, &t)| (t, i as u32)).collect();
        expect.sort(); // stable: preserves schedule order within a timestamp
        let got: Vec<(u64, u32)> = popped.iter().map(|&(t, i)| (t.as_ps() / 1000, i)).collect();
        prop_assert_eq!(got, expect);
    }

    /// Interleaving pops with schedules keeps the contract: events
    /// scheduled later for the same instant still run after everything
    /// already queued there.
    #[test]
    fn interleaved_schedule_pop_keeps_fifo(
        rounds in proptest::collection::vec((0u64..20, 1usize..5), 1..50)
    ) {
        let mut q = EventQueue::new();
        let mut next_tag = 0u32;
        let mut popped: Vec<(SimTime, u32)> = Vec::new();
        for (dt, n) in rounds {
            let base = q.now();
            for _ in 0..n {
                q.schedule(base + lossless_flowctl::SimDuration::from_ns(dt), tagged(next_tag));
                next_tag += 1;
            }
            if let Some((t, ev)) = q.pop() {
                popped.push((t, tag(&ev)));
            }
        }
        while let Some((t, ev)) = q.pop() {
            popped.push((t, tag(&ev)));
        }
        prop_assert_eq!(popped.len(), next_tag as usize);
        for w in popped.windows(2) {
            let ((t0, i0), (t1, i1)) = (w[0], w[1]);
            prop_assert!(t0 <= t1);
            if t0 == t1 {
                prop_assert!(i0 < i1, "FIFO tie-break violated at {t0}: {i0} before {i1}");
            }
        }
    }

    /// Far-future schedules keep the total order even when delays span
    /// every wheel level and the overflow list (exponents up to 2^50 ps
    /// reach past the ~9 min wheel horizon), and level boundaries are
    /// crossed while popping.
    #[test]
    fn far_future_delays_cross_levels_in_order(
        shifts in proptest::collection::vec(0u32..51, 1..120)
    ) {
        let mut q = EventQueue::new();
        for (i, &s) in shifts.iter().enumerate() {
            // 2^s ps plus a small offset so equal exponents still
            // collide on timestamps now and then.
            q.schedule(SimTime::from_ps((1u64 << s) + (i as u64 % 3)), tagged(i as u32));
        }
        let mut expect: Vec<(u64, u32)> = shifts
            .iter()
            .enumerate()
            .map(|(i, &s)| ((1u64 << s) + (i as u64 % 3), i as u32))
            .collect();
        expect.sort(); // stable: schedule order within a timestamp
        let mut got = Vec::new();
        while let Some((t, ev)) = q.pop() {
            got.push((t.as_ps(), tag(&ev)));
        }
        prop_assert_eq!(got, expect);
    }

    /// Zero-delay schedules issued *while a same-timestamp batch drains*
    /// run at that same instant, after everything already queued there.
    /// This is the engine's self-post pattern (a handler scheduling
    /// follow-up work at `now`).
    #[test]
    fn zero_delay_during_batch_drain_stays_fifo(
        group in 1usize..8,
        post_counts in proptest::collection::vec(0usize..3, 1..20)
    ) {
        let mut q = EventQueue::new();
        let t0 = SimTime::from_ns(5);
        let mut next = 0u32;
        for _ in 0..group {
            q.schedule(t0, tagged(next));
            next += 1;
        }
        let mut got = Vec::new();
        let mut posts = post_counts.into_iter();
        while let Some((t, ev)) = q.pop() {
            got.push((t, tag(&ev)));
            // Mid-drain, post a few zero-delay events at `now`.
            for _ in 0..posts.next().unwrap_or(0) {
                q.schedule(t, tagged(next));
                next += 1;
            }
        }
        prop_assert_eq!(got.len(), next as usize);
        // All at the same instant, in exact schedule order.
        for (i, &(t, tagv)) in got.iter().enumerate() {
            prop_assert_eq!(t, t0);
            prop_assert_eq!(tagv, i as u32, "self-post order broken");
        }
    }

    /// Differential equivalence: the wheel and the [`Model`] heap pop the
    /// *same* `(time, tag)` sequence for any interleaving of schedules
    /// (delays spanning sub-tick to cross-level magnitudes, including
    /// zero and — where the build tolerates it — into the past), plain
    /// pops, and time-limited batched pops.
    #[test]
    fn wheel_and_heap_pop_identically(
        ops in proptest::collection::vec(
            prop_oneof![
                // (delay exponent, extra ps): schedule now + 2^e + extra
                (0u32..34, 0u64..4).prop_map(|(e, x)| Op::Schedule((1u64 << e) + x)),
                Just(Op::Schedule(0)),
                (1u64..2000).prop_map(Op::SchedulePast),
                Just(Op::Pop),
                (0u64..1000).prop_map(Op::PopLimit),
            ],
            1..200
        )
    ) {
        let mut wheel = EventQueue::new();
        let mut model = Model::default();
        let mut next = 0u32;
        for op in ops {
            match op {
                Op::Schedule(dps) => {
                    let at = wheel.now() + SimDuration::from_ps(dps);
                    wheel.schedule(at, tagged(next));
                    model.schedule(at, next);
                    next += 1;
                }
                Op::SchedulePast(back_ps) => {
                    let back = if PAST_SCHEDULES_CLAMP { back_ps } else { 0 };
                    let at = SimTime::from_ps(wheel.now().as_ps().saturating_sub(back));
                    wheel.schedule(at, tagged(next));
                    model.schedule(at, next);
                    next += 1;
                }
                Op::Pop => {
                    prop_assert_eq!(obs(wheel.pop()), model.pop_batched(SimTime::MAX));
                }
                Op::PopLimit(ns) => {
                    let lim = SimTime::from_ns(ns);
                    prop_assert_eq!(obs(wheel.pop_batched(lim)), model.pop_batched(lim));
                }
            }
            prop_assert_eq!(wheel.len(), model.heap.len());
            prop_assert_eq!(wheel.peek_time(), model.peek_time());
            prop_assert_eq!(wheel.now(), model.now);
        }
        // Drain both to the end: still in lock-step.
        loop {
            let (w, m) = (obs(wheel.pop()), model.pop_batched(SimTime::MAX));
            prop_assert_eq!(w, m);
            if w.is_none() {
                break;
            }
        }
    }

    /// The near ring's edges, against the same [`Model`] in lock-step:
    /// delays from the engine's measured mix ([`MIX_PS`]), absolute times
    /// one tick either side of the next two block starts, schedules into
    /// the past, and limits either side of a block crossing. Before every
    /// pop, `peek_time` must name the time that pop hands out — including
    /// when the ring is empty and the head waits in the far wheel or
    /// beyond it.
    #[test]
    fn ring_edges_pop_like_the_heap(
        ops in proptest::collection::vec(
            prop_oneof![
                (0..MIX_PS.len(), 0u64..3).prop_map(|(i, x)| Edge::Delay(MIX_PS[i] + x)),
                (1u64..3, -1i64..=1).prop_map(|(k, d)| Edge::Block(k, d)),
                (1u64..20_000_000).prop_map(Edge::Past),
                Just(Edge::Pop),
                (1u64..3, -1i64..=1).prop_map(|(k, d)| Edge::Limit(k, d)),
            ],
            1..300
        )
    ) {
        let mut q = EventQueue::new();
        let mut model = Model::default();
        let mut next = 0u32;
        for op in ops {
            let now = q.now().as_ps();
            let at = match op {
                Edge::Delay(d) => Some(now.saturating_add(d)),
                Edge::Block(k, d) => Some(block_edge(now, k, d).max(now)),
                Edge::Past(back) => {
                    Some(now.saturating_sub(if PAST_SCHEDULES_CLAMP { back } else { 0 }))
                }
                Edge::Pop | Edge::Limit(..) => None,
            };
            if let Some(at) = at {
                q.schedule(SimTime::from_ps(at), tagged(next));
                model.schedule(SimTime::from_ps(at), next);
                next += 1;
            } else {
                let limit = match op {
                    Edge::Limit(k, d) => SimTime::from_ps(block_edge(now, k, d)),
                    _ => SimTime::MAX,
                };
                let head = q.peek_time();
                prop_assert_eq!(head, model.peek_time());
                let got = obs(q.pop_batched(limit));
                prop_assert_eq!(got, model.pop_batched(limit));
                prop_assert_eq!(got.map(|(t, _)| t), head.filter(|&t| t <= limit));
            }
            prop_assert_eq!(q.len(), model.heap.len());
            prop_assert_eq!(q.now(), model.now);
        }
        loop {
            let head = q.peek_time();
            prop_assert_eq!(head, model.peek_time());
            let got = obs(q.pop());
            prop_assert_eq!(got, model.pop_batched(SimTime::MAX));
            prop_assert_eq!(got.map(|(t, _)| t), head);
            if got.is_none() {
                break;
            }
        }
    }

    /// Reserved sequence numbers (the simulator's flow starts): an event
    /// filed later under a seq reserved earlier pops exactly where the
    /// [`Model`] puts it, which is where it would have popped had it been
    /// scheduled at reservation time. Reservations interleave with plain
    /// schedules and pops; filings land in the staged group (at `now`,
    /// among later-seq events already staged there), the ring and the far
    /// wheel, always above the last popped key as the contract requires.
    #[test]
    fn reserved_seqs_pop_like_the_heap(
        ops in proptest::collection::vec(
            prop_oneof![
                Just(Resv::Reserve),
                (any::<usize>(), 0..MIX_PS.len()).prop_map(|(k, i)| Resv::File(k, MIX_PS[i])),
                (0..MIX_PS.len()).prop_map(|i| Resv::Schedule(MIX_PS[i])),
                Just(Resv::Pop),
            ],
            1..300
        )
    ) {
        let mut q = EventQueue::new();
        let mut model = Model::default();
        // Reserved seqs not filed yet, with the tag their event will carry.
        let mut reserved: Vec<(u64, u32)> = Vec::new();
        let mut next = 0u32;
        for op in ops {
            let now = q.now();
            match op {
                Resv::Reserve => {
                    let seq = q.reserve_seq();
                    prop_assert_eq!(seq, model.reserve());
                    reserved.push((seq, next));
                    next += 1;
                }
                Resv::File(k, d) if !reserved.is_empty() => {
                    let (seq, tag) = reserved.swap_remove(k % reserved.len());
                    let mut at = now + SimDuration::from_ps(d);
                    if model.last.is_some_and(|last| (at, seq) < last) {
                        at = now + SimDuration::from_ps(1);
                    }
                    q.schedule_reserved(at, seq, tagged(tag));
                    model.schedule_reserved(at, seq, tag);
                }
                Resv::File(..) => {}
                Resv::Schedule(d) => {
                    let at = now + SimDuration::from_ps(d);
                    q.schedule(at, tagged(next));
                    model.schedule(at, next);
                    next += 1;
                }
                Resv::Pop => {
                    prop_assert_eq!(q.peek_time(), model.peek_time());
                    prop_assert_eq!(obs(q.pop()), model.pop_batched(SimTime::MAX));
                }
            }
            prop_assert_eq!(q.len(), model.heap.len());
            prop_assert_eq!(q.now(), model.now);
        }
        loop {
            let got = obs(q.pop());
            prop_assert_eq!(got, model.pop_batched(SimTime::MAX));
            if got.is_none() {
                break;
            }
        }
    }
}

/// One step of [`reserved_seqs_pop_like_the_heap`].
#[derive(Debug, Clone, Copy)]
enum Resv {
    /// Reserve the next seq.
    Reserve,
    /// File the `k`-th (mod count) unfiled reservation at `now + delay_ps`.
    File(usize, u64),
    /// Schedule a plain event at `now + delay_ps`.
    Schedule(u64),
    /// Unbounded pop.
    Pop,
}

/// One tick of the event queue's ring, in ps (`2^13`).
const TICK_PS: u64 = 1 << 13;
/// One block of the ring (512 ticks, ~4.2 µs): the ring covers the block
/// the clock is in and the next one.
const BLOCK_PS: u64 = TICK_PS << 9;

/// Delays the engine schedules, from a recorded `fig2-storm` and victim
/// stream: zero (self-posts), one tick, a 40 Gbps serialization (200 ns)
/// and a 1 KB one at 32 Gbps (256 ns), one link (4 µs + 200 ns), a
/// detector/CC timer (55 µs), a run length (10 ms), past the ~9 min
/// horizon of the original single wheel (`2^49` ps) and past the far
/// wheel's ~80 h one (`2^58` ps).
const MIX_PS: [u64; 9] = [
    0,
    TICK_PS,
    200_000,
    256_000,
    4_200_000,
    55_000_000,
    10_000_000_000,
    (1 << 49) + 1,
    (1 << 58) + 1,
];

/// `d` ticks (−1, 0 or +1) off the start of the `k`-th block after the
/// one `now_ps` is in.
fn block_edge(now_ps: u64, k: u64, d: i64) -> u64 {
    let start = (now_ps / BLOCK_PS + k) * BLOCK_PS;
    start.saturating_add_signed(d * TICK_PS as i64)
}

/// One step of [`ring_edges_pop_like_the_heap`].
#[derive(Debug, Clone, Copy)]
enum Edge {
    /// Schedule at `now + delay_ps`.
    Delay(u64),
    /// Schedule at [`block_edge`]`(now, k, d)` (not before `now`).
    Block(u64, i64),
    /// Schedule at `now - back_ps`.
    Past(u64),
    /// Unbounded pop.
    Pop,
    /// `pop_batched` bounded at [`block_edge`]`(now, k, d)`.
    Limit(u64, i64),
}

/// The jump path in isolation: with nothing in the ring, the head is in
/// the far wheel (or beyond its horizon), and both `peek_time` and the
/// pop must find it there. The jump also hands over the block after the
/// head's, so an event filed into the ring there afterwards still runs
/// after the far one before it.
#[test]
fn empty_ring_jumps_to_the_far_head() {
    let mut q = EventQueue::new();
    let (head, next) = (55_000_000, 55_000_000 + BLOCK_PS);
    let beyond = [10_000_000_000, (1 << 58) + 1];
    let all = [head, next, beyond[0], beyond[1]];
    for (i, &t) in all.iter().enumerate().rev() {
        q.schedule(SimTime::from_ps(t), tagged(i as u32));
    }
    let pop = |q: &mut EventQueue, t: u64, tag: u32| {
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(t)));
        assert_eq!(obs(q.pop()), Some((SimTime::from_ps(t), tag)));
    };
    // A limit one tick short leaves the head in place.
    assert!(q.pop_batched(SimTime::from_ps(head - TICK_PS)).is_none());
    pop(&mut q, head, 0);
    // A zero-delay follow-up at the head's instant runs next.
    q.schedule(SimTime::from_ps(head), tagged(10));
    pop(&mut q, head, 10);
    q.schedule(SimTime::from_ps(next + TICK_PS), tagged(11));
    pop(&mut q, next, 1);
    pop(&mut q, next + TICK_PS, 11);
    for (i, &t) in beyond.iter().enumerate() {
        assert!(q.pop_batched(SimTime::from_ps(t - TICK_PS)).is_none());
        pop(&mut q, t, 2 + i as u32);
    }
    assert_eq!(q.peek_time(), None);
    assert!(q.pop().is_none());
}

/// Whether this build lets a schedule into the past through to the clamp:
/// audited builds log it and release builds count it, but a plain debug
/// build asserts. Where it asserts, [`Op::SchedulePast`] degrades to a
/// zero-delay schedule.
const PAST_SCHEDULES_CLAMP: bool = cfg!(any(feature = "audit", not(debug_assertions)));

/// The reference model of [`EventQueue`]'s contract: a binary heap over
/// `(time, insertion sequence, tag)`, a clock that follows the last pop,
/// and past schedules clamped to that clock.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    seq: u64,
    now: SimTime,
    /// The key of the last pop.
    last: Option<(SimTime, u64)>,
}

impl Model {
    fn schedule(&mut self, at: SimTime, tag: u32) {
        let seq = self.reserve();
        self.schedule_reserved(at, seq, tag);
    }

    fn reserve(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    fn schedule_reserved(&mut self, at: SimTime, seq: u64, tag: u32) {
        self.heap.push(Reverse((at.max(self.now), seq, tag)));
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((at, _, _))| at)
    }

    fn pop_batched(&mut self, limit: SimTime) -> Option<(SimTime, u32)> {
        if self.peek_time()? > limit {
            return None;
        }
        let Reverse((at, seq, tag)) = self.heap.pop()?;
        self.now = at;
        self.last = Some((at, seq));
        Some((at, tag))
    }
}

/// One step of the differential schedule/pop interleaving.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule a tagged event at `now + delay_ps`.
    Schedule(u64),
    /// Schedule a tagged event at `now - back_ps` (saturating at 0).
    SchedulePast(u64),
    /// Unbounded pop.
    Pop,
    /// `pop_batched` bounded at the given absolute nanosecond.
    PopLimit(u64),
}

/// Project a pop result to comparable `(time, tag)` form.
fn obs(r: Option<(SimTime, Event)>) -> Option<(SimTime, u32)> {
    r.map(|(t, ev)| (t, tag(&ev)))
}
