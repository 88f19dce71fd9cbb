//! Conservative parallel execution: one run, many cores, bit-identical.
//!
//! The topology is cut into node groups ([`crate::partition`]); each group
//! ("shard") gets a private node table, event queue, packet pool, trace and
//! observability slice, and runs on its own worker thread. Execution
//! proceeds in lock-step *windows* of width `L`, the minimum cross-partition
//! link delay: inside one window no shard can affect another (a packet sent
//! at `t` lands at `t + delay ≥ t + L`, beyond the window), so all shards
//! dispatch their window concurrently with zero coordination — the
//! classical conservative-PDES lookahead argument, with the null messages
//! replaced by a barrier because windows are computed globally.
//!
//! Bit-identity with the serial engine rests on three mechanisms:
//!
//! 1. **Shared handlers.** Workers call the same
//!    [`dispatch_node_event`] the serial loop calls, so per-event behaviour
//!    is byte-identical and only event *order* is at stake.
//! 2. **Provisional sequence replay.** Event order is `(time, seq)` where
//!    `seq` is the serial engine's global schedule counter. A worker cannot
//!    know its true counter values mid-window, so it stamps schedules with
//!    provisional numbers (`PROV_BASE | n`, shard-local). At the barrier
//!    the coordinator *replays* the merged dispatch logs in serial order
//!    and hands out true counter values exactly as the serial engine would
//!    have, then retags every pending event. Raw comparisons stay correct
//!    mid-window because provisional numbers sort after all true numbers
//!    and shard-local provisional order equals serial order restricted to
//!    that shard.
//! 3. **Outbox delivery.** The only runtime cross-shard event is
//!    `PacketArrival`; the queue's routing hook diverts foreign arrivals to
//!    per-destination outboxes, which the barrier translates and delivers.
//!    Lookahead guarantees every delivery lands at or beyond the next
//!    window's floor; anything earlier is counted in
//!    [`Simulator::par_causality_violations`] (always 0 when the lookahead
//!    argument holds).
//!
//! Engine-global events (trace ticks, faults, route swaps) need the whole
//! network, so they end the *epoch*: the cut stops exactly at the global's
//! `(time, seq)`, shards are gathered back into the serial simulator, the
//! global dispatches through the ordinary serial path, and the next epoch
//! re-scatters. Runs without faults or trace sampling never gather.
//!
//! Serial fallbacks (handled by the caller or by returning `false` from
//! [`drive_parallel`]): a single partition, a zero-delay cross link (no
//! lookahead), `run_until_all_complete` (polls a global counter per event)
//! and audit builds (checkpoints walk the whole network).

use std::sync::{mpsc, Arc};
use std::thread;

use crate::cchooks::RateController;
use crate::config::SimConfig;
use crate::event::{Event, EventQueue, ParRoute, PROV_BASE};
use crate::packet::PacketPool;
use crate::partition::{partition, PartitionStrategy};
use crate::routing::Routing;
use crate::sim::{dispatch_node_event, node_class, Ctx, FlowSpec, Node, Simulator};
use crate::topology::Topology;
use crate::trace::{DeliveryEvent, FlowRecord, MarkEvent, Trace};
use lossless_flowctl::{SimDuration, SimTime};

/// One dispatched event in a worker's window log: the event's key as
/// popped (seq may be provisional) and the shard's provisional-schedule
/// count *after* the dispatch ran, so the barrier replay knows exactly
/// which provisional numbers this dispatch handed out.
#[derive(Debug, Clone, Copy)]
struct DispatchRec {
    at: SimTime,
    seq: u64,
    prov_after: u64,
}

/// Everything one worker owns: its slice of the node table, the
/// controllers of flows sourced in it, a private queue/pool/trace/obs, and
/// the window dispatch log.
struct Shard {
    id: u32,
    nodes: Vec<Option<Node>>,
    pending_cc: Vec<Option<Box<dyn RateController>>>,
    queue: EventQueue,
    trace: Trace,
    pool: PacketPool,
    obs: lossless_obs::Obs,
    prof: lossless_obs::prof::Prof,
    log: Vec<DispatchRec>,
    /// Dispatch seq of the event that recorded `trace.marks[i]` /
    /// `trace.deliveries[i]` — the key that lets the gather merge
    /// reconstruct the exact serial interleaving of same-timestamp
    /// records. Provisional entries are translated at each barrier;
    /// `tagged_marks` / `tagged_deliveries` mark the already-final
    /// prefix.
    mark_tags: Vec<u64>,
    delivery_tags: Vec<u64>,
    tagged_marks: usize,
    tagged_deliveries: usize,
}

/// A window assignment sent to a worker: its shard and the exclusive
/// `(time, seq)` cut to dispatch up to.
struct Cmd {
    shard: Shard,
    cut: (SimTime, u64),
}

/// Immutable simulation state shared by all workers for one epoch. Globals
/// (which mutate routing and link health) only ever dispatch *between*
/// epochs, so plain shared references suffice.
#[derive(Clone, Copy)]
struct Shared<'a> {
    topo: &'a Topology,
    routing: &'a Routing,
    cfg: &'a SimConfig,
    flows: &'a [FlowSpec],
    links: &'a crate::fault::LinkState,
}

/// `t + d` without wrapping at the far end of the clock.
fn plus(t: SimTime, d: SimDuration) -> SimTime {
    SimTime::from_ps(t.as_ps().saturating_add(d.as_ps()))
}

/// Wall-clock accounting for one parallel run, printed to stderr at the
/// end of [`drive_parallel`] when `TCD_PAR_STATS=1`. Purely diagnostic:
/// reads `Instant` only, never feeds simulation state.
#[derive(Default)]
struct ParStats {
    epochs: u64,
    windows: u64,
    scatter: std::time::Duration,
    wait: std::time::Duration,
    barrier: std::time::Duration,
    gather: std::time::Duration,
}

impl ParStats {
    fn armed() -> Option<Self> {
        std::env::var("TCD_PAR_STATS")
            .is_ok_and(|v| v != "0")
            .then(Self::default)
    }

    fn report(&self, wall: std::time::Duration) {
        eprintln!(
            "par-stats: {} epochs, {} windows | scatter {:?} | worker-wait {:?} | \
             barrier {:?} | gather {:?} | total {:?}",
            self.epochs, self.windows, self.scatter, self.wait, self.barrier, self.gather, wall
        );
    }
}

/// Map a possibly-provisional sequence number through a shard's replay map.
/// The lookup is total: every provisional number was assigned by a logged
/// dispatch the barrier replay has already consumed. Called only from the
/// once-per-window barrier, never per event.
fn translate(seq: u64, map: &[u64]) -> u64 {
    if seq >= PROV_BASE {
        map[(seq - PROV_BASE) as usize]
    } else {
        seq
    }
}

/// Run `sim` up to `end` on `workers` cores. Returns `false` (having done
/// nothing) when the topology yields no usable lookahead, in which case
/// the caller falls back to the serial loop.
pub(crate) fn drive_parallel(sim: &mut Simulator, end: SimTime, workers: usize) -> bool {
    let pm = partition(&sim.topo, workers, PartitionStrategy::PodAware);
    let Some(la) = pm.lookahead else {
        return false;
    };
    if pm.parts < 2 {
        return false;
    }
    let part_of = Arc::new(pm.part_of);
    let mut stats = ParStats::armed();
    // simlint: allow(wall-clock) -- opt-in diagnostics: measures the executor, never feeds sim state
    let start = stats.as_ref().map(|_| std::time::Instant::now());
    loop {
        match sim.queue.peek_time() {
            Some(t) if t <= end => {}
            _ => break,
        }
        run_epoch(sim, end, la, &part_of, pm.parts, &mut stats);
    }
    if let (Some(st), Some(t0)) = (&mut stats, start) {
        st.report(t0.elapsed());
    }
    true
}

/// One scatter → window loop → gather cycle. Ends at `end`, at queue
/// exhaustion, or at the first engine-global event (which then dispatches
/// serially, along with any immediately following globals).
// simlint: allow(hot-path-panic) -- shard slots are taken and returned in lock-step; a missing
// shard or dead worker is an engine bug, not a simulation state
fn run_epoch(
    sim: &mut Simulator,
    end: SimTime,
    la: SimDuration,
    part_of: &Arc<Vec<u32>>,
    parts: usize,
    stats: &mut Option<ParStats>,
) {
    // simlint: allow(wall-clock) -- opt-in diagnostics: measures the executor, never feeds sim state
    let t0 = stats.as_ref().map(|_| std::time::Instant::now());
    let (mut shards, mut globals, mut counter) = scatter(sim, part_of, parts);
    if let (Some(st), Some(t)) = (stats.as_mut(), t0) {
        st.epochs += 1;
        st.scatter += t.elapsed();
    }
    // Replay-map scratch, reused across windows so per-window counter
    // assignment never reallocates after warmup.
    // simlint: allow(hot-path-alloc) -- one allocation per epoch, reused by every window barrier
    let mut maps: Vec<Vec<u64>> = vec![Vec::new(); parts];
    let mut causality = 0u64;
    let mut g_pending = false;
    {
        let shared = Shared {
            topo: &sim.topo,
            routing: &sim.routing,
            cfg: &sim.cfg,
            flows: &sim.flows,
            links: &sim.links,
        };
        thread::scope(|scope| {
            let (res_tx, res_rx) = mpsc::channel::<(usize, Shard)>();
            // simlint: allow(hot-path-alloc) -- once-per-epoch worker-channel
            // setup; amortized over every event the epoch dispatches
            let mut cmd_txs = Vec::with_capacity(parts);
            for _ in 0..parts {
                let (tx, rx) = mpsc::channel::<Cmd>();
                cmd_txs.push(tx);
                let res_tx = res_tx.clone();
                scope.spawn(move || {
                    while let Ok(mut cmd) = rx.recv() {
                        let id = cmd.shard.id as usize;
                        run_window(&mut cmd.shard, cmd.cut, shared);
                        if res_tx.send((id, cmd.shard)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(res_tx);
            loop {
                let tmin = shards
                    .iter()
                    .filter_map(|s| s.as_ref().and_then(|s| s.queue.peek_time()))
                    .min();
                let g_head = globals.first().map(|&(at, seq, _)| (at, seq));
                let node_due = tmin.is_some_and(|t| t <= end);
                let g_due = g_head.is_some_and(|(t, _)| t <= end);
                if !node_due && !g_due {
                    break;
                }
                // The cut is the lexicographic minimum of the three
                // window-enders: lookahead horizon, next global, end time.
                let mut cut = (end, u64::MAX);
                if let Some(t) = tmin {
                    let w = (plus(t, la), 0u64);
                    if w < cut {
                        cut = w;
                    }
                }
                if let Some(k) = g_head {
                    if k < cut {
                        cut = k;
                        g_pending = true;
                    }
                }
                // simlint: allow(wall-clock) -- opt-in diagnostics: measures the executor, never feeds sim state
                let t0 = stats.as_ref().map(|_| std::time::Instant::now());
                for (s, slot) in shards.iter_mut().enumerate() {
                    let shard = slot.take().expect("shard resident between windows");
                    cmd_txs[s].send(Cmd { shard, cut }).expect("worker alive");
                }
                for _ in 0..parts {
                    let (id, shard) = res_rx.recv().expect("worker returns its shard");
                    shards[id] = Some(shard);
                }
                // simlint: allow(wall-clock) -- opt-in diagnostics: measures the executor, never feeds sim state
                let t1 = stats.as_ref().map(|_| std::time::Instant::now());
                causality += barrier(&mut shards, &mut counter, cut.0, &mut maps);
                if let (Some(st), Some(a), Some(b)) = (stats.as_mut(), t0, t1) {
                    st.windows += 1;
                    st.wait += b - a;
                    st.barrier += b.elapsed();
                }
                if g_pending {
                    break;
                }
            }
            drop(cmd_txs);
        });
    }
    // simlint: allow(wall-clock) -- opt-in diagnostics: measures the executor, never feeds sim state
    let t0 = stats.as_ref().map(|_| std::time::Instant::now());
    gather(sim, shards, counter, causality, part_of);
    if let (Some(st), Some(t)) = (stats.as_mut(), t0) {
        st.gather += t.elapsed();
    }
    if g_pending {
        // The cut stopped exactly at the first global's key, so it is now
        // the queue head; dispatch it — and any directly following
        // globals — through the ordinary serial path. A node event at the
        // same timestamp forces a re-scatter, because only the seq (which
        // `peek_time` cannot see) decides who goes first; the next
        // epoch's cut resolves the tie exactly.
        let (at, _, ev) = globals.remove(0);
        dispatch_gathered(sim, at, ev);
        while let Some(&(gt, _, _)) = globals.first() {
            if gt > end || sim.queue.peek_time().is_some_and(|t| t <= gt) {
                break;
            }
            let (at, _, ev) = globals.remove(0);
            dispatch_gathered(sim, at, ev);
        }
    }
    for (at, seq, ev) in globals {
        sim.queue.schedule_with_seq(at, seq, ev);
    }
}

/// Split the simulator into shards: drain the master queue into per-shard
/// queues (globals held back, sorted), move node and controller ownership,
/// split the observability layer, fork the profiler. Returns the shards,
/// the pending globals, and the master schedule counter.
// simlint: cold -- runs once per epoch (scatter/gather bracket the window loop); its
// allocations and ownership moves are amortized over every event the epoch dispatches
fn scatter(
    sim: &mut Simulator,
    part_of: &Arc<Vec<u32>>,
    parts: usize,
) -> (Vec<Option<Shard>>, Vec<(SimTime, u64, Event)>, u64) {
    let counter = sim.queue.seq_counter();
    let qnow = sim.queue.now();
    let mut per: Vec<Vec<(SimTime, u64, Event)>> = (0..parts).map(|_| Vec::new()).collect();
    let mut globals = Vec::new();
    for (at, seq, ev) in sim.queue.take_all() {
        match event_partition(&ev, part_of, &sim.flows) {
            Some(p) => per[p].push((at, seq, ev)),
            None => globals.push((at, seq, ev)),
        }
    }
    globals.sort_by_key(|&(at, seq, _)| (at, seq));
    let mut shards = Vec::with_capacity(parts);
    for (s, events) in per.into_iter().enumerate() {
        let mut queue = EventQueue::new();
        queue.set_now(qnow);
        for (at, seq, ev) in events {
            queue.schedule_with_seq(at, seq, ev);
        }
        queue.set_route(Some(Box::new(ParRoute {
            part_of: Arc::clone(part_of),
            me: s as u32,
            outboxes: (0..parts).map(|_| Vec::new()).collect(),
        })));
        let nodes: Vec<Option<Node>> = sim
            .nodes
            .iter_mut()
            .enumerate()
            .map(|(i, n)| {
                if part_of[i] == s as u32 {
                    n.take()
                } else {
                    None
                }
            })
            .collect();
        // Blank controller table; one pass below moves each unstarted
        // controller to its owner (cheaper than a scan per shard at
        // large flow counts).
        let pending_cc: Vec<Option<Box<dyn RateController>>> = std::iter::repeat_with(|| None)
            .take(sim.pending_cc.len())
            .collect();
        let mut trace = Trace::new(sim.trace.record_marks);
        trace.record_deliveries = sim.trace.record_deliveries;
        // Shards carry the full flow table (destination hosts update their
        // flows' records); retention caps stay master-side so the merge
        // applies them over the *global* order.
        trace.flows = sim.trace.flows.clone();
        let obs = sim.obs.split_for_nodes(|n| part_of[n as usize] == s as u32);
        // simlint: allow(prof-leak) -- sanctioned fork point: each worker
        // profiles into its own arena, merged back at gather
        let prof = sim.profiler.fork();
        shards.push(Some(Shard {
            id: s as u32,
            nodes,
            pending_cc,
            queue,
            trace,
            pool: PacketPool::new(),
            obs,
            prof,
            log: Vec::new(),
            mark_tags: Vec::new(),
            delivery_tags: Vec::new(),
            tagged_marks: 0,
            tagged_deliveries: 0,
        }));
    }
    // One pass over the flow table moves every unstarted controller to
    // its source's shard. Flows already started skip the ownership
    // lookup entirely, so post-start epochs touch almost nothing.
    for (i, c) in sim.pending_cc.iter_mut().enumerate() {
        if c.is_some() {
            let owner = part_of[sim.flows[i].src.index()] as usize;
            shards[owner].as_mut().expect("just built").pending_cc[i] = c.take();
        }
    }
    (shards, globals, counter)
}

/// Which shard dispatches this event, or `None` for engine-globals.
/// Node and flow ids index in bounds by construction. Called only from
/// the cold scatter/gather bracket, never per dispatched event.
fn event_partition(ev: &Event, part_of: &[u32], flows: &[FlowSpec]) -> Option<usize> {
    let node = match ev {
        Event::PacketArrival { node, .. }
        | Event::PortTx { node, .. }
        | Event::FcclTick { node, .. }
        | Event::DetectorTimer { node, .. }
        | Event::CcTimer { node, .. }
        | Event::HostDrain { node } => *node,
        Event::FlowStart { flow } => flows[flow.0 as usize].src,
        _ => return None,
    };
    Some(part_of[node.index()] as usize)
}

/// Dispatch one shard's window: pop every event with key below `cut`,
/// running the exact serial per-event wiring (profiler span, obs dispatch
/// counter, recorder checkpoint, timeline tick) against shard-local state,
/// and log each dispatch for the barrier replay.
fn run_window(shard: &mut Shard, cut: (SimTime, u64), sh: Shared<'_>) {
    shard.queue.begin_window();
    while let Some((at, seq, ev)) = shard.queue.pop_cut(cut) {
        shard.trace.events += 1;
        shard.obs.dispatched(ev.kind_index());
        // simlint: allow(prof-leak) -- sanctioned worker wiring, mirrors drive(): arm_span is a
        // deterministic counter check and both branches dispatch identically
        if shard.prof.arm_span() {
            let kind = ev.kind_index();
            let class = node_class(&shard.nodes, &ev);
            shard.prof.span_open();
            dispatch_in_shard(shard, sh, at, ev);
            shard.prof.span_close(kind, class);
        } else {
            dispatch_in_shard(shard, sh, at, ev);
        }
        shard.obs.maybe_checkpoint(at, shard.trace.events);
        // simlint: allow(prof-leak) -- tick cadence is a deterministic counter check;
        // occupancy/pool reads only flow into the profiler
        if shard.prof.tick_due(shard.trace.events) {
            let (pending, staged, overflow) = shard.queue.occupancy();
            let (hit, miss) = shard.pool.stats();
            shard
                .prof
                .record_tick(at, shard.trace.events, pending, staged, overflow, hit, miss);
        }
        // Tag every record this dispatch appended with its seq: the
        // serial engine pops by (time, seq), so (t, tag) is exactly the
        // serial append order of the merged streams.
        shard.mark_tags.resize(shard.trace.marks.len(), seq);
        shard
            .delivery_tags
            .resize(shard.trace.deliveries.len(), seq);
        // Only dispatches that handed out provisional numbers matter to
        // the barrier replay: consuming a zero-schedule record advances
        // no counter, so logging it would only fatten the merge.
        let prov_after = shard.queue.prov_count();
        if shard
            .log
            .last()
            .map_or(prov_after > 0, |r| r.prov_after < prov_after)
        {
            shard.log.push(DispatchRec {
                at,
                seq,
                prov_after,
            });
        }
    }
}

/// Build a [`Ctx`] over the shard's private state and run the shared
/// node-event dispatcher.
fn dispatch_in_shard(shard: &mut Shard, sh: Shared<'_>, now: SimTime, ev: Event) {
    let mut ctx = Ctx {
        now,
        q: &mut shard.queue,
        topo: sh.topo,
        routing: sh.routing,
        cfg: sh.cfg,
        trace: &mut shard.trace,
        flows: sh.flows,
        pool: &mut shard.pool,
        obs: &mut shard.obs,
        links: sh.links,
    };
    dispatch_node_event(&mut shard.nodes, &mut shard.pending_cc, &mut ctx, ev);
}

/// The window barrier: replay the merged dispatch logs in serial order to
/// assign true sequence numbers to every provisional schedule, deliver the
/// outboxes (checking the lookahead floor), and retag pending events.
/// Returns the number of causality violations (deliveries below the floor).
// simlint: cold -- runs once per lock-step window, between (not inside) the workers'
// dispatch loops; replay-map lookups resolve because a provisional seq's scheduling
// dispatch always precedes it in the same shard log
fn barrier(
    shards: &mut [Option<Shard>],
    counter: &mut u64,
    ceiling: SimTime,
    maps: &mut [Vec<u64>],
) -> u64 {
    let n = shards.len();
    for m in maps.iter_mut() {
        m.clear();
    }
    let mut idx = vec![0usize; n];
    let mut prov_done = vec![0u64; n];
    // Phase 1: k-way merge of the logs by (time, translated seq) — the
    // exact order the serial engine would have dispatched — assigning
    // counter values for each dispatch's schedules as it is consumed.
    //
    // Two things keep this O(records), not O(records × shards): each
    // shard's head key is computed once per advance and cached (`heads`),
    // and after picking the winning shard we drain a *run* of its records
    // while they stay below the runner-up key, so same-shard bursts — the
    // common case, since a window's same-partition traffic never
    // interleaves with another shard at packet granularity — cost one
    // comparison each instead of a full head scan.
    let mut heads: Vec<Option<(SimTime, u64)>> = (0..n)
        .map(|s| {
            let sh = shards[s].as_ref()?;
            sh.log.first().map(|r| (r.at, translate(r.seq, &maps[s])))
        })
        .collect();
    loop {
        let mut best: Option<((SimTime, u64), usize)> = None;
        let mut next_best: Option<(SimTime, u64)> = None;
        for (s, head) in heads.iter().enumerate() {
            let Some(key) = *head else { continue };
            match best {
                Some((bk, _)) if key >= bk => {
                    if next_best.is_none_or(|nk| key < nk) {
                        next_best = Some(key);
                    }
                }
                _ => {
                    if let Some((bk, _)) = best {
                        next_best = Some(bk);
                    }
                    best = Some((key, s));
                }
            }
        }
        let Some((_, s)) = best else { break };
        let log = &shards[s].as_ref().expect("shard resident").log;
        loop {
            let rec = log[idx[s]];
            idx[s] += 1;
            while prov_done[s] < rec.prov_after {
                maps[s].push(*counter);
                *counter += 1;
                prov_done[s] += 1;
            }
            let Some(next) = log.get(idx[s]) else {
                heads[s] = None;
                break;
            };
            let key = (next.at, translate(next.seq, &maps[s]));
            if next_best.is_some_and(|nk| key >= nk) {
                heads[s] = Some(key);
                break;
            }
        }
    }
    // Phase 2: deliver the outboxes with translated seqs, counting any
    // delivery below the next window's floor.
    let mut violations = 0u64;
    for s in 0..n {
        let boxes = {
            let sh = shards[s].as_mut().expect("shard resident");
            let r = sh
                .queue
                .route_mut()
                .expect("window route installed at scatter");
            std::mem::replace(&mut r.outboxes, (0..n).map(|_| Vec::new()).collect())
        };
        for (d, events) in boxes.into_iter().enumerate() {
            for (at, seq, ev) in events {
                if at < ceiling {
                    violations += 1;
                }
                let t = translate(seq, &maps[s]);
                shards[d]
                    .as_mut()
                    .expect("shard resident")
                    .queue
                    .schedule_with_seq(at, t, ev);
            }
        }
    }
    // Phase 3: retag every pending provisional seq to its true value,
    // including the mark/delivery tags recorded this window.
    for (s, slot) in shards.iter_mut().enumerate() {
        let sh = slot.as_mut().expect("shard resident");
        sh.queue.retag(&maps[s]);
        for t in &mut sh.mark_tags[sh.tagged_marks..] {
            *t = translate(*t, &maps[s]);
        }
        sh.tagged_marks = sh.mark_tags.len();
        for t in &mut sh.delivery_tags[sh.tagged_deliveries..] {
            *t = translate(*t, &maps[s]);
        }
        sh.tagged_deliveries = sh.delivery_tags.len();
        sh.log.clear();
    }
    violations
}

/// Merge the shards back into the serial simulator: nodes and controllers
/// home, queues drain into the master queue (all seqs true by now), trace
/// counters sum, per-flow records come from the destination's shard, marks
/// and deliveries merge in deterministic content order, obs and profiler
/// absorb. Restores the master schedule counter and clock.
// simlint: cold -- runs once per epoch, after every worker has returned its shard;
// the merge sorts and re-homing touch each record once, off the per-event path
fn gather(
    sim: &mut Simulator,
    shards: Vec<Option<Shard>>,
    counter: u64,
    causality: u64,
    part_of: &[u32],
) {
    let mut marks: Vec<(u64, MarkEvent)> = Vec::new();
    let mut deliveries: Vec<(u64, DeliveryEvent)> = Vec::new();
    let mut flow_tables: Vec<Vec<FlowRecord>> = Vec::with_capacity(part_of.len());
    let mut max_now = sim.queue.now();
    for slot in shards {
        let mut sh = slot.expect("every shard returned at epoch end");
        for (i, n) in sh.nodes.iter_mut().enumerate() {
            if let Some(n) = n.take() {
                sim.nodes[i] = Some(n);
            }
        }
        // A controller lives in exactly one shard's table (its source's),
        // so every `Some` homes unconditionally — no ownership lookups.
        for (i, c) in sh.pending_cc.iter_mut().enumerate() {
            if c.is_some() {
                sim.pending_cc[i] = c.take();
            }
        }
        max_now = max_now.max(sh.queue.now());
        sim.queue.add_clamped_past(sh.queue.clamped_past());
        sh.queue.set_route(None);
        for (at, seq, ev) in sh.queue.take_all() {
            debug_assert!(seq < PROV_BASE, "provisional seq survived the barrier");
            sim.queue.schedule_with_seq(at, seq, ev);
        }
        let tr = sh.trace;
        sim.trace.events += tr.events;
        sim.trace.pause_frames += tr.pause_frames;
        sim.trace.forwarded_pkts += tr.forwarded_pkts;
        sim.trace.drops += tr.drops;
        sim.trace.completed_count += tr.completed_count;
        marks.extend(sh.mark_tags.iter().copied().zip(tr.marks));
        deliveries.extend(sh.delivery_tags.iter().copied().zip(tr.deliveries));
        flow_tables.push(tr.flows);
        sim.obs.absorb(sh.obs);
        // simlint: allow(prof-leak) -- the matching merge for scatter's
        // fork: shard span counts fold back into the master profiler
        sim.profiler.absorb(&sh.prof);
    }
    // Per-flow records are mutated only at the destination host
    // (`on_deliver_at` / `on_complete`), so one indexed pass over the
    // flow table pulls each record from its destination's shard.
    for i in 0..sim.trace.flows.len() {
        let owner = part_of[sim.flows[i].dst.index()] as usize;
        sim.trace.flows[i] = flow_tables[owner][i];
    }
    // Mark and delivery streams merge by (time, dispatch seq) — the
    // serial engine's pop order — so the merged vectors are bit-identical
    // to a serial run, same-timestamp interleavings included. Records
    // from one dispatch share a key and stay in shard (= append) order
    // because the sort is stable. The master retention cap applies here,
    // over the merged order, exactly where serial would have applied it.
    marks.sort_by_key(|(tag, m)| (m.t, *tag));
    for (tag, m) in marks {
        debug_assert!(tag < PROV_BASE, "provisional mark tag survived the barrier");
        sim.trace.on_mark(m.t, m.node, m.port, m.flow, m.code);
    }
    deliveries.sort_by_key(|(tag, d)| (d.t, *tag));
    sim.trace
        .deliveries
        .extend(deliveries.into_iter().map(|(_, d)| d));
    sim.queue.set_seq_counter(counter);
    sim.queue.set_now(max_now);
    sim.par_causality += causality;
}

/// Dispatch a gathered engine-global event through the serial path, with
/// the serial loop's exact per-event wiring.
fn dispatch_gathered(sim: &mut Simulator, at: SimTime, ev: Event) {
    sim.queue.set_now(at);
    // simlint: allow(prof-leak) -- sanctioned wiring, mirrors drive(): arm_span is a
    // deterministic counter check and both branches dispatch identically
    if sim.profiler.arm_span() {
        let kind = ev.kind_index();
        let class = node_class(&sim.nodes, &ev);
        sim.profiler.span_open();
        sim.dispatch(at, ev);
        sim.profiler.span_close(kind, class);
    } else {
        sim.dispatch(at, ev);
    }
    sim.obs.maybe_checkpoint(at, sim.trace.events);
    // simlint: allow(prof-leak) -- tick cadence is a deterministic counter check;
    // occupancy/pool reads only flow into the profiler
    if sim.profiler.tick_due(sim.trace.events) {
        let (pending, staged, overflow) = sim.queue.occupancy();
        let (hit, miss) = sim.pool.stats();
        sim.profiler
            .record_tick(at, sim.trace.events, pending, staged, overflow, hit, miss);
    }
}
