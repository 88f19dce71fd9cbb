//! `lossless-obs` — simulation-time observability for the TCD engine.
//!
//! Three pillars, all strictly deterministic (driven by [`SimTime`], never
//! wall clock, integer math only):
//!
//! * [`metrics`] — a typed registry of counters / gauges / log-linear
//!   histograms keyed by `(node, port, prio, name)` in `BTreeMap`s;
//! * [`recorder`] — a flight recorder: per-node fixed-capacity rings of
//!   compact binary records (state transitions, PFC/CBFC control frames,
//!   checkpoints) that can dump the last *N* µs of history when the audit
//!   layer flags a violation;
//! * [`perfetto`] — Chrome-trace / Perfetto JSON emission plus a schema
//!   check, and [`json`] — the shared emit/parse helpers.
//!
//! The [`Obs`] facade ties them together and is what the simulator engine
//! holds; instrumentation calls are no-ops at [`ObsLevel::Off`]. Nothing
//! in this crate feeds back into simulation behaviour: enabling or
//! disabling observability never changes event order, golden traces or
//! run fingerprints.
//!
//! A fourth pillar, [`prof`], deliberately breaks the simulated-time rule:
//! it is the engine's *wall-clock* span sampler (armed by
//! `Simulator::enable_profiler` only, read by tcdbench), the one module
//! allowed to read [`std::time::Instant`]. It keeps the non-perturbation
//! guarantee by a different route — it only ever reads the clock and
//! never feeds a wall-clock value back into simulation state (`Instant`
//! is a clippy `disallowed-types` entry everywhere else in the engine, and
//! `tests/prof_determinism.rs` pins profiled == unprofiled bit for bit).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes_without_reason
)]

pub mod fnv;
pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod prof;
pub mod recorder;

use std::collections::BTreeMap;

use lossless_flowctl::{SimDuration, SimTime};
use tcd_core::state::Transition;
use tcd_core::{CodePoint, TernaryState};

pub use fnv::Fnv;
pub use metrics::{Key, Registry, NODE_GLOBAL};
pub use recorder::{FlightRecorder, Record, RecordKind};

/// How much the engine records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsLevel {
    /// All instrumentation compiled to an early return.
    Off,
    /// Counters, histograms and the flight recorder (the default).
    #[default]
    Default,
}

/// The observability knob, embedded in the simulator configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsConfig {
    /// Recording level.
    pub level: ObsLevel,
}

/// Flight-recorder ring capacity per node.
const RECORDER_CAPACITY: usize = 1024;
/// History window a violation dump covers.
const DUMP_WINDOW: SimDuration = SimDuration::from_us(200);
/// Engine checkpoint record cadence, in dispatched events. Matches the
/// audit layer's default so recorder contents are identical with the
/// `audit` feature on or off; a power of two, so the per-event test in
/// [`Obs::maybe_checkpoint`] is a mask.
const CHECKPOINT_EVERY: u64 = 16 * 1024;
const _: () = assert!(CHECKPOINT_EVERY.is_power_of_two());

/// A flight-recorder window captured when the audit layer reported a new
/// violation.
#[derive(Debug, Clone)]
pub struct ViolationDump {
    /// Time of the checkpoint that surfaced the violation.
    pub t: SimTime,
    /// The audit layer's cumulative violation count at that point.
    pub total_violations: u64,
    /// The recorder's history for the preceding window, `(t, seq)`-sorted.
    pub records: Vec<Record>,
}

/// The observability facade held by the simulator: registry + recorder +
/// the cheap always-on engine counters, with every entry point guarded by
/// the configured [`ObsLevel`].
#[derive(Debug, Clone)]
pub struct Obs {
    cfg: ObsConfig,
    /// The metrics registry.
    pub reg: Registry,
    /// The flight recorder.
    pub rec: FlightRecorder,
    /// Per-event-kind dispatch counts (plain array: the one per-event
    /// instrument, kept off the `BTreeMap` path).
    dispatch: [u64; MAX_EVENT_KINDS],
    /// XOFF start times for ports currently paused by PFC.
    pause_since: BTreeMap<(u32, u16, u8), SimTime>,
    /// Stall start times for outputs currently blocked on CBFC credits.
    stall_since: BTreeMap<(u32, u16, u8), SimTime>,
    dumps: Vec<ViolationDump>,
}

/// Upper bound on distinct event kinds the dispatch array can hold.
pub const MAX_EVENT_KINDS: usize = 16;

impl Default for Obs {
    fn default() -> Self {
        Obs::new(ObsConfig::default())
    }
}

impl Obs {
    /// Build from configuration.
    pub fn new(cfg: ObsConfig) -> Obs {
        let recorder_capacity = match cfg.level {
            ObsLevel::Off => 0,
            ObsLevel::Default => RECORDER_CAPACITY,
        };
        Obs {
            cfg,
            reg: Registry::new(),
            rec: FlightRecorder::new(recorder_capacity),
            dispatch: [0; MAX_EVENT_KINDS],
            pause_since: BTreeMap::new(),
            stall_since: BTreeMap::new(),
            dumps: Vec::new(),
        }
    }

    /// Whether instrumentation is live.
    #[inline]
    pub fn on(&self) -> bool {
        self.cfg.level != ObsLevel::Off
    }

    /// The configuration this facade was built with.
    pub fn config(&self) -> &ObsConfig {
        &self.cfg
    }

    /// Count one event dispatch of the given kind index.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "kind < MAX_EVENT_KINDS is checked on the line above the access"
    )]
    pub fn dispatched(&mut self, kind: usize) {
        if self.on() && kind < MAX_EVENT_KINDS {
            self.dispatch[kind] += 1;
        }
    }

    /// Raw dispatch count for one kind index.
    pub fn dispatch_count(&self, kind: usize) -> u64 {
        self.dispatch.get(kind).copied().unwrap_or(0)
    }

    /// Count one congestion-controller event delivered at `node` under its
    /// stable `cc.event.*` metric name.
    #[inline]
    pub fn cc_event(&mut self, node: u32, kind_name: &'static str) {
        if self.on() {
            self.reg.inc(Key::node(node, kind_name));
        }
    }

    /// Record a PFC PAUSE/RESUME frame *sent* by `(node, port, prio)`.
    pub fn pfc_frame_tx(&mut self, t: SimTime, node: u32, port: u16, prio: u8, pause: bool) {
        if !self.on() {
            return;
        }
        let name = if pause {
            "pfc.pause_tx"
        } else {
            "pfc.resume_tx"
        };
        self.reg.inc(Key::new(node, port, prio, name));
        self.rec.push(Record {
            t,
            seq: 0,
            node,
            port,
            prio,
            kind: RecordKind::PfcFrame as u8,
            a: pause as u64,
            b: 0,
        });
    }

    /// Record a PAUSE/RESUME frame *received* at `(node, port, prio)`,
    /// tracking XOFF residency: the time from XOFF to the matching XON is
    /// accumulated into the `pfc.xoff_residency_ns` counter + histogram.
    pub fn pfc_frame_rx(&mut self, t: SimTime, node: u32, port: u16, prio: u8, pause: bool) {
        if !self.on() {
            return;
        }
        let key = (node, port, prio);
        if pause {
            self.reg.inc(Key::new(node, port, prio, "pfc.pause_rx"));
            self.pause_since.entry(key).or_insert(t);
        } else {
            self.reg.inc(Key::new(node, port, prio, "pfc.resume_rx"));
            if let Some(start) = self.pause_since.remove(&key) {
                let ns = t.saturating_since(start).as_ps() / 1_000;
                self.reg
                    .add(Key::new(node, port, prio, "pfc.xoff_residency_ns"), ns);
                self.reg
                    .observe(Key::new(node, port, prio, "pfc.xoff_epoch_ns"), ns);
            }
        }
    }

    /// Record a CBFC FCCL credit update sent on `(node, port, vl)`.
    pub fn fccl_tx(&mut self, t: SimTime, node: u32, port: u16, vl: u8, fccl: u64) {
        if !self.on() {
            return;
        }
        self.reg.inc(Key::new(node, port, vl, "cbfc.fccl_tx"));
        self.rec.push(Record {
            t,
            seq: 0,
            node,
            port,
            prio: vl,
            kind: RecordKind::CbfcFccl as u8,
            a: fccl,
            b: 0,
        });
    }

    /// Record an output becoming credit-blocked (`blocked = true`) or
    /// unblocking, with stall residency accounting mirroring
    /// [`Obs::pfc_frame_rx`].
    pub fn credit_stall(&mut self, t: SimTime, node: u32, port: u16, vl: u8, blocked: bool) {
        if !self.on() {
            return;
        }
        let key = (node, port, vl);
        if blocked {
            self.reg.inc(Key::new(node, port, vl, "cbfc.credit_stall"));
            self.stall_since.entry(key).or_insert(t);
        } else if let Some(start) = self.stall_since.remove(&key) {
            let ns = t.saturating_since(start).as_ps() / 1_000;
            self.reg
                .add(Key::new(node, port, vl, "cbfc.stall_residency_ns"), ns);
            self.reg
                .observe(Key::new(node, port, vl, "cbfc.stall_epoch_ns"), ns);
        }
        self.rec.push(Record {
            t,
            seq: 0,
            node,
            port,
            prio: vl,
            kind: RecordKind::CreditStall as u8,
            a: blocked as u64,
            b: 0,
        });
    }

    /// Record a fault-injection event applied by the engine. `name` is
    /// the stable counter name (`fault.link_down`, `fault.link_up`,
    /// `fault.degrade`, `fault.restore`, `fault.route_update`); route
    /// updates are network-wide and pass `node = u32::MAX`, which counts
    /// under a global key. Counters are increment-only, so fault-free
    /// runs carry no `fault.*` keys at all.
    pub fn fault(&mut self, t: SimTime, node: u32, port: u16, name: &'static str) {
        if !self.on() {
            return;
        }
        let key = if node == u32::MAX {
            Key::global(name)
        } else {
            Key::new(node, port, 0, name)
        };
        self.reg.inc(key);
        let onset = matches!(name, "fault.link_down" | "fault.degrade");
        self.rec.push(Record {
            t,
            seq: 0,
            node,
            port,
            prio: 0,
            kind: RecordKind::Fault as u8,
            a: onset as u64,
            b: 0,
        });
    }

    /// Record a packet marked with `cp` at `(node, port, prio)`.
    pub fn mark(
        &mut self,
        t: SimTime,
        node: u32,
        port: u16,
        prio: u8,
        cp: CodePoint,
        queue_bytes: u64,
    ) {
        if !self.on() {
            return;
        }
        self.reg
            .inc(Key::new(node, port, prio, mark_counter_name(cp)));
        self.rec.push(Record {
            t,
            seq: 0,
            node,
            port,
            prio,
            kind: RecordKind::Mark as u8,
            a: cp_code(cp),
            b: queue_bytes,
        });
    }

    /// Record an observed Fig. 6 ternary-state transition. The caller
    /// detects the change (a cheap compare against the last state it
    /// keeps); self-transitions are ignored here.
    pub fn transition(
        &mut self,
        t: SimTime,
        node: u32,
        port: u16,
        prio: u8,
        from: TernaryState,
        to: TernaryState,
    ) {
        if !self.on() {
            return;
        }
        let Some(tr) = Transition::classify(from, to) else {
            return;
        };
        self.reg
            .inc(Key::new(node, port, prio, transition_counter_name(tr)));
        self.rec.push(Record {
            t,
            seq: 0,
            node,
            port,
            prio,
            kind: RecordKind::StateTransition as u8,
            a: from.symbol() as u64,
            b: to.symbol() as u64,
        });
    }

    /// Periodic engine checkpoint marker, driven by the dispatch count so
    /// its cadence is identical with and without the `audit` feature.
    #[inline]
    pub fn maybe_checkpoint(&mut self, t: SimTime, events: u64) {
        if self.on() && events & (CHECKPOINT_EVERY - 1) == 0 {
            self.rec.push(Record {
                t,
                seq: 0,
                node: NODE_GLOBAL,
                port: 0,
                prio: 0,
                kind: RecordKind::Checkpoint as u8,
                a: events,
                b: 0,
            });
        }
    }

    /// The audit layer reported `total_violations` so far (a new one just
    /// appeared): push a violation record and capture the flight-recorder
    /// window alongside it.
    pub fn on_violation(&mut self, t: SimTime, total_violations: u64) {
        if !self.on() {
            return;
        }
        self.rec.push(Record {
            t,
            seq: 0,
            node: NODE_GLOBAL,
            port: 0,
            prio: 0,
            kind: RecordKind::Violation as u8,
            a: total_violations,
            b: 0,
        });
        let records = self.rec.dump(t, DUMP_WINDOW);
        self.dumps.push(ViolationDump {
            t,
            total_violations,
            records,
        });
    }

    /// Flight-recorder windows captured on audit violations.
    pub fn violation_dumps(&self) -> &[ViolationDump] {
        &self.dumps
    }
}

/// Metric name for a mark of the given code point.
pub fn mark_counter_name(cp: CodePoint) -> &'static str {
    match cp {
        CodePoint::NotCapable => "mark.not_capable",
        CodePoint::Capable => "mark.capable",
        CodePoint::UndeterminedEncountered => "mark.ue",
        CodePoint::CongestionEncountered => "mark.ce",
    }
}

fn cp_code(cp: CodePoint) -> u64 {
    match cp {
        CodePoint::NotCapable => 0,
        CodePoint::Capable => 1,
        CodePoint::UndeterminedEncountered => 2,
        CodePoint::CongestionEncountered => 3,
    }
}

/// Metric name for one of the six Fig. 6 transitions.
pub fn transition_counter_name(tr: Transition) -> &'static str {
    match tr {
        Transition::T1NonCongestionToCongestion => "tcd.transition.t1",
        Transition::T2CongestionToNonCongestion => "tcd.transition.t2",
        Transition::T3NonCongestionToUndetermined => "tcd.transition.t3",
        Transition::T4UndeterminedToNonCongestion => "tcd.transition.t4",
        Transition::T5UndeterminedToCongestion => "tcd.transition.t5",
        Transition::T6CongestionToUndetermined => "tcd.transition.t6",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_level_is_inert() {
        let mut obs = Obs::new(ObsConfig {
            level: ObsLevel::Off,
        });
        obs.dispatched(0);
        obs.pfc_frame_tx(SimTime::from_us(1), 1, 0, 0, true);
        obs.mark(SimTime::from_us(1), 1, 0, 0, CodePoint::CE, 100);
        obs.on_violation(SimTime::from_us(2), 1);
        assert_eq!(obs.reg.fingerprint(), Registry::new().fingerprint());
        assert_eq!(obs.rec.total(), 0);
        assert!(obs.violation_dumps().is_empty());
        assert_eq!(obs.dispatch_count(0), 0);
    }

    #[test]
    fn xoff_residency_accumulates() {
        let mut obs = Obs::default();
        obs.pfc_frame_rx(SimTime::from_us(10), 3, 1, 0, true);
        // Duplicate XOFF while already paused must not reset the start.
        obs.pfc_frame_rx(SimTime::from_us(12), 3, 1, 0, true);
        obs.pfc_frame_rx(SimTime::from_us(25), 3, 1, 0, false);
        let k = Key::new(3, 1, 0, "pfc.xoff_residency_ns");
        assert_eq!(obs.reg.counter(k), 15_000);
        assert_eq!(
            obs.reg
                .histogram(Key::new(3, 1, 0, "pfc.xoff_epoch_ns"))
                .unwrap()
                .count(),
            1
        );
        // XON without XOFF is counted but adds no residency.
        obs.pfc_frame_rx(SimTime::from_us(30), 3, 1, 0, false);
        assert_eq!(obs.reg.counter(k), 15_000);
    }

    #[test]
    fn transition_counting_uses_fig6_labels() {
        let mut obs = Obs::default();
        let t = SimTime::from_us(1);
        obs.transition(
            t,
            1,
            0,
            0,
            TernaryState::NonCongestion,
            TernaryState::Congestion,
        );
        obs.transition(
            t,
            1,
            0,
            0,
            TernaryState::Congestion,
            TernaryState::Undetermined,
        );
        // Self-transition: ignored.
        obs.transition(
            t,
            1,
            0,
            0,
            TernaryState::Congestion,
            TernaryState::Congestion,
        );
        assert_eq!(obs.reg.counter(Key::new(1, 0, 0, "tcd.transition.t1")), 1);
        assert_eq!(obs.reg.counter(Key::new(1, 0, 0, "tcd.transition.t6")), 1);
        assert_eq!(obs.rec.total(), 2);
    }

    #[test]
    fn violation_dump_captures_window() {
        let mut obs = Obs::default();
        let at = SimTime::from_us(10) + DUMP_WINDOW;
        obs.pfc_frame_tx(SimTime::from_us(1), 1, 0, 0, true);
        obs.pfc_frame_tx(at - SimDuration::from_us(2), 1, 0, 0, false);
        obs.on_violation(at, 1);
        let dumps = obs.violation_dumps();
        assert_eq!(dumps.len(), 1);
        // The window opens at t=10µs: only the later frame and the
        // violation record are in it.
        assert_eq!(dumps[0].records.len(), 2);
        assert_eq!(
            RecordKind::from_u8(dumps[0].records[1].kind),
            Some(RecordKind::Violation)
        );
    }

    #[test]
    fn checkpoint_cadence() {
        let mut obs = Obs::default();
        for ev in 1..=CHECKPOINT_EVERY * 5 / 2 {
            obs.maybe_checkpoint(SimTime::from_ns(ev), ev);
        }
        assert_eq!(obs.rec.total(), 2);
    }
}
