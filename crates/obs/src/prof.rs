//! `prof` — the engine's wall-clock span sampler.
//!
//! Everything else in this crate observes *simulated* time; this module is
//! the one sanctioned window onto *wall-clock* time. It has one way in
//! (`Simulator::enable_profiler`) and one reader (tcdbench's traced run,
//! which turns it into `sim.share.*` and `*.dispatch_ns`); nothing in the
//! engine or this crate reads the environment. It is built to be
//! **provably non-perturbing**:
//!
//! * it only ever *reads* the monotonic clock ([`std::time::Instant`]) —
//!   it never schedules events, never touches the metrics [`Registry`]
//!   (whose fingerprint is part of the golden surface), and none of its
//!   entry points return wall-clock values to the engine;
//! * the decision *whether* to sample a dispatch is a plain counter
//!   check ([`Prof::arm_span`]), so control flow in the engine is a pure
//!   function of the dispatch count — identical on every machine and
//!   with the profiler on or off;
//! * `clippy.toml` disallows `Instant` everywhere else in the engine, so
//!   the three calls `drive()` makes here are its only path to the wall
//!   clock, and `tests/prof_determinism.rs` pins a profiled run to an
//!   unprofiled one bit for bit.
//!
//! The span model: every `sample_every`-th dispatch is wrapped in an
//! open/close pair ([`Prof::span_open`] / [`Prof::span_close`]) and the
//! elapsed nanoseconds are attributed twice — to the event *kind*
//! (`PacketArrival`, `PortTx`, …) and to the *node class* doing the work
//! ([`NodeClass`]: host, Ethernet switch, InfiniBand switch, or the
//! engine itself).
//!
//! [`Registry`]: crate::Registry

#![expect(
    clippy::disallowed_types,
    reason = "this module is the engine's one window onto the wall clock: it only reads Instant and hands no wall-clock value back to the engine"
)]

use std::time::Instant;

/// Upper bound on distinct event kinds, mirroring
/// [`MAX_EVENT_KINDS`](crate::MAX_EVENT_KINDS).
const MAX_KINDS: usize = crate::MAX_EVENT_KINDS;

/// Coarse attribution class for a dispatched event: which kind of network
/// element (or the engine itself) does the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeClass {
    /// A host endpoint (sources, sinks, congestion controllers).
    Host = 0,
    /// An Ethernet (PFC) switch.
    EthSwitch = 1,
    /// An InfiniBand (CBFC) switch.
    IbSwitch = 2,
    /// Engine-level bookkeeping (trace ticks, fault events, flow starts).
    Engine = 3,
}

/// Display names for the [`NodeClass`] variants, indexed by discriminant.
const NODE_CLASS_NAMES: [&str; 4] = ["host", "eth_switch", "ib_switch", "engine"];

/// The profiler's one knob. The default keeps the amortized per-dispatch
/// cost to a countdown decrement (two clock reads every 64 events).
#[derive(Debug, Clone, Copy)]
pub struct ProfConfig {
    /// Sample one dispatch span out of every `sample_every` (≥ 1).
    pub sample_every: u32,
}

impl Default for ProfConfig {
    fn default() -> Self {
        ProfConfig { sample_every: 64 }
    }
}

/// Accumulated wall-clock statistics for one attribution bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SpanStat {
    samples: u64,
    total_ns: u64,
    max_ns: u64,
}

impl SpanStat {
    #[inline]
    fn record(&mut self, ns: u64) {
        self.samples += 1;
        self.total_ns += ns;
        if ns > self.max_ns {
            self.max_ns = ns;
        }
    }
}

/// The profiler held by the simulator. Disabled (and cost-free beyond a
/// branch per dispatch) by default; see [`Prof::enable`].
#[derive(Debug, Clone)]
pub struct Prof {
    on: bool,
    every: u32,
    left: u32,
    open: Option<Instant>,
    events: u64,
    sampled: u64,
    per_kind: [SpanStat; MAX_KINDS],
    per_class: [SpanStat; NODE_CLASS_NAMES.len()],
}

impl Prof {
    /// A disabled profiler: every entry point is an early return.
    pub fn disabled() -> Prof {
        Prof {
            on: false,
            every: 1,
            left: 1,
            open: None,
            events: 0,
            sampled: 0,
            per_kind: [SpanStat::default(); MAX_KINDS],
            per_class: [SpanStat::default(); NODE_CLASS_NAMES.len()],
        }
    }

    /// Arm the profiler, discarding any previously collected data.
    pub fn enable(&mut self, cfg: ProfConfig) {
        *self = Prof::disabled();
        self.on = true;
        self.every = cfg.sample_every.max(1);
        self.left = 1; // sample the very first dispatch, then every Nth
    }

    /// Whether the profiler is collecting.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Count one dispatch and decide whether to sample its span. This is
    /// a pure counter check — no clock is read — so the engine's control
    /// flow stays a deterministic function of the dispatch count.
    #[inline]
    pub fn arm_span(&mut self) -> bool {
        if !self.on {
            return false;
        }
        self.events += 1;
        self.left -= 1;
        if self.left > 0 {
            return false;
        }
        self.left = self.every;
        true
    }

    /// Open a sampled span: read the clock once. Only meaningful after
    /// [`Prof::arm_span`] returned `true`.
    #[inline]
    pub fn span_open(&mut self) {
        self.open = Some(Instant::now());
    }

    /// Close the span opened by [`Prof::span_open`], attributing the
    /// elapsed wall time to `kind` and `class`. A close without a
    /// matching open is a no-op.
    #[inline]
    pub fn span_close(&mut self, kind: usize, class: NodeClass) {
        let Some(t0) = self.open.take() else {
            return;
        };
        let ns = t0.elapsed().as_nanos() as u64;
        self.sampled += 1;
        if let Some(k) = self.per_kind.get_mut(kind) {
            k.record(ns);
        }
        if let Some(c) = self.per_class.get_mut(class as usize) {
            c.record(ns);
        }
    }

    /// Snapshot the collected profile, resolving kind indices against
    /// `kind_names` (the engine's `Event::KIND_NAMES`). `None` while the
    /// profiler is disabled — callers can unconditionally thread the
    /// result into reports.
    pub fn summary(&self, kind_names: &[&'static str]) -> Option<ProfSummary> {
        if !self.on {
            return None;
        }
        let buckets = |stats: &[SpanStat], names: &[&'static str]| {
            let sampled = stats.iter().enumerate().filter(|(_, st)| st.samples > 0);
            sampled
                .map(|(i, st)| KindProfile {
                    name: names.get(i).unwrap_or(&"engine.dispatch.?").to_string(),
                    samples: st.samples,
                    total_ns: st.total_ns,
                    max_ns: st.max_ns,
                })
                .collect()
        };
        Some(ProfSummary {
            events: self.events,
            sampled: self.sampled,
            per_kind: buckets(&self.per_kind, kind_names),
            per_class: buckets(&self.per_class, &NODE_CLASS_NAMES),
        })
    }
}

/// Wall-clock statistics for one attribution bucket (an event kind or a
/// node class) in a [`ProfSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct KindProfile {
    /// Bucket name: an `engine.dispatch.*` kind or a node class (`host`,
    /// `eth_switch`, `ib_switch`, `engine`).
    pub name: String,
    /// Sampled spans attributed to this bucket.
    pub samples: u64,
    /// Summed sampled span time, nanoseconds.
    pub total_ns: u64,
    /// Longest sampled span, nanoseconds.
    pub max_ns: u64,
}

impl KindProfile {
    /// Mean sampled span duration, nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.samples as f64
        }
    }
}

/// A finished run's wall-clock profile: per-kind and per-class span
/// statistics. All durations are wall-clock derived and therefore
/// machine-dependent — a `ProfSummary` never participates in fingerprints
/// or deterministic reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfSummary {
    /// Total dispatches the profiler saw.
    pub events: u64,
    /// Spans actually sampled.
    pub sampled: u64,
    /// Per-event-kind span statistics (kinds with ≥ 1 sample).
    pub per_kind: Vec<KindProfile>,
    /// Per-node-class span statistics (classes with ≥ 1 sample).
    pub per_class: Vec<KindProfile>,
}

impl ProfSummary {
    /// Summed sampled span time across every kind, nanoseconds.
    pub fn sampled_total_ns(&self) -> u64 {
        self.per_kind.iter().map(|k| k.total_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert() {
        let mut p = Prof::disabled();
        assert!(!p.enabled());
        for _ in 0..100 {
            assert!(!p.arm_span());
        }
        assert!(p.summary(&["a"]).is_none());
    }

    #[test]
    fn sampling_cadence_is_exact() {
        let mut p = Prof::disabled();
        p.enable(ProfConfig { sample_every: 4 });
        let armed: Vec<bool> = (0..9).map(|_| p.arm_span()).collect();
        // The first dispatch is sampled, then every 4th.
        assert_eq!(
            armed,
            vec![true, false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn spans_attribute_to_kind_and_class() {
        let mut p = Prof::disabled();
        p.enable(ProfConfig { sample_every: 1 });
        for _ in 0..3 {
            assert!(p.arm_span());
            p.span_open();
            p.span_close(1, NodeClass::EthSwitch);
        }
        assert!(p.arm_span());
        p.span_open();
        p.span_close(0, NodeClass::Host);
        let s = p
            .summary(&["engine.dispatch.a", "engine.dispatch.b"])
            .unwrap();
        assert_eq!(s.sampled, 4);
        assert_eq!(s.per_kind.len(), 2);
        assert_eq!(s.per_kind[0].name, "engine.dispatch.a");
        assert_eq!(s.per_kind[0].samples, 1);
        assert_eq!(s.per_kind[1].samples, 3);
        let classes: Vec<&str> = s.per_class.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(classes, vec!["host", "eth_switch"]);
    }

    #[test]
    fn close_without_open_is_a_noop() {
        let mut p = Prof::disabled();
        p.enable(ProfConfig::default());
        p.span_close(0, NodeClass::Host);
        assert_eq!(p.summary(&["k"]).unwrap().sampled, 0);
    }

    #[test]
    fn enable_resets_previous_data() {
        let mut p = Prof::disabled();
        p.enable(ProfConfig { sample_every: 1 });
        assert!(p.arm_span());
        p.span_open();
        p.span_close(0, NodeClass::Host);
        p.enable(ProfConfig::default());
        assert_eq!(p.summary(&["k"]).unwrap().sampled, 0);
    }
}
