//! `prof` — the engine's wall-clock self-profiler.
//!
//! Everything else in this crate observes *simulated* time; this module is
//! the one sanctioned window onto *wall-clock* time, so the roadmap's
//! optimization work can see where the engine's cycles actually go. It is
//! built to be **provably non-perturbing**:
//!
//! * it only ever *reads* the monotonic clock ([`std::time::Instant`]) —
//!   it never schedules events, never touches the metrics [`Registry`]
//!   (whose fingerprint is part of the golden surface), and none of its
//!   entry points return wall-clock values to the engine;
//! * the decision *whether* to sample a dispatch is a plain counter
//!   check ([`Prof::arm_span`]), so control flow in the engine is a pure
//!   function of the dispatch count — identical on every machine and
//!   with the profiler on or off;
//! * the simlint `prof-leak` rule statically checks that no profiler
//!   value flows into simulation-state code outside the sanctioned
//!   `drive()` wiring.
//!
//! The span model: every `sample_every`-th dispatch is wrapped in an
//! open/close pair ([`Prof::span_open`] / [`Prof::span_close`]) and the
//! elapsed nanoseconds are attributed twice — to the event *kind*
//! (`PacketArrival`, `PortTx`, …) and to the *node class* doing the work
//! ([`NodeClass`]: host, Ethernet switch, InfiniBand switch, or the
//! engine itself). Alongside the spans, a periodic timeline tick
//! ([`Prof::record_tick`], every `tick_every` dispatches) snapshots the
//! event-queue occupancy (pending events, staged batch, timing-wheel
//! overflow list) and the packet-pool hit/miss counters, each stamped
//! with both the simulated time and the wall-clock offset from run
//! start — so throughput and queue pressure can be plotted over either
//! axis.
//!
//! [`Registry`]: crate::Registry

use std::time::Instant;

use lossless_flowctl::SimTime;

use crate::json;

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
pub const NODE_CLASS_NAMES: [&str; 4] = ["host", "eth_switch", "ib_switch", "engine"];

/// Profiler knobs. The defaults keep the amortized per-dispatch cost to a
/// countdown decrement (two clock reads every 64 events plus one timeline
/// tick every 64 Ki events), comfortably inside the ≤5% overhead budget.
#[derive(Debug, Clone, Copy)]
pub struct ProfConfig {
    /// Sample one dispatch span out of every `sample_every` (≥ 1).
    pub sample_every: u32,
    /// Record a timeline tick every `tick_every` dispatches (0 disables
    /// the timeline).
    pub tick_every: u64,
    /// Timeline capacity; ticks beyond it are counted, not stored, so a
    /// long run cannot grow memory without bound.
    pub max_ticks: usize,
}

impl Default for ProfConfig {
    fn default() -> Self {
        ProfConfig {
            sample_every: 64,
            tick_every: 64 * 1024,
            max_ticks: 4096,
        }
    }
}

impl ProfConfig {
    /// Read the environment: `TCD_PROF=1` enables the profiler with the
    /// defaults, `TCD_PROF_SAMPLE=N` overrides the sampling period and
    /// `TCD_PROF_TICK=N` the timeline cadence. `None` unless `TCD_PROF`
    /// is set to `1`.
    pub fn from_env() -> Option<ProfConfig> {
        if !std::env::var("TCD_PROF").is_ok_and(|v| v.trim() == "1") {
            return None;
        }
        let mut cfg = ProfConfig::default();
        if let Ok(v) = std::env::var("TCD_PROF_SAMPLE") {
            if let Ok(n) = v.trim().parse::<u32>() {
                cfg.sample_every = n.max(1);
            }
        }
        if let Ok(v) = std::env::var("TCD_PROF_TICK") {
            if let Ok(n) = v.trim().parse::<u64>() {
                cfg.tick_every = n;
            }
        }
        Some(cfg)
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

/// One timeline sample: engine progress and queue pressure at a point in
/// the run, stamped with both clocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfTick {
    /// Simulated time of the dispatch that triggered the tick.
    pub t: SimTime,
    /// Dispatches completed so far.
    pub events: u64,
    /// Wall-clock nanoseconds since the profiler was enabled.
    pub wall_ns: u64,
    /// Pending events in the queue.
    pub queue_len: u64,
    /// Events staged in the current same-timestamp batch.
    pub queue_staged: u64,
    /// Events parked on the timing wheel's overflow list.
    pub queue_overflow: u64,
    /// Packet-pool reuse hits so far.
    pub pool_hit: u64,
    /// Packet-pool allocation misses so far.
    pub pool_miss: u64,
}

/// The profiler held by the simulator. Disabled (and cost-free beyond a
/// branch per dispatch) by default; see [`Prof::enable`].
#[derive(Debug, Clone)]
pub struct Prof {
    on: bool,
    every: u32,
    left: u32,
    tick_every: u64,
    max_ticks: usize,
    started: Option<Instant>,
    open: Option<Instant>,
    events: u64,
    sampled: u64,
    per_kind: [SpanStat; MAX_KINDS],
    per_class: [SpanStat; NODE_CLASS_NAMES.len()],
    ticks: Vec<ProfTick>,
    dropped_ticks: u64,
}

impl Default for Prof {
    fn default() -> Self {
        Prof::disabled()
    }
}

impl Prof {
    /// A disabled profiler: every entry point is an early return.
    pub fn disabled() -> Prof {
        Prof {
            on: false,
            every: 1,
            left: 1,
            tick_every: 0,
            max_ticks: 0,
            started: None,
            open: None,
            events: 0,
            sampled: 0,
            per_kind: [SpanStat::default(); MAX_KINDS],
            per_class: [SpanStat::default(); NODE_CLASS_NAMES.len()],
            ticks: Vec::new(),
            dropped_ticks: 0,
        }
    }

    /// A profiler enabled iff `TCD_PROF=1` is set in the environment
    /// (see [`ProfConfig::from_env`]); disabled otherwise.
    pub fn from_env() -> Prof {
        let mut p = Prof::disabled();
        if let Some(cfg) = ProfConfig::from_env() {
            p.enable(cfg);
        }
        p
    }

    /// Arm the profiler. Resets any previously collected data and starts
    /// the wall clock.
    pub fn enable(&mut self, cfg: ProfConfig) {
        *self = Prof::disabled();
        self.on = true;
        self.every = cfg.sample_every.max(1);
        self.left = 1; // sample the very first dispatch, then every Nth
        self.tick_every = cfg.tick_every;
        self.max_ticks = cfg.max_ticks;
        self.ticks = Vec::with_capacity(cfg.max_ticks.min(4096));
        self.started = Some(Instant::now());
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

    /// Whether a timeline tick is due at this dispatch count — again a
    /// pure counter check, no clock read.
    #[inline]
    pub fn tick_due(&self, events: u64) -> bool {
        self.on && self.tick_every > 0 && events.is_multiple_of(self.tick_every)
    }

    /// Record a timeline tick. The queue/pool numbers are plain reads the
    /// caller took from the engine; nothing flows back.
    #[allow(clippy::too_many_arguments)] // one flat call keeps the drive() wiring branch-free
    pub fn record_tick(
        &mut self,
        t: SimTime,
        events: u64,
        queue_len: usize,
        queue_staged: usize,
        queue_overflow: usize,
        pool_hit: u64,
        pool_miss: u64,
    ) {
        let Some(start) = self.started else {
            return;
        };
        if self.ticks.len() >= self.max_ticks {
            self.dropped_ticks += 1;
            return;
        }
        self.ticks.push(ProfTick {
            t,
            events,
            wall_ns: start.elapsed().as_nanos() as u64,
            queue_len: queue_len as u64,
            queue_staged: queue_staged as u64,
            queue_overflow: queue_overflow as u64,
            pool_hit,
            pool_miss,
        });
    }

    /// Snapshot the collected profile, resolving kind indices against
    /// `kind_names` (the engine's `Event::KIND_NAMES`). `None` while the
    /// profiler is disabled — callers can unconditionally thread the
    /// result into reports.
    pub fn summary(&self, kind_names: &[&'static str]) -> Option<ProfSummary> {
        if !self.on {
            return None;
        }
        let wall_ns = self
            .started
            .map(|s| s.elapsed().as_nanos() as u64)
            .unwrap_or(0);
        let mut per_kind = Vec::new();
        for (i, st) in self.per_kind.iter().enumerate() {
            if st.samples == 0 {
                continue;
            }
            let name = kind_names.get(i).copied().unwrap_or("engine.dispatch.?");
            per_kind.push(KindProfile {
                name: name.to_string(),
                samples: st.samples,
                total_ns: st.total_ns,
                max_ns: st.max_ns,
            });
        }
        let mut per_class = Vec::new();
        for (i, st) in self.per_class.iter().enumerate() {
            if st.samples == 0 {
                continue;
            }
            per_class.push(KindProfile {
                name: NODE_CLASS_NAMES[i].to_string(),
                samples: st.samples,
                total_ns: st.total_ns,
                max_ns: st.max_ns,
            });
        }
        Some(ProfSummary {
            sample_every: self.every,
            events: self.events,
            sampled: self.sampled,
            wall_ns,
            per_kind,
            per_class,
            ticks: self.ticks.clone(),
            dropped_ticks: self.dropped_ticks,
        })
    }
}

/// Wall-clock statistics for one attribution bucket (an event kind or a
/// node class) in a [`ProfSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct KindProfile {
    /// Bucket name: an `engine.dispatch.*` kind or a [`NODE_CLASS_NAMES`]
    /// entry.
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

/// A finished run's wall-clock profile: sampling parameters, per-kind and
/// per-class span statistics, and the queue/pool timeline. All values are
/// wall-clock derived and therefore machine-dependent — a `ProfSummary`
/// never participates in fingerprints or deterministic reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfSummary {
    /// One span sampled out of every `sample_every` dispatches.
    pub sample_every: u32,
    /// Total dispatches the profiler saw.
    pub events: u64,
    /// Spans actually sampled.
    pub sampled: u64,
    /// Wall-clock nanoseconds from [`Prof::enable`] to the snapshot.
    pub wall_ns: u64,
    /// Per-event-kind span statistics (kinds with ≥ 1 sample).
    pub per_kind: Vec<KindProfile>,
    /// Per-node-class span statistics (classes with ≥ 1 sample).
    pub per_class: Vec<KindProfile>,
    /// The queue/pool timeline.
    pub ticks: Vec<ProfTick>,
    /// Timeline ticks dropped once `max_ticks` filled (reported so a
    /// truncated timeline is never mistaken for a complete one).
    pub dropped_ticks: u64,
}

impl ProfSummary {
    /// Overall wall-clock throughput, events per second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.events as f64 / (self.wall_ns as f64 / 1e9)
        }
    }

    /// Summed sampled span time across every kind, nanoseconds.
    pub fn sampled_total_ns(&self) -> u64 {
        self.per_kind.iter().map(|k| k.total_ns).sum()
    }

    /// Buckets sorted by total sampled time, descending; ties broken by
    /// name so the report order is stable.
    pub fn top_kinds(&self, n: usize) -> Vec<&KindProfile> {
        let mut v: Vec<&KindProfile> = self.per_kind.iter().collect();
        v.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        v.truncate(n);
        v
    }

    /// The human-readable hot-event-kind report: top `n` kinds by sampled
    /// time with share, mean and max span durations, followed by the
    /// node-class breakdown.
    pub fn hot_report(&self, n: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let total = self.sampled_total_ns().max(1);
        let _ = writeln!(
            out,
            "wall-clock profile: {} events in {:.3} s ({:.3}M events/s), \
             {} spans sampled (1/{})",
            self.events,
            self.wall_ns as f64 / 1e9,
            self.events_per_sec() / 1e6,
            self.sampled,
            self.sample_every
        );
        let _ = writeln!(
            out,
            "  {:<34} {:>7} {:>8} {:>9} {:>9}",
            "hot event kinds", "share", "samples", "mean ns", "max ns"
        );
        for k in self.top_kinds(n) {
            let _ = writeln!(
                out,
                "  {:<34} {:>6.1}% {:>8} {:>9.0} {:>9}",
                k.name,
                100.0 * k.total_ns as f64 / total as f64,
                k.samples,
                k.mean_ns(),
                k.max_ns
            );
        }
        let _ = writeln!(
            out,
            "  {:<34} {:>7} {:>8} {:>9} {:>9}",
            "node classes", "share", "samples", "mean ns", "max ns"
        );
        for c in &self.per_class {
            let _ = writeln!(
                out,
                "  {:<34} {:>6.1}% {:>8} {:>9.0} {:>9}",
                c.name,
                100.0 * c.total_ns as f64 / total as f64,
                c.samples,
                c.mean_ns(),
                c.max_ns
            );
        }
        if let (Some(first), Some(last)) = (self.ticks.first(), self.ticks.last()) {
            let _ = writeln!(
                out,
                "  timeline: {} ticks ({} dropped), queue len {} -> {}, wheel overflow {} -> {}",
                self.ticks.len(),
                self.dropped_ticks,
                first.queue_len,
                last.queue_len,
                first.queue_overflow,
                last.queue_overflow
            );
        }
        out
    }

    /// Self-describing JSON dump (`tcd-prof-v1`): sampling parameters,
    /// per-kind / per-class buckets and the timeline. Hand-rolled like
    /// every exporter in this workspace (no serde).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n  \"schema\": \"tcd-prof-v1\",\n");
        let _ = writeln!(out, "  \"sample_every\": {},", self.sample_every);
        let _ = writeln!(out, "  \"events\": {},", self.events);
        let _ = writeln!(out, "  \"sampled\": {},", self.sampled);
        let _ = writeln!(out, "  \"wall_ns\": {},", self.wall_ns);
        let _ = writeln!(
            out,
            "  \"events_per_sec\": {},",
            json::num_f64(self.events_per_sec())
        );
        let bucket = |b: &KindProfile| {
            format!(
                "{{\"name\": {}, \"samples\": {}, \"total_ns\": {}, \"max_ns\": {}}}",
                json::escape(&b.name),
                b.samples,
                b.total_ns,
                b.max_ns
            )
        };
        let list =
            |items: &[KindProfile]| items.iter().map(bucket).collect::<Vec<_>>().join(",\n    ");
        let _ = writeln!(out, "  \"per_kind\": [\n    {}\n  ],", list(&self.per_kind));
        let _ = writeln!(
            out,
            "  \"per_class\": [\n    {}\n  ],",
            list(&self.per_class)
        );
        let _ = writeln!(out, "  \"dropped_ticks\": {},", self.dropped_ticks);
        let ticks = self
            .ticks
            .iter()
            .map(|t| {
                format!(
                    "{{\"t_ps\": {}, \"events\": {}, \"wall_ns\": {}, \"queue_len\": {}, \
                     \"queue_staged\": {}, \"queue_overflow\": {}, \"pool_hit\": {}, \
                     \"pool_miss\": {}}}",
                    t.t.as_ps(),
                    t.events,
                    t.wall_ns,
                    t.queue_len,
                    t.queue_staged,
                    t.queue_overflow,
                    t.pool_hit,
                    t.pool_miss
                )
            })
            .collect::<Vec<_>>()
            .join(",\n    ");
        if ticks.is_empty() {
            out.push_str("  \"ticks\": []\n}\n");
        } else {
            let _ = writeln!(out, "  \"ticks\": [\n    {ticks}\n  ]\n}}");
        }
        out
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
        assert!(!p.tick_due(64 * 1024));
        assert!(p.summary(&["a"]).is_none());
    }

    #[test]
    fn sampling_cadence_is_exact() {
        let mut p = Prof::disabled();
        p.enable(ProfConfig {
            sample_every: 4,
            tick_every: 0,
            max_ticks: 0,
        });
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
        p.enable(ProfConfig {
            sample_every: 1,
            tick_every: 0,
            max_ticks: 0,
        });
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
    fn timeline_caps_and_counts_drops() {
        let mut p = Prof::disabled();
        p.enable(ProfConfig {
            sample_every: 1,
            tick_every: 1,
            max_ticks: 2,
        });
        for ev in 1..=5u64 {
            assert!(p.tick_due(ev));
            p.record_tick(SimTime::from_ns(ev), ev, 10, 1, 0, 7, 3);
        }
        let s = p.summary(&["k"]).unwrap();
        assert_eq!(s.ticks.len(), 2);
        assert_eq!(s.dropped_ticks, 3);
        assert_eq!(s.ticks[1].pool_hit, 7);
    }

    #[test]
    fn summary_json_parses_and_self_describes() {
        let mut p = Prof::disabled();
        p.enable(ProfConfig {
            sample_every: 1,
            tick_every: 1,
            max_ticks: 8,
        });
        assert!(p.arm_span());
        p.span_open();
        p.span_close(0, NodeClass::Engine);
        p.record_tick(SimTime::from_us(1), 1, 5, 2, 1, 0, 0);
        let s = p.summary(&["engine.dispatch.k"]).unwrap();
        let doc = json::parse(&s.to_json()).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("tcd-prof-v1")
        );
        assert!(doc.get("per_kind").and_then(|v| v.as_arr()).is_some());
        assert_eq!(
            doc.get("ticks").and_then(|v| v.as_arr()).map(<[_]>::len),
            Some(1)
        );
        assert!(!s.hot_report(5).is_empty());
    }

    #[test]
    fn enable_resets_previous_data() {
        let mut p = Prof::disabled();
        p.enable(ProfConfig {
            sample_every: 1,
            ..ProfConfig::default()
        });
        assert!(p.arm_span());
        p.span_open();
        p.span_close(0, NodeClass::Host);
        p.enable(ProfConfig::default());
        assert_eq!(p.summary(&["k"]).unwrap().sampled, 0);
    }
}
