//! The invariant auditor: machine-checked correctness of the lossless data
//! plane (compiled only with the `audit` cargo feature).
//!
//! Every headline result of the reproduction assumes that the simulator
//! really is lossless and that TCD only ever takes the six legal Fig. 6
//! transitions. The auditor turns those assumptions into checks that run
//! inside the event loop, at configurable checkpoints and at targeted
//! hook points:
//!
//! * **Conservation** — every injected packet is exactly once in-flight,
//!   queued, pooled, or delivered, and lossless modes never drop;
//! * **Buffer accounting** — per-ingress PFC byte counters and per-VL CBFC
//!   block counters agree with actual occupancy and never exceed the
//!   configured capacity plus headroom;
//! * **Protocol legality** — PAUSE only above `X_off`, RESUME only at or
//!   below `X_on`, CBFC credits conserved end-to-end across every link
//!   (`FCTBS = ABR + blocks in flight`, `FCCL ≤ ABR + capacity`);
//! * **State machine** — detector ports only move along the six Fig. 6
//!   transitions, and 2-bit CE/UE marks (Table 1) are consistent with the
//!   marking port's ternary state;
//! * **Causality** — no event is ever scheduled in the past;
//! * **Liveness** — when forward progress stalls between checkpoints, no
//!   cycle of mutually blocked channels (PFC-paused or CBFC-starved
//!   egress queues each waiting on the next) exists — a runtime PFC
//!   deadlock detector in the DCFIT tradition, cross-validating the
//!   static CDC analysis in `simlint`.
//!
//! Violations carry the simulation time, node, port, and a counter
//! snapshot. In the default [`AuditMode::Panic`] any violation aborts the
//! run immediately (so every test that drives an audited simulator is also
//! an invariant test); [`AuditMode::Record`] collects violations instead,
//! for tests that deliberately provoke them.
//!
//! The feature gate keeps the unaudited engine byte-for-byte identical:
//! every hook call site is compiled out without `--features audit`, and
//! checkpoints run *between* event dispatches (never as scheduled events),
//! so event counts and run fingerprints are identical with the auditor on
//! or off.

use crate::topology::NodeId;
use lossless_flowctl::SimTime;
use std::collections::BTreeMap;
use tcd_core::state::Transition;
use tcd_core::{CodePoint, TernaryState};

/// The six invariant families the auditor checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum InvariantFamily {
    /// Packet conservation and zero-drop losslessness.
    Conservation,
    /// Shared-buffer / receive-buffer occupancy accounting.
    BufferAccounting,
    /// PFC and CBFC protocol legality.
    ProtocolLegality,
    /// TCD Fig. 6 transition and Table 1 marking legality.
    StateMachine,
    /// Event-queue causality.
    Causality,
    /// Forward progress: when delivery stalls, no cyclic hop-by-hop wait
    /// (PFC pause / CBFC credit starvation) may exist among non-empty
    /// blocked channels — the runtime PFC-deadlock watchdog.
    Liveness,
}

/// Number of invariant families.
pub const FAMILY_COUNT: usize = 6;

impl InvariantFamily {
    /// Stable index of this family (for per-family counters).
    pub fn index(self) -> usize {
        match self {
            InvariantFamily::Conservation => 0,
            InvariantFamily::BufferAccounting => 1,
            InvariantFamily::ProtocolLegality => 2,
            InvariantFamily::StateMachine => 3,
            InvariantFamily::Causality => 4,
            InvariantFamily::Liveness => 5,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            InvariantFamily::Conservation => "conservation",
            InvariantFamily::BufferAccounting => "buffer-accounting",
            InvariantFamily::ProtocolLegality => "protocol-legality",
            InvariantFamily::StateMachine => "state-machine",
            InvariantFamily::Causality => "causality",
            InvariantFamily::Liveness => "liveness",
        }
    }
}

/// One detected invariant violation, with enough context to debug it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant family was violated.
    pub family: InvariantFamily,
    /// Simulation time of detection.
    pub t: SimTime,
    /// The node involved (`NodeId(u32::MAX)` for engine-global checks).
    pub node: NodeId,
    /// The port involved (`u16::MAX` when not port-specific).
    pub port: u16,
    /// The priority / VL involved (`u8::MAX` when not class-specific).
    pub prio: u8,
    /// What went wrong, with a counter snapshot.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] t={} ", self.family.name(), self.t)?;
        if self.node.0 != u32::MAX {
            write!(f, "node={}", self.node.0)?;
            if self.port != u16::MAX {
                write!(f, " port={}", self.port)?;
            }
            if self.prio != u8::MAX {
                write!(f, " prio={}", self.prio)?;
            }
            write!(f, ": ")?;
        }
        f.write_str(&self.message)
    }
}

/// What the auditor does when a violation is detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditMode {
    /// Panic immediately with the violation (default: any audited test run
    /// fails fast, with the sim time / port / counter snapshot in the
    /// panic message).
    #[default]
    Panic,
    /// Record violations (up to [`AuditConfig::max_recorded`]) and keep
    /// running; for tests that deliberately provoke violations.
    Record,
}

/// Auditor configuration.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Violation handling mode.
    pub mode: AuditMode,
    /// Run the checkpoint checks every this many dispatched events (also
    /// always once at the end of every `run*` call). Clamped to ≥ 1.
    pub checkpoint_every: u64,
    /// Allowed overshoot of a PFC ingress counter past `X_off`: packets
    /// already serialized or in flight when the PAUSE lands keep arriving
    /// for roughly one round-trip. Sized for the paper's settings (40 Gbps,
    /// microsecond-scale links) with generous slack.
    pub pfc_headroom_bytes: u64,
    /// Maximum violations kept in [`AuditMode::Record`] mode (further ones
    /// are counted but not stored).
    pub max_recorded: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            mode: AuditMode::Panic,
            checkpoint_every: 16 * 1024,
            pfc_headroom_bytes: 96 * 1024,
            max_recorded: 64,
        }
    }
}

/// The invariant auditor. Owned by the [`Simulator`](crate::sim::Simulator)
/// and reachable from node handlers through [`Ctx`](crate::sim::Ctx).
#[derive(Debug, Default)]
pub struct Audit {
    cfg: AuditConfig,
    violations: Vec<Violation>,
    /// Total violations detected (including ones not stored).
    total: u64,
    /// Checks performed, per family index.
    checks: [u64; FAMILY_COUNT],
    /// Last observed ternary state per (node, port, prio); ports start in
    /// NonCongestion per the paper's Fig. 6.
    states: BTreeMap<(u32, u16, u8), TernaryState>,
    /// Transitions observed, indexed by Fig. 6 number minus one.
    transitions: [u64; 6],
    /// Forward-progress counter at the previous liveness checkpoint.
    last_progress: Option<u64>,
    /// The blocked-channel cycle of the first detected deadlock (the
    /// watchdog reports once; the wedge persists across checkpoints).
    deadlock: Option<Vec<(NodeId, u16)>>,
}

impl Audit {
    /// New auditor with `cfg`.
    pub fn new(cfg: AuditConfig) -> Audit {
        Audit {
            cfg,
            ..Audit::default()
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AuditConfig {
        &self.cfg
    }

    /// Mutable configuration access (e.g. to switch to
    /// [`AuditMode::Record`] before provoking a violation).
    pub fn config_mut(&mut self) -> &mut AuditConfig {
        &mut self.cfg
    }

    /// Recorded violations ([`AuditMode::Record`] only).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations detected, including ones beyond
    /// [`AuditConfig::max_recorded`].
    pub fn total_violations(&self) -> u64 {
        self.total
    }

    /// Whether no violation has been detected.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// How many checks of `family` have run so far (hook invocations plus
    /// checkpoint passes).
    #[expect(
        clippy::indexing_slicing,
        reason = "family.index() enumerates the fixed-size checks array"
    )]
    pub fn checks(&self, family: InvariantFamily) -> u64 {
        self.checks[family.index()]
    }

    /// How many times Fig. 6 transition `t` was observed.
    #[expect(
        clippy::indexing_slicing,
        reason = "Transition has the six Fig. 6 variants and transitions is [u64; 6]"
    )]
    pub fn transition_count(&self, t: Transition) -> u64 {
        self.transitions[t as usize]
    }

    /// Total observed state transitions.
    pub fn transitions_taken(&self) -> u64 {
        self.transitions.iter().sum()
    }

    /// Handle a detected violation per the configured mode.
    #[expect(
        clippy::panic,
        reason = "AuditMode::Panic is the auditor's contract: stop at the first violated invariant"
    )]
    pub fn report(&mut self, v: Violation) {
        self.total += 1;
        match self.cfg.mode {
            AuditMode::Panic => panic!("simulation invariant violated: {v}"),
            AuditMode::Record => {
                if self.violations.len() < self.cfg.max_recorded {
                    self.violations.push(v);
                }
            }
        }
    }

    /// Count a completed check of `family`.
    #[expect(
        clippy::indexing_slicing,
        reason = "family.index() enumerates the fixed-size checks array"
    )]
    pub fn note_check(&mut self, family: InvariantFamily) {
        self.checks[family.index()] += 1;
    }

    /// A detector's ternary state was observed at `(node, port, prio)`.
    /// Verifies that any change from the previously observed state is one
    /// of the six Fig. 6 transitions, and that Undetermined is only ever
    /// entered on a port that has seen at least one OFF period
    /// (`off_epochs > 0`) — the paper's precondition for undeterminable
    /// ON-OFF arrivals.
    #[expect(
        clippy::indexing_slicing,
        reason = "Transition has the six Fig. 6 variants and transitions is [u64; 6]"
    )]
    pub fn note_state(
        &mut self,
        t: SimTime,
        node: NodeId,
        port: u16,
        prio: u8,
        state: TernaryState,
        off_epochs: u64,
    ) {
        self.note_check(InvariantFamily::StateMachine);
        let prev = self
            .states
            .insert((node.0, port, prio), state)
            .unwrap_or(TernaryState::NonCongestion);
        if prev == state {
            return;
        }
        match Transition::classify(prev, state) {
            Some(tr) => self.transitions[tr as usize] += 1,
            None => self.report(Violation {
                family: InvariantFamily::StateMachine,
                t,
                node,
                port,
                prio,
                message: format!("illegal state transition {prev} -> {state}"),
            }),
        }
        if state.is_undetermined() && off_epochs == 0 {
            self.report(Violation {
                family: InvariantFamily::StateMachine,
                t,
                node,
                port,
                prio,
                message: "entered Undetermined without any OFF period (no pause/credit stall ever)"
                    .into(),
            });
        }
    }

    /// A packet was marked `mark` by the egress `(node, port, prio)` whose
    /// detector is in `state` after marking. Verifies Table 1: UE is only
    /// produced by an undetermined port, CE only by a determined one.
    pub fn note_mark(
        &mut self,
        t: SimTime,
        node: NodeId,
        port: u16,
        prio: u8,
        mark: CodePoint,
        state: TernaryState,
    ) {
        self.note_check(InvariantFamily::StateMachine);
        if mark.is_ue() && !state.is_undetermined() {
            self.report(Violation {
                family: InvariantFamily::StateMachine,
                t,
                node,
                port,
                prio,
                message: format!("UE mark from a determined port (state {state})"),
            });
        }
        if mark.is_ce() && state.is_undetermined() {
            self.report(Violation {
                family: InvariantFamily::StateMachine,
                t,
                node,
                port,
                prio,
                message: "CE mark from an undetermined port".into(),
            });
        }
    }

    /// A PAUSE frame is being emitted by the ingress accounting of
    /// `(node, port, prio)` whose counter reads `buffered`. Legal only
    /// strictly above `xoff`.
    pub fn pfc_pause_sent(
        &mut self,
        t: SimTime,
        node: NodeId,
        port: u16,
        prio: u8,
        buffered: u64,
        xoff: u64,
    ) {
        self.note_check(InvariantFamily::ProtocolLegality);
        if buffered <= xoff {
            self.report(Violation {
                family: InvariantFamily::ProtocolLegality,
                t,
                node,
                port,
                prio,
                message: format!("PAUSE sent with counter {buffered} <= X_off {xoff}"),
            });
        }
    }

    /// A RESUME frame is being emitted by the ingress accounting of
    /// `(node, port, prio)` whose counter reads `buffered`. Legal only at
    /// or below `xon`.
    pub fn pfc_resume_sent(
        &mut self,
        t: SimTime,
        node: NodeId,
        port: u16,
        prio: u8,
        buffered: u64,
        xon: u64,
    ) {
        self.note_check(InvariantFamily::ProtocolLegality);
        if buffered > xon {
            self.report(Violation {
                family: InvariantFamily::ProtocolLegality,
                t,
                node,
                port,
                prio,
                message: format!("RESUME sent with counter {buffered} > X_on {xon}"),
            });
        }
    }

    /// A scheduler selected `(node, port, prio)` for dequeue but its queue
    /// was empty: the byte/backlog accounting (reading `counter`) diverged
    /// from the queue contents.
    pub fn empty_dequeue(&mut self, t: SimTime, node: NodeId, port: u16, prio: u8, counter: u64) {
        self.report(Violation {
            family: InvariantFamily::BufferAccounting,
            t,
            node,
            port,
            prio,
            message: format!("dequeue from an empty queue (backlog counter reads {counter})"),
        });
    }

    /// A link-local control frame reached a node type that can never
    /// legally receive it (e.g. an FCCL frame at an Ethernet switch).
    pub fn misrouted_control_frame(&mut self, t: SimTime, node: NodeId, port: u16, what: &str) {
        self.report(Violation {
            family: InvariantFamily::ProtocolLegality,
            t,
            node,
            port,
            prio: u8::MAX,
            message: format!("misrouted link-local control frame: {what}"),
        });
    }

    /// Record the forward-progress counter at a liveness checkpoint.
    /// Returns `true` when it has not advanced since the previous
    /// checkpoint — the trigger for the deadlock wait-for-graph walk.
    pub fn note_progress(&mut self, progress: u64) -> bool {
        let stalled = self.last_progress == Some(progress);
        self.last_progress = Some(progress);
        stalled
    }

    /// The watchdog found a cycle of mutually blocked channels. Reports a
    /// [`InvariantFamily::Liveness`] violation once per run (the wedge
    /// persists, so later checkpoints would re-find the same cycle) and
    /// stores the cycle for [`Audit::deadlock_cycle`]. `describe` renders
    /// each hop (e.g. `s0[2]`) for the violation message.
    pub fn report_deadlock(
        &mut self,
        t: SimTime,
        cycle: Vec<(NodeId, u16)>,
        describe: impl Fn(NodeId, u16) -> String,
    ) {
        if self.deadlock.is_some() {
            return;
        }
        let hops: Vec<String> = cycle
            .iter()
            .chain(cycle.first())
            .map(|&(n, p)| describe(n, p))
            .collect();
        let (node, port) = cycle
            .first()
            .copied()
            .unwrap_or((NodeId(u32::MAX), u16::MAX));
        self.deadlock = Some(cycle);
        self.report(Violation {
            family: InvariantFamily::Liveness,
            t,
            node,
            port,
            prio: u8::MAX,
            message: format!(
                "PFC deadlock: progress stalled with a cyclic hop-by-hop wait ({} channels): {}",
                hops.len().saturating_sub(1),
                hops.join(" -> ")
            ),
        });
    }

    /// The blocked-channel cycle of the detected deadlock, if any: the
    /// `(node, egress port)` channels, each waiting on the next (and the
    /// last on the first).
    pub fn deadlock_cycle(&self) -> Option<&[(NodeId, u16)]> {
        self.deadlock.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> Audit {
        Audit::new(AuditConfig {
            mode: AuditMode::Record,
            ..AuditConfig::default()
        })
    }

    #[test]
    fn legal_transitions_are_tallied_not_reported() {
        let mut a = record();
        let n = NodeId(1);
        // 0 -> 1 -> / -> 0 exercises T1, T6, T4.
        a.note_state(SimTime::ZERO, n, 0, 1, TernaryState::Congestion, 0);
        a.note_state(SimTime::ZERO, n, 0, 1, TernaryState::Undetermined, 1);
        a.note_state(SimTime::ZERO, n, 0, 1, TernaryState::NonCongestion, 1);
        assert!(a.is_clean());
        assert_eq!(a.transitions_taken(), 3);
        assert_eq!(
            a.transition_count(Transition::T6CongestionToUndetermined),
            1
        );
    }

    #[test]
    fn undetermined_without_off_period_is_reported() {
        let mut a = record();
        a.note_state(
            SimTime::from_us(5),
            NodeId(2),
            1,
            1,
            TernaryState::Undetermined,
            0,
        );
        assert_eq!(a.total_violations(), 1);
        let v = &a.violations()[0];
        assert_eq!(v.family, InvariantFamily::StateMachine);
        assert_eq!(v.node, NodeId(2));
    }

    #[test]
    fn table1_marking_consistency() {
        let mut a = record();
        let n = NodeId(0);
        // Legal: CE from a determined port, UE from an undetermined one.
        a.note_mark(
            SimTime::ZERO,
            n,
            0,
            1,
            CodePoint::CE,
            TernaryState::Congestion,
        );
        a.note_mark(
            SimTime::ZERO,
            n,
            0,
            1,
            CodePoint::UE,
            TernaryState::Undetermined,
        );
        assert!(a.is_clean());
        // Illegal both ways.
        a.note_mark(
            SimTime::ZERO,
            n,
            0,
            1,
            CodePoint::UE,
            TernaryState::Congestion,
        );
        a.note_mark(
            SimTime::ZERO,
            n,
            0,
            1,
            CodePoint::CE,
            TernaryState::Undetermined,
        );
        assert_eq!(a.total_violations(), 2);
    }

    #[test]
    fn pfc_threshold_legality() {
        let mut a = record();
        let n = NodeId(3);
        a.pfc_pause_sent(SimTime::ZERO, n, 0, 1, 320 * 1024 + 1, 320 * 1024);
        a.pfc_resume_sent(SimTime::ZERO, n, 0, 1, 318 * 1024, 318 * 1024);
        assert!(a.is_clean());
        a.pfc_pause_sent(SimTime::ZERO, n, 0, 1, 100, 320 * 1024);
        a.pfc_resume_sent(SimTime::ZERO, n, 0, 1, 319 * 1024, 318 * 1024);
        assert_eq!(a.total_violations(), 2);
        assert!(a.checks(InvariantFamily::ProtocolLegality) >= 4);
    }

    #[test]
    #[should_panic(expected = "simulation invariant violated")]
    fn panic_mode_aborts_on_first_violation() {
        let mut a = Audit::default();
        a.empty_dequeue(SimTime::ZERO, NodeId(0), 0, 0, 42);
    }

    #[test]
    fn violation_display_carries_context() {
        let v = Violation {
            family: InvariantFamily::BufferAccounting,
            t: SimTime::from_us(7),
            node: NodeId(4),
            port: 2,
            prio: 1,
            message: "counter mismatch".into(),
        };
        let s = v.to_string();
        assert!(s.contains("buffer-accounting"), "{s}");
        assert!(s.contains("node=4"), "{s}");
        assert!(s.contains("port=2"), "{s}");
        assert!(s.contains("counter mismatch"), "{s}");
    }
}
