//! The interface between hosts and end-to-end congestion controllers.
//!
//! A [`RateController`] owns the sending rate of one flow. The host drives
//! it with [`CcEvent`]s — feedback packets, acknowledgements, expired
//! timers, transmitted bytes — and reads the rate back after every event.
//! Controllers request timers through [`CcAction`]; the host schedules them
//! on the simulator clock and delivers [`CcEvent::Timer`] when they fire.
//!
//! The DCQCN, TIMELY and IB CC implementations (and their TCD-aware
//! variants) live in the `lossless-cc` crate; this module only defines the
//! contract, so the simulator does not depend on any particular algorithm.

use crate::packet::IntHop;
use lossless_flowctl::{Rate, SimDuration, SimTime};
use tcd_core::CodePoint;

/// An input to a congestion controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CcEvent {
    /// A congestion notification packet arrived (DCQCN CNP / IB BECN),
    /// carrying the code point that triggered it.
    Feedback {
        /// CE, or UE under TCD.
        code: CodePoint,
    },
    /// An acknowledgement arrived (per-packet ACK feedback mode).
    Ack {
        /// Measured round-trip time of the acknowledged packet.
        rtt: SimDuration,
        /// Code point observed on the acknowledged data packet.
        code: CodePoint,
        /// Payload bytes acknowledged.
        bytes: u64,
        /// Echoed in-band telemetry of the acknowledged packet (empty
        /// unless INT is enabled).
        int: Vec<IntHop>,
    },
    /// A previously requested timer fired.
    Timer {
        /// Controller-defined timer id.
        id: u32,
    },
    /// The NIC put `bytes` of this flow on the wire (drives byte counters).
    Sent {
        /// Bytes transmitted.
        bytes: u64,
    },
}

impl CcEvent {
    /// Stable metric name for this event kind, used by the per-host
    /// `cc.event.*` counters in the observability layer.
    pub fn kind_name(&self) -> &'static str {
        match self {
            CcEvent::Feedback { .. } => "cc.event.feedback",
            CcEvent::Ack { .. } => "cc.event.ack",
            CcEvent::Timer { .. } => "cc.event.timer",
            CcEvent::Sent { .. } => "cc.event.sent",
        }
    }
}

/// Timer requests returned by a controller: at most two per action, held
/// inline (no controller in this tree asks for more — DCQCN restarts its
/// two timers together, IB CC owns one, TIMELY and HPCC none). An empty
/// action means "nothing to schedule".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CcAction {
    timers: [Option<(u32, SimDuration)>; 2],
}

impl CcAction {
    /// No timers.
    pub fn none() -> CcAction {
        CcAction::default()
    }

    /// A single timer request.
    pub fn timer(id: u32, delay: SimDuration) -> CcAction {
        CcAction {
            timers: [Some((id, delay)), None],
        }
    }

    /// Two timer requests, scheduled in argument order.
    pub fn timers2(first: (u32, SimDuration), second: (u32, SimDuration)) -> CcAction {
        CcAction {
            timers: [Some(first), Some(second)],
        }
    }

    /// The `(timer id, delay from now)` pairs to schedule, in request
    /// order. Re-requesting an id supersedes the previous request: only
    /// the most recently requested deadline for an id is delivered.
    pub fn timers(&self) -> impl Iterator<Item = (u32, SimDuration)> + '_ {
        self.timers.iter().flatten().copied()
    }
}

/// End-to-end congestion controller for one flow.
///
/// `Send` so a simulator — controllers included — can be handed to
/// another thread. Controllers are pure per-flow state machines, so this
/// costs nothing in practice.
///
/// Two rules the host relies on: [`rate`](Self::rate) changes only inside
/// [`start`](Self::start) and [`on_event`](Self::on_event) — the host reads
/// it once after each and paces from that cached value — and a controller
/// keeps at most two timer ids outstanding (`u32::MAX` is reserved for the
/// host's retransmission timeout).
pub trait RateController: Send {
    /// Called once when the flow starts. `line_rate` is the source NIC's
    /// link rate; the controller returns its initial timers and must leave
    /// [`rate`](Self::rate) at the flow's initial sending rate.
    fn start(&mut self, now: SimTime, line_rate: Rate) -> CcAction;

    /// Deliver an event; returns timers to (re)schedule.
    fn on_event(&mut self, now: SimTime, ev: CcEvent) -> CcAction;

    /// The flow's current allowed sending rate.
    fn rate(&self) -> Rate;

    /// A short algorithm name for traces ("dcqcn", "timely+tcd", …).
    fn name(&self) -> &'static str;
}

/// A controller that never changes rate: used for the paper's uncontrolled
/// constant-rate flows (F0/F2) and burst senders, and as a null object in
/// tests.
#[derive(Debug, Clone)]
pub struct FixedRate {
    rate: Rate,
    /// When `None`, [`start`](RateController::start) adopts the line rate.
    configured: Option<Rate>,
}

impl FixedRate {
    /// Always send at `rate`.
    pub fn new(rate: Rate) -> Self {
        FixedRate {
            rate,
            configured: Some(rate),
        }
    }

    /// Always send at the source NIC's line rate.
    pub fn line_rate() -> Self {
        FixedRate {
            rate: Rate::ZERO,
            configured: None,
        }
    }
}

impl RateController for FixedRate {
    fn start(&mut self, _now: SimTime, line_rate: Rate) -> CcAction {
        if let Some(r) = self.configured {
            self.rate = r.min(line_rate);
        } else {
            self.rate = line_rate;
        }
        CcAction::none()
    }

    fn on_event(&mut self, _now: SimTime, _ev: CcEvent) -> CcAction {
        CcAction::none()
    }

    fn rate(&self) -> Rate {
        self.rate
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_ignores_everything() {
        let mut f = FixedRate::new(Rate::from_gbps(5));
        let a = f.start(SimTime::ZERO, Rate::from_gbps(40));
        assert_eq!(a, CcAction::none());
        assert_eq!(f.rate(), Rate::from_gbps(5));
        let _ = f.on_event(
            SimTime::ZERO,
            CcEvent::Feedback {
                code: CodePoint::CE,
            },
        );
        assert_eq!(f.rate(), Rate::from_gbps(5));
        assert_eq!(f.name(), "fixed");
    }

    #[test]
    fn fixed_rate_is_clamped_to_line_rate() {
        let mut f = FixedRate::new(Rate::from_gbps(100));
        let _ = f.start(SimTime::ZERO, Rate::from_gbps(40));
        assert_eq!(f.rate(), Rate::from_gbps(40));
    }

    #[test]
    fn line_rate_adopts_nic_speed() {
        let mut f = FixedRate::line_rate();
        let _ = f.start(SimTime::ZERO, Rate::from_gbps(25));
        assert_eq!(f.rate(), Rate::from_gbps(25));
    }

    #[test]
    fn event_kind_names_are_stable() {
        assert_eq!(
            CcEvent::Feedback {
                code: CodePoint::CE
            }
            .kind_name(),
            "cc.event.feedback"
        );
        assert_eq!(CcEvent::Timer { id: 1 }.kind_name(), "cc.event.timer");
        assert_eq!(CcEvent::Sent { bytes: 1 }.kind_name(), "cc.event.sent");
    }

    #[test]
    fn action_helpers() {
        assert_eq!(CcAction::none().timers().count(), 0);
        let a = CcAction::timer(3, SimDuration::from_us(55));
        assert_eq!(
            a.timers().collect::<Vec<_>>(),
            [(3, SimDuration::from_us(55))]
        );
        let b = CcAction::timers2((7, SimDuration::from_us(1)), (2, SimDuration::from_us(9)));
        assert_eq!(
            b.timers().collect::<Vec<_>>(),
            [(7, SimDuration::from_us(1)), (2, SimDuration::from_us(9))],
            "request order, not id order"
        );
    }
}
