//! IB CC — the InfiniBand congestion-control annex (IB spec vol. 1, annex
//! A10), the paper's InfiniBand case study (§5.2.2).
//!
//! The switch marks FECN on root ports; the destination channel adapter
//! echoes a BECN back; the source CA maintains a *congestion control table
//! index* (CCTI):
//!
//! * BECN → `CCTI += step` (spec default step 1; the TCD variant uses 2);
//! * every `CCTI_timer` without increase → `CCTI -= 1`;
//! * the CCT maps CCTI to an inter-packet delay (IPD). The spec leaves the
//!   table contents to the operator; following the common configuration in
//!   the IB CC literature (Gran et al., IPDPS'10) we use a linearly growing
//!   IPD: `rate(CCTI) = line_rate / (1 + CCTI · ird_unit)`, with
//!   `ird_unit = 1/8` so CCTI = 8 halves the rate.
//!
//! The TCD-aware variant holds the rate when the BECN carries UE, and uses
//! the aggressive `CCTI` step 2 on CE (paper §5.2.2).

use lossless_netsim::cchooks::{CcAction, CcEvent, RateController};
use lossless_netsim::{Rate, SimDuration, SimTime};
use tcd_core::CodePoint;

/// Timer id: CCTI decrease.
const TIMER_CCTI: u32 = 0;

/// IB CC parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IbCcConfig {
    /// CCTI increase per BECN (spec default 1; TCD variant 2).
    pub ccti_increase: u16,
    /// Maximum CCTI (CCT size − 1; default 127).
    pub ccti_max: u16,
    /// CCTI decrease period (default 150 µs).
    pub ccti_timer: SimDuration,
    /// Inter-packet-delay unit per CCTI step (default 1/8: CCTI = 8 halves
    /// the rate).
    pub ird_unit: f64,
    /// Rate floor (default 10 Mbps).
    pub min_rate: Rate,
    /// TCD awareness: hold on UE BECNs (default false; true in the TCD
    /// variant).
    pub hold_on_ue: bool,
}

impl IbCcConfig {
    /// Standard IB CC, with the defaults stated on each field.
    pub const STANDARD: IbCcConfig = IbCcConfig {
        ccti_increase: 1,
        ccti_max: 127,
        ccti_timer: SimDuration::from_us(150),
        ird_unit: 1.0 / 8.0,
        min_rate: Rate::from_mbps(10),
        hold_on_ue: false,
    };

    /// The TCD-aware variant of §5.2.2: hold on UE, step 2 on CE.
    pub const TCD: IbCcConfig = IbCcConfig {
        ccti_increase: 2,
        hold_on_ue: true,
        ..IbCcConfig::STANDARD
    };
}

impl Default for IbCcConfig {
    fn default() -> Self {
        IbCcConfig::STANDARD
    }
}

/// An IB CC source channel adapter for one flow (queue pair). It borrows
/// its parameters, as [`Dcqcn`](crate::Dcqcn) does.
#[derive(Debug, Clone)]
pub struct IbCc<'c> {
    cfg: &'c IbCcConfig,
    line_rate: Rate,
    ccti: u16,
    /// Diagnostics; saturating.
    becns: u32,
    holds: u32,
}

// One per registered flow, boxed: keep it at its borrowed-preset size.
const _: () = assert!(std::mem::size_of::<IbCc<'static>>() == 32);

impl<'c> IbCc<'c> {
    /// New controller with parameters `cfg`.
    pub fn new(cfg: &'c IbCcConfig) -> IbCc<'c> {
        assert!(cfg.ccti_increase >= 1);
        assert!(cfg.ird_unit > 0.0);
        IbCc {
            cfg,
            line_rate: Rate::ZERO,
            ccti: 0,
            becns: 0,
            holds: 0,
        }
    }

    /// The current table index.
    pub fn ccti(&self) -> u16 {
        self.ccti
    }

    /// BECNs acted on.
    pub fn becns(&self) -> u32 {
        self.becns
    }

    /// UE holds taken (TCD variant).
    pub fn holds(&self) -> u32 {
        self.holds
    }

    fn current_rate(&self) -> Rate {
        let f = 1.0 + self.cfg.ird_unit * self.ccti as f64;
        self.line_rate.scale(1.0 / f).max(self.cfg.min_rate)
    }
}

impl IbCc<'static> {
    /// Standard IB CC ([`IbCcConfig::STANDARD`]).
    pub fn standard() -> Self {
        IbCc::new(&IbCcConfig::STANDARD)
    }

    /// TCD-aware IB CC ([`IbCcConfig::TCD`]).
    pub fn with_tcd() -> Self {
        IbCc::new(&IbCcConfig::TCD)
    }
}

impl RateController for IbCc<'_> {
    fn start(&mut self, _now: SimTime, line_rate: Rate) -> CcAction {
        self.line_rate = line_rate;
        self.ccti = 0;
        CcAction::timer(TIMER_CCTI, self.cfg.ccti_timer)
    }

    fn on_event(&mut self, _now: SimTime, ev: CcEvent) -> CcAction {
        match ev {
            CcEvent::Feedback { code } => {
                match code {
                    CodePoint::CongestionEncountered => {
                        self.ccti = (self.ccti + self.cfg.ccti_increase).min(self.cfg.ccti_max);
                        self.becns = self.becns.saturating_add(1);
                    }
                    CodePoint::UndeterminedEncountered if self.cfg.hold_on_ue => {
                        self.holds = self.holds.saturating_add(1);
                    }
                    CodePoint::UndeterminedEncountered => {
                        // A legacy CA treats any BECN as congestion.
                        self.ccti = (self.ccti + self.cfg.ccti_increase).min(self.cfg.ccti_max);
                        self.becns = self.becns.saturating_add(1);
                    }
                    _ => {}
                }
                CcAction::none()
            }
            CcEvent::Timer { id: TIMER_CCTI } => {
                self.ccti = self.ccti.saturating_sub(1);
                CcAction::timer(TIMER_CCTI, self.cfg.ccti_timer)
            }
            _ => CcAction::none(),
        }
    }

    fn rate(&self) -> Rate {
        self.current_rate()
    }

    fn name(&self) -> &'static str {
        if self.cfg.hold_on_ue {
            "ibcc+tcd"
        } else {
            "ibcc"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started(cfg: &IbCcConfig) -> IbCc<'_> {
        let mut c = IbCc::new(cfg);
        let _ = c.start(SimTime::ZERO, Rate::from_gbps(40));
        c
    }

    fn becn(c: &mut IbCc<'_>, code: CodePoint) {
        let _ = c.on_event(SimTime::ZERO, CcEvent::Feedback { code });
    }

    #[test]
    fn starts_uncongested_at_line_rate() {
        let c = started(&IbCcConfig::STANDARD);
        assert_eq!(c.ccti(), 0);
        assert_eq!(c.rate(), Rate::from_gbps(40));
    }

    #[test]
    fn becn_throttles_injection() {
        let mut c = started(&IbCcConfig::STANDARD);
        becn(&mut c, CodePoint::CE);
        assert_eq!(c.ccti(), 1);
        assert!(c.rate() < Rate::from_gbps(40));
        // CCTI = 8 halves the rate with the default table.
        for _ in 0..7 {
            becn(&mut c, CodePoint::CE);
        }
        assert_eq!(c.ccti(), 8);
        assert_eq!(c.rate(), Rate::from_gbps(20));
    }

    #[test]
    fn ccti_timer_recovers() {
        let mut c = started(&IbCcConfig::STANDARD);
        for _ in 0..4 {
            becn(&mut c, CodePoint::CE);
        }
        let throttled = c.rate();
        for _ in 0..4 {
            let _ = c.on_event(SimTime::ZERO, CcEvent::Timer { id: TIMER_CCTI });
        }
        assert_eq!(c.ccti(), 0);
        assert!(c.rate() > throttled);
        assert_eq!(c.rate(), Rate::from_gbps(40));
        // Timer below zero saturates.
        let _ = c.on_event(SimTime::ZERO, CcEvent::Timer { id: TIMER_CCTI });
        assert_eq!(c.ccti(), 0);
    }

    #[test]
    fn ccti_saturates_at_max() {
        let cfg = IbCcConfig {
            ccti_max: 10,
            ..IbCcConfig::STANDARD
        };
        let mut c = started(&cfg);
        for _ in 0..100 {
            becn(&mut c, CodePoint::CE);
        }
        assert_eq!(c.ccti(), 10);
        assert!(c.rate() >= IbCcConfig::STANDARD.min_rate);
    }

    #[test]
    fn tcd_variant_holds_on_ue_and_steps_double_on_ce() {
        let mut c = started(&IbCcConfig::TCD);
        becn(&mut c, CodePoint::UE);
        assert_eq!(c.ccti(), 0, "UE must not throttle");
        assert_eq!(c.holds(), 1);
        becn(&mut c, CodePoint::CE);
        assert_eq!(c.ccti(), 2, "TCD step is 2");
    }

    #[test]
    fn legacy_ca_throttles_on_any_becn() {
        let mut c = started(&IbCcConfig::STANDARD);
        becn(&mut c, CodePoint::UE);
        assert_eq!(c.ccti(), 1, "legacy CA cannot distinguish UE");
    }

    #[test]
    fn timer_reschedules_itself() {
        let mut c = started(&IbCcConfig::STANDARD);
        let a = c.on_event(SimTime::ZERO, CcEvent::Timer { id: TIMER_CCTI });
        assert_eq!(
            a.timers().collect::<Vec<_>>(),
            [(TIMER_CCTI, IbCcConfig::STANDARD.ccti_timer)]
        );
    }

    #[test]
    fn names() {
        assert_eq!(IbCc::standard().name(), "ibcc");
        assert_eq!(IbCc::with_tcd().name(), "ibcc+tcd");
    }
}
