//! DCQCN (Zhu et al., SIGCOMM 2015) — the ECN-based rate control deployed
//! in CEE/RoCEv2 networks, and the paper's primary CEE case study (§5.2.1).
//!
//! Reaction point (RP) summary:
//!
//! * On each CNP: remember the target `Rt ← Rc`, cut
//!   `Rc ← Rc·(1 − F·α)` (standard `F = 0.5`, i.e. `Rc(1 − α/2)`), raise
//!   the congestion estimate `α ← (1 − g)·α + g`, and reset the increase
//!   machinery.
//! * α decays by `(1 − g)` every `alpha_timer` without CNPs.
//! * Rate increase runs in stages counted by a timer and a byte counter:
//!   *fast recovery* (`Rc ← (Rt + Rc)/2`) for the first `F` rounds, then
//!   *additive* (`Rt += R_AI`), then *hyper* (`Rt += R_HAI`) increase.
//!
//! The TCD-aware variant differs exactly as the paper prescribes: a CNP
//! carrying **UE** leaves the rate untouched ("keep the flow rate until it
//! becomes uncongested or congested"), and a CNP carrying **CE** uses the
//! aggressive reduction factor 1.2 instead of 0.5. We read "rate reduction
//! factor α from default 0.5 to 1.2" as the multiplier `F` in
//! `Rc ← Rc·(1 − clamp(F·α, 0, 0.9))`, clamped so the rate stays positive
//! (documented in DESIGN.md).

use lossless_netsim::cchooks::{CcAction, CcEvent, RateController};
use lossless_netsim::{Rate, SimDuration, SimTime};
use tcd_core::CodePoint;

/// Timer id: α decay.
const TIMER_ALPHA: u32 = 0;
/// Timer id: rate-increase stage.
const TIMER_INCREASE: u32 = 1;

/// DCQCN parameters. Defaults follow the DCQCN paper's recommended values
/// for 40 Gbps fabrics (also used by the TCD paper's simulations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcqcnConfig {
    /// EWMA gain `g` for α (default 1/256).
    pub g: f64,
    /// α decay timer (default 55 µs).
    pub alpha_timer: SimDuration,
    /// Rate-increase timer (default 300 µs, the Mellanox/ns3-rdma
    /// deployment default; the DCQCN paper's fluid model uses 55 µs but
    /// deployed reaction points recover much more slowly, which is what
    /// sustains the congestion the TCD paper observes).
    pub increase_timer: SimDuration,
    /// Rate-increase byte counter (default 10 MiB).
    pub byte_counter: u64,
    /// Fast-recovery rounds `F` before additive increase (default 5).
    pub fr_stages: u32,
    /// Additive increase step `R_AI` (default 40 Mbps).
    pub rai: Rate,
    /// Hyper increase step `R_HAI` (default 200 Mbps).
    pub rhai: Rate,
    /// Floor for the sending rate (default 10 Mbps).
    pub min_rate: Rate,
    /// Rate reduction factor `F` in `Rc ← Rc·(1 − clamp(F·α, 0, 0.9))`.
    /// 0.5 reproduces the standard `Rc(1 − α/2)`; the TCD variant uses 0.6,
    /// the paper's 1.2 applied to `α/2` (see [`DcqcnConfig::TCD`]).
    pub reduction_factor: f64,
    /// TCD awareness: hold the rate when a CNP carries UE (default false;
    /// true in the TCD variant).
    pub hold_on_ue: bool,
}

impl DcqcnConfig {
    /// Standard DCQCN, with the defaults stated on each field.
    pub const STANDARD: DcqcnConfig = DcqcnConfig {
        g: 1.0 / 256.0,
        alpha_timer: SimDuration::from_us(55),
        increase_timer: SimDuration::from_us(300),
        byte_counter: 10 * 1024 * 1024,
        fr_stages: 5,
        rai: Rate::from_mbps(40),
        rhai: Rate::from_mbps(200),
        min_rate: Rate::from_mbps(10),
        reduction_factor: 0.5,
        hold_on_ue: false,
    };

    /// The TCD-aware variant of §5.2.1: hold on UE, cut aggressively on
    /// CE. The paper says "change the rate reduction factor α from default
    /// 0.5 to 1.2"; we read this as scaling DCQCN's reduction term
    /// `α/2` by 1.2 (maximum cut 50% → 60% of the current rate). The
    /// harsher reading — `Rc(1 − 1.2·α)`, a 90% cut — starves congested
    /// flows at the minimum rate for tens of milliseconds under DCQCN's
    /// slow recovery, which contradicts the paper's "comparable
    /// performance for large flows"; see DESIGN.md.
    pub const TCD: DcqcnConfig = DcqcnConfig {
        reduction_factor: 0.6,
        hold_on_ue: true,
        ..DcqcnConfig::STANDARD
    };
}

impl Default for DcqcnConfig {
    fn default() -> Self {
        DcqcnConfig::STANDARD
    }
}

/// A DCQCN reaction point for one flow. It borrows its parameters: a
/// simulator's controllers share one preset instead of each holding a copy.
#[derive(Debug, Clone)]
pub struct Dcqcn<'c> {
    cfg: &'c DcqcnConfig,
    line_rate: Rate,
    /// Current rate `Rc`.
    rc: Rate,
    /// Target rate `Rt`.
    rt: Rate,
    alpha: f64,
    /// CNP seen since the last α-timer expiry.
    cnp_since_alpha: bool,
    /// Bytes sent since the last byte-counter stage.
    bytes: u64,
    /// Increase stages driven by the byte counter / timer.
    byte_stage: u32,
    time_stage: u32,
    /// Counts CNPs processed (diagnostics; saturating).
    cuts: u32,
    holds: u32,
}

// One per registered flow, boxed: keep it at its borrowed-preset size.
const _: () = assert!(std::mem::size_of::<Dcqcn<'static>>() == 72);

impl<'c> Dcqcn<'c> {
    /// New controller with parameters `cfg`.
    pub fn new(cfg: &'c DcqcnConfig) -> Dcqcn<'c> {
        assert!(cfg.g > 0.0 && cfg.g < 1.0);
        assert!(cfg.reduction_factor > 0.0);
        Dcqcn {
            cfg,
            line_rate: Rate::ZERO,
            rc: Rate::ZERO,
            rt: Rate::ZERO,
            alpha: 1.0,
            cnp_since_alpha: false,
            bytes: 0,
            byte_stage: 0,
            time_stage: 0,
            cuts: 0,
            holds: 0,
        }
    }

    /// Current α estimate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of multiplicative cuts taken.
    pub fn cuts(&self) -> u32 {
        self.cuts
    }

    /// Number of UE notifications held (TCD variant only).
    pub fn holds(&self) -> u32 {
        self.holds
    }

    fn clamp(&self, r: Rate) -> Rate {
        r.max(self.cfg.min_rate).min(self.line_rate)
    }

    fn cut(&mut self) {
        self.rt = self.rc;
        let f = (self.cfg.reduction_factor * self.alpha).clamp(0.0, 0.9);
        self.rc = self.clamp(self.rc.scale(1.0 - f));
        self.alpha = (1.0 - self.cfg.g) * self.alpha + self.cfg.g;
        self.cnp_since_alpha = true;
        self.byte_stage = 0;
        self.time_stage = 0;
        self.bytes = 0;
        self.cuts = self.cuts.saturating_add(1);
    }

    /// (Re)arm both timers — at flow start and after every rate cut.
    fn restart_timers(&self) -> CcAction {
        CcAction::timers2(
            (TIMER_ALPHA, self.cfg.alpha_timer),
            (TIMER_INCREASE, self.cfg.increase_timer),
        )
    }

    fn increase(&mut self) {
        let fr = self.cfg.fr_stages;
        if self.byte_stage >= fr && self.time_stage >= fr {
            // Hyper increase.
            self.rt = self.rt.saturating_add(self.cfg.rhai).min(self.line_rate);
        } else if self.byte_stage >= fr || self.time_stage >= fr {
            // Additive increase.
            self.rt = self.rt.saturating_add(self.cfg.rai).min(self.line_rate);
        }
        // Fast recovery (and every stage): move halfway to the target.
        self.rc = self.clamp(Rate::from_bps((self.rt.as_bps() + self.rc.as_bps()) / 2));
    }
}

impl Dcqcn<'static> {
    /// Standard DCQCN ([`DcqcnConfig::STANDARD`]).
    pub fn standard() -> Self {
        Dcqcn::new(&DcqcnConfig::STANDARD)
    }

    /// TCD-aware DCQCN ([`DcqcnConfig::TCD`]).
    pub fn with_tcd() -> Self {
        Dcqcn::new(&DcqcnConfig::TCD)
    }
}

impl RateController for Dcqcn<'_> {
    fn start(&mut self, _now: SimTime, line_rate: Rate) -> CcAction {
        self.line_rate = line_rate;
        self.rc = line_rate;
        self.rt = line_rate;
        self.restart_timers()
    }

    fn on_event(&mut self, _now: SimTime, ev: CcEvent) -> CcAction {
        match ev {
            CcEvent::Feedback { code } => {
                match code {
                    CodePoint::CongestionEncountered => {
                        self.cut();
                        // Restart both timers after a cut.
                        self.restart_timers()
                    }
                    CodePoint::UndeterminedEncountered if self.cfg.hold_on_ue => {
                        // TCD: an undetermined flow keeps its rate.
                        self.holds = self.holds.saturating_add(1);
                        CcAction::none()
                    }
                    CodePoint::UndeterminedEncountered => {
                        // A non-TCD-aware RP treats any congestion
                        // notification as CE (it cannot see UE).
                        self.cut();
                        self.restart_timers()
                    }
                    _ => CcAction::none(),
                }
            }
            CcEvent::Timer { id: TIMER_ALPHA } => {
                if !self.cnp_since_alpha {
                    self.alpha *= 1.0 - self.cfg.g;
                }
                self.cnp_since_alpha = false;
                CcAction::timer(TIMER_ALPHA, self.cfg.alpha_timer)
            }
            CcEvent::Timer { id: TIMER_INCREASE } => {
                self.time_stage += 1;
                self.increase();
                CcAction::timer(TIMER_INCREASE, self.cfg.increase_timer)
            }
            CcEvent::Timer { .. } => CcAction::none(),
            CcEvent::Sent { bytes } => {
                self.bytes += bytes;
                if self.bytes >= self.cfg.byte_counter {
                    self.bytes -= self.cfg.byte_counter;
                    self.byte_stage += 1;
                    self.increase();
                }
                CcAction::none()
            }
            CcEvent::Ack { .. } => CcAction::none(),
        }
    }

    fn rate(&self) -> Rate {
        self.rc
    }

    fn name(&self) -> &'static str {
        if self.cfg.hold_on_ue {
            "dcqcn+tcd"
        } else {
            "dcqcn"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started(cfg: &DcqcnConfig) -> Dcqcn<'_> {
        let mut d = Dcqcn::new(cfg);
        let _ = d.start(SimTime::ZERO, Rate::from_gbps(40));
        d
    }

    fn cnp(d: &mut Dcqcn<'_>, code: CodePoint) {
        let _ = d.on_event(SimTime::ZERO, CcEvent::Feedback { code });
    }

    #[test]
    fn starts_at_line_rate_with_timers() {
        let mut d = Dcqcn::standard();
        let a = d.start(SimTime::ZERO, Rate::from_gbps(40));
        assert_eq!(d.rate(), Rate::from_gbps(40));
        assert_eq!(a.timers().count(), 2);
    }

    #[test]
    fn first_cnp_halves_rate() {
        // α starts at 1, so the first cut is Rc(1 − 0.5) = Rc/2.
        let mut d = started(&DcqcnConfig::STANDARD);
        cnp(&mut d, CodePoint::CE);
        assert_eq!(d.rate(), Rate::from_gbps(20));
        assert_eq!(d.cuts(), 1);
    }

    #[test]
    fn repeated_cnps_decrease_geometrically() {
        let mut d = started(&DcqcnConfig::STANDARD);
        let mut last = d.rate();
        for _ in 0..10 {
            cnp(&mut d, CodePoint::CE);
            assert!(d.rate() < last);
            last = d.rate();
        }
        assert!(d.rate() >= DcqcnConfig::STANDARD.min_rate);
    }

    #[test]
    fn alpha_decays_without_cnps() {
        let mut d = started(&DcqcnConfig::STANDARD);
        cnp(&mut d, CodePoint::CE);
        let a0 = d.alpha();
        // First alpha-timer expiry after the CNP: flag set, no decay.
        let _ = d.on_event(SimTime::ZERO, CcEvent::Timer { id: TIMER_ALPHA });
        assert_eq!(d.alpha(), a0);
        // Subsequent expiries decay.
        let _ = d.on_event(SimTime::ZERO, CcEvent::Timer { id: TIMER_ALPHA });
        assert!(d.alpha() < a0);
    }

    #[test]
    fn fast_recovery_moves_halfway_to_target() {
        let mut d = started(&DcqcnConfig::STANDARD);
        cnp(&mut d, CodePoint::CE); // Rt = 40G, Rc = 20G
        let _ = d.on_event(SimTime::ZERO, CcEvent::Timer { id: TIMER_INCREASE });
        assert_eq!(d.rate(), Rate::from_gbps(30));
        let _ = d.on_event(SimTime::ZERO, CcEvent::Timer { id: TIMER_INCREASE });
        assert_eq!(d.rate(), Rate::from_gbps(35));
    }

    #[test]
    fn additive_then_hyper_increase_raise_target() {
        let cfg = DcqcnConfig::STANDARD;
        let mut d = started(&cfg);
        cnp(&mut d, CodePoint::CE);
        // Exhaust fast recovery via the timer.
        for _ in 0..cfg.fr_stages {
            let _ = d.on_event(SimTime::ZERO, CcEvent::Timer { id: TIMER_INCREASE });
        }
        let r_fr = d.rate();
        // Next stage: additive increase (timer stage >= F, byte stage < F).
        let _ = d.on_event(SimTime::ZERO, CcEvent::Timer { id: TIMER_INCREASE });
        assert!(d.rate() > r_fr);
        // Drive the byte counter to reach hyper increase.
        for _ in 0..cfg.fr_stages {
            let _ = d.on_event(
                SimTime::ZERO,
                CcEvent::Sent {
                    bytes: cfg.byte_counter,
                },
            );
        }
        let before = d.rate();
        let _ = d.on_event(SimTime::ZERO, CcEvent::Timer { id: TIMER_INCREASE });
        assert!(d.rate() > before);
    }

    #[test]
    fn rate_never_exceeds_line_rate() {
        let mut d = started(&DcqcnConfig::STANDARD);
        for _ in 0..10_000 {
            let _ = d.on_event(SimTime::ZERO, CcEvent::Timer { id: TIMER_INCREASE });
        }
        assert!(d.rate() <= Rate::from_gbps(40));
        assert_eq!(d.rate(), Rate::from_gbps(40), "converges back to line rate");
    }

    #[test]
    fn tcd_variant_holds_on_ue() {
        let mut d = started(&DcqcnConfig::TCD);
        cnp(&mut d, CodePoint::UE);
        assert_eq!(d.rate(), Rate::from_gbps(40), "UE must not cut");
        assert_eq!(d.holds(), 1);
        assert_eq!(d.cuts(), 0);
    }

    #[test]
    fn tcd_variant_cuts_harder_on_ce() {
        let mut std = started(&DcqcnConfig::STANDARD);
        let mut tcd = started(&DcqcnConfig::TCD);
        cnp(&mut std, CodePoint::CE);
        cnp(&mut tcd, CodePoint::CE);
        assert!(tcd.rate() < std.rate(), "factor 0.6 cuts deeper than 0.5");
        // With α = 1 the TCD cut is 60%: 40 G → 16 Gbps (f64 rounding).
        let diff = tcd.rate().as_bps().abs_diff(Rate::from_gbps(16).as_bps());
        assert!(diff <= 8, "expected ~16 Gbps, got {:?}", tcd.rate());
    }

    #[test]
    fn non_tcd_rp_treats_ue_as_ce() {
        // A legacy RP cannot distinguish: any CNP cuts.
        let mut d = started(&DcqcnConfig::STANDARD);
        cnp(&mut d, CodePoint::UE);
        assert_eq!(d.cuts(), 1);
    }

    #[test]
    fn rate_floor_is_respected() {
        let mut d = started(&DcqcnConfig::STANDARD);
        for _ in 0..200 {
            cnp(&mut d, CodePoint::CE);
        }
        assert_eq!(d.rate(), DcqcnConfig::STANDARD.min_rate);
    }

    #[test]
    fn names() {
        assert_eq!(Dcqcn::standard().name(), "dcqcn");
        assert_eq!(Dcqcn::with_tcd().name(), "dcqcn+tcd");
    }
}
