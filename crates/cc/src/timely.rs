//! TIMELY (Mittal et al., SIGCOMM 2015) — RTT-gradient rate control, the
//! paper's delay-based case study (§5.2.3).
//!
//! Per acknowledged packet the controller computes the smoothed RTT
//! difference, normalizes it by the minimum RTT, and:
//!
//! * `rtt < T_low` → additive increase (no gradient reaction);
//! * `rtt > T_high` → multiplicative decrease
//!   `rate ← rate·(1 − β·(1 − T_high/rtt))`;
//! * otherwise: gradient ≤ 0 → additive increase (×N in HAI mode after
//!   five consecutive non-positive-gradient completions), gradient > 0 →
//!   `rate ← rate·(1 − β·min(gradient, 1))`.
//!
//! The problem in lossless networks (paper §5.2.3): RTT inflation caused by
//! PAUSE frames is indistinguishable from congestion, so TIMELY throttles
//! victim flows. The TCD-aware variant uses the UE code point echoed in
//! ACKs: when the gradient is positive but the packet only encountered
//! undetermined ports (`T_low < rtt < T_high` and UE), the sender holds its
//! rate; CE-marked decreases use the aggressive β = 1.6 instead of 0.8.

use lossless_netsim::cchooks::{CcAction, CcEvent, RateController};
use lossless_netsim::{Rate, SimDuration, SimTime};
use tcd_core::CodePoint;

/// TIMELY parameters; defaults follow the TIMELY paper, with the additive
/// step scaled for 40 Gbps fabrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelyConfig {
    /// EWMA weight for the RTT-difference filter (paper: α = 0.875 applied
    /// as `d ← (1 − α)·d + α·new` — i.e. heavily weighting the new sample).
    pub ewma_alpha: f64,
    /// Additive increase step δ (default 40 Mbps).
    pub delta: Rate,
    /// Multiplicative decrease factor β (default 0.8).
    pub beta: f64,
    /// β used when the acknowledged packet carries CE — a genuinely
    /// congested flow (TCD variant: 1.6, clamped so the rate stays
    /// positive). Equal to `beta` in standard TIMELY.
    pub beta_ce: f64,
    /// Below this RTT, always increase (default 50 µs).
    pub t_low: SimDuration,
    /// Above this RTT, always decrease (default 500 µs).
    pub t_high: SimDuration,
    /// The propagation-level minimum RTT used to normalize gradients
    /// (default 20 µs).
    pub min_rtt: SimDuration,
    /// Consecutive non-positive-gradient completions before hyper-active
    /// increase (default 5).
    pub hai_threshold: u32,
    /// Rate floor (default 10 Mbps).
    pub min_rate: Rate,
    /// Minimum spacing between rate updates (default 25 µs ≈ one base
    /// RTT). TIMELY reacts per completion event, not per packet; with
    /// per-MTU ACKs an ungated additive increase would erase every
    /// decrease within microseconds.
    pub update_interval: SimDuration,
    /// TCD awareness: hold when the ACK echoes UE and the gradient is
    /// positive within the (T_low, T_high) band (default false; true in
    /// the TCD variant).
    pub hold_on_ue: bool,
}

impl TimelyConfig {
    /// Standard TIMELY, with the defaults stated on each field.
    pub const STANDARD: TimelyConfig = TimelyConfig {
        ewma_alpha: 0.875,
        delta: Rate::from_mbps(40),
        beta: 0.8,
        beta_ce: 0.8,
        t_low: SimDuration::from_us(50),
        t_high: SimDuration::from_us(500),
        min_rtt: SimDuration::from_us(20),
        hai_threshold: 5,
        min_rate: Rate::from_mbps(10),
        update_interval: SimDuration::from_us(25),
        hold_on_ue: false,
    };

    /// The TCD-aware variant of §5.2.3: hold when UE with a positive
    /// gradient; cut with the aggressive β only on CE (the real
    /// contributors), keeping the standard β for unmarked/pause-inflated
    /// RTT samples.
    pub const TCD: TimelyConfig = TimelyConfig {
        beta_ce: 1.6,
        hold_on_ue: true,
        ..TimelyConfig::STANDARD
    };
}

impl Default for TimelyConfig {
    fn default() -> Self {
        TimelyConfig::STANDARD
    }
}

/// A TIMELY controller for one flow. It borrows its parameters, as
/// [`Dcqcn`](crate::Dcqcn) does.
#[derive(Debug, Clone)]
pub struct Timely<'c> {
    cfg: &'c TimelyConfig,
    line_rate: Rate,
    rate: Rate,
    prev_rtt: Option<SimDuration>,
    /// Smoothed RTT difference, in seconds (may be negative).
    rtt_diff: f64,
    /// Consecutive completions with non-positive gradient.
    neg_gradient_streak: u32,
    /// Last time the rate was updated (per-RTT gating).
    last_update: Option<SimTime>,
    /// Diagnostics; saturating.
    decreases: u32,
    holds: u32,
}

// One per registered flow, boxed: keep it at its borrowed-preset size.
const _: () = assert!(std::mem::size_of::<Timely<'static>>() == 80);

impl<'c> Timely<'c> {
    /// New controller with parameters `cfg`.
    pub fn new(cfg: &'c TimelyConfig) -> Timely<'c> {
        assert!(cfg.ewma_alpha > 0.0 && cfg.ewma_alpha <= 1.0);
        assert!(cfg.t_low < cfg.t_high);
        assert!(cfg.min_rtt > SimDuration::ZERO);
        Timely {
            cfg,
            line_rate: Rate::ZERO,
            rate: Rate::ZERO,
            prev_rtt: None,
            rtt_diff: 0.0,
            neg_gradient_streak: 0,
            last_update: None,
            decreases: 0,
            holds: 0,
        }
    }

    /// Multiplicative decreases taken.
    pub fn decreases(&self) -> u32 {
        self.decreases
    }

    /// UE holds taken (TCD variant).
    pub fn holds(&self) -> u32 {
        self.holds
    }

    fn clamp(&self, r: Rate) -> Rate {
        r.max(self.cfg.min_rate).min(self.line_rate)
    }

    fn on_rtt(&mut self, rtt: SimDuration, code: CodePoint) {
        // Update the gradient filter.
        let new_diff = match self.prev_rtt {
            Some(prev) => rtt.as_secs_f64() - prev.as_secs_f64(),
            None => 0.0,
        };
        self.prev_rtt = Some(rtt);
        let a = self.cfg.ewma_alpha;
        self.rtt_diff = (1.0 - a) * self.rtt_diff + a * new_diff;
        let gradient = self.rtt_diff / self.cfg.min_rtt.as_secs_f64();

        let beta = if code.is_ce() {
            self.cfg.beta_ce
        } else {
            self.cfg.beta
        };
        if rtt < self.cfg.t_low {
            self.additive_increase(1);
            return;
        }
        if rtt > self.cfg.t_high {
            // RTT far too high: decrease regardless of gradient, bounded
            // so the factor stays in (0, 1).
            let f = beta * (1.0 - self.cfg.t_high.as_secs_f64() / rtt.as_secs_f64());
            self.decrease(f);
            return;
        }
        if gradient <= 0.0 {
            self.neg_gradient_streak += 1;
            let n = if self.neg_gradient_streak >= self.cfg.hai_threshold {
                5
            } else {
                1
            };
            self.additive_increase(n);
        } else {
            // Positive gradient inside the band: this is where PAUSEs and
            // congestion are indistinguishable by delay alone.
            if self.cfg.hold_on_ue && code.is_ue() {
                self.holds = self.holds.saturating_add(1);
                self.neg_gradient_streak = 0;
                return;
            }
            let f = beta * gradient.min(1.0);
            self.decrease(f);
        }
    }

    fn additive_increase(&mut self, n: u64) {
        self.rate = self.clamp(
            self.rate
                .saturating_add(Rate::from_bps(self.cfg.delta.as_bps() * n)),
        );
    }

    fn decrease(&mut self, factor: f64) {
        let f = factor.clamp(0.0, 0.9);
        self.rate = self.clamp(self.rate.scale(1.0 - f));
        self.neg_gradient_streak = 0;
        self.decreases = self.decreases.saturating_add(1);
    }
}

impl Timely<'static> {
    /// Standard TIMELY ([`TimelyConfig::STANDARD`]).
    pub fn standard() -> Self {
        Timely::new(&TimelyConfig::STANDARD)
    }

    /// TCD-aware TIMELY ([`TimelyConfig::TCD`]).
    pub fn with_tcd() -> Self {
        Timely::new(&TimelyConfig::TCD)
    }
}

impl RateController for Timely<'_> {
    fn start(&mut self, _now: SimTime, line_rate: Rate) -> CcAction {
        self.line_rate = line_rate;
        self.rate = line_rate;
        CcAction::none()
    }

    fn on_event(&mut self, now: SimTime, ev: CcEvent) -> CcAction {
        if let CcEvent::Ack { rtt, code, .. } = ev {
            let due = match self.last_update {
                None => true,
                Some(t) => now.saturating_since(t) >= self.cfg.update_interval,
            };
            if due {
                self.last_update = Some(now);
                self.on_rtt(rtt, code);
            }
        }
        CcAction::none()
    }

    fn rate(&self) -> Rate {
        self.rate
    }

    fn name(&self) -> &'static str {
        if self.cfg.hold_on_ue {
            "timely+tcd"
        } else {
            "timely"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started(cfg: &TimelyConfig) -> Timely<'_> {
        let mut t = Timely::new(cfg);
        let _ = t.start(SimTime::ZERO, Rate::from_gbps(40));
        t
    }

    /// Deliver an ACK, advancing a private clock far enough that the
    /// per-RTT update gate never suppresses it.
    fn ack(t: &mut Timely<'_>, rtt_us: u64, code: CodePoint) {
        let now = SimTime::from_us(
            t.last_update
                .map(|u| u.as_ps() / 1_000_000 + 30)
                .unwrap_or(0),
        );
        let _ = t.on_event(
            now,
            CcEvent::Ack {
                rtt: SimDuration::from_us(rtt_us),
                code,
                bytes: 1000,
                int: vec![],
            },
        );
    }

    #[test]
    fn updates_are_gated_per_rtt() {
        let mut t = started(&TimelyConfig::STANDARD);
        // Two high-RTT acks within the update interval: only one decrease.
        let _ = t.on_event(
            SimTime::from_us(1),
            CcEvent::Ack {
                rtt: SimDuration::from_us(1000),
                code: CodePoint::Capable,
                bytes: 1000,
                int: vec![],
            },
        );
        let _ = t.on_event(
            SimTime::from_us(2),
            CcEvent::Ack {
                rtt: SimDuration::from_us(1000),
                code: CodePoint::Capable,
                bytes: 1000,
                int: vec![],
            },
        );
        assert_eq!(t.decreases(), 1);
        // After the interval, updates resume.
        let _ = t.on_event(
            SimTime::from_us(40),
            CcEvent::Ack {
                rtt: SimDuration::from_us(1000),
                code: CodePoint::Capable,
                bytes: 1000,
                int: vec![],
            },
        );
        assert_eq!(t.decreases(), 2);
    }

    #[test]
    fn starts_at_line_rate() {
        let t = started(&TimelyConfig::STANDARD);
        assert_eq!(t.rate(), Rate::from_gbps(40));
    }

    #[test]
    fn low_rtt_increases_rate() {
        let mut t = started(&TimelyConfig::STANDARD);
        // First bring the rate down so increases are visible.
        ack(&mut t, 1000, CodePoint::Capable);
        let r0 = t.rate();
        ack(&mut t, 10, CodePoint::Capable);
        assert!(t.rate() > r0);
    }

    #[test]
    fn rtt_above_thigh_decreases() {
        let mut t = started(&TimelyConfig::STANDARD);
        ack(&mut t, 1000, CodePoint::Capable);
        assert!(t.rate() < Rate::from_gbps(40));
        assert_eq!(t.decreases(), 1);
    }

    #[test]
    fn rising_rtt_in_band_decreases() {
        let mut t = started(&TimelyConfig::STANDARD);
        // RTTs rising within (T_low, T_high): positive gradient.
        ack(&mut t, 60, CodePoint::Capable);
        ack(&mut t, 120, CodePoint::Capable);
        ack(&mut t, 200, CodePoint::Capable);
        assert!(t.decreases() >= 1, "positive gradient must decrease");
        assert!(t.rate() < Rate::from_gbps(40));
    }

    #[test]
    fn falling_rtt_in_band_increases() {
        let mut t = started(&TimelyConfig::STANDARD);
        ack(&mut t, 1000, CodePoint::Capable); // come off the ceiling
        let r0 = t.rate();
        ack(&mut t, 300, CodePoint::Capable);
        ack(&mut t, 200, CodePoint::Capable);
        ack(&mut t, 100, CodePoint::Capable);
        assert!(t.rate() > r0, "negative gradient must increase");
    }

    #[test]
    fn hai_kicks_in_after_streak() {
        let mut t = started(&TimelyConfig::STANDARD);
        ack(&mut t, 1000, CodePoint::Capable);
        let base = t.rate();
        // Feed a long falling-RTT streak; the later steps must be larger
        // (HAI: 5× delta) than the early ones.
        let mut increments = Vec::new();
        let mut prev = base;
        for i in 0..10 {
            ack(&mut t, 400 - i * 20, CodePoint::Capable);
            increments.push(t.rate().as_bps() - prev.as_bps());
            prev = t.rate();
        }
        assert!(increments.last().unwrap() > increments.first().unwrap());
    }

    #[test]
    fn tcd_holds_on_ue_with_positive_gradient() {
        let mut t = started(&TimelyConfig::TCD);
        ack(&mut t, 60, CodePoint::UE);
        let r = t.rate();
        ack(&mut t, 150, CodePoint::UE); // rising RTT but only UE
        ack(&mut t, 250, CodePoint::UE);
        assert_eq!(t.rate(), r, "UE + positive gradient must hold");
        assert!(t.holds() >= 1);
    }

    #[test]
    fn tcd_still_decreases_on_ce() {
        let mut t = started(&TimelyConfig::TCD);
        ack(&mut t, 60, CodePoint::CE);
        ack(&mut t, 150, CodePoint::CE);
        ack(&mut t, 250, CodePoint::CE);
        assert!(t.decreases() >= 1, "CE must still decrease");
    }

    #[test]
    fn tcd_beta_cuts_harder() {
        let mut std = started(&TimelyConfig::STANDARD);
        let mut tcd = started(&TimelyConfig::TCD);
        for t in [&mut std, &mut tcd] {
            ack(t, 60, CodePoint::CE);
            ack(t, 150, CodePoint::CE);
            ack(t, 300, CodePoint::CE);
        }
        assert!(tcd.rate() < std.rate());
    }

    #[test]
    fn plain_timely_throttles_victims_on_pause_inflation() {
        // The §5.2.3 flaw: UE-marked (pause-inflated) RTTs still reduce a
        // non-TCD TIMELY.
        let mut t = started(&TimelyConfig::STANDARD);
        ack(&mut t, 60, CodePoint::UE);
        ack(&mut t, 200, CodePoint::UE);
        ack(&mut t, 400, CodePoint::UE);
        assert!(t.decreases() >= 1);
    }

    #[test]
    fn rate_floor_respected() {
        let mut t = started(&TimelyConfig::STANDARD);
        for _ in 0..500 {
            ack(&mut t, 5000, CodePoint::Capable);
        }
        assert_eq!(t.rate(), TimelyConfig::STANDARD.min_rate);
    }

    #[test]
    fn names() {
        assert_eq!(Timely::standard().name(), "timely");
        assert_eq!(Timely::with_tcd().name(), "timely+tcd");
    }
}
