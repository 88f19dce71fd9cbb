//! HPCC (Li et al., SIGCOMM 2019) — high-precision congestion control
//! driven by in-band network telemetry, the §7 related-work alternative
//! the paper contrasts TCD with ("both NP-ECN and INT are not independent
//! congestion detection mechanisms in switches").
//!
//! Per acknowledged packet the sender receives each hop's (queue length,
//! cumulative txBytes, timestamp, capacity). It estimates every link's
//! normalized utilization
//!
//! ```text
//! U_j = qlen_j / (B_j · T) + txRate_j / B_j
//! ```
//!
//! where `txRate_j` is differentiated from successive telemetry of the
//! same hop and `T` is the base RTT. The most utilized hop drives a
//! multiplicative-increase/multiplicative-decrease window update around
//! the target utilization `η` (default 0.95), with `maxStage` additive
//! probing rounds, exactly following the HPCC paper's pseudocode; the
//! window converts to a pacing rate as `W/T`.
//!
//! HPCC is included here as an extra baseline: unlike TCD it needs INT
//! support in every switch (`SimConfig::int_telemetry`), and — as the
//! ablation shows — utilization telemetry alone cannot distinguish a
//! paused victim port from a congested one either (a paused port's queue
//! is large while its txRate collapses, driving U up).

use lossless_netsim::cchooks::{CcAction, CcEvent, RateController};
use lossless_netsim::packet::IntHop;
use lossless_netsim::{Rate, SimDuration, SimTime};

/// HPCC parameters (defaults follow the HPCC paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HpccConfig {
    /// Target link utilization η (default 0.95).
    pub eta: f64,
    /// Additive-increase stages before a forced MD (default 5).
    pub max_stage: u32,
    /// Additive increase per update, bytes of window (default 1000, one
    /// MTU).
    pub wai_bytes: f64,
    /// Base RTT `T` used to normalize queues and convert window → rate
    /// (default 50 µs).
    pub base_rtt: SimDuration,
    /// Minimum spacing between window updates (per-RTT granularity;
    /// default 25 µs).
    pub update_interval: SimDuration,
    /// Rate floor (default 10 Mbps).
    pub min_rate: Rate,
}

impl HpccConfig {
    /// HPCC with the defaults stated on each field.
    pub const STANDARD: HpccConfig = HpccConfig {
        eta: 0.95,
        max_stage: 5,
        wai_bytes: 1000.0,
        base_rtt: SimDuration::from_us(50),
        update_interval: SimDuration::from_us(25),
        min_rate: Rate::from_mbps(10),
    };
}

impl Default for HpccConfig {
    fn default() -> Self {
        HpccConfig::STANDARD
    }
}

/// An HPCC sender for one flow. It borrows its parameters, as
/// [`Dcqcn`](crate::Dcqcn) does.
#[derive(Debug, Clone)]
pub struct Hpcc<'c> {
    cfg: &'c HpccConfig,
    line_rate: Rate,
    /// Current window, bytes.
    w: f64,
    /// Reference window for the per-RTT MIMD update.
    wc: f64,
    inc_stage: u32,
    /// Last telemetry per hop index (for txRate differentiation).
    last_int: Vec<IntHop>,
    last_update: Option<SimTime>,
    /// Diagnostics; saturating.
    updates: u32,
}

// One per registered flow, boxed: keep it at its borrowed-preset size.
const _: () = assert!(std::mem::size_of::<Hpcc<'static>>() == 80);

impl<'c> Hpcc<'c> {
    /// New controller with parameters `cfg`.
    pub fn new(cfg: &'c HpccConfig) -> Hpcc<'c> {
        assert!(cfg.eta > 0.0 && cfg.eta <= 1.0);
        assert!(cfg.base_rtt > SimDuration::ZERO);
        Hpcc {
            cfg,
            line_rate: Rate::ZERO,
            w: 0.0,
            wc: 0.0,
            inc_stage: 0,
            last_int: Vec::new(),
            last_update: None,
            updates: 0,
        }
    }

    /// Window updates performed.
    pub fn updates(&self) -> u32 {
        self.updates
    }

    /// The maximum normalized utilization across the path, from fresh
    /// telemetry differentiated against the stored previous records.
    fn max_utilization(&mut self, int: &[IntHop]) -> Option<f64> {
        if int.is_empty() {
            return None;
        }
        let t = self.cfg.base_rtt.as_secs_f64();
        let mut u_max: Option<f64> = None;
        for (j, hop) in int.iter().enumerate() {
            let b = hop.rate.as_bps() as f64 / 8.0; // bytes/s
            let q_term = hop.qlen_bytes as f64 / (b * t);
            let rate_term = match self.last_int.get(j) {
                Some(prev) if hop.ts > prev.ts && hop.tx_bytes >= prev.tx_bytes => {
                    let dt = hop.ts.saturating_since(prev.ts).as_secs_f64();
                    let db = (hop.tx_bytes - prev.tx_bytes) as f64;
                    (db / dt) / b
                }
                // First sample of this hop (or a path change): fall back
                // to the queue term only.
                _ => 0.0,
            };
            let u = q_term + rate_term;
            u_max = Some(u_max.map_or(u, |m: f64| m.max(u)));
        }
        self.last_int = int.to_vec();
        u_max
    }

    fn window_to_rate(&self) -> Rate {
        let bps = self.w * 8.0 / self.cfg.base_rtt.as_secs_f64();
        Rate::from_bps(bps as u64)
            .max(self.cfg.min_rate)
            .min(self.line_rate)
    }
}

impl Hpcc<'static> {
    /// HPCC with [`HpccConfig::STANDARD`].
    pub fn standard() -> Self {
        Hpcc::new(&HpccConfig::STANDARD)
    }
}

impl RateController for Hpcc<'_> {
    fn start(&mut self, _now: SimTime, line_rate: Rate) -> CcAction {
        self.line_rate = line_rate;
        // Start at one BDP: W = line_rate * T.
        self.w = line_rate.as_bps() as f64 / 8.0 * self.cfg.base_rtt.as_secs_f64();
        self.wc = self.w;
        CcAction::none()
    }

    fn on_event(&mut self, now: SimTime, ev: CcEvent) -> CcAction {
        let CcEvent::Ack { int, .. } = ev else {
            return CcAction::none();
        };
        let due = match self.last_update {
            None => true,
            Some(t) => now.saturating_since(t) >= self.cfg.update_interval,
        };
        let Some(u) = self.max_utilization(&int) else {
            return CcAction::none();
        };
        if !due {
            return CcAction::none();
        }
        self.last_update = Some(now);
        self.updates = self.updates.saturating_add(1);
        if u >= self.cfg.eta || self.inc_stage >= self.cfg.max_stage {
            // Multiplicative adjustment around the target utilization.
            self.w = self.wc / (u / self.cfg.eta).max(0.2) + self.cfg.wai_bytes;
            self.wc = self.w;
            self.inc_stage = 0;
        } else {
            // Additive probing stage.
            self.w = self.wc + self.cfg.wai_bytes;
            self.inc_stage += 1;
        }
        // Clamp to [min, line-rate BDP].
        let w_max = self.line_rate.as_bps() as f64 / 8.0 * self.cfg.base_rtt.as_secs_f64();
        self.w = self.w.clamp(1.0, w_max);
        CcAction::none()
    }

    fn rate(&self) -> Rate {
        self.window_to_rate()
    }

    fn name(&self) -> &'static str {
        "hpcc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcd_core::CodePoint;

    fn hop(q: u64, tx: u64, ts_us: u64) -> IntHop {
        IntHop {
            qlen_bytes: q,
            tx_bytes: tx,
            ts: SimTime::from_us(ts_us),
            rate: Rate::from_gbps(40),
        }
    }

    fn ack_at(h: &mut Hpcc<'_>, now_us: u64, int: Vec<IntHop>) {
        let _ = h.on_event(
            SimTime::from_us(now_us),
            CcEvent::Ack {
                rtt: SimDuration::from_us(50),
                code: CodePoint::Capable,
                bytes: 1000,
                int,
            },
        );
    }

    fn started() -> Hpcc<'static> {
        let mut h = Hpcc::standard();
        let _ = h.start(SimTime::ZERO, Rate::from_gbps(40));
        h
    }

    #[test]
    fn starts_at_line_rate_window() {
        let h = started();
        assert_eq!(h.rate(), Rate::from_gbps(40));
    }

    #[test]
    fn overutilized_link_shrinks_the_window() {
        let mut h = started();
        // Two samples of a saturated hop: 40G over 25us = 125000 bytes,
        // with a big standing queue.
        ack_at(&mut h, 0, vec![hop(400_000, 1_000_000, 0)]);
        ack_at(&mut h, 30, vec![hop(400_000, 1_125_000, 25)]);
        assert!(
            h.rate() < Rate::from_gbps(30),
            "must back off: {:?}",
            h.rate()
        );
    }

    #[test]
    fn idle_path_keeps_full_rate() {
        let mut h = started();
        // Low queue, low measured rate: utilization far below eta, so the
        // multiplicative term pushes the window back up after probing.
        for i in 0..20u64 {
            ack_at(&mut h, i * 30, vec![hop(0, i * 1000, (i * 30).max(1) - 1)]);
        }
        assert!(
            h.rate() > Rate::from_gbps(30),
            "should stay fast: {:?}",
            h.rate()
        );
    }

    #[test]
    fn updates_are_gated_per_interval() {
        let mut h = started();
        ack_at(&mut h, 0, vec![hop(0, 0, 0)]);
        let n0 = h.updates();
        ack_at(&mut h, 1, vec![hop(0, 100, 1)]); // within 25us: gated
        assert_eq!(h.updates(), n0);
        ack_at(&mut h, 30, vec![hop(0, 200, 30)]);
        assert_eq!(h.updates(), n0 + 1);
    }

    #[test]
    fn no_telemetry_means_no_reaction() {
        let mut h = started();
        let before = h.rate();
        ack_at(&mut h, 30, vec![]);
        assert_eq!(h.rate(), before);
        assert_eq!(h.updates(), 0);
    }

    #[test]
    fn paused_hop_inflates_utilization() {
        // The §7 point: a *paused* victim port shows a big queue and zero
        // tx progress — HPCC reads that as overutilization and throttles,
        // exactly like a congested port. INT cannot tell them apart.
        let mut h = started();
        ack_at(&mut h, 0, vec![hop(300_000, 500_000, 0)]);
        ack_at(&mut h, 30, vec![hop(300_000, 500_000, 25)]); // no tx progress
        ack_at(&mut h, 60, vec![hop(300_000, 500_000, 55)]);
        ack_at(&mut h, 90, vec![hop(300_000, 500_000, 85)]);
        assert!(
            h.rate() < Rate::from_gbps(20),
            "paused hop must look congested"
        );
    }
}
