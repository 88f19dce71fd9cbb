//! Link rates and exact serialization arithmetic.
//!
//! A [`Rate`] is stored in bits per second. The conversion between bytes and
//! picoseconds is done in 128-bit integer arithmetic so that serialization
//! times are exact for every link speed used in the paper (10, 20, 40, 100
//! and 200 Gbps) — a byte at 40 Gbps is exactly 200 ps.

use crate::time::SimDuration;
use core::fmt;

/// A data rate in bits per second.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rate(pub u64);

impl Rate {
    /// Zero rate (a fully throttled sender).
    pub const ZERO: Rate = Rate(0);

    /// Construct from bits per second.
    #[inline]
    pub const fn from_bps(bps: u64) -> Self {
        Rate(bps)
    }

    /// Construct from megabits per second.
    #[inline]
    pub const fn from_mbps(mbps: u64) -> Self {
        Rate(mbps * 1_000_000)
    }

    /// Construct from gigabits per second.
    #[inline]
    pub const fn from_gbps(gbps: u64) -> Self {
        Rate(gbps * 1_000_000_000)
    }

    /// Rate in bits per second.
    #[inline]
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Rate as fractional Gbit/s (for reporting only).
    #[inline]
    pub fn as_gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Exact time to serialize `bytes` at this rate.
    ///
    /// `t = bytes * 8 / rate`, computed as `bytes * 8e12 / bps` picoseconds
    /// in 128-bit arithmetic (round up, so a transmission never finishes
    /// early). Panics on a zero rate — callers must not serialize at 0 bps.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "a >2.3 MB frame at >=1 bps stays far below 2^64 ps; the expect documents the slow-path bound"
    )]
    pub fn serialize_time(self, bytes: u64) -> SimDuration {
        assert!(self.0 > 0, "cannot serialize at 0 bps");
        // Fast path: every frame-sized count fits the numerator in u64
        // (bytes < 2^64 / 8e12 ≈ 2.3 MB), avoiding a 128-bit division on
        // the per-packet path. Both branches compute the identical
        // ceiling quotient.
        if bytes < u64::MAX / 8_000_000_000_000 {
            return SimDuration((bytes * 8_000_000_000_000).div_ceil(self.0));
        }
        let num = (bytes as u128) * 8 * 1_000_000_000_000u128;
        let ps = num.div_ceil(self.0 as u128);
        SimDuration(u64::try_from(ps).expect("serialization time overflows u64 ps"))
    }

    /// Number of whole bytes this rate delivers in `d`.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "bits/8e12 fits u64 for any delay within the event queue's 2^58 ps far-wheel horizon at any rate up to 500 Tbps"
    )]
    pub fn bytes_in(self, d: SimDuration) -> u64 {
        let bits = (self.0 as u128) * (d.as_ps() as u128) / 1_000_000_000_000u128;
        u64::try_from(bits / 8).expect("byte count overflows u64")
    }

    /// Multiply by a non-negative factor, saturating at `u64::MAX` bps.
    /// Used by congestion controllers for multiplicative rate updates.
    #[inline]
    pub fn scale(self, factor: f64) -> Rate {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "scale factor must be finite and >= 0"
        );
        let v = self.0 as f64 * factor;
        if v >= u64::MAX as f64 {
            Rate(u64::MAX)
        } else {
            Rate(v as u64)
        }
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Rate) -> Rate {
        Rate(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Rate) -> Rate {
        Rate(self.0.saturating_sub(rhs.0))
    }

    /// The smaller of two rates.
    #[inline]
    pub fn min(self, rhs: Rate) -> Rate {
        Rate(self.0.min(rhs.0))
    }

    /// The larger of two rates.
    #[inline]
    pub fn max(self, rhs: Rate) -> Rate {
        Rate(self.0.max(rhs.0))
    }
}

impl fmt::Debug for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}Gbps", self.as_gbps_f64())
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Standard Ethernet-ish MTU used throughout the paper's experiments (§4.3
/// uses MTU = 1000 B in the `max(T_on)` examples).
pub const MTU_BYTES: u64 = 1000;

/// Size of a PFC PAUSE/RESUME control frame (64-byte minimum Ethernet frame).
pub const CTRL_FRAME_BYTES: u64 = 64;

/// Size of an InfiniBand flow-control (FCCL) message.
pub const FCCL_FRAME_BYTES: u64 = 64;

/// InfiniBand credit block granularity: credits are counted in 64-byte
/// blocks (IB spec vol. 1, §7.9).
pub const IB_CREDIT_BLOCK_BYTES: u64 = 64;

/// Convert a byte count to IB credit blocks, rounding up (a partial block
/// consumes a whole credit).
#[inline]
pub const fn bytes_to_blocks(bytes: u64) -> u64 {
    bytes.div_ceil(IB_CREDIT_BLOCK_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialize_time_is_exact_at_paper_speeds() {
        // 1 byte at 40 Gbps = 200 ps exactly.
        assert_eq!(Rate::from_gbps(40).serialize_time(1).as_ps(), 200);
        // 1000-byte MTU at 40 Gbps = 200 ns.
        assert_eq!(
            Rate::from_gbps(40).serialize_time(MTU_BYTES),
            SimDuration::from_ns(200)
        );
        // 1000 bytes at 10 Gbps = 800 ns.
        assert_eq!(
            Rate::from_gbps(10).serialize_time(1000),
            SimDuration::from_ns(800)
        );
        // 1000 bytes at 100 Gbps = 80 ns.
        assert_eq!(
            Rate::from_gbps(100).serialize_time(1000),
            SimDuration::from_ns(80)
        );
        // 1000 bytes at 200 Gbps = 40 ns.
        assert_eq!(
            Rate::from_gbps(200).serialize_time(1000),
            SimDuration::from_ns(40)
        );
    }

    #[test]
    fn serialize_time_rounds_up() {
        // 1 byte at 3 bps: 8/3 s -> ceil in ps.
        let d = Rate::from_bps(3).serialize_time(1);
        assert_eq!(d.as_ps(), 2_666_666_666_667);
    }

    #[test]
    fn bytes_in_inverts_serialize_time() {
        let r = Rate::from_gbps(40);
        let d = r.serialize_time(64_000);
        assert_eq!(r.bytes_in(d), 64_000);
    }

    #[test]
    fn scale_and_saturate() {
        let r = Rate::from_gbps(40);
        assert_eq!(r.scale(0.5), Rate::from_gbps(20));
        assert_eq!(r.scale(0.0), Rate::ZERO);
        assert_eq!(Rate(u64::MAX).scale(2.0), Rate(u64::MAX));
        assert_eq!(r.saturating_sub(Rate::from_gbps(50)), Rate::ZERO);
        assert_eq!(r.saturating_add(Rate::from_gbps(10)), Rate::from_gbps(50));
    }

    #[test]
    fn min_max() {
        let a = Rate::from_gbps(10);
        let b = Rate::from_gbps(40);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn block_conversion_rounds_up() {
        assert_eq!(bytes_to_blocks(0), 0);
        assert_eq!(bytes_to_blocks(1), 1);
        assert_eq!(bytes_to_blocks(64), 1);
        assert_eq!(bytes_to_blocks(65), 2);
        assert_eq!(bytes_to_blocks(1000), 16);
    }

    #[test]
    #[should_panic]
    fn zero_rate_serialization_panics() {
        let _ = Rate::ZERO.serialize_time(1);
    }
}
