//! Timeseries helpers: turn the simulator's cumulative port samples into
//! sending-rate series (the Figures 3/4/12/13/20 plots).

use lossless_flowctl::SimTime;

/// One point of a rate series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePoint {
    /// Interval end time.
    pub t: SimTime,
    /// Average sending rate over the preceding interval, in Gbit/s.
    pub gbps: f64,
}

/// Differentiate cumulative `(t, tx_bytes)` samples into per-interval
/// rates. Consecutive samples that share a timestamp (a sample taken at an
/// exact `trace_interval` boundary is emitted for both the closing and the
/// opening interval) are coalesced to the *last* cumulative value first, so
/// the boundary sample is neither double-counted nor silently dropped.
pub fn rate_series(samples: &[(SimTime, u64)]) -> Vec<RatePoint> {
    let mut dedup: Vec<(SimTime, u64)> = Vec::with_capacity(samples.len());
    for &(t, b) in samples {
        match dedup.last_mut() {
            Some(last) if last.0 == t => last.1 = b,
            _ => dedup.push((t, b)),
        }
    }
    let mut out = Vec::new();
    for w in dedup.windows(2) {
        let (t0, b0) = w[0];
        let (t1, b1) = w[1];
        if t1 <= t0 {
            continue;
        }
        let dt = t1.saturating_since(t0).as_secs_f64();
        let db = b1.saturating_sub(b0) as f64;
        out.push(RatePoint {
            t: t1,
            gbps: db * 8.0 / dt / 1e9,
        });
    }
    out
}

/// Downsample a series of `(t, value)` to at most `n` evenly spaced points
/// (keeping the first and last); used when printing long traces as a table.
pub fn downsample<T: Copy>(series: &[T], n: usize) -> Vec<T> {
    assert!(n >= 2, "need at least the endpoints");
    if series.len() <= n {
        return series.to_vec();
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let idx = i * (series.len() - 1) / (n - 1);
        out.push(series[idx]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differentiation() {
        // 5000 bytes over 1 µs = 40 Gbps.
        let s = vec![
            (SimTime::from_us(0), 0u64),
            (SimTime::from_us(1), 5_000),
            (SimTime::from_us(2), 5_000),
            (SimTime::from_us(3), 10_000),
        ];
        let r = rate_series(&s);
        assert_eq!(r.len(), 3);
        assert!((r[0].gbps - 40.0).abs() < 1e-9);
        assert!((r[1].gbps - 0.0).abs() < 1e-9);
        assert!((r[2].gbps - 40.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_timestamps_skipped() {
        let s = vec![
            (SimTime::from_us(1), 0u64),
            (SimTime::from_us(1), 100),
            (SimTime::from_us(2), 5_100),
        ];
        let r = rate_series(&s);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn boundary_sample_conserves_bytes() {
        // A sample emitted twice at an exact interval boundary (cumulative
        // counter advanced in between) must not lose the delta: the total
        // bytes across all intervals equal the cumulative span.
        let s = vec![
            (SimTime::from_us(0), 0u64),
            (SimTime::from_us(1), 0),
            (SimTime::from_us(1), 100),
            (SimTime::from_us(2), 5_100),
        ];
        let r = rate_series(&s);
        assert_eq!(r.len(), 2);
        let total_bytes: f64 = r.iter().map(|p| p.gbps * 1e9 / 8.0 * 1e-6).sum();
        assert!((total_bytes - 5_100.0).abs() < 1e-6, "{total_bytes}");
        // An exact duplicate (same time, same value) is a no-op.
        let dup = vec![
            (SimTime::from_us(0), 0u64),
            (SimTime::from_us(1), 5_000),
            (SimTime::from_us(1), 5_000),
            (SimTime::from_us(2), 5_000),
        ];
        let rd = rate_series(&dup);
        assert_eq!(rd.len(), 2);
        assert!((rd[0].gbps - 40.0).abs() < 1e-9);
        assert!((rd[1].gbps - 0.0).abs() < 1e-9);
    }

    #[test]
    fn downsampling_keeps_endpoints() {
        let series: Vec<u32> = (0..1000).collect();
        let d = downsample(&series, 11);
        assert_eq!(d.len(), 11);
        assert_eq!(d[0], 0);
        assert_eq!(*d.last().unwrap(), 999);
        let short = downsample(&series[..5], 11);
        assert_eq!(short.len(), 5);
    }
}
