//! Flow completion time (FCT) slowdown — the paper's headline metric.
//!
//! "FCT slowdown is calculated by the ratio between real FCT and baseline
//! FCT" (§5.2.1), where the baseline is the FCT the flow would achieve
//! alone on an idle network: serialization at the line rate plus the base
//! (propagation + per-hop store-and-forward) latency.

use crate::percentile::{mean, nearest_rank, sorted};
use lossless_flowctl::{Rate, SimDuration};

/// The idle-network FCT of a `size`-byte flow on a path with line rate
/// `rate` and one-way base latency `base_latency` (propagation plus
/// per-hop store-and-forward delays).
pub fn ideal_fct(size: u64, rate: Rate, base_latency: SimDuration) -> SimDuration {
    rate.serialize_time(size) + base_latency
}

/// Summary statistics of a set of slowdowns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowdownSummary {
    /// Number of flows.
    pub count: usize,
    /// Mean slowdown.
    pub mean: f64,
    /// Median (p50).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl SlowdownSummary {
    /// Summarize a set of slowdowns; `None` if empty. The percentiles
    /// are [`percentile`](crate::percentile)'s, read from one sorted copy.
    pub fn of(slowdowns: &[f64]) -> Option<SlowdownSummary> {
        let mean = mean(slowdowns)?;
        let v = sorted(slowdowns);
        Some(SlowdownSummary {
            count: slowdowns.len(),
            mean,
            p50: nearest_rank(&v, 50.0),
            p95: nearest_rank(&v, 95.0),
            p99: nearest_rank(&v, 99.0),
        })
    }
}

/// Per-size-bucket breakdown: `(upper bound exclusive, label)` pairs define
/// the buckets; flows above the last bound land in a final "larger" bucket.
#[derive(Debug, Clone)]
pub struct SizeBuckets {
    bounds: Vec<u64>,
    labels: Vec<String>,
}

impl SizeBuckets {
    /// Buckets with upper bounds `bounds` (strictly increasing). Labels are
    /// generated as `<X`, plus a final `>=last`.
    pub fn new(bounds: &[u64]) -> SizeBuckets {
        assert!(!bounds.is_empty());
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must increase"
        );
        let mut labels: Vec<String> = bounds.iter().map(|b| format!("<{}", human(*b))).collect();
        labels.push(format!(">={}", human(*bounds.last().unwrap())));
        SizeBuckets {
            bounds: bounds.to_vec(),
            labels,
        }
    }

    /// The paper's small/medium/large split for Hadoop-like workloads.
    pub fn hadoop_buckets() -> SizeBuckets {
        SizeBuckets::new(&[10_000, 50_000, 80_000, 120_000, 1_000_000])
    }

    /// Buckets for WebSearch-like workloads.
    pub fn websearch_buckets() -> SizeBuckets {
        SizeBuckets::new(&[50_000, 500_000, 1_000_000, 5_000_000])
    }

    /// Bucket index of a flow size.
    pub fn index(&self, size: u64) -> usize {
        self.bounds
            .iter()
            .position(|&b| size < b)
            .unwrap_or(self.bounds.len())
    }

    /// Number of buckets (bounds + the overflow bucket).
    pub fn len(&self) -> usize {
        self.bounds.len() + 1
    }

    /// Whether there are no buckets (never true by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Bucket label.
    pub fn label(&self, idx: usize) -> &str {
        &self.labels[idx]
    }

    /// Group `(size, slowdown)` pairs into per-bucket slowdown vectors.
    pub fn group(&self, flows: &[(u64, f64)]) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); self.len()];
        for &(size, s) in flows {
            out[self.index(size)].push(s);
        }
        out
    }
}

fn human(bytes: u64) -> String {
    if bytes >= 1_000_000 {
        format!("{}MB", bytes / 1_000_000)
    } else if bytes >= 1_000 {
        format!("{}KB", bytes / 1_000)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_fct_composition() {
        let f = ideal_fct(100_000, Rate::from_gbps(40), SimDuration::from_us(8));
        // 100 KB at 40G = 20 µs, + 8 µs base.
        assert_eq!(f, SimDuration::from_us(28));
    }

    #[test]
    fn summary_statistics() {
        let s: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let sum = SlowdownSummary::of(&s).unwrap();
        assert_eq!(sum.count, 100);
        assert_eq!(sum.p50, 50.0);
        assert_eq!(sum.p99, 99.0);
        assert!(SlowdownSummary::of(&[]).is_none());
    }

    #[test]
    fn summary_percentiles_are_the_percentile_calls() {
        let inputs: [&[f64]; 5] = [
            &[7.0],
            &[5.0, 1.0, 3.0, 2.0, 4.0, 2.0],
            &[3.0, f64::NAN, 1.0, 2.0],
            &[f64::NAN, f64::NAN, 0.5],
            &[f64::INFINITY, -0.0, 0.0, 1e300, f64::NAN, 2.5, 1.0, 1.0],
        ];
        let many: Vec<f64> = (0..1000)
            .map(|i| ((i * 7919) % 1013) as f64 / 10.0)
            .collect();
        for v in inputs.into_iter().chain([many.as_slice()]) {
            let s = SlowdownSummary::of(v).unwrap();
            for (got, p) in [(s.p50, 50.0), (s.p95, 95.0), (s.p99, 99.0)] {
                let want = crate::percentile(v, p).unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "p{p} of {v:?}");
            }
            assert_eq!(s.mean.to_bits(), mean(v).unwrap().to_bits());
            assert_eq!(s.count, v.len());
        }
    }

    #[test]
    fn buckets_classify_and_label() {
        let b = SizeBuckets::new(&[10_000, 100_000]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.index(500), 0);
        assert_eq!(b.index(10_000), 1);
        assert_eq!(b.index(99_999), 1);
        assert_eq!(b.index(5_000_000), 2);
        assert_eq!(b.label(0), "<10KB");
        assert_eq!(b.label(2), ">=100KB");
    }

    #[test]
    fn grouping_partitions_all_flows() {
        let b = SizeBuckets::hadoop_buckets();
        let flows: Vec<(u64, f64)> = (0..1000)
            .map(|i| (i * 1500, 1.0 + i as f64 / 100.0))
            .collect();
        let groups = b.group(&flows);
        assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), flows.len());
    }

    #[test]
    #[should_panic]
    fn buckets_reject_unsorted_bounds() {
        let _ = SizeBuckets::new(&[100, 100]);
    }
}
