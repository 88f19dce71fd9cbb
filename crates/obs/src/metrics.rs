//! Deterministic metrics: typed counters / gauges / histograms keyed by
//! `(node, port, prio, name)` in `BTreeMap`s.
//!
//! Everything here is integer math driven by `SimTime` — never wall
//! clock — so two runs of the same scenario produce byte-identical
//! registries at any thread count, with or without the `audit` feature.
//! Aggregation across parallel sweep runs merges registries in submission
//! order (see `tcd_repro::harness`), and since merging only sums integer
//! counters the merged registry is also independent of worker count.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json;
use crate::Fnv;

/// The `node` value used for engine-global instruments (event dispatch
/// counts, packet-pool statistics, trace drop counters) that are not tied
/// to any single node.
pub const NODE_GLOBAL: u32 = u32::MAX;

/// A metric key. Ordering (node, port, prio, name) defines the canonical
/// dump and fingerprint order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Node id, or [`NODE_GLOBAL`] for engine-wide instruments.
    pub node: u32,
    /// Port (egress port for switches, 0 for hosts/global).
    pub port: u16,
    /// Priority / virtual lane, 0 when not applicable.
    pub prio: u8,
    /// Instrument name, dot-separated (`"pfc.pause_tx"`).
    pub name: &'static str,
}

impl Key {
    /// A per-(node, port, prio) key.
    pub fn new(node: u32, port: u16, prio: u8, name: &'static str) -> Key {
        Key {
            node,
            port,
            prio,
            name,
        }
    }

    /// A per-node key (port/prio zeroed).
    pub fn node(node: u32, name: &'static str) -> Key {
        Key::new(node, 0, 0, name)
    }

    /// An engine-global key.
    pub fn global(name: &'static str) -> Key {
        Key::new(NODE_GLOBAL, 0, 0, name)
    }
}

/// Number of linear sub-bucket bits per power of two.
const SUB_BITS: u32 = 3;
/// Linear sub-buckets per octave (8).
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear integer histogram: exact unit-width buckets for values
/// below `2 * SUB`, then `SUB` linear sub-buckets per power of two —
/// bounded relative error (< 1/SUB) with at most 496 buckets over the full
/// `u64` range, and no floating point anywhere.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Bucket index for a recorded value.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB * 2 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as u64; // >= SUB_BITS + 1
        let sub = (v >> (msb - SUB_BITS as u64)) - SUB;
        (SUB * 2 + (msb - SUB_BITS as u64 - 1) * SUB + sub) as usize
    }
}

/// Inclusive lower bound of a bucket (the smallest value mapping to it).
pub fn bucket_lower_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB * 2 {
        index
    } else {
        let octave = (index - SUB * 2) / SUB;
        let sub = (index - SUB * 2) % SUB;
        (SUB + sub) << (octave + 1)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    #[expect(
        clippy::indexing_slicing,
        reason = "counts is resized to idx + 1 right above the access"
    )]
    pub fn observe(&mut self, v: u64) {
        let idx = bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs in value order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lower_bound(i), c))
    }

    /// Lower bound of the bucket containing the `q`-quantile
    /// (`0 < q <= 1`) of recorded values, clamped to the observed
    /// `[min, max]` range. Quantiles inherit the buckets' bounded
    /// relative error (`< 1/SUB`). `None` when the histogram is empty.
    pub fn quantile_lower_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_lower_bound(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Element-wise merge of another histogram into this one.
    #[expect(
        clippy::indexing_slicing,
        reason = "counts is resized to at least other.counts.len() right above the loop"
    )]
    pub fn merge_from(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The metrics registry: deterministic maps of counters, gauges and
/// histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, i64>,
    histos: BTreeMap<Key, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Increment a counter by 1.
    #[inline]
    pub fn inc(&mut self, key: Key) {
        *self.counters.entry(key).or_insert(0) += 1;
    }

    /// Increment a counter by `by`.
    #[inline]
    pub fn add(&mut self, key: Key, by: u64) {
        *self.counters.entry(key).or_insert(0) += by;
    }

    /// Set a counter to an absolute value (idempotent — used when folding
    /// externally-maintained counters into the registry at snapshot time).
    pub fn set_counter(&mut self, key: Key, v: u64) {
        if v == 0 {
            self.counters.remove(&key);
        } else {
            self.counters.insert(key, v);
        }
    }

    /// Read a counter (0 when absent).
    pub fn counter(&self, key: Key) -> u64 {
        self.counters.get(&key).copied().unwrap_or(0)
    }

    /// Set a gauge.
    pub fn gauge_set(&mut self, key: Key, v: i64) {
        self.gauges.insert(key, v);
    }

    /// Read a gauge.
    pub fn gauge(&self, key: Key) -> Option<i64> {
        self.gauges.get(&key).copied()
    }

    /// Record a histogram observation.
    #[inline]
    pub fn observe(&mut self, key: Key, v: u64) {
        self.histos.entry(key).or_default().observe(v);
    }

    /// The histogram under `key`, if any values were recorded.
    pub fn histogram(&self, key: Key) -> Option<&Histogram> {
        self.histos.get(&key)
    }

    /// All counters in canonical key order.
    pub fn counters(&self) -> impl Iterator<Item = (&Key, u64)> + '_ {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// Sum of all counters whose name equals `name`, across keys.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, &v)| v)
            .sum()
    }

    /// Merge another registry into this one: counters and histogram
    /// buckets sum; gauges keep the *other* run's value (last-writer-wins
    /// in merge order, which the sweep harness fixes to submission order).
    pub fn merge_from(&mut self, other: &Registry) {
        for (k, &v) in &other.counters {
            *self.counters.entry(*k).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            self.gauges.insert(*k, v);
        }
        for (k, h) in &other.histos {
            self.histos.entry(*k).or_default().merge_from(h);
        }
    }

    /// FNV-1a fingerprint over the canonical (sorted) serialisation. Equal
    /// registries — same instruments, same values — have equal
    /// fingerprints regardless of insertion order.
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fnv::new();
        for (k, &v) in &self.counters {
            hash_key(&mut f, k);
            f.write_u64(v);
        }
        f.write_u64(0xC0);
        for (k, &v) in &self.gauges {
            hash_key(&mut f, k);
            f.write_u64(v as u64);
        }
        f.write_u64(0xC1);
        for (k, h) in &self.histos {
            hash_key(&mut f, k);
            f.write_u64(h.count);
            f.write_u64(h.sum);
            for (lo, c) in h.buckets() {
                f.write_u64(lo);
                f.write_u64(c);
            }
        }
        f.finish()
    }

    /// Self-describing JSON dump (`tcd-metrics-v1`): schema marker,
    /// fingerprint, and the three instrument families in canonical order.
    /// Histograms carry `p50`/`p90`/`p99` summaries derived from the
    /// log-linear buckets; the fingerprint stays a function of counts,
    /// sums and raw buckets only, so adding quantiles never shifts it.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"tcd-metrics-v1\",\n");
        let _ = writeln!(out, "  \"fingerprint\": \"{:016x}\",", self.fingerprint());
        out.push_str("  \"counters\": [");
        let mut first = true;
        for (k, &v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    {{{}, \"value\": {v}}}", key_json(k));
        }
        out.push_str("\n  ],\n  \"gauges\": [");
        first = true;
        for (k, &v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    {{{}, \"value\": {v}}}", key_json(k));
        }
        out.push_str("\n  ],\n  \"histograms\": [");
        first = true;
        for (k, h) in &self.histos {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{{}, \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                key_json(k),
                h.count,
                h.sum,
                h.min().unwrap_or(0),
                h.max().unwrap_or(0),
                h.quantile_lower_bound(0.50).unwrap_or(0),
                h.quantile_lower_bound(0.90).unwrap_or(0),
                h.quantile_lower_bound(0.99).unwrap_or(0),
            );
            let mut bfirst = true;
            for (lo, c) in h.buckets() {
                if !bfirst {
                    out.push_str(", ");
                }
                bfirst = false;
                let _ = write!(out, "{{\"lo\": {lo}, \"count\": {c}}}");
            }
            out.push_str("]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn key_json(k: &Key) -> String {
    let node = if k.node == NODE_GLOBAL {
        "null".to_string()
    } else {
        k.node.to_string()
    };
    format!(
        "\"node\": {node}, \"port\": {}, \"prio\": {}, \"name\": {}",
        k.port,
        k.prio,
        json::escape(k.name)
    )
}

/// The registry's hashing of a key: its coordinates, its name, and a
/// terminator byte so that adjacent names cannot run together.
fn hash_key(f: &mut Fnv, k: &Key) {
    f.write_u64(k.node as u64);
    f.write_u64(k.port as u64);
    f.write_u64(k.prio as u64);
    f.bytes(k.name.as_bytes());
    f.bytes(&[0xff]);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every value maps into exactly one bucket whose range contains it:
    /// `lower_bound(idx) <= v < lower_bound(idx + 1)`.
    #[test]
    fn bucket_boundaries_are_exact_and_contiguous() {
        // Small values get unit-width buckets.
        for v in 0..(SUB * 2) {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
        // Probe every power of two and its neighbours across u64.
        for shift in 4..64u32 {
            let p = 1u64 << shift;
            for v in [p - 1, p, p + 1] {
                let idx = bucket_index(v);
                assert!(bucket_lower_bound(idx) <= v, "v={v} idx={idx}");
                let next_lo = bucket_lower_bound(idx + 1);
                assert!(v < next_lo, "v={v} idx={idx} next_lo={next_lo}");
            }
        }
        // Bucket index is monotone over a dense small range.
        let mut last = 0;
        for v in 0..4096u64 {
            let idx = bucket_index(v);
            assert!(idx >= last);
            last = idx;
        }
    }

    #[test]
    fn bucket_relative_error_bounded() {
        // Width of any bucket is < lower_bound / SUB for log-linear range.
        for v in [100u64, 1_000, 1_000_000, u64::MAX / 2] {
            let idx = bucket_index(v);
            let lo = bucket_lower_bound(idx);
            let hi = bucket_lower_bound(idx + 1);
            assert!(hi - lo <= lo / SUB + 1, "bucket [{lo}, {hi}) too wide");
        }
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), None);
        for v in [0u64, 1, 7, 8, 100, 100, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 5216);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(5000));
        // 100 appears twice → its bucket holds 2.
        let b: Vec<(u64, u64)> = h.buckets().collect();
        assert!(b.iter().any(|&(lo, c)| c == 2 && lo <= 100));
    }

    #[test]
    fn histogram_quantiles_have_bounded_relative_error() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile_lower_bound(0.5), None);
        for v in 1..=1000u64 {
            h.observe(v);
        }
        for (q, exact) in [(0.50, 500u64), (0.90, 900), (0.99, 990)] {
            let got = h.quantile_lower_bound(q).unwrap();
            assert!(got <= exact, "q={q}: {got} > {exact}");
            let err = (exact - got) as f64 / exact as f64;
            assert!(err < 2.0 / SUB as f64, "q={q}: {got} vs {exact}");
        }
        // A single value answers every quantile exactly (clamped to min/max).
        let mut one = Histogram::new();
        one.observe(100);
        assert_eq!(one.quantile_lower_bound(0.01), Some(100));
        assert_eq!(one.quantile_lower_bound(1.0), Some(100));
    }

    #[test]
    fn histogram_merge_matches_combined_observes() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [1u64, 50, 900] {
            a.observe(v);
            both.observe(v);
        }
        for v in [3u64, 50, 1 << 40] {
            b.observe(v);
            both.observe(v);
        }
        a.merge_from(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn registry_counters_and_fingerprint() {
        let mut r = Registry::new();
        let k = Key::new(1, 2, 0, "pfc.pause_tx");
        r.inc(k);
        r.add(k, 2);
        assert_eq!(r.counter(k), 3);
        let fp1 = r.fingerprint();

        // Insertion order must not matter.
        let mut r2 = Registry::new();
        r2.add(Key::global("engine.dispatch.PortTx"), 5);
        r2.add(k, 3);
        let mut r1 = Registry::new();
        r1.add(k, 3);
        r1.add(Key::global("engine.dispatch.PortTx"), 5);
        assert_eq!(r1.fingerprint(), r2.fingerprint());
        assert_ne!(fp1, r1.fingerprint());
    }

    #[test]
    fn registry_merge_is_submission_order_invariant_for_counters() {
        let k = Key::node(7, "cbfc.credit_stall");
        let mut a = Registry::new();
        a.add(k, 10);
        a.observe(Key::node(7, "h"), 4);
        let mut b = Registry::new();
        b.add(k, 32);
        b.observe(Key::node(7, "h"), 90);

        let mut ab = Registry::new();
        ab.merge_from(&a);
        ab.merge_from(&b);
        let mut ba = Registry::new();
        ba.merge_from(&b);
        ba.merge_from(&a);
        assert_eq!(ab.fingerprint(), ba.fingerprint());
        assert_eq!(ab.counter(k), 42);
    }

    #[test]
    fn json_dump_parses_and_is_self_describing() {
        let mut r = Registry::new();
        r.add(Key::new(3, 1, 0, "mark.ce"), 17);
        r.gauge_set(Key::global("engine.events"), 1234);
        r.observe(Key::new(3, 1, 0, "pfc.xoff_residency_ns"), 42_000);
        let doc = crate::json::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("tcd-metrics-v1")
        );
        let counters = doc.get("counters").unwrap().as_arr().unwrap();
        assert_eq!(counters.len(), 1);
        assert_eq!(counters[0].get("name").unwrap().as_str(), Some("mark.ce"));
        assert_eq!(counters[0].get("value").unwrap().as_f64(), Some(17.0));
        let h = &doc.get("histograms").unwrap().as_arr().unwrap()[0];
        assert_eq!(h.get("count").unwrap().as_f64(), Some(1.0));
        // One observation answers every quantile with the same (clamped)
        // value, and the summaries ride alongside the raw buckets.
        let p50 = h.get("p50").unwrap().as_f64().unwrap();
        assert_eq!(h.get("p99").unwrap().as_f64(), Some(p50));
        assert!(h.get("buckets").unwrap().as_arr().is_some());
    }

    #[test]
    fn set_counter_is_idempotent() {
        let mut r = Registry::new();
        let k = Key::global("pool.hit");
        r.set_counter(k, 9);
        let fp = r.fingerprint();
        r.set_counter(k, 9);
        assert_eq!(r.fingerprint(), fp);
        r.set_counter(k, 0);
        assert_eq!(r.fingerprint(), Registry::new().fingerprint());
    }
}
