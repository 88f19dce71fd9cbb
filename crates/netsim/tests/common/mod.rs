//! Helpers shared by this crate's integration tests.

use lossless_netsim::Simulator;

/// The run fingerprint (the root crate's `harness::fingerprint_sim`, which
/// this crate cannot depend on): FNV-1a over every flow's lifecycle record
/// plus the trace's aggregate counters.
pub fn run_fingerprint(sim: &Simulator) -> u64 {
    let t = &sim.trace;
    let mut words = Vec::new();
    for r in &t.flows {
        words.extend([
            r.flow.0 as u64,
            r.size,
            r.start.as_ps(),
            r.end.map_or(u64::MAX, |e| e.as_ps()),
            r.delivered.pkts,
            r.delivered.bytes,
            r.delivered.ce,
            r.delivered.ue,
        ]);
    }
    words.extend([
        t.forwarded_pkts,
        t.pause_frames,
        t.drops,
        t.port_samples.len() as u64,
        t.events,
    ]);
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf29ce484222325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        })
}
