//! One seeded violation per code-policy lint, plus a stale `#[expect]`.
#![warn(clippy::indexing_slicing)]
use std::collections::HashMap;

#[expect(clippy::unwrap_used, reason = "stale on purpose: nothing below unwraps")]
pub fn seeded(xs: &[u64], names: &HashMap<u64, String>) -> u64 {
    let started = std::time::Instant::now();
    std::thread::spawn(|| ()).join().ok();
    xs[names.len()] + started.elapsed().as_secs()
}
