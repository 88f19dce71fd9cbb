//! Golden-trace conformance suite: key paper scenarios, run small-scale,
//! rendered to a canonical text form ([`harness::golden_trace`]) and
//! compared against committed goldens in `tests/golden/`. Any engine
//! change that alters observable behaviour fails here with the first
//! diverging event/sample line; deliberate changes are re-blessed with
//!
//! ```sh
//! TCD_REGEN_GOLDEN=1 cargo test --test golden_traces
//! ```
//!
//! A second test replays the same scenarios through the parallel sweep
//! harness and cross-checks the committed fingerprints, so the goldens
//! also pin the harness's determinism guarantee.

use std::path::PathBuf;

use tcd_repro::harness::{self, golden_diff, golden_trace, Sweep};
use tcd_repro::scenarios::{Scale, Scenario, CATALOG};

/// The catalog rows with a committed golden, each with the scale it was
/// blessed at.
fn goldens() -> impl Iterator<Item = (&'static Scenario, Scale)> {
    CATALOG
        .iter()
        .filter_map(|row| row.golden.map(|scale| (row, scale)))
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.txt"))
}

/// The committed golden of scenario `name`.
fn committed(name: &str) -> String {
    let path = golden_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden trace {}: {e}\nregenerate with TCD_REGEN_GOLDEN=1",
            path.display()
        )
    })
}

fn regen_requested() -> bool {
    std::env::var("TCD_REGEN_GOLDEN").is_ok_and(|v| v == "1")
}

#[test]
fn golden_traces_match_committed() {
    let regen = regen_requested();
    for (row, scale) in goldens() {
        let name = row.name;
        let actual = golden_trace(&row.run(scale), name);
        if regen {
            std::fs::write(golden_path(name), &actual).unwrap();
            continue;
        }
        if let Some(diff) = golden_diff(&committed(name), &actual) {
            panic!(
                "scenario `{name}` diverged from its committed golden trace\n{diff}\
                 if this change is intended, re-bless with TCD_REGEN_GOLDEN=1"
            );
        }
    }
    // No orphans: every committed trace belongs to a catalog row
    // (`obs_fig03.txt` is `tests/obs_determinism.rs`'s).
    for entry in std::fs::read_dir(golden_path("x").parent().unwrap()).unwrap() {
        let file = entry.unwrap().file_name().into_string().unwrap();
        let stem = file.trim_end_matches(".txt");
        assert!(
            stem == "obs_fig03" || goldens().any(|(row, _)| row.name == stem),
            "tests/golden/{file} has no catalog row with a golden"
        );
    }
}

#[test]
fn sweep_reproduces_golden_fingerprints() {
    if regen_requested() {
        return; // goldens are being rewritten; nothing to check against
    }
    let mut sweep = Sweep::new();
    for (row, scale) in goldens() {
        sweep.add(row.name, move || {
            harness::outcome_of(&row.run(scale), Vec::new())
        });
    }
    let rep = sweep.run(2);
    for r in &rep.results {
        let text = committed(&r.id);
        let want = text
            .lines()
            .find_map(|l| l.strip_prefix("fingerprint "))
            .expect("golden trace carries a fingerprint line");
        assert_eq!(
            format!("{:016x}", r.outcome.fingerprint),
            want,
            "sweep run `{}` does not reproduce its committed fingerprint",
            r.id
        );
    }
}
