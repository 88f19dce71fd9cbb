//! Observability determinism suite.
//!
//! * merged metrics registries are bit-identical at any harness thread
//!   count;
//! * run-level registry and flight-recorder fingerprints reproduce
//!   exactly across repeated runs;
//! * both are pinned against a committed golden (`tests/golden/
//!   obs_fig03.txt`). Test builds always audit (the dev-dependency turns
//!   the `audit` feature on), while CI re-derives the same fingerprint
//!   from the unaudited release binary's `tcdsim metrics` output — so a
//!   match on both sides proves the audit layer does not perturb
//!   observability. Re-bless with `TCD_REGEN_GOLDEN=1`.
//! * an audit violation surfacing mid-run dumps the flight-recorder
//!   window next to the violation snapshot.

use std::path::PathBuf;

use lossless_flowctl::SimTime;
use tcd_repro::harness::{self, Sweep};
use tcd_repro::scenarios::{self, Scale};

/// Run the catalog row `name` at the exporters' sampling.
fn run(name: &str, end_us: u64) -> tcd_repro::netsim::Simulator {
    scenarios::by_name(name)
        .expect("catalog row")
        .run(Scale::new(SimTime::from_us(end_us)))
}

#[test]
fn merged_registry_bit_identical_across_thread_counts() {
    let build = || {
        let mut sweep = Sweep::new();
        for name in ["fig03", "cee-single-cp", "ib"] {
            sweep.add(name, move || {
                harness::outcome_of(&run(name, 400), Vec::new())
            });
        }
        sweep
    };
    let r1 = build().run(1).merged_registry();
    let r2 = build().run(2).merged_registry();
    let r8 = build().run(8).merged_registry();
    assert_eq!(r1.fingerprint(), r2.fingerprint());
    assert_eq!(r1.fingerprint(), r8.fingerprint());
    assert_eq!(
        r1.to_json(),
        r8.to_json(),
        "registry dumps must be bit-identical"
    );
}

#[test]
fn registry_and_recorder_reproduce_across_runs() {
    let a = run("fig03", 400);
    let b = run("fig03", 400);
    assert_eq!(
        a.obs_registry().fingerprint(),
        b.obs_registry().fingerprint()
    );
    assert_eq!(a.obs.rec.fingerprint(), b.obs.rec.fingerprint());
    assert_eq!(a.obs.rec.total(), b.obs.rec.total());
    assert!(a.obs.rec.total() > 0, "fig03 must exercise the recorder");
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/obs_fig03.txt")
}

#[test]
fn obs_fingerprints_match_committed_golden() {
    let sim = run("fig03", 600);
    let actual = format!(
        "registry_fingerprint {:016x}\nrecorder_fingerprint {:016x}\nrecorder_total {}\n",
        sim.obs_registry().fingerprint(),
        sim.obs.rec.fingerprint(),
        sim.obs.rec.total()
    );
    let path = golden_path();
    if std::env::var("TCD_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing obs golden {}: {e}\nregenerate with TCD_REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "observability fingerprints diverged from the committed golden \
         (audit on/off mismatch or an engine/instrumentation change); \
         if intended, re-bless with TCD_REGEN_GOLDEN=1"
    );
}

#[test]
fn injected_audit_violation_dumps_flight_recorder_window() {
    use tcd_repro::netsim::audit::{AuditMode, InvariantFamily, Violation};
    use tcd_repro::netsim::cchooks::FixedRate;
    use tcd_repro::netsim::routing::RouteSelect;
    use tcd_repro::netsim::topology::figure2;
    use tcd_repro::netsim::{NodeId, Simulator};
    use tcd_repro::obs::RecordKind;
    use tcd_repro::scenarios::{self, Network};

    let fig = figure2(Default::default());
    let cfg = scenarios::default_config(Network::Cee, true, SimTime::from_ms(2));
    let mut sim = Simulator::new(fig.topo.clone(), cfg, RouteSelect::Ecmp);
    sim.add_flow(
        fig.s1,
        fig.r1,
        10_000_000,
        SimTime::ZERO,
        Box::new(FixedRate::line_rate()),
    );
    sim.audit_mut().config_mut().mode = AuditMode::Record;

    sim.run_until(SimTime::from_ms(1));
    assert!(
        sim.obs.violation_dumps().is_empty(),
        "a clean run must not produce violation dumps"
    );

    // Inject a synthetic violation between checkpoints; the engine's
    // watermark must catch it at the next checkpoint and capture the
    // flight-recorder window.
    sim.audit_mut().report(Violation {
        family: InvariantFamily::Conservation,
        t: SimTime::from_ms(1),
        node: NodeId(u32::MAX),
        port: u16::MAX,
        prio: u8::MAX,
        message: "synthetic violation injected by obs_determinism".into(),
    });
    sim.run();

    let dumps = sim.obs.violation_dumps();
    assert_eq!(dumps.len(), 1, "exactly the injected violation is dumped");
    assert_eq!(dumps[0].total_violations, 1);
    assert!(!dumps[0].records.is_empty());
    assert!(
        dumps[0]
            .records
            .iter()
            .any(|r| RecordKind::from_u8(r.kind) == Some(RecordKind::Violation)),
        "the dump window carries the violation marker record"
    );
}
