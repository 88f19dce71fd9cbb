//! Span-sampler non-perturbation suite.
//!
//! The wall-clock span sampler (`lossless_obs::prof`) only *reads*
//! `Instant` — it never schedules events or feeds simulation state — so
//! every deterministic artifact must be bit-identical with it on or off:
//!
//! * run fingerprint, golden-trace text, event count, obs-registry and
//!   flight-recorder fingerprints of a single run;
//! * merged sweep registries and merged fingerprints at 1/2/8 worker
//!   threads;
//! * the sampler must actually have *sampled* something in the profiled
//!   twin, so the equalities are not vacuous;
//! * and the only way to arm it is `Simulator::enable_profiler`: the
//!   engine takes no ambient configuration, so the `TCD_PROF*` variables
//!   it once read are set here and must change nothing.
//!
//! What the sampler costs in wall-clock is tcdbench's `obs.prof_ratio`.

use lossless_flowctl::SimTime;
use lossless_obs::prof::ProfConfig;
use tcd_repro::harness::{self, Sweep};
use tcd_repro::scenarios;

/// Put the retired profiler variables into the process environment. Both
/// tests call this before anything else, and `Once` holds the second
/// caller until the first has finished, so no thread reads the
/// environment while it is being written.
fn ambient_profiler_variables() {
    static SET: std::sync::Once = std::sync::Once::new();
    SET.call_once(|| {
        std::env::set_var("TCD_PROF", "1");
        std::env::set_var("TCD_PROF_SAMPLE", "1");
    });
}

/// A small un-run deadlock-ring sim: cheap enough for debug-mode test
/// runs while still exercising hosts, switches, PFC and the TCD
/// detectors.
fn ring(n: usize) -> tcd_repro::netsim::Simulator {
    scenarios::fault::deadlock_ring(n, SimTime::from_us(400), None).sim
}

/// Dense sampling so even short runs sample spans.
const DENSE: ProfConfig = ProfConfig { sample_every: 4 };

#[test]
fn single_run_artifacts_identical_profiler_on_off() {
    ambient_profiler_variables();
    let mut off = ring(4);
    off.record_violations();
    off.run();

    let mut on = ring(4);
    on.record_violations();
    on.enable_profiler(DENSE);
    on.run();

    let p = on.profile().expect("profiler was armed");
    assert!(p.sampled > 0, "the profiled twin must sample spans");
    assert_eq!(p.events, on.trace.events, "every dispatch was counted");
    assert!(
        off.profile().is_none(),
        "the unprofiled twin stays silent whatever the environment says"
    );

    assert_eq!(
        harness::fingerprint_sim(&off),
        harness::fingerprint_sim(&on)
    );
    assert_eq!(
        harness::golden_trace(&off, "ring4"),
        harness::golden_trace(&on, "ring4")
    );
    assert_eq!(off.trace.events, on.trace.events);
    assert_eq!(
        off.obs_registry().fingerprint(),
        on.obs_registry().fingerprint()
    );
    assert_eq!(off.obs.rec.fingerprint(), on.obs.rec.fingerprint());
    assert_eq!(
        off.obs_registry().to_json(),
        on.obs_registry().to_json(),
        "registry dumps must be bit-identical"
    );
}

fn sweep(profiled: bool) -> Sweep {
    let mut s = Sweep::new();
    for n in [3usize, 4, 5] {
        s.add(format!("ring{n}"), move || {
            let mut sim = ring(n);
            sim.record_violations();
            if profiled {
                sim.enable_profiler(DENSE);
            }
            sim.run();
            assert_eq!(
                sim.profile().is_some_and(|p| p.sampled > 0),
                profiled,
                "ring{n}: a profile exactly when asked for"
            );
            harness::outcome_of(&sim, Vec::new())
        });
    }
    s
}

#[test]
fn sweep_merges_identical_across_threads_and_profiling() {
    ambient_profiler_variables();
    let base = sweep(false).run(1);
    for threads in [1usize, 2, 8] {
        let prof = sweep(true).run(threads);
        assert_eq!(
            base.merged_fingerprint(),
            prof.merged_fingerprint(),
            "{threads} threads"
        );
        assert_eq!(
            base.merged_registry().to_json(),
            prof.merged_registry().to_json(),
            "{threads} threads"
        );
        for (b, p) in base.results.iter().zip(&prof.results) {
            assert_eq!(b.outcome, p.outcome, "{}", b.id);
        }
    }
}
