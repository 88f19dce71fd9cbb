//! Self-profiler non-perturbation suite.
//!
//! The wall-clock span profiler (`lossless_obs::prof`) only *reads*
//! `Instant` — it never schedules events or feeds simulation state — so
//! every deterministic artifact must be bit-identical with profiling on
//! or off:
//!
//! * run fingerprints, event counts, obs-registry and flight-recorder
//!   fingerprints of a single run;
//! * merged sweep registries and merged fingerprints at 1/2/8 worker
//!   threads;
//! * and the profiler must actually have *sampled* something in the
//!   profiled twin, so the equalities are not vacuous.
//!
//! What the profiler costs in wall-clock is tcdbench's `obs.prof_ratio`.

use lossless_flowctl::SimTime;
use lossless_obs::prof::ProfConfig;
use tcd_repro::harness::{self, Sweep};
use tcd_repro::scenarios;

/// A small un-run deadlock-ring sim: cheap enough for debug-mode test
/// runs while still exercising hosts, switches, PFC and the TCD
/// detectors.
fn ring(n: usize) -> tcd_repro::netsim::Simulator {
    scenarios::fault::deadlock_ring(n, SimTime::from_us(400), None).sim
}

/// Dense profiling so even short runs sample spans and record ticks.
fn dense() -> ProfConfig {
    ProfConfig {
        sample_every: 4,
        tick_every: 256,
        max_ticks: 1024,
    }
}

#[test]
fn single_run_artifacts_identical_profiler_on_off() {
    let mut off = ring(4);
    off.record_violations();
    off.run();

    let mut on = ring(4);
    on.record_violations();
    on.enable_profiler(dense());
    on.run();

    let p = on.profile().expect("profiler was armed");
    assert!(p.sampled > 0, "the profiled twin must sample spans");
    assert!(!p.ticks.is_empty(), "the profiled twin must record ticks");
    assert!(off.profile().is_none(), "the unprofiled twin stays silent");

    assert_eq!(
        harness::fingerprint_sim(&off),
        harness::fingerprint_sim(&on)
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
                sim.enable_profiler(dense());
            }
            sim.run();
            harness::outcome_of(&sim, Vec::new())
        });
    }
    s
}

#[test]
fn sweep_merges_identical_across_threads_and_profiling() {
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
        // Outcome equality deliberately ignores the wall-clock profile…
        for (b, p) in base.results.iter().zip(&prof.results) {
            assert_eq!(b.outcome, p.outcome, "{}", b.id);
        }
        // …which must nonetheless be present on every profiled run.
        assert!(
            prof.results
                .iter()
                .all(|r| r.outcome.perf.as_ref().is_some_and(|p| p.sampled > 0)),
            "{threads} threads: profiled sweep runs must carry a profile"
        );
    }
}
