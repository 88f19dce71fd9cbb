//! `tcdbench` — the repository's benchmark: five named workloads, four
//! end-to-end metrics, and a per-layer budget, all measured from outside
//! through public functions. See `README.md` beside this file for the
//! metric glossary, the protocol and how to run one workload.
//!
//! ```text
//! cargo run --release -q -p tcd-bench --bin tcdbench -- --seed 1
//! ```

mod alloc;
mod gen;
mod layers;
mod metrics;
mod output;
mod quant;
mod spans;
mod workloads;

use metrics::{Suite, Traced, WorkloadResult};
use spans::Spans;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Rep, Variant, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: tcdbench [--seed N] [--workload NAME] [--seconds S] [--trace 0|1]
                [--repeat]

  --seed N         inputs are generated from N (default 1)
  --workload NAME  run one workload: ft6-dcqcn, ft6-ibcc, fig2-storm,
                   ft6-dcqcn-obs, victim-sweep (default: all five)
  --seconds S      keep adding rounds of timed repetitions until S seconds
                   of them have run, and at least 3 (default: 7 rounds)
  --trace 0|1      the benchmark contract's two halves, for one workload:
                   0 runs the timed repetitions only and ends with the
                   end-to-end metrics as one JSON line; 1 gives them a third
                   of --seconds, does the traced run and the layer loops,
                   and ends with the per-layer metrics as one JSON line.
                   Default: both halves, no JSON line.
  --repeat         run the whole set twice and compare the two results (A/A)

Writes target/tcdbench/result.json and, per traced workload,
target/tcdbench/trace_<workload>.json. Exits non-zero on any failed check.";

#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    seed: u64,
    workloads: Vec<Workload>,
    /// Rounds of timed repetitions go on until there are `min_rounds` of
    /// them and `budget` has gone into them.
    min_rounds: usize,
    budget: Duration,
    repeat: bool,
    /// `--trace`, which the contract defines as choosing both what runs
    /// and which metrics the closing JSON line holds: `Some(false)` the
    /// timed repetitions and the end-to-end metrics, `Some(true)` also the
    /// traced runs and the per-layer metrics. `None` runs everything and
    /// prints no JSON line.
    trace: Option<bool>,
}

impl Options {
    /// Whether the traced runs and layer loops are wanted.
    fn traced(&self) -> bool {
        self.trace != Some(false)
    }
}

fn parse_args(argv: &[String]) -> Result<Options, String> {
    let mut o = Options {
        seed: 1,
        workloads: Workload::ALL.to_vec(),
        min_rounds: 7,
        budget: Duration::ZERO,
        repeat: false,
        trace: None,
    };
    let mut seconds = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--workload" => {
                let name = value()?;
                let w = Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?;
                o.workloads = vec![w];
            }
            "--repeat" => o.repeat = true,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if o.trace.is_some() && o.workloads.len() != 1 {
        return Err("--trace needs --workload".to_string());
    }
    if let Some(s) = seconds {
        // The traced run, the reference variants and the layer loops need
        // their share of a run that is meant to last about `s` seconds.
        let share = if o.trace == Some(true) { 3.0 } else { 1.0 };
        (o.min_rounds, o.budget) = (3, Duration::from_secs_f64(s / share));
    }
    Ok(o)
}

/// One repetition, with a panic anywhere inside it turned into failed
/// operations instead of a dead benchmark.
fn guarded_rep(w: Workload, seed: u64, variant: Variant, spans: &mut Spans) -> Rep {
    catch_unwind(AssertUnwindSafe(|| workloads::rep(w, seed, variant, spans))).unwrap_or_else(
        |panic| {
            let why = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or(panic.downcast_ref::<&str>().copied())
                .unwrap_or("a panic without a message");
            Rep {
                ops: 1,
                failures: vec![format!("{}: panicked: {why}", w.name())],
                ..Rep::default()
            }
        },
    )
}

/// Account a finished repetition's operations to its workload. With
/// `same_results`, the repetition must also have reproduced the first
/// repetition's fingerprint and event count.
fn account(wr: &mut WorkloadResult, rep: &Rep, what: &str, same_results: bool) {
    wr.ops_attempted += rep.ops;
    wr.failures.extend(rep.failures.iter().cloned());
    let (want, got) = (&wr.cold.stats, &rep.stats);
    let same = (want.fingerprint, want.events) == (got.fingerprint, got.events);
    if same_results && rep.failures.is_empty() && !same {
        wr.failures.push(format!(
            "{} ({what}): fingerprint {:016x} / {} events, the first repetition had {:016x} / {}",
            wr.workload.name(),
            got.fingerprint,
            got.events,
            want.fingerprint,
            want.events
        ));
    }
}

/// One whole set of runs: warm-up, interleaved timed repetitions, then the
/// traced runs, reference variants and layer loops.
fn run_suite(o: &Options) -> Suite {
    let mut canary = vec![layers::canary_ns()];
    let mut off = Spans::off();

    // Untimed warm-up: first-touch page faults, lazy statics and a cold
    // instruction cache are paid here (`setup.cold_ms` reports its set-up).
    let mut results: Vec<WorkloadResult> = o
        .workloads
        .iter()
        .map(|&workload| {
            let cold = guarded_rep(workload, o.seed, Variant::default(), &mut off);
            let mut wr = WorkloadResult {
                workload,
                ops_attempted: 0,
                failures: Vec::new(),
                cold: cold.clone(),
                reps: Vec::new(),
                traced: None,
                null_run_s: Vec::new(),
                twin_run_s: Vec::new(),
                par2_run_s: Vec::new(),
                profiled_run_s: Vec::new(),
            };
            account(&mut wr, &cold, "warm-up", true);
            wr
        })
        .collect();
    canary.push(layers::canary_ns());

    // Timed repetitions, round-robin across workloads, so that a noisy
    // second on a shared host costs each workload one repetition instead
    // of one workload all of its repetitions.
    let started = Instant::now();
    let mut round = 0;
    while round < o.min_rounds || started.elapsed() < o.budget {
        for wr in &mut results {
            let rep = guarded_rep(wr.workload, o.seed, Variant::default(), &mut off);
            account(wr, &rep, "timed", true);
            wr.reps.push(rep);
        }
        canary.push(layers::canary_ns());
        round += 1;
    }

    let mut layer_values = Vec::new();
    if o.traced() {
        // `run_wall_s` of three repetitions of a reference variant. Only a
        // variant that leaves the dynamics alone must reproduce the results.
        let reference = |wr: &mut WorkloadResult, w: Workload, variant: Variant, what: &str| {
            let same_results = w == wr.workload && !variant.null_detector;
            let mut run_s = Vec::new();
            for _ in 0..3 {
                let rep = guarded_rep(w, o.seed, variant, &mut Spans::off());
                account(wr, &rep, what, same_results);
                run_s.push(rep.run_s);
            }
            run_s
        };
        let twin_needed = !o.workloads.contains(&Workload::Ft6Dcqcn);
        for wr in &mut results {
            let w = wr.workload;
            let mut spans = Spans::on();
            let profiled = Variant {
                profile: w.is_sim(),
                ..Variant::default()
            };
            let rep = guarded_rep(w, o.seed, profiled, &mut spans);
            account(wr, &rep, "traced", true);
            if w.is_sim() {
                // Two more profiled runs, so that the tracing overhead
                // compares a best of three with the untraced best.
                wr.profiled_run_s = reference(wr, w, profiled, "profiled");
                wr.profiled_run_s.push(rep.run_s);
            }
            wr.traced = Some(Traced { rep, spans });
            match w {
                Workload::Fig2Storm => {
                    let null = Variant {
                        null_detector: true,
                        ..Variant::default()
                    };
                    wr.null_run_s = reference(wr, w, null, "null detector");
                }
                Workload::Ft6DcqcnObs if twin_needed => {
                    let twin = Workload::Ft6Dcqcn;
                    wr.twin_run_s = reference(wr, twin, Variant::default(), "obs-off twin");
                }
                Workload::VictimSweep => {
                    let par2 = Variant {
                        threads: 2,
                        ..Variant::default()
                    };
                    wr.par2_run_s = reference(wr, w, par2, "2 threads");
                }
                _ => {}
            }
            canary.push(layers::canary_ns());
        }
        layer_values = layers::measure();
        canary.push(layers::canary_ns());
    }

    Suite {
        seed: o.seed,
        results,
        layers: layer_values,
        canary,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tcdbench: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let first = run_suite(&o);
    output::print_suite(&first);
    let mut failed = first.ops_failed() > 0;
    for wr in &first.results {
        for line in metrics::consistency_failures(&first, wr) {
            println!("FAILED CHECK  {line}");
            failed = true;
        }
    }

    let mut verdicts = Vec::new();
    if o.repeat {
        let second = run_suite(&o);
        failed |= second.ops_failed() > 0;
        verdicts = output::compare(&first, &second);
        failed |= output::print_comparison(&verdicts);
    }

    if let Err(e) = output::write_files(&first, &verdicts) {
        eprintln!("tcdbench: cannot write target/tcdbench: {e}");
        failed = true;
    }
    if let Some(trace) = o.trace {
        println!("{}", output::contract_line(&first, trace));
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        let o = parse_args(&args(
            "--workload fig2-storm --seed 9 --seconds 12 --trace 0",
        ))
        .unwrap();
        assert_eq!(o.workloads, vec![Workload::Fig2Storm]);
        assert_eq!((o.seed, o.traced(), o.trace), (9, false, Some(false)));
        assert_eq!((o.min_rounds, o.budget), (3, Duration::from_secs(12)));
        let o = parse_args(&args("--workload victim-sweep --seconds 12 --trace 1")).unwrap();
        assert_eq!((o.traced(), o.trace), (true, Some(true)));
        assert_eq!((o.min_rounds, o.budget), (3, Duration::from_secs(4)));
        let o = parse_args(&args("--repeat")).unwrap();
        assert_eq!((o.min_rounds, o.budget), (7, Duration::ZERO));
        assert_eq!((o.repeat, o.traced(), o.workloads.len()), (true, true, 5));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload ft6",
            "--seed x",
            "--seconds 0",
            "--trace 2 --workload ft6-ibcc",
            "--trace 0",
            "--seed",
            "--only fig2-storm",
            "--quick",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
