//! `tcdsim` — command-line front end for the TCD reproduction.
//!
//! ```console
//! $ tcdsim fig fig03_single_cp
//! $ tcdsim fig fig16_dcqcn_workloads --full --seed 3
//! $ tcdsim trees --at-ms 1.0
//! $ tcdsim trace fig03
//! ```
//!
//! `fig` prints one table or figure of the paper (a row of
//! `figures::FIGURES`); the other subcommands drive catalog scenarios and
//! print a compact report or write a JSON document.

use std::process::exit;
use tcd_repro::figures;
use tcd_repro::flowctl::SimTime;
use tcd_repro::harness;
use tcd_repro::obs_export;
use tcd_repro::report;
use tcd_repro::scenarios::{self, observation, victim, Lint, Network, Scale};
use tcd_repro::tcd::tree;

fn usage() -> ! {
    eprintln!(
        "usage: tcdsim <command> [options]

commands:
  fig        print one table or figure of the paper (results/<figure>.txt)
  trees      reconstruct congestion trees mid-incast (Fig. 5)
  sweep      the victim grid (network x detector x seed) on a worker pool
  trace      run a named scenario and emit a Chrome/Perfetto trace.json
  metrics    run a named scenario and emit the metrics registry as JSON
  lint       static analysis: scenario topology and fault-plan checks

fig options:       <figure> [--seed N] [--threads N] [--full]
                                            a figure-table name (README.md,
                                            \"Reproducing the paper\" says what
                                            each honours; an unknown name
                                            prints the list)
trees options:     --network cee|ib         (default cee)
                   --at-ms F                (default 1.0)
trace/metrics:     <scenario>               a scenario-catalog name (README.md,
                                            \"Scenario catalog\"; an unknown
                                            name prints the list)
                   --end-ms F               simulated duration (default: the
                                            scenario's own run length)
                   --out PATH               output file (default
                                            results/trace_<scenario>.json or
                                            results/metrics_<scenario>.json)
sweep options:     --seeds N                seeds per cell (default 3)
                   --threads N              worker threads (default: TCD_THREADS
                                            or the machine's parallelism; results
                                            are identical at any value)
                   --out DIR                report directory (default results)
lint options:      --topo NAME              analyze only NAME (repeatable): a
                                            catalog scenario or a lint-only
                                            fixture (seeded-cyclic-triangle|
                                            -square, seeded-headroom-starved);
                                            default: every catalog row expected
                                            clean
                   --json                   emit one machine-readable JSON
                                            report line instead of text"
    );
    exit(2)
}

struct Args {
    cmd: String,
    /// Every flag given, without its value.
    flags: Vec<String>,
    network: Network,
    seed: u64,
    full: bool,
    at_ms: f64,
    seeds: u64,
    threads: usize,
    out: Option<String>,
    lint_topos: Vec<String>,
    lint_json: bool,
    /// The positional argument: a scenario or figure name.
    name: Option<String>,
    end_ms: Option<f64>,
}

fn parse() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let Some(cmd) = argv.get(1).cloned() else {
        usage()
    };
    let mut a = Args {
        cmd,
        flags: Vec::new(),
        network: Network::Cee,
        seed: 1,
        full: false,
        at_ms: 1.0,
        seeds: 3,
        threads: harness::default_threads(),
        out: None,
        lint_topos: Vec::new(),
        lint_json: false,
        name: None,
        end_ms: None,
    };
    // The value after flag `i`, parsed and range-checked; anything else is
    // a usage error.
    fn checked<T: std::str::FromStr>(argv: &[String], i: usize, ok: impl Fn(&T) -> bool) -> T {
        argv.get(i + 1)
            .and_then(|s| s.parse().ok())
            .filter(ok)
            .unwrap_or_else(|| usage())
    }
    fn value<T: std::str::FromStr>(argv: &[String], i: usize) -> T {
        checked(argv, i, |_| true)
    }
    let mut i = 2;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag.starts_with('-') {
            a.flags.push(flag.to_string());
        }
        // Flags that take no value.
        let switch = match flag {
            "--full" => Some(&mut a.full),
            "--json" => Some(&mut a.lint_json),
            _ => None,
        };
        if let Some(on) = switch {
            *on = true;
            i += 1;
            continue;
        }
        match flag {
            "--network" => {
                a.network = match value::<String>(&argv, i).as_str() {
                    "cee" => Network::Cee,
                    "ib" => Network::Ib,
                    _ => usage(),
                }
            }
            "--seed" => a.seed = value(&argv, i),
            "--at-ms" => a.at_ms = checked(&argv, i, |&v: &f64| v.is_finite() && v >= 0.0),
            "--seeds" => a.seeds = checked(&argv, i, |&n| n >= 1),
            "--threads" => a.threads = checked(&argv, i, |&n| n >= 1),
            "--out" => a.out = Some(value(&argv, i)),
            "--end-ms" => {
                let in_clock_range = |&v: &f64| (1..u64::MAX).contains(&ms_to_ps(v));
                a.end_ms = Some(checked(&argv, i, in_clock_range));
            }
            "--topo" => a.lint_topos.push(value(&argv, i)),
            s if !s.starts_with('-') && a.name.is_none() => {
                a.name = Some(s.to_string());
                i += 1;
                continue;
            }
            _ => usage(),
        }
        i += 2;
    }
    a
}

/// Milliseconds to picoseconds. The cast saturates: NaN and anything
/// below half a picosecond read 0, `inf` and anything past the clock's
/// range read `u64::MAX`.
fn ms_to_ps(ms: f64) -> u64 {
    (ms * 1e9) as u64
}

/// Report an output path that could not be written and exit 1.
fn fail(path: &str, err: std::io::Error) -> ! {
    eprintln!("tcdsim: cannot write {path}: {err}");
    exit(1)
}

/// Write `doc` to `path`, creating its parent directory first.
fn write_output(path: &str, doc: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(path, e));
        }
    }
    std::fs::write(path, doc).unwrap_or_else(|e| fail(path, e));
}

/// `tcdsim fig <figure>`: print one row of the figure table, or exit 2
/// with the table's listing. A flag the row does not use is accepted, so
/// `run_all.sh` can hand every row the same arguments, and reported on
/// stderr as having no effect.
fn cmd_fig(a: &Args) {
    let row = match a.name.as_deref() {
        Some(name) => figures::by_name(name).ok_or_else(|| format!("unknown figure `{name}`")),
        None => Err("missing <figure>".to_string()),
    };
    let row = row.unwrap_or_else(|why| {
        eprint!("fig: {why}\nknown figures:\n{}", figures::listing());
        exit(2)
    });
    for flag in a.flags.iter().filter(|f| !row.honours(f)) {
        eprintln!("note: {} does not use `{flag}`; it has no effect", row.name);
    }
    row.print(a.seed, a.threads, a.full);
}

fn cmd_trees(a: &Args) {
    let mut sim = observation::build(observation::Options {
        network: a.network,
        use_tcd: true,
        ..Default::default()
    })
    .sim;
    sim.run_until(SimTime::from_ps(ms_to_ps(a.at_ms)));
    let snap = sim.congestion_snapshot(sim.config().data_prio);
    let ts = tree::trees(&snap);
    println!("congestion trees at {} ms: {}", a.at_ms, ts.len());
    for t in &ts {
        let node = t.root >> 16;
        let port = t.root & 0xffff;
        println!(
            "  root {} port {port} | {} leaves | depth {}",
            sim.topology().name(tcd_repro::netsim::NodeId(node as u32)),
            t.leaves.len(),
            t.depth(&snap)
        );
    }
    let bad = tree::inconsistent_leaves(&snap);
    if !bad.is_empty() {
        println!("inconsistent leaves: {bad:?}");
    }
}

fn cmd_sweep(a: &Args) {
    let sweep = victim::sweep(a.seeds);
    let n = sweep.len();
    println!("running {n} victim runs on {} threads...", a.threads);
    let rep = sweep.run(a.threads);
    let mut t = report::Table::new(vec!["run", "CE frac", "mean FCT (us)", "PAUSE"]);
    for r in &rep.results {
        t.row(vec![
            r.id.clone(),
            report::pct(r.outcome.metric("victim_ce_fraction").unwrap_or(0.0)),
            report::f2(r.outcome.metric("victim_mean_fct_us").unwrap_or(0.0)),
            format!("{}", r.outcome.metric("pause_frames").unwrap_or(0.0) as u64),
        ]);
    }
    t.print();
    let results = format!("{}/sweep.json", a.out.as_deref().unwrap_or("results"));
    rep.write_json(&results)
        .unwrap_or_else(|e| fail(&results, e));
    println!(
        "fingerprint {:016x} | {} events in {:.2} s ({:.0} events/s) | wrote {results}",
        rep.merged_fingerprint(),
        rep.total_events(),
        rep.total_wall_s,
        rep.events_per_sec()
    );
}

/// The catalog row called `name`, or exit 2 with the catalog listing —
/// the one way `trace`, `metrics` and `lint --topo` resolve a name.
fn scenario_or_exit(cmd: &str, name: Option<&str>) -> &'static scenarios::Scenario {
    match name {
        Some(name) => {
            if let Some(row) = scenarios::by_name(name) {
                return row;
            }
            eprintln!("{cmd}: unknown scenario `{name}`");
        }
        None => eprintln!("{cmd}: missing <scenario>"),
    }
    eprint!("known scenarios:\n{}", scenarios::listing());
    exit(2)
}

/// `tcdsim trace <scenario>` / `tcdsim metrics <scenario>`: run a catalog
/// scenario and write the requested JSON document. Output is structurally
/// validated before anything touches the filesystem.
fn cmd_export(a: &Args, metrics: bool) {
    let row = scenario_or_exit(&a.cmd, a.name.as_deref());
    let name = row.name;
    let end = a
        .end_ms
        .map_or(row.end, |ms| SimTime::from_ps(ms_to_ps(ms)));
    let sim = row.run(Scale::new(end));
    // A deadlock is an outcome of the run, not a failure of the command
    // (the `deadlock-triangle` row exists to wedge): reported, exit 0.
    if let Some(d) = sim.deadlock() {
        eprintln!("{name}: deadlock at {}: {}", d.t, d.hops(sim.topology()));
    }
    let (doc, kind) = if metrics {
        let doc = obs_export::metrics_json(&sim);
        if let Err(e) = tcd_repro::obs::json::parse(&doc) {
            eprintln!("metrics: generated invalid JSON ({e}); not writing");
            exit(1);
        }
        (doc, "metrics")
    } else {
        let doc = obs_export::perfetto_trace_json(&sim);
        match tcd_repro::obs::perfetto::validate_chrome_trace(&doc) {
            Ok(n) => println!("trace: {n} Chrome-trace events"),
            Err(e) => {
                eprintln!("trace: generated invalid Chrome trace ({e}); not writing");
                exit(1);
            }
        }
        (doc, "trace")
    };
    let path = a
        .out
        .clone()
        .unwrap_or_else(|| format!("results/{kind}_{name}.json"));
    write_output(&path, &doc);
    println!(
        "wrote {path} ({} bytes, {name} over {} ms, {} sim events)",
        doc.len(),
        end.as_ms_f64(),
        sim.trace.events
    );
}

fn cmd_lint(a: &Args) {
    use tcd_repro::lintspec;

    let specs: Vec<simlint::TopoSpec> = if a.lint_topos.is_empty() {
        scenarios::CATALOG
            .iter()
            .filter(|row| row.lint == Lint::Clean)
            .map(|row| row.lint_spec())
            .collect()
    } else {
        // A lint-only fixture, else a catalog row (or exit 2).
        a.lint_topos
            .iter()
            .map(|name| {
                lintspec::build(name)
                    .unwrap_or_else(|| scenario_or_exit("lint", Some(name)).lint_spec())
            })
            .collect()
    };

    let reports: Vec<_> = specs.iter().map(simlint::analyze).collect();
    if a.lint_json {
        print!("{}", simlint::json_report(&reports));
    } else {
        for rep in reports.iter().filter(|rep| !rep.diags.is_empty()) {
            println!(
                "{}: {} channel(s), {} dependency edge(s)",
                rep.scenario, rep.channels, rep.dependencies
            );
            for d in &rep.diags {
                println!("  {d}");
            }
        }
        let clean = reports.iter().filter(|rep| rep.diags.is_empty()).count();
        println!("topology lint: {clean}/{} scenario(s) clean", reports.len());
    }
    if reports.iter().any(|rep| rep.has_errors()) {
        exit(1);
    }
}

fn main() {
    let a = parse();
    match a.cmd.as_str() {
        "fig" => cmd_fig(&a),
        "trees" => cmd_trees(&a),
        "sweep" => cmd_sweep(&a),
        "trace" => cmd_export(&a, false),
        "metrics" => cmd_export(&a, true),
        "lint" => cmd_lint(&a),
        _ => usage(),
    }
}
