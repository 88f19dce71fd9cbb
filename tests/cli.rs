//! `tcdsim` argument validation: malformed or out-of-range input prints
//! usage and exits 2 — it never runs a degenerate experiment and reports
//! success — and an unwritable output path is reported, not a panic.
//! Scenario names resolve through the one catalog: `trace`, `metrics` and
//! `lint --topo` accept every row and reject everything else alike.

use std::process::{Command, Output};
use tcd_repro::scenarios::{self, Lint, CATALOG};

fn tcdsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tcdsim"))
        .args(args)
        .output()
        .expect("run tcdsim")
}

fn exit_code(args: &[&str]) -> Option<i32> {
    tcdsim(args).status.code()
}

#[test]
fn out_of_range_and_removed_options_exit_2() {
    for args in [
        &["trees", "--at-ms", "-5"][..],
        &["trees", "--at-ms", "nan"],
        &["trees", "--at-ms", "inf"],
        &["sweep", "--seeds", "0"],
        &["sweep", "--history", "h.jsonl"],
        &["perf"],
        &["metrics", "fig03", "--end-ms", "inf"],
        &["metrics", "fig03", "--end-ms", "1e30"],
        &["metrics", "fig03", "--end-ms", "1e-12"],
        &["lint", "--code"],
        &["lint", "--spec-table", "x"],
        &["fig", "fig08_ton_surface", "--seed", "seven"],
        &["fig", "fig08_ton_surface", "--seed"],
        &["fig", "fig08_ton_surface", "--threads", "0"],
        &["fig", "fig08_ton_surface", "--threads", "-1"],
        &["fig", "fig08_ton_surface", "--fast"],
        &["fig", "fig08_ton_surface", "--scale", "0.5"],
        &["observe"],
        &["victim"],
        &["fairness"],
        &["trees", "--csv", "d"],
    ] {
        let out = tcdsim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "tcdsim {}", args.join(" "));
        assert!(stderr.starts_with("usage: tcdsim"), "{stderr}");
    }
}

/// `lint` analyses the catalog compiled into the binary: it reads no
/// source tree, so it runs from any directory.
#[test]
fn lint_runs_outside_the_repository_and_reports_topologies_only() {
    let lint = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_tcdsim"))
            .arg("lint")
            .args(args)
            .current_dir(std::env::temp_dir())
            .output()
            .expect("run tcdsim")
    };
    let text = lint(&[]);
    let stdout = String::from_utf8_lossy(&text.stdout);
    assert_eq!(text.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("topology lint: "), "{stdout}");

    let json = lint(&["--json"]);
    assert_eq!(json.status.code(), Some(0));
    let doc = tcd_repro::obs::json::parse(&String::from_utf8_lossy(&json.stdout)).expect("JSON");
    assert_eq!(
        doc.get("ok"),
        Some(&tcd_repro::obs::json::Value::Bool(true))
    );
    let scenarios = doc
        .get("scenarios")
        .and_then(|s| s.as_arr())
        .expect("array");
    assert!(!scenarios.is_empty());
    assert_eq!(doc.get("hot_functions"), None);

    let seeded = lint(&["--json", "--topo", "deadlock-triangle"]);
    assert_eq!(seeded.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&seeded.stdout).starts_with("{\"ok\":false,"));
}

#[test]
fn unwritable_output_path_exits_1_without_panicking() {
    let out = tcdsim(&["sweep", "--seeds", "1", "--out", "/proc/nope"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("cannot write /proc/nope/sweep.json"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn unparsable_tcd_threads_is_reported_not_silently_ignored() {
    let dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/cli_tcd_threads");
    let out = Command::new(env!("CARGO_BIN_EXE_tcdsim"))
        .args(["sweep", "--seeds", "1", "--out", dir])
        .env("TCD_THREADS", "two")
        .output()
        .expect("run tcdsim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert_eq!(
        stderr.matches("warning: TCD_THREADS=\"two\"").count(),
        1,
        "{stderr}"
    );
}

#[test]
fn every_catalog_name_is_accepted_by_trace_metrics_and_lint() {
    let dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/cli_catalog");
    let names: std::collections::BTreeSet<_> = CATALOG.iter().map(|row| row.name).collect();
    assert_eq!(names.len(), CATALOG.len(), "one name per scenario");
    for row in &CATALOG {
        let name = row.name;
        for cmd in ["trace", "metrics"] {
            let out = format!("{dir}/{cmd}_{name}.json");
            let run = tcdsim(&[cmd, name, "--end-ms", "0.05", "--out", &out]);
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert_eq!(run.status.code(), Some(0), "{cmd} {name}: {stderr}");
        }
        // Clean rows pass; a row recording a seeded error exits 1 with it.
        let want = if row.lint == Lint::Clean { 0 } else { 1 };
        assert_eq!(
            exit_code(&["lint", "--topo", name]),
            Some(want),
            "lint --topo {name}"
        );
    }
}

#[test]
fn unknown_and_retired_names_exit_2_with_the_same_list_everywhere() {
    let listing = scenarios::listing();
    for name in ["no-such-scenario", "fig12", "fig13", "ib-tcd", "leaf-spine"] {
        for args in [
            &["trace", name][..],
            &["metrics", name],
            &["lint", "--topo", name],
        ] {
            let out = tcdsim(args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "tcdsim {}", args.join(" "));
            assert!(
                stderr.ends_with(&format!("known scenarios:\n{listing}")),
                "tcdsim {}: {stderr}",
                args.join(" ")
            );
        }
    }
}

#[test]
fn readme_scenario_table_lists_every_catalog_row() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md");
    for row in &CATALOG {
        // | `name` | what it is | paper | golden | lint |
        let cell = format!("| `{}` |", row.name);
        let line = readme.lines().find(|l| l.starts_with(&cell));
        let line = line.unwrap_or_else(|| panic!("README.md has no table row for {}", row.name));
        let cols: Vec<&str> = line.split('|').map(str::trim).collect();
        assert_eq!(
            cols[4] != "–",
            row.golden.is_some(),
            "golden column: {line}"
        );
        let raises = cols[5].starts_with("raises");
        assert_eq!(raises, row.lint != Lint::Clean, "lint column: {line}");
    }
}
