//! `tcdsim` argument validation: malformed or out-of-range input prints
//! usage and exits 2 — it never runs a degenerate experiment and reports
//! success — and an unwritable output path is reported, not a panic.

use std::process::{Command, Output};

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
    ] {
        assert_eq!(exit_code(args), Some(2), "tcdsim {}", args.join(" "));
    }
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
