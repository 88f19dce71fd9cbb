//! `tcdsim` argument validation: malformed or out-of-range input prints
//! usage and exits 2 — it never runs a degenerate experiment and reports
//! success.

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_tcdsim"))
        .args(args)
        .output()
        .expect("run tcdsim")
        .status
        .code()
}

#[test]
fn out_of_range_and_removed_options_exit_2() {
    for args in [
        &["trees", "--at-ms", "-5"][..],
        &["trees", "--at-ms", "nan"],
        &["trees", "--at-ms", "inf"],
        &["sweep", "--seeds", "0"],
        &["sweep", "--history", "h.jsonl"],
        &["perf", "--history", "h.jsonl"],
        &["perf", "--gate"],
    ] {
        assert_eq!(exit_code(args), Some(2), "tcdsim {}", args.join(" "));
    }
}
