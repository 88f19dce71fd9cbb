//! What the benchmark prints and writes: the tables, `result.json`, the
//! Chrome traces, the A/A comparison and the contract's one JSON line.

use crate::metrics::{per_layer, Suite, WorkloadResult, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use tcd_repro::obs::json::{escape, num_f64};
use tcd_repro::report::Table;

const OUT_DIR: &str = "target/tcdbench";

fn sig(v: f64) -> String {
    if v == 0.0 || (1e-3..1e7).contains(&v.abs()) {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

/// Print every metric by name and unit, the simulated results beside
/// them, and the failed operations.
pub fn print_suite(suite: &Suite) {
    let canary = crate::quant::Summary::of(&suite.canary);
    println!(
        "tcdbench: seed {}, {} cpu(s), host.canary_ns {} (spread {:.1} %){}",
        suite.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        sig(canary.map_or(0.0, |s| s.median)),
        canary.map_or(0.0, |s| s.spread() * 100.0),
        if suite.noisy() { " — NOISY HOST" } else { "" },
    );

    println!(
        "\n== end to end (host time and memory; the best repetition is the reported value) =="
    );
    let mut t = Table::new(vec![
        "workload", "metric", "unit", "best", "q1", "median", "q3", "max", "n", "spread", "bound",
    ]);
    for wr in &suite.results {
        for m in &END_TO_END {
            let Some(s) = wr.summary(m.name) else {
                continue;
            };
            t.row(vec![
                wr.workload.name().to_string(),
                m.name.to_string(),
                m.unit.to_string(),
                sig(s.min),
                sig(s.q1),
                sig(s.median),
                sig(s.q3),
                sig(s.max),
                s.n.to_string(),
                format!("{:.1} %", s.spread() * 100.0),
                format!("{:.0} %", m.bound * 100.0),
            ]);
        }
    }
    t.print();

    println!("\n== simulated results (every repetition reproduced these, or failed) ==");
    let mut t = Table::new(vec![
        "workload",
        "fingerprint",
        "events",
        "hops",
        "completed",
        "flows",
        "pauses",
        "records",
        "notes",
    ]);
    for wr in &suite.results {
        let s = wr.stats();
        let notes: Vec<String> = s.notes.iter().map(|(k, v)| format!("{k}={v:.4}")).collect();
        t.row(vec![
            wr.workload.name().to_string(),
            format!("{:016x}", s.fingerprint),
            s.events.to_string(),
            s.hops.to_string(),
            s.completed.to_string(),
            s.flows.to_string(),
            s.pause_frames.to_string(),
            s.records.to_string(),
            notes.join(" "),
        ]);
    }
    t.print();

    if !suite.layers.is_empty() {
        println!("\n== per layer (0 where a workload does not exercise the layer) ==");
        let mut headers = vec!["metric".to_string(), "unit".to_string()];
        headers.extend(suite.results.iter().map(|r| r.workload.name().to_string()));
        let mut t = Table::new(headers);
        let columns: Vec<_> = suite
            .results
            .iter()
            .map(|wr| per_layer(suite, wr))
            .collect();
        for (i, &(name, unit)) in PER_LAYER.iter().enumerate() {
            let mut row = vec![name.to_string(), unit.to_string()];
            row.extend(columns.iter().map(|c| sig(c[i].2)));
            t.row(row);
        }
        t.print();
    }

    println!(
        "\nops_attempted {}  ops_failed {}",
        suite.ops_attempted(),
        suite.ops_failed()
    );
    for wr in &suite.results {
        for f in &wr.failures {
            println!("FAILED OP  {f}");
        }
    }
}

/// One row of the A/A comparison.
pub struct Verdict {
    pub workload: &'static str,
    pub metric: &'static str,
    pub first: f64,
    pub second: f64,
    /// By how much `second` may exceed `first`: the metric's bound as a
    /// share of `first`, or its absolute floor, whichever is larger.
    pub allowance: f64,
    /// "PASS", "FAIL" or "unresolved".
    pub verdict: &'static str,
}

/// Compare two sets of runs of the same code: per workload and end-to-end
/// metric, the second value may not be worse than the first by more than
/// the metric's allowance. Where the measurement cannot resolve a change
/// of that size — the canary says the host was noisy, or the repetitions of
/// either set spread (quartile distance) wider than the allowance — the
/// row is `unresolved`, unless every repetition of the second set reads
/// better than every repetition of the first.
pub fn compare(first: &Suite, second: &Suite) -> Vec<Verdict> {
    let noisy = first.noisy() || second.noisy();
    let mut out = Vec::new();
    for (a, b) in first.results.iter().zip(&second.results) {
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (a.summary(m.name), b.summary(m.name)) else {
                continue;
            };
            let (x, y) = (a.best(m.name), b.best(m.name));
            let allowance = m.allowance(x);
            let wide = (sa.q3 - sa.q1).max(sb.q3 - sb.q1) > allowance;
            let verdict = if (noisy || wide) && sb.max >= sa.min {
                "unresolved"
            } else if y <= x + allowance {
                "PASS"
            } else {
                "FAIL"
            };
            out.push(Verdict {
                workload: a.workload.name(),
                metric: m.name,
                first: x,
                second: y,
                allowance,
                verdict,
            });
        }
    }
    out
}

/// Print the comparison; returns whether any row failed.
pub fn print_comparison(verdicts: &[Verdict]) -> bool {
    println!("\n== --repeat: two sets of runs of the same code ==");
    let mut t = Table::new(vec![
        "workload",
        "metric",
        "first",
        "second",
        "second/first",
        "allowed",
        "verdict",
    ]);
    for v in verdicts {
        t.row(vec![
            v.workload.to_string(),
            v.metric.to_string(),
            sig(v.first),
            sig(v.second),
            format!("{:.4}", v.second / v.first),
            sig(v.first + v.allowance),
            v.verdict.to_string(),
        ]);
    }
    t.print();
    verdicts.iter().any(|v| v.verdict == "FAIL")
}

fn metric_json(value: f64, unit: &str) -> String {
    format!(
        "{{\"value\": {}, \"unit\": {}}}",
        num_f64(value),
        escape(unit)
    )
}

fn workload_json(suite: &Suite, wr: &WorkloadResult) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"ops_attempted\": {}, \"ops_failed\": {}, \"end_to_end\": {{",
        wr.ops_attempted,
        wr.ops_failed()
    );
    let mut sep = "";
    for m in &END_TO_END {
        let Some(q) = wr.summary(m.name) else {
            continue;
        };
        let samples: Vec<String> = wr.samples(m.name).iter().map(|&v| num_f64(v)).collect();
        let _ = write!(
            s,
            "{sep}{}: {{\"value\": {}, \"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \
             \"max\": {}, \"n\": {}, \"bound\": {}, \"samples\": [{}]}}",
            escape(m.name),
            num_f64(wr.best(m.name)),
            escape(m.unit),
            num_f64(q.median),
            num_f64(q.q1),
            num_f64(q.q3),
            num_f64(q.max),
            q.n,
            num_f64(m.bound),
            samples.join(", "),
        );
        sep = ", ";
    }
    s.push_str("}, \"per_layer\": {");
    if !suite.layers.is_empty() {
        for (i, (name, unit, v)) in per_layer(suite, wr).into_iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(s, "{sep}{}: {}", escape(name), metric_json(v, unit));
        }
    }
    let st = wr.stats();
    let _ = write!(
        s,
        "}}, \"sim\": {{\"fingerprint\": \"{:016x}\", \"events\": {}, \"hops\": {}, \
         \"completed\": {}, \"flows\": {}, \"pause_frames\": {}, \"records\": {}",
        st.fingerprint, st.events, st.hops, st.completed, st.flows, st.pause_frames, st.records
    );
    for (k, v) in &st.notes {
        let _ = write!(s, ", {}: {}", escape(k), num_f64(*v));
    }
    s.push_str("}}");
    s
}

/// The whole result as JSON.
pub fn result_json(suite: &Suite, verdicts: &[Verdict]) -> String {
    let mut s = String::new();
    let canary: Vec<String> = suite.canary.iter().map(|&v| num_f64(v)).collect();
    let _ = write!(
        s,
        "{{\n  \"schema\": \"tcdbench-v1\",\n  \"seed\": {},\n  \"noisy\": {},\n  \
         \"canary_ns\": [{}],\n  \
         \"ops_attempted\": {},\n  \"ops_failed\": {},\n  \"workloads\": {{\n",
        suite.seed,
        suite.noisy(),
        canary.join(", "),
        suite.ops_attempted(),
        suite.ops_failed()
    );
    for (i, wr) in suite.results.iter().enumerate() {
        let sep = if i > 0 { ",\n" } else { "" };
        let _ = write!(
            s,
            "{sep}    {}: {}",
            escape(wr.workload.name()),
            workload_json(suite, wr)
        );
    }
    s.push_str("\n  },\n  \"repeat\": [");
    for (i, v) in verdicts.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            s,
            "{sep}\n    {{\"workload\": {}, \"metric\": {}, \"first\": {}, \"second\": {}, \
             \"allowance\": {}, \"verdict\": {}}}",
            escape(v.workload),
            escape(v.metric),
            num_f64(v.first),
            num_f64(v.second),
            num_f64(v.allowance),
            escape(v.verdict)
        );
    }
    s.push_str("]\n}\n");
    s
}

/// Write `result.json` and one Chrome trace per traced workload.
pub fn write_files(suite: &Suite, verdicts: &[Verdict]) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    std::fs::write(
        format!("{OUT_DIR}/result.json"),
        result_json(suite, verdicts),
    )?;
    for wr in &suite.results {
        if let Some(t) = &wr.traced {
            let name = wr.workload.name();
            let path = format!("{OUT_DIR}/trace_{name}.json");
            std::fs::write(path, t.spans.chrome_trace_json(name))?;
        }
    }
    Ok(())
}

/// The contract's result line for a single-workload run: the end-to-end
/// metrics (the best of the timed repetitions) or, with `trace`, every
/// per-layer metric.
pub fn contract_line(suite: &Suite, trace: bool) -> String {
    let wr = &suite.results[0];
    let metrics: Vec<String> = if trace {
        per_layer(suite, wr)
            .into_iter()
            .map(|(name, unit, v)| format!("{}: {}", escape(name), metric_json(v, unit)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{}: {}",
                    escape(m.name),
                    metric_json(wr.best(m.name), m.unit)
                )
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        suite.ops_failed() == 0,
        suite.ops_attempted(),
        suite.ops_failed(),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Traced;
    use crate::spans::Spans;
    use crate::workloads::{Rep, Workload};
    use tcd_repro::obs::json;

    /// A suite with made-up numbers: one simulator workload with three
    /// timed repetitions and a traced run.
    fn fake_suite() -> Suite {
        let rep = |run_s: f64| Rep {
            setup_s: 0.5,
            run_s,
            report_s: 0.25,
            peak_heap_bytes: 64 << 20,
            ops: 1,
            ..Rep::default()
        };
        let mut spans = Spans::on();
        spans.scope("setup", |sp| sp.scope("setup.generate", |_| ()));
        Suite {
            seed: 3,
            results: vec![WorkloadResult {
                workload: Workload::Ft6Dcqcn,
                cold: rep(1.0),
                reps: vec![rep(1.0), rep(1.1), rep(1.05)],
                traced: Some(Traced {
                    rep: rep(2.0),
                    spans,
                }),
                null_run_s: Vec::new(),
                twin_run_s: Vec::new(),
                par2_run_s: Vec::new(),
                profiled_run_s: Vec::new(),
                ops_attempted: 5,
                failures: Vec::new(),
            }],
            layers: vec![("event.hold_ns.n1k", 40.0)],
            canary: vec![1.0, 1.0, 1.01],
        }
    }

    #[test]
    fn result_json_round_trips_and_names_every_metric_with_a_unit() {
        let suite = fake_suite();
        let doc = json::parse(&result_json(&suite, &[])).expect("valid JSON");
        assert_eq!(doc.get("noisy"), Some(&json::Value::Bool(false)));
        let wl = doc
            .get("workloads")
            .and_then(|w| w.get("ft6-dcqcn"))
            .unwrap();
        for m in &END_TO_END {
            let got = wl.get("end_to_end").and_then(|e| e.get(m.name)).unwrap();
            assert_eq!(got.get("unit").and_then(|u| u.as_str()), Some(m.unit));
            assert!(got.get("value").and_then(|v| v.as_f64()).unwrap() > 0.0);
        }
        let run = wl
            .get("end_to_end")
            .and_then(|e| e.get("run_wall_s"))
            .unwrap();
        assert_eq!(run.get("value").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(run.get("median").and_then(|v| v.as_f64()), Some(1.05));
        assert_eq!(run.get("n").and_then(|v| v.as_f64()), Some(3.0));
        for (name, unit) in &PER_LAYER {
            let got = wl.get("per_layer").and_then(|l| l.get(name));
            let got = got.unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(got.get("unit").and_then(|u| u.as_str()), Some(*unit));
            assert!(got.get("value").and_then(|v| v.as_f64()).is_some());
        }
        let hold = wl.get("per_layer").and_then(|l| l.get("event.hold_ns.n1k"));
        assert_eq!(
            hold.and_then(|h| h.get("value")).and_then(|v| v.as_f64()),
            Some(40.0)
        );
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let suite = fake_suite();
        for (trace, n) in [(false, END_TO_END.len()), (true, PER_LAYER.len())] {
            let doc = json::parse(&contract_line(&suite, trace)).expect("valid JSON");
            let json::Value::Obj(top) = &doc else {
                panic!("not an object")
            };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&json::Value::Bool(true)));
            assert_eq!(doc.get("attempted").and_then(|v| v.as_f64()), Some(5.0));
            let json::Value::Obj(metrics) = doc.get("metrics").unwrap() else {
                panic!()
            };
            assert_eq!(metrics.len(), n);
        }
    }

    fn verdicts_of(a: &Suite, b: &Suite) -> Vec<(&'static str, &'static str)> {
        let rows = compare(a, b);
        rows.iter().map(|v| (v.metric, v.verdict)).collect()
    }

    #[test]
    fn the_comparison_passes_within_the_bound_or_the_floor() {
        let (a, mut b) = (fake_suite(), fake_suite());
        assert!(compare(&a, &b).iter().all(|v| v.verdict == "PASS"));
        for r in &mut b.results[0].reps {
            r.run_s *= 1.5;
        }
        let failed: Vec<_> = verdicts_of(&a, &b)
            .into_iter()
            .filter(|v| v.1 != "PASS")
            .collect();
        assert_eq!(failed, [("run_wall_s", "FAIL")]);

        // A phase of microseconds may double: the bound is 25 % or 10 ms,
        // whichever is larger. One of a quarter second may not.
        let (mut a, mut b) = (fake_suite(), fake_suite());
        for (ra, rb) in a.results[0].reps.iter_mut().zip(&mut b.results[0].reps) {
            (ra.report_s, rb.report_s) = (5e-6, 1e-5);
            rb.setup_s = 1.0;
        }
        let rows = verdicts_of(&a, &b);
        assert!(rows.contains(&("report_s", "PASS")), "{rows:?}");
        assert!(rows.contains(&("setup_s", "FAIL")), "{rows:?}");
    }

    #[test]
    fn the_comparison_does_not_resolve_what_the_spread_hides() {
        // Repetitions spread wider than the allowance: unresolved, whichever
        // way the best ones compare.
        let (mut a, mut b) = (fake_suite(), fake_suite());
        a.results[0].reps[2].run_s = 2.0;
        assert!(verdicts_of(&a, &b).contains(&("run_wall_s", "unresolved")));
        for r in &mut b.results[0].reps {
            r.run_s *= 1.5;
        }
        assert!(verdicts_of(&a, &b).contains(&("run_wall_s", "unresolved")));
        // Unless every repetition of the second set beats every one of the
        // first.
        for r in &mut b.results[0].reps {
            r.run_s = 0.5;
        }
        assert!(verdicts_of(&a, &b).contains(&("run_wall_s", "PASS")));

        // A noisy canary leaves every row that is not strictly better open.
        let (a, mut b) = (fake_suite(), fake_suite());
        b.canary = vec![1.0, 1.0, 1.5, 1.5];
        assert!(compare(&a, &b).iter().all(|v| v.verdict == "unresolved"));
    }
}
