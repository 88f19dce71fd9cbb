//! Machine-readable lint report (`tcdsim lint --json`).
//!
//! The JSON is hand-rolled (the workspace takes no serde dependency) and
//! kept flat and stable so CI and external tooling can consume it:
//!
//! ```json
//! {
//!   "ok": false,
//!   "scenarios": [
//!     { "name": "...", "channels": 12, "dependencies": 18, "errors": 1,
//!       "findings": [ {"severity": "error", "check": "fault-route-cycle",
//!                      "message": "...",
//!                      "cycle": [ {"node": "s0", "port": 1}, ... ]} ] }
//!   ]
//! }
//! ```
//!
//! Cycle hops are emitted in dependency order without repeating the first
//! hop — exactly the `TopoDiag::cycle` field.

use std::fmt::Write as _;

use lossless_obs::json::escape;

use crate::topolint::{Severity, TopoReport};

/// Render the lint run as a JSON object (one line, trailing newline).
pub fn json_report(scenarios: &[TopoReport]) -> String {
    let ok = scenarios.iter().all(|r| !r.has_errors());
    let mut s = String::new();
    let _ = write!(s, "{{\"ok\":{ok},\"scenarios\":[");
    for (i, rep) in scenarios.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"name\":{},\"channels\":{},\"dependencies\":{},\"errors\":{},\"findings\":[",
            escape(&rep.scenario),
            rep.channels,
            rep.dependencies,
            rep.error_count()
        );
        for (j, d) in rep.diags.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let sev = match d.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
            };
            let _ = write!(
                s,
                "{{\"severity\":\"{sev}\",\"check\":\"{}\",\"message\":{},\"cycle\":[",
                d.check,
                escape(&d.message)
            );
            for (k, (node, port)) in d.cycle.iter().enumerate() {
                if k > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{{\"node\":{},\"port\":{port}}}", escape(node));
            }
            s.push_str("]}");
        }
        s.push_str("]}");
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topolint::TopoDiag;

    #[test]
    fn escaping_and_shape() {
        let scen = vec![TopoReport {
            scenario: "ring".into(),
            channels: 6,
            dependencies: 9,
            diags: vec![TopoDiag {
                severity: Severity::Error,
                check: "fault-route-cycle",
                message: "cycle with \"quotes\"\nand a newline".into(),
                cycle: vec![("s0".into(), 1), ("s1".into(), 2)],
            }],
        }];
        let j = json_report(&scen);
        assert!(
            j.starts_with("{\"ok\":false,\"scenarios\":[{\"name\":\"ring\","),
            "{j}"
        );
        assert!(j.contains("\\\"quotes\\\"\\nand a newline"), "{j}");
        assert!(
            j.contains("\"cycle\":[{\"node\":\"s0\",\"port\":1},{\"node\":\"s1\",\"port\":2}]"),
            "{j}"
        );
        assert!(lossless_obs::json::parse(&j).is_ok(), "{j}");
    }

    #[test]
    fn clean_run_is_ok() {
        assert_eq!(json_report(&[]), "{\"ok\":true,\"scenarios\":[]}\n");
    }
}
