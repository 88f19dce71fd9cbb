//! Fig. 6 conformance, executed: the committed machine-readable table
//! (`crates/core/fig6.spec` — three states with their paper symbols, six
//! numbered transitions) is compared against what `state.rs` and the
//! detector actually *do*. Changing the state machine deliberately means
//! re-blessing the table in the same commit.

use std::collections::BTreeMap;

use lossless_flowctl::{SimDuration, SimTime};
use tcd_core::detector::{CongestionDetector, DequeueContext};
use tcd_core::state::Transition;
use tcd_core::{TcdConfig, TcdDetector, TernaryState};

const STATES: [TernaryState; 3] = [
    TernaryState::NonCongestion,
    TernaryState::Congestion,
    TernaryState::Undetermined,
];

/// A detector driven, through its public inputs only, until it reports
/// `target`. The match is exhaustive, so a fourth state does not compile
/// until it has a script here.
fn drive_to(target: TernaryState) -> TcdDetector {
    let mut det = TcdDetector::new(TcdConfig::new(SimDuration::from_us(30), 200_000, 10_000));
    let dequeue = |det: &mut TcdDetector, t_us, queue_bytes| {
        det.on_dequeue(&DequeueContext {
            now: SimTime::from_us(t_us),
            queue_bytes,
            delayed_by_fc: false,
        });
    };
    match target {
        TernaryState::NonCongestion => dequeue(&mut det, 1, 50_000),
        TernaryState::Congestion => dequeue(&mut det, 1, 250_000),
        TernaryState::Undetermined => {
            det.on_pause(SimTime::from_us(10));
            det.on_resume(SimTime::from_us(20));
            dequeue(&mut det, 25, 300_000);
        }
    }
    det
}

/// Compare the implementation with `table` (the `fig6.spec` format).
/// `Ok` holds one line per mismatch, empty when they agree; `Err` is a
/// table that cannot be read at all.
fn conformance(table: &str) -> Result<Vec<String>, String> {
    // state name -> paper symbol, (from, to) -> (number, variant name)
    let mut symbols = BTreeMap::new();
    let mut transitions = BTreeMap::new();
    for (i, line) in table.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |msg: &str| format!("line {}: {msg}: `{line}`", i + 1);
        match *line.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["state", name, sym] => {
                let mut chars = sym.chars();
                let (Some(c), None) = (chars.next(), chars.next()) else {
                    return Err(bad("state symbol must be one character"));
                };
                symbols.insert(name, c);
            }
            ["transition", n, from, to, variant] => {
                let n: u32 = n.parse().map_err(|_| bad("transition number"))?;
                transitions.insert((from, to), (n, variant));
            }
            _ => {
                return Err(bad(
                    "expected `state <name> <symbol>` or `transition <n> <from> <to> <variant>`",
                ))
            }
        }
    }
    for ((from, to), (n, _)) in &transitions {
        if !symbols.contains_key(from) || !symbols.contains_key(to) {
            return Err(format!("transition {n} names an undeclared state"));
        }
    }

    let name = |s: TernaryState| format!("{s:?}");
    let mut diffs = Vec::new();
    if symbols.len() != STATES.len() {
        diffs.push(format!(
            "table declares {} states, the enum has {}",
            symbols.len(),
            STATES.len()
        ));
    }
    for s in STATES {
        match symbols.get(name(s).as_str()) {
            None => diffs.push(format!("state {s:?} is not in the table")),
            Some(&c) => {
                if s.symbol() != c {
                    diffs.push(format!(
                        "{s:?}.symbol() is `{}`, table says `{c}`",
                        s.symbol()
                    ));
                }
                if TernaryState::from_symbol(c) != Some(s) {
                    diffs.push(format!("from_symbol(`{c}`) is not {s:?}"));
                }
                if drive_to(s).port_state() != s {
                    diffs.push(format!("the detector did not reach {s:?}"));
                }
            }
        }
    }
    let mut matched = 0;
    for from in STATES {
        for to in STATES {
            let (f, t) = (name(from), name(to));
            let row = transitions.get(&(f.as_str(), t.as_str()));
            let got = Transition::classify(from, to);
            let got_name = got.map(|t| format!("{t:?}"));
            if got_name.as_deref() != row.map(|&(_, v)| v) {
                diffs.push(format!(
                    "classify({from:?}, {to:?}) is {got_name:?}, table row is {row:?}"
                ));
            }
            if let (Some(t), Some(got_name), Some(&(n, _))) = (got, got_name, row) {
                matched += 1;
                if t.endpoints() != (from, to) {
                    diffs.push(format!("{got_name}.endpoints() is not ({from:?}, {to:?})"));
                }
                if !got_name.starts_with(&format!("T{n}")) {
                    diffs.push(format!("{got_name} is numbered {n} in the table"));
                }
            }
        }
    }
    if matched != transitions.len() {
        diffs.push(format!(
            "{} table transitions, {matched} implemented",
            transitions.len()
        ));
    }
    Ok(diffs)
}

#[test]
fn state_machine_matches_the_committed_fig6_table() {
    assert_eq!(conformance(include_str!("../fig6.spec")), Ok(Vec::new()));
}

#[test]
fn swapped_t4_t5_targets_are_reported() {
    let diffs = conformance(include_str!("fixtures/fig6_mutated.spec")).expect("well-formed");
    let about = |pair: &str| {
        diffs
            .iter()
            .any(|d| d.starts_with(&format!("classify({pair})")))
    };
    assert!(about("Undetermined, NonCongestion"), "{diffs:#?}");
    assert!(about("Undetermined, Congestion"), "{diffs:#?}");
}

#[test]
fn malformed_tables_are_errors_not_panics() {
    assert!(conformance("state X").is_err());
    assert!(conformance("state A 0\ntransition 1 A B T1AToB").is_err());
    assert!(conformance("state A 01").is_err());
    assert!(conformance("transition one A A T").is_err());
}
