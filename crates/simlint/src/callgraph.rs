//! Call-graph reachability over the symbol table.
//!
//! Resolution is name-based and conservative, matching the symbol table's
//! over-approximation: a call to `name` resolves to *every* workspace
//! function named `name` (narrowed to a single impl when the call is
//! written `Type::name(..)` and such an impl exists). Dynamic dispatch
//! therefore "just works": `detector.on_dequeue(..)` reaches every
//! `on_dequeue` impl in the workspace, which is exactly what the hot-path
//! rules need — any of them may run per event.
//!
//! The hot set is everything reachable from the engine's dispatch root
//! (`Simulator::drive`, the single event loop every `run*` entry point
//! funnels through), never entering `#[cfg(..)]`-gated definitions.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::symbols::FnDef;

/// Indices (into `defs`) of every non-gated definition reachable from the
/// functions named `root`, including the roots themselves.
pub fn reachable(defs: &[FnDef], root: &str) -> BTreeSet<usize> {
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, d) in defs.iter().enumerate() {
        by_name.entry(d.name.as_str()).or_default().push(i);
    }
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (i, d) in defs.iter().enumerate() {
        if d.name == root && !d.cfg_gated {
            seen.insert(i);
            queue.push_back(i);
        }
    }
    while let Some(i) = queue.pop_front() {
        for call in &defs[i].calls {
            let Some(candidates) = by_name.get(call.name.as_str()) else {
                continue;
            };
            // `Type::name(..)`: narrow to that impl when one exists. A
            // CamelCase qualifier owning no workspace impl is an external
            // type (`BTreeMap::new`, `String::from`) — resolving it to
            // every same-named workspace function would drag whole crates
            // into the hot set, so it resolves to nothing. Lowercase
            // qualifiers are module paths (`fault::apply`), where the
            // conservative fan-out is kept.
            let narrowed: Vec<usize> = match &call.qualifier {
                Some(q) => {
                    let owned: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|&c| defs[c].owner.as_deref() == Some(q.as_str()))
                        .collect();
                    if !owned.is_empty() {
                        owned
                    } else if q.chars().next().is_some_and(char::is_uppercase) {
                        Vec::new()
                    } else {
                        candidates.clone()
                    }
                }
                None => candidates.clone(),
            };
            for c in narrowed {
                if !defs[c].cfg_gated && seen.insert(c) {
                    queue.push_back(c);
                }
            }
        }
    }
    seen
}

/// Per-file line spans of the hot (event-path-reachable) functions:
/// `file -> [(from_line, to_line)]`, suitable for a "is this line hot?"
/// query during the token lint.
pub fn hot_ranges(defs: &[FnDef], root: &str) -> BTreeMap<String, Vec<(u32, u32)>> {
    let mut out: BTreeMap<String, Vec<(u32, u32)>> = BTreeMap::new();
    for i in reachable(defs, root) {
        let d = &defs[i];
        out.entry(d.file.clone())
            .or_default()
            .push((d.from_line, d.to_line));
    }
    for spans in out.values_mut() {
        spans.sort_unstable();
    }
    out
}

/// The functions the hot set consists of, as `(file, name, from_line)`,
/// sorted — the machine-readable coverage list for `lint --json`.
pub fn hot_functions(defs: &[FnDef], root: &str) -> Vec<(String, String, u32)> {
    let mut out: Vec<(String, String, u32)> = reachable(defs, root)
        .into_iter()
        .map(|i| {
            let d = &defs[i];
            (d.file.clone(), d.name.clone(), d.from_line)
        })
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::extract;

    fn defs_of(files: &[(&str, &str)]) -> Vec<FnDef> {
        files
            .iter()
            .flat_map(|(rel, src)| extract(rel, src))
            .collect()
    }

    #[test]
    fn bfs_reaches_methods_and_cross_file_calls() {
        let defs = defs_of(&[
            (
                "sim.rs",
                "fn drive() { dispatch(); }\nfn dispatch() { x.on_event(1); }\nfn cold() { dispatch(); }\n",
            ),
            (
                "node.rs",
                "impl Node { fn on_event(&mut self, v: u32) { self.push(v) }\n fn push(&mut self, v: u32) {} \n fn unrelated(&self) {} }\n",
            ),
        ]);
        let hot = hot_ranges(&defs, "drive");
        // drive + dispatch hot in sim.rs; cold is not (nothing reaches it).
        assert_eq!(hot["sim.rs"], vec![(1, 1), (2, 2)]);
        // on_event and push hot in node.rs; unrelated is not.
        assert_eq!(hot["node.rs"], vec![(1, 1), (2, 2)]);
    }

    #[test]
    fn qualified_calls_narrow_to_the_owning_impl() {
        let defs = defs_of(&[(
            "a.rs",
            "fn drive() { Fast::go(); }\n\
             impl Fast { fn go() {} }\n\
             impl Slow { fn go() { never(); } }\n\
             fn never() {}\n",
        )]);
        let hot = hot_functions(&defs, "drive");
        let names: Vec<&str> = hot.iter().map(|(_, n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["drive", "go"]);
        // Only Fast::go (line 2), not Slow::go (line 3).
        assert_eq!(hot.iter().find(|(_, n, _)| n == "go").unwrap().2, 2);
    }

    #[test]
    fn gated_defs_are_neither_roots_nor_traversed() {
        let defs = defs_of(&[(
            "a.rs",
            "fn drive() { audit_hook(); }\n\
             #[cfg(feature = \"audit\")]\nfn audit_hook() { deep(); }\n\
             fn deep() {}\n",
        )]);
        let names: Vec<String> = hot_functions(&defs, "drive")
            .into_iter()
            .map(|(_, n, _)| n)
            .collect();
        assert_eq!(names, vec!["drive"]);
    }

    #[test]
    fn unqualified_call_fans_out_to_every_impl() {
        let defs = defs_of(&[(
            "a.rs",
            "fn drive() { d.update(); }\n\
             impl Dcqcn { fn update(&mut self) {} }\n\
             impl Timely { fn update(&mut self) {} }\n",
        )]);
        assert_eq!(hot_functions(&defs, "drive").len(), 3);
    }
}
