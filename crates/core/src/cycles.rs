//! The one cycle finder: cyclic waits in a directed graph, in one
//! canonical form.
//!
//! A cycle of hop-by-hop waits is the precursor of PFC/CBFC deadlock (Hu
//! et al., HotNets'16; cited by the paper §1): every buffer on it waits,
//! transitively, on itself. The static analyzer (`simlint`) asks this of
//! the buffer dependencies routing induces, and the simulator's runtime
//! watchdog asks it of the wait-for graph over blocked channels. Both get
//! the same answer for the same graph, so a static and a runtime cycle
//! compare as plain vectors.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The cycles of the directed graph whose edges are `edges` (`(a, b)`:
/// `a` waits on `b`), one per strongly connected component that contains
/// a cycle. Each is the shortest cycle through its component's smallest
/// key, listed from that key with the key not repeated at the end (a
/// self-loop is a one-element cycle); among equally short cycles,
/// breadth-first search over successors in key order picks one. The
/// cycles come in order of their first key.
///
/// Only the edge *set* matters: order and duplicates in `edges` do not
/// change the result.
pub fn find<K: Ord + Copy>(edges: impl IntoIterator<Item = (K, K)>) -> Vec<Vec<K>> {
    let mut succ: BTreeMap<K, BTreeSet<K>> = BTreeMap::new();
    let mut pred: BTreeMap<K, BTreeSet<K>> = BTreeMap::new();
    for (a, b) in edges {
        succ.entry(a).or_default().insert(b);
        pred.entry(b).or_default().insert(a);
    }
    let none = BTreeSet::new();
    let succs = |k: &K| succ.get(k).unwrap_or(&none);

    // Kosaraju: depth-first finishing order over the edges...
    let mut seen = BTreeSet::new();
    let mut finished = Vec::new();
    for &root in succ.keys() {
        if !seen.insert(root) {
            continue;
        }
        let mut stack = vec![(root, succs(&root).iter())];
        while let Some((u, next)) = stack.last_mut() {
            match next.next() {
                Some(&v) => {
                    if seen.insert(v) {
                        stack.push((v, succs(&v).iter()));
                    }
                }
                None => {
                    finished.push(*u);
                    stack.pop();
                }
            }
        }
    }

    // ...then, latest finisher first, everything that reaches a root
    // and is not yet claimed is its component.
    let mut claimed = BTreeSet::new();
    let mut cycles = Vec::new();
    for &root in finished.iter().rev() {
        if !claimed.insert(root) {
            continue;
        }
        let mut component = BTreeSet::from([root]);
        let mut todo = vec![root];
        while let Some(u) = todo.pop() {
            for &v in pred.get(&u).into_iter().flatten() {
                if claimed.insert(v) {
                    component.insert(v);
                    todo.push(v);
                }
            }
        }
        cycles.extend(shortest_cycle(&succs, &component));
    }
    cycles.sort_unstable();
    cycles
}

/// The shortest cycle through the smallest key of `component`, by
/// breadth-first search; `None` for a single key without a self-loop.
/// A path back to the start never leaves its component, so keeping the
/// search inside only prunes it: each component's search is linear in
/// the component, and all of them together in the graph.
fn shortest_cycle<'a, K: Ord + Copy + 'a>(
    succs: &impl Fn(&K) -> &'a BTreeSet<K>,
    component: &BTreeSet<K>,
) -> Option<Vec<K>> {
    let &start = component.first()?;
    let mut prev: BTreeMap<K, K> = BTreeMap::new();
    let mut queue = VecDeque::from([start]);
    while let Some(u) = queue.pop_front() {
        for &v in succs(&u) {
            if v == start {
                let mut cycle = vec![u];
                while let Some(&p) = cycle.last().and_then(|at| prev.get(at)) {
                    cycle.push(p);
                }
                cycle.reverse();
                return Some(cycle);
            }
            if component.contains(&v) && !prev.contains_key(&v) {
                prev.insert(v, u);
                queue.push_back(v);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_ring_is_found_from_its_smallest_key() {
        assert_eq!(find([(2, 3), (3, 1), (1, 2)]), vec![vec![1, 2, 3]]);
    }

    #[test]
    fn trees_and_diamonds_have_no_cycles() {
        assert!(find([(1, 2), (1, 3), (5, 6)]).is_empty());
        assert!(find([(1, 2), (1, 3), (2, 4), (3, 4)]).is_empty());
        assert!(find::<u64>([]).is_empty());
    }

    #[test]
    fn a_self_loop_is_a_cycle() {
        assert_eq!(find([(7, 7)]), vec![vec![7]]);
    }

    #[test]
    fn one_shortest_cycle_per_component_in_key_order() {
        // Component {1, 2, 3, 4}: 1 -> 2 -> 3 -> 4 -> 1 and the chord
        // 2 -> 1 (shortest through 1: [1, 2]); component {5, 6} with a
        // tail 6 -> 9 that is in no cycle.
        let pair = [(6, 5), (5, 6), (6, 9)];
        let ring = [(1, 2), (2, 3), (3, 4), (4, 1), (2, 1)];
        assert_eq!(find(pair.into_iter().chain(ring)), [[1, 2], [5, 6]]);
    }

    #[test]
    fn equal_length_cycles_break_ties_by_key() {
        // Through 0: 0 -> 2 -> 0 and 0 -> 1 -> 0; the search visits the
        // smaller successor first.
        assert_eq!(find([(0, 2), (2, 0), (0, 1), (1, 0)]), vec![vec![0, 1]]);
    }
}
