#!/usr/bin/env bash
# The full CI gate: release build, test suite, clippy (warnings are
# errors), and formatting. Run before every push; everything must pass.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo build --release ==="
cargo build --release

# Static analysis gates ahead of the test passes: the call-graph-aware
# code lint (hot-path rules, Fig. 6 spec conformance, stale-allow audit)
# plus the buffer-dependency and fault-plan analysis of every scenario
# catalog row expected clean. `tcdsim lint` exits non-zero on any finding.
echo "=== tcdsim lint ==="
./target/release/tcdsim lint

# The same gate, machine-readable: the JSON report must parse as ok and
# name a non-empty hot-function set (the reachability evidence the
# hot-path rules run on).
echo "=== tcdsim lint --json (smoke) ==="
mkdir -p target/ci
./target/release/tcdsim lint --json > target/ci/lint.json
grep -q '"ok":true' target/ci/lint.json
grep -q '"hot_functions":\[{' target/ci/lint.json

# Negative smokes: the route-swap cycle in the deadlock-triangle row's
# fault plan and a mutated Fig. 6 table must both be *caught* (exit 1). A
# gate that cannot fail gates nothing.
echo "=== tcdsim lint (seeded negatives) ==="
if ./target/release/tcdsim lint --topo deadlock-triangle > /dev/null; then
    echo "deadlock-triangle's route-swap cycle was not caught" >&2
    exit 1
fi
if ./target/release/tcdsim lint --code \
    --spec-table crates/simlint/tests/fixtures/fig6_mutated.spec > /dev/null; then
    echo "mutated Fig. 6 table was not caught" >&2
    exit 1
fi

# Observability exporters, from the unaudited release binary. Both
# commands self-validate their JSON before writing; the metrics
# fingerprint must match the committed obs golden, which the audit-on
# test builds also check — together that proves the audit feature does
# not perturb observability.
echo "=== tcdsim trace / metrics (exporter gate) ==="
./target/release/tcdsim trace fig03 --end-ms 0.6 --out target/ci/trace_fig03.json
./target/release/tcdsim metrics fig03 --end-ms 0.6 --out target/ci/metrics_fig03.json
ci_fp=$(grep -o '"fingerprint": "[0-9a-f]*"' target/ci/metrics_fig03.json | grep -o '[0-9a-f]\{16\}')
golden_fp=$(grep '^registry_fingerprint ' tests/golden/obs_fig03.txt | awk '{print $2}')
if [ "$ci_fp" != "$golden_fp" ]; then
    echo "metrics fingerprint $ci_fp != committed golden $golden_fp" >&2
    exit 1
fi

echo "=== cargo test --workspace -q ==="
cargo test --workspace -q

echo "=== cargo test --workspace --features audit -q ==="
cargo test --workspace --features audit -q

echo "=== golden fingerprints ==="
cargo test --test golden_traces -q

# The victim grid end to end through the release binary (~1 s). Its
# merged fingerprint is pinned by tests/harness_determinism.rs.
echo "=== tcdsim sweep ==="
./target/release/tcdsim sweep --out target/ci/sweep

# Benchmark smoke: BENCHMARK.json's exact command on its cheapest
# workload must build through its own manifest and exit 0 (every ops
# check passed). Perf is judged by the benchmark driver, not here.
echo "=== tcdbench (smoke) ==="
cargo run --release --quiet --offline \
    --manifest-path crates/bench/src/bin/tcdbench/Cargo.toml -- \
    --workload fig2-storm --seconds 1 > target/ci/tcdbench.txt

# Deterministic perf gate: the same command on the InfiniBand fat-tree,
# traced, read for two exact counters that repeat bit-for-bit on any host —
# heap allocations per thousand events across run() (460.6 before the
# per-event path stopped allocating, ~5 since) and the event count itself
# (a change to it is a change to scheduling, which must be deliberate).
echo "=== tcdbench (allocation + event-count gate) ==="
cargo run --release --quiet --offline \
    --manifest-path crates/bench/src/bin/tcdbench/Cargo.toml -- \
    --workload ft6-ibcc --seed 1 --seconds 1 --trace 1 > target/ci/tcdbench_ibcc.txt
counter() {
    tail -n 1 target/ci/tcdbench_ibcc.txt \
        | grep -o "\"$1\": {\"value\": [0-9.]*" | awk '{print $NF}'
}
allocs=$(counter sim.allocs_per_kevent)
events=$(counter sim.events)
if ! awk -v a="$allocs" -v e="$events" 'BEGIN { exit !(a != "" && a <= 12 && e == 6824062) }'; then
    echo "ft6-ibcc: sim.allocs_per_kevent=$allocs (limit 12), sim.events=$events (want 6824062)" >&2
    exit 1
fi

# Figure gate: every figure binary crates/bench/src/bin/<bin>.rs must
# have a committed results/<bin>.txt (the tables EXPERIMENTS.md quotes)
# and regenerate it byte-for-byte at its default arguments (~20 s in all).
echo "=== figure binaries vs results/*.txt ==="
cargo build --release -p tcd-bench
mkdir -p target/ci/figs
for src in crates/bench/src/bin/*.rs; do
    bin=$(basename "$src" .rs)
    want=results/$bin.txt
    if [ ! -f "$want" ]; then
        echo "$src has no committed $want (scripts/run_all.sh writes it)" >&2
        exit 1
    fi
    ./target/release/"$bin" > "target/ci/figs/$bin.txt"
    if ! diff "$want" "target/ci/figs/$bin.txt"; then
        echo "$want no longer regenerates from crates/bench/src/bin/$bin.rs" >&2
        exit 1
    fi
done

echo "=== cargo clippy -- -D warnings ==="
cargo clippy --workspace --all-targets -- -D warnings

echo "=== cargo clippy --features audit -- -D warnings ==="
cargo clippy --workspace --all-targets --features audit -- -D warnings

echo "=== cargo fmt --check ==="
cargo fmt --check

echo "CI green."
