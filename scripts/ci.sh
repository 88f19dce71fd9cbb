#!/usr/bin/env bash
# The full CI gate: release build, test suite, clippy (warnings are
# errors), and formatting. Run before every push; everything must pass.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo build --release ==="
cargo build --release

# Static analysis ahead of the test passes: the buffer-dependency and
# fault-plan analysis of every scenario-catalog row expected clean.
# `tcdsim lint` exits non-zero on any error finding. (Source policy is
# clippy's job, further down; README "Static analysis".)
echo "=== tcdsim lint ==="
./target/release/tcdsim lint

# The same gate, machine-readable.
echo "=== tcdsim lint --json (smoke) ==="
mkdir -p target/ci
./target/release/tcdsim lint --json > target/ci/lint.json
grep -q '^{"ok":true,"scenarios":\[{' target/ci/lint.json

# Negative smoke: the route-swap cycle in the deadlock-triangle row's
# fault plan must be *caught* (exit 1). A gate that cannot fail gates
# nothing.
echo "=== tcdsim lint (seeded negative) ==="
if ./target/release/tcdsim lint --topo deadlock-triangle > /dev/null; then
    echo "deadlock-triangle's route-swap cycle was not caught" >&2
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

# Deterministic work gate: BENCHMARK.json's exact command on every
# workload, traced. Each run must build through the stand-alone manifest
# and exit 0 (every ops check passed), and is read for two exact counters
# that repeat bit-for-bit on any host — the event count (a change to it is
# a change to scheduling, which must be deliberate) and heap allocations
# per thousand events across run() (460.6 on ft6-ibcc before the per-event
# path stopped allocating). Nothing else guards against per-event
# allocation, so all five workloads are covered. A ceiling is the value at
# the commit that added its row (trailing comment) times the headroom
# ft6-ibcc has had since PR 14 (5.13 -> 12), rounded up. Perf itself is
# judged by the benchmark driver, not here.
echo "=== tcdbench (allocation + event-count gate) ==="
counter() { # file, metric: the metric's value in the file's closing JSON line
    tail -n 1 "$1" | grep -o "\"$2\": {\"value\": [0-9.]*" | awk '{print $NF}'
}
work_gate() { # workload, exact sim.events, sim.allocs_per_kevent ceiling
    local out=target/ci/tcdbench_$1.txt allocs events
    cargo run --release --quiet --offline \
        --manifest-path crates/bench/src/bin/tcdbench/Cargo.toml -- \
        --workload "$1" --seed 1 --seconds 1 --trace 1 > "$out"
    allocs=$(counter "$out" sim.allocs_per_kevent)
    events=$(counter "$out" sim.events)
    if ! awk -v a="$allocs" -v e="$events" -v want="$2" -v limit="$3" \
        'BEGIN { exit !(a != "" && a <= limit && e == want) }'; then
        echo "$1: sim.allocs_per_kevent=$allocs (limit $3), sim.events=$events (want $2)" >&2
        exit 1
    fi
}
work_gate ft6-dcqcn      7443913  9 # 3.75
work_gate ft6-ibcc       6824062 12 # 5.13
work_gate fig2-storm     5235086  5 # 1.74
work_gate ft6-dcqcn-obs  7444914 10 # 3.90
work_gate victim-sweep  25595608 19 # 7.79

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

# The code-policy gate must be able to fail: a fixture package outside the
# workspace seeds one violation per policy lint (clippy.toml's disallowed
# types and methods, crate-root indexing) and one stale #[expect]. Clippy
# must reject it and name all four.
echo "=== cargo clippy (seeded negative) ==="
if cargo clippy --offline --target-dir target/ci/policy_negative \
    --manifest-path crates/simlint/tests/fixtures/policy_negative/Cargo.toml \
    -- -D warnings 2> target/ci/policy_negative.txt; then
    echo "clippy accepted the seeded policy violations" >&2
    exit 1
fi
for lint in disallowed_types disallowed_methods indexing_slicing unfulfilled_lint_expectations; do
    if ! grep -q "$lint" target/ci/policy_negative.txt; then
        echo "clippy did not report the seeded $lint violation" >&2
        exit 1
    fi
done

echo "=== cargo fmt --check ==="
cargo fmt --check

echo "CI green."
