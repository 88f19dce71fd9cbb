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
if ./target/release/tcdsim lint --topo deadlock-triangle > target/ci/lint_deadlock.txt; then
    echo "deadlock-triangle's route-swap cycle was not caught" >&2
    exit 1
fi

# Observability exporters, from the unaudited release binary. Both
# commands self-validate their JSON before writing; the trace must equal
# the committed example byte for byte, and the metrics fingerprint must
# match the committed obs golden, which the audit-on test builds also
# check — together that proves the audit feature does not perturb
# observability.
echo "=== tcdsim trace / metrics (exporter gate) ==="
./target/release/tcdsim trace fig03 --end-ms 0.6 --out target/ci/trace_fig03.json
if ! cmp target/ci/trace_fig03.json results/trace_fig03.json; then
    echo "tcdsim trace fig03 --end-ms 0.6 no longer reproduces results/trace_fig03.json" >&2
    exit 1
fi
./target/release/tcdsim metrics fig03 --end-ms 0.6 --out target/ci/metrics_fig03.json
ci_fp=$(grep -o '"fingerprint": "[0-9a-f]*"' target/ci/metrics_fig03.json | grep -o '[0-9a-f]\{16\}')
golden_fp=$(grep '^registry_fingerprint ' tests/golden/obs_fig03.txt | awk '{print $2}')
if [ "$ci_fp" != "$golden_fp" ]; then
    echo "metrics fingerprint $ci_fp != committed golden $golden_fp" >&2
    exit 1
fi

# The deadlock watchdog is compiled into the release binary: running the
# deadlock-triangle row must name on stderr, hop for hop, the cycle the
# lint above reports for its fault plan, and exit 0 (the row is meant to
# wedge). deadlock-recovery reverts its routes before the ring wedges and
# must report nothing.
echo "=== tcdsim metrics (release deadlock watchdog) ==="
hop='[A-Za-z0-9_-]*\[[0-9]*\]'
hops=$(grep 'fault-route-cycle' target/ci/lint_deadlock.txt | grep -o "$hop\( -> $hop\)*") || true
./target/release/tcdsim metrics deadlock-triangle --out target/ci/metrics_deadlock.json \
    2> target/ci/metrics_deadlock.err
if [ -z "$hops" ] || ! grep -F 'deadlock-triangle: deadlock at ' target/ci/metrics_deadlock.err \
    | grep -qF -- ": $hops"; then
    echo "release tcdsim metrics deadlock-triangle did not report the cycle '$hops':" >&2
    cat target/ci/metrics_deadlock.err >&2
    exit 1
fi
./target/release/tcdsim metrics deadlock-recovery --out target/ci/metrics_recovery.json \
    2> target/ci/metrics_recovery.err
if grep -q 'deadlock at' target/ci/metrics_recovery.err; then
    echo "deadlock-recovery reported a deadlock:" >&2
    cat target/ci/metrics_recovery.err >&2
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
# and exit 0 (every ops check passed), and is read for values that repeat
# bit-for-bit on any host: the event count, events per packet hop and
# trace records (a change to any is a change to scheduling or recording,
# which must be deliberate), the run fingerprint from result.json (a change
# to it is a change to what was simulated), and heap allocations per
# thousand events across run() (460.6 on ft6-ibcc before the per-event
# path stopped allocating). Nothing else guards against per-event
# allocation, so all five workloads are covered. An allocation ceiling is
# the value at the commit that added its row (first trailing number) times
# the headroom ft6-ibcc has had since that path stopped allocating
# (5.13 -> 12), rounded up; the second trailing number is the value since
# the event queue's near ring. peak_heap_mb from result.json is
# deterministic too (it counts requested bytes): its ceiling is the value
# since the last change that moved it, plus 2 %, rounded up to 0.1 MB, and
# the trailing "heap" number is the value before that change. For the three
# fat-tree rows that change is a never-started flow shrinking to its
# 40-byte spec (no record, no receive state); for fig2-storm and
# victim-sweep it is unstarted flows no longer holding a queue entry and a
# receive slot. Perf itself is judged by the benchmark's timed runs, not
# here.
echo "=== tcdbench (work + fingerprint gate) ==="
counter() { # file, metric: the metric's value in the file's closing JSON line
    tail -n 1 "$1" | grep -o "\"$2\": {\"value\": [0-9.]*" | awk '{print $NF}'
}
# workload, exact sim.events / sim.events_per_hop / trace.records / run
# fingerprint, sim.allocs_per_kevent ceiling, peak_heap_mb ceiling
work_gate() {
    local out=target/ci/tcdbench_$1.txt got want allocs heap
    cargo run --release --quiet --offline \
        --manifest-path crates/bench/src/bin/tcdbench/Cargo.toml -- \
        --workload "$1" --seed 1 --seconds 1 --trace 1 > "$out"
    got="$(counter "$out" sim.events) $(counter "$out" sim.events_per_hop)"
    got="$got $(counter "$out" trace.records)"
    got="$got $(grep -o '"fingerprint": "[0-9a-f]*"' target/tcdbench/result.json | cut -d'"' -f4)"
    want="$2.0 $3 $4 $5"
    allocs=$(counter "$out" sim.allocs_per_kevent)
    heap=$(grep -o '"peak_heap_mb": {"value": [0-9.]*' target/tcdbench/result.json | awk '{print $NF}')
    if [ "$got" != "$want" ] || ! awk -v a="$allocs" -v limit="$6" -v h="$heap" -v hlimit="$7" \
        'BEGIN { exit !(a != "" && a <= limit && h != "" && h <= hlimit) }'; then
        echo "$1: events, events/hop, records, fingerprint = $got (want $want);" \
            "sim.allocs_per_kevent=$allocs (limit $6); peak_heap_mb=$heap (limit $7)" >&2
        exit 1
    fi
}
work_gate ft6-dcqcn      7443913 2.72508199319893   0.0       60fe06a30a37acd7  9  68.2 # 3.75 3.84; heap 94.86
work_gate ft6-ibcc       6824062 3.199299948522869  0.0       08d88469fdeb0a87 12  54.4 # 5.13 5.44; heap 81.32
work_gate fig2-storm     5235086 3.758977058051008  0.0       d1de8c77438fafba  5   1.2 # 1.74 1.65; heap 1.128
work_gate ft6-dcqcn-obs  7444914 2.7254484412048634 1118806.0 5c9e83e622ce2050 10 148.0 # 3.90 3.99; heap 172.68
work_gate victim-sweep  25595608 4.518427402185741  0.0       4405bf5d62b6ae8c 19   8.3 # 7.79 7.71; heap 8.23

# Figure gate: every committed results/<name>.txt (the tables
# EXPERIMENTS.md quotes) must regenerate byte-for-byte from
# `tcdsim fig <name>` at its default arguments (~35 s in all). fig15 runs
# once more on one worker: its committed copy was printed at the default
# thread count, so this certifies a sweep-shaped figure thread-invariant.
echo "=== tcdsim fig vs results/*.txt ==="
mkdir -p target/ci/figs
for want in results/*.txt; do
    fig=$(basename "$want" .txt)
    ./target/release/tcdsim fig "$fig" > "target/ci/figs/$fig.txt"
    if ! diff "$want" "target/ci/figs/$fig.txt"; then
        echo "$want no longer regenerates from tcdsim fig $fig" >&2
        exit 1
    fi
done
./target/release/tcdsim fig fig15_dcqcn_victim --threads 1 > target/ci/figs/fig15_threads1.txt
diff results/fig15_dcqcn_victim.txt target/ci/figs/fig15_threads1.txt

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
