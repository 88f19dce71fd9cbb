#!/usr/bin/env bash
# Regenerate every table and figure of the paper. Outputs land in results/.
# Pass --full to run the paper-scale workloads (slow); default is CI-sized.
set -euo pipefail
cd "$(dirname "$0")/.."
SCALE_ARGS=("$@")
cargo build --release -p tcd-bench
mkdir -p results
# Every figure binary: one source file each (tcdbench is a directory).
for src in crates/bench/src/bin/*.rs; do
  b=$(basename "$src" .rs)
  echo "=== $b ==="
  cargo run --release -q -p tcd-bench --bin "$b" -- "${SCALE_ARGS[@]}" | tee "results/$b.txt"
done
echo "all experiment outputs written to results/"
