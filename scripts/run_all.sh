#!/usr/bin/env bash
# Regenerate every table and figure of the paper: `tcdsim fig <name>` for
# each committed results/<name>.txt. Pass --full to run the paper-scale
# workloads (slow); default is CI-sized. The arguments go to every figure;
# one that a figure does not use is noted on its stderr.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --bin tcdsim
for want in results/*.txt; do
  fig=$(basename "$want" .txt)
  echo "=== $fig ==="
  ./target/release/tcdsim fig "$fig" "$@" | tee "$want"
done
echo "all experiment outputs written to results/"
