#!/usr/bin/env bash
# Paired runs: a committed revision against the working tree.
#
#   scripts/pairs.sh <rev> <workload> <seed> <n>
#   scripts/pairs.sh <rev> tier1 - <n>
#   scripts/pairs.sh <rev> ci - <n>
#
# Benchmark mode builds the stand-alone tcdbench of <rev> (exported with
# `git archive` into target/pairs/src-<sha>) and of the working tree, each
# with its own CARGO_TARGET_DIR, offline. Then runs BENCHMARK.json's command
# with `--workload <workload> --seed <seed> --seconds <run_seconds> --trace 0`
# <n> times per side, alternating which side goes first, and appends every
# run (its closing JSON line) to target/pairs/log.jsonl. Prints, for every
# end-to-end metric of BENCHMARK.json: median [q1, q3] per side, the change
# of the median in %, how many of the n pairs the working tree won, and
# |Δmedian| against the parent's interquartile range. A claim holds where
# the wins are at least 9 of 10 and |Δmedian| exceeds the parent IQR.
#
# tier1 mode times the developer loop instead: `cargo build --release
# --offline && cargo test -q --offline` in each side's exported tree (the
# working tree's tracked and unignored files are copied to
# target/pairs/src-work), each side with its own target dir. One untimed
# run per side first builds everything, so the timed runs are warm. Each
# timed run's wall time goes to target/pairs/log.jsonl as `wall_s` (its
# output to target/pairs/tier1-<side>-<pair>.log) and is summarized in the
# same format.
#
# ci mode does the same for `scripts/ci.sh`, which reads its own build at
# ./target, so it runs with no CARGO_TARGET_DIR: the parent's tree keeps
# its build in place, and the working tree's copy (re-made on every call)
# links its target/ and the stand-alone tcdbench's target/ to
# target/pairs/ci-build-work. Logs go to target/pairs/ci-<side>-<pair>.log.
#
# Needs git, cargo, tar and python3. Touches neither BENCHMARK.json nor
# the tcdbench sources.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

if [ $# -ne 4 ]; then
    echo "usage: scripts/pairs.sh <rev> <workload> <seed> <n>" >&2
    echo "       scripts/pairs.sh <rev> tier1 - <n>" >&2
    echo "       scripts/pairs.sh <rev> ci - <n>" >&2
    exit 2
fi
rev=$1 workload=$2 seed=$3 n=$4
sha=$(git rev-parse --short=12 "$rev^{commit}")
out=$root/target/pairs
mkdir -p "$out"

# BENCHMARK.json's command and run length.
mapfile -t cmd < <(python3 -c 'import json; [print(a) for a in json.load(open("BENCHMARK.json"))["command"]]')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
manifest=crates/bench/src/bin/tcdbench/Cargo.toml

src_parent=$out/src-$sha
if [ ! -d "$src_parent" ]; then
    mkdir -p "$src_parent.tmp"
    git archive "$sha" | tar -x -C "$src_parent.tmp"
    mv "$src_parent.tmp" "$src_parent"
fi

run_id=$(date -u +%Y%m%dT%H%M%SZ)-$$
log_run() { # side, pair, position, exit status, closing JSON line, wall s
    python3 - "$out/log.jsonl" "$run_id" "$sha" "$1" "$workload" "$seed" "$2" "$3" "$4" "$5" "$6" <<'EOF'
import json, sys
log, run_id, sha, side, workload, seed, pair, pos, rc, line, wall = sys.argv[1:]
try:
    closing = json.loads(line)
except ValueError:
    closing = None
rec = {"run": run_id, "parent": sha, "side": side, "workload": workload,
       "seed": None if seed == "-" else int(seed), "pair": int(pair), "position": int(pos),
       "exit": int(rc), "closing": closing}
if wall:
    rec["wall_s"] = float(wall)
with open(log, "a") as f:
    f.write(json.dumps(rec) + "\n")
EOF
}

if [ "$workload" = tier1 ] || [ "$workload" = ci ]; then
    # The working tree as `git add -A` would stage it.
    src_work=$out/src-work
    rm -rf "$src_work"
    mkdir -p "$src_work"
    git ls-files -z --cached --others --exclude-standard \
        | while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done \
        | tar --null -T - -cf - | tar -xf - -C "$src_work"
    declare -A src=([parent]=$src_parent [change]=$src_work)
    if [ "$workload" = ci ]; then
        mkdir -p "$out/ci-build-work/root" "$out/ci-build-work/tcdbench"
        ln -s "$out/ci-build-work/root" "$src_work/target"
        ln -s "$out/ci-build-work/tcdbench" "$src_work/crates/bench/src/bin/tcdbench/target"
    fi
    declare -A tgt=([parent]=$out/tier1-build-$sha [change]=$out/tier1-build-work)
    timed() { # side, output file
        if [ "$workload" = ci ]; then
            (cd "${src[$1]}" && unset CARGO_TARGET_DIR && bash scripts/ci.sh) > "$2" 2>&1
        else
            (cd "${src[$1]}" && export CARGO_TARGET_DIR=${tgt[$1]} &&
                cargo build --release --offline && cargo test -q --offline) > "$2" 2>&1
        fi
    }
    for side in parent change; do
        echo "warming $side ($([ "$side" = parent ] && echo "$sha" || echo "working tree"))" >&2
        timed "$side" "$out/$workload-$side-0.log"
    done
    run_one() { # side, pair, position
        local rc=0 t0 t1
        t0=$(date +%s.%N)
        timed "$1" "$out/$workload-$1-$2.log" || rc=$?
        t1=$(date +%s.%N)
        log_run "$1" "$2" "$3" "$rc" "" "$(python3 -c "print($t1 - $t0)")"
    }
else
    # side name -> source root and target dir
    declare -A src=([parent]=$src_parent [change]=$root)
    declare -A tgt=([parent]=$out/build-$sha [change]=$out/build-work)
    for side in parent change; do
        echo "building $side ($([ "$side" = parent ] && echo "$sha" || echo "working tree"))" >&2
        (cd "${src[$side]}" && CARGO_TARGET_DIR=${tgt[$side]} \
            cargo build --release --quiet --offline --manifest-path "$manifest")
    done
    run_one() { # side, pair, position
        local side=$1 line rc=0
        line=$(cd "${src[$side]}" && CARGO_TARGET_DIR=${tgt[$side]} \
            "${cmd[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
            | tail -n 1) || rc=$?
        log_run "$side" "$2" "$3" "$rc" "$line" ""
    }
fi

for ((i = 1; i <= n; i++)); do
    if ((i % 2)); then order=(parent change); else order=(change parent); fi
    echo "pair $i/$n: ${order[0]} first" >&2
    run_one "${order[0]}" "$i" 1
    run_one "${order[1]}" "$i" 2
done

python3 - "$out/log.jsonl" "$run_id" <<'EOF'
import json, sys

log, run_id = sys.argv[1:]
bench = json.load(open("BENCHMARK.json"))
runs = [json.loads(l) for l in open(log) if l.strip()]
runs = [r for r in runs if r["run"] == run_id]


def quartiles(xs):
    xs = sorted(xs)

    def q(p):
        k = (len(xs) - 1) * p
        lo = int(k)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)

    return q(0.25), q(0.5), q(0.75)


def metric(r, name):
    if name in r:
        return r[name]
    m = ((r["closing"] or {}).get("metrics") or {}).get(name)
    return m and m.get("value")


first = runs[0]
wall = first["workload"] in ("tier1", "ci")
print(f"pairs {first['workload']} seed {first['seed']}: parent {first['parent']} vs working tree, "
      f"{len(runs) // 2} pairs, log {log} run {run_id}")
failed = [r for r in runs if r["exit"] != 0 or (r["closing"] is None and not wall)]
for side in ("parent", "change"):
    ops = "" if wall else f"ops failed per run {[(r['closing'] or {}).get('failed') for r in runs if r['side'] == side]}, "
    print(f"  {side}: {ops}nonzero exits {sum(r['side'] == side for r in failed)}")
metrics = [{"name": "wall_s", "better": "lower"}] if wall else bench["end_to_end"]
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    pairs = {}
    for r in runs:
        v = metric(r, name)
        if v is not None:
            pairs.setdefault(r["pair"], {})[r["side"]] = v
    both = [p for p in pairs.values() if len(p) == 2]
    if not both:
        continue
    pa = [p["parent"] for p in both]
    ch = [p["change"] for p in both]
    q1p, mp, q3p = quartiles(pa)
    q1c, mc, q3c = quartiles(ch)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(pa, ch))
    delta = (mc - mp) / mp * 100 if mp else float("nan")
    gap, iqr = abs(mc - mp), q3p - q1p
    verdict = ">" if gap > iqr else "<="
    print(f"  {name:13} parent {mp:.5g} [{q1p:.5g}, {q3p:.5g}]  change {mc:.5g} [{q1c:.5g}, {q3c:.5g}]"
          f"  {delta:+.1f} %  wins {wins}/{len(both)}  |dmedian| {gap:.3g} {verdict} parent IQR {iqr:.3g}")
EOF
