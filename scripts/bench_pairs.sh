#!/usr/bin/env bash
# Parent-versus-change benchmark, the way BENCHMARK.json's acceptance
# reads it: both benchmark binaries are built once, each into its own
# target directory, and every workload is then run as alternating pairs
# (base first on odd pairs, head first on even ones), because this
# machine's speed drifts by more over minutes than most changes move a
# metric. Prints `benchmark compare` over the per-side medians, with the
# runs' interquartile spread so a metric the runs cannot resolve reads
# `unresolved`, then how many pairs the head won per metric. Exits
# non-zero when a metric is `worse` or the error rate rose.
#
#   scripts/bench_pairs.sh <base-ref> <runs>
#
# The head is the working tree as it stands. BENCH_PAIRS_SEED moves the
# seeds (pair i runs both sides with seed + i); BENCH_PAIRS_DIR moves the
# scratch directory (default target/bench_pairs); BENCH_PAIRS_WORKLOADS
# restricts the workloads (default: all in BENCHMARK.json).
set -euo pipefail

base_ref=${1:?usage: scripts/bench_pairs.sh <base-ref> <runs>}
runs=${2:?usage: scripts/bench_pairs.sh <base-ref> <runs>}
root=$(git rev-parse --show-toplevel)
cd "$root"
work=${BENCH_PAIRS_DIR:-$root/target/bench_pairs}
seed=${BENCH_PAIRS_SEED:-100}
manifest=crates/bench/src/bin/benchmark/Cargo.toml
field() { python3 -c "import json,sys; b=json.load(open('$root/BENCHMARK.json')); print($1)"; }
seconds=$(field "b['run_seconds']")
workloads=${BENCH_PAIRS_WORKLOADS:-$(field "' '.join(w['name'] for w in b['workloads'])")}

rm -rf "$work/base" "$work/runs"
mkdir -p "$work/base" "$work/runs"
git -C "$root" archive "$base_ref" | tar -x -C "$work/base"
for side in base head; do
    src=$root
    [ "$side" = base ] && src=$work/base
    CARGO_TARGET_DIR=$work/target-$side \
        cargo build --release --offline --quiet --manifest-path "$src/$manifest"
done

for i in $(seq 1 "$runs"); do
    order="base head"
    (( i % 2 == 0 )) && order="head base"
    for workload in $workloads; do
        for side in $order; do
            src=$root
            [ "$side" = base ] && src=$work/base
            # A failed query fails the run; its counts are in the file
            # and `compare` reports them as the error rate.
            (cd "$src" && "$work/target-$side/release/benchmark" \
                --workload "$workload" --seed $((seed + i)) --seconds "$seconds" \
                --trace 0 --out "$work/runs/$side-$workload-$i.json" >/dev/null) ||
                echo "pair $i: $side $workload exited non-zero" >&2
        done
        echo "pair $i/$runs: $workload done" >&2
    done
done

# One result file per side, in the shape `benchmark --runs` writes.
python3 - "$work" "$runs" $workloads <<'PY'
import json, statistics, sys
work, runs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
sides = {}
for side in ("base", "head"):
    result = {}
    for w in workloads:
        parts = [json.load(open(f"{work}/runs/{side}-{w}-{i}.json")) for i in range(1, runs + 1)]
        e2e = {}
        for name, first in parts[0]["e2e"].items():
            values = [p["e2e"][name]["value"] for p in parts if name in p["e2e"]]
            metric = dict(first, value=statistics.median(values))
            if len(values) >= 4 and metric["value"] != 0:
                q = statistics.quantiles(values, n=4)
                metric["spread"] = (q[2] - q[0]) / metric["value"]
            e2e[name] = metric
            sides.setdefault((w, name), {})[side] = values
        result[w] = {
            "e2e": e2e,
            "attempted": sum(p["attempted"] for p in parts),
            "failed": sum(p["failed"] for p in parts),
        }
    json.dump({"runs": runs, "workloads": result}, open(f"{work}/{side}.json", "w"))
better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
with open(f"{work}/pairs.txt", "w") as out:
    print(f"{'workload':<16} {'metric':<18} head better in / of pairs (ties count for neither)", file=out)
    for (w, name), v in sides.items():
        sign = -1 if better[name] == "lower" else 1
        pairs = list(zip(v["base"], v["head"]))
        won = sum(sign * (h - b) > 0 for b, h in pairs)
        lost = sum(sign * (h - b) < 0 for b, h in pairs)
        print(f"{w:<16} {name:<18} {won:>3} / {won + lost}", file=out)
PY

status=0
(cd "$root" && "$work/target-head/release/benchmark" compare "$work/base.json" "$work/head.json") || status=$?
cat "$work/pairs.txt"
exit "$status"
