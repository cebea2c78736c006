#!/usr/bin/env bash
# Before/after rows for bench/micro_sim.cpp from one build. Compiles the bench
# twice with the same compiler and flags: once against the event loop
# (src/edc/sim/event_loop.{h,cpp}) of BASE_REV, once against the working
# tree's. Everything else (network, obs, common) comes from the working tree.
# Runs both with repetitions and merges the two google-benchmark JSON files
# into bench_results/BENCH_micro_sim.json, names prefixed "before/" and
# "after/", then prints the median CPU time of each row.
#
# Usage: scripts/micro_sim_before_after.sh BASE_REV [work-dir] [repetitions]
#        (default work dir: build/micro_sim_before_after, 5 repetitions)

set -euo pipefail
cd "$(dirname "$0")/.."

BASE_REV="${1:?usage: $0 BASE_REV [work-dir] [repetitions]}"
WORK="${2:-build/micro_sim_before_after}"
REPS="${3:-5}"
CXX="${CXX:-c++}"

mkdir -p "$WORK/before/edc/sim" "$WORK/after/edc/sim"
git show "$BASE_REV:src/edc/sim/event_loop.h" >"$WORK/before/edc/sim/event_loop.h"
git show "$BASE_REV:src/edc/sim/event_loop.cpp" >"$WORK/before/event_loop.cpp"
cp src/edc/sim/event_loop.h "$WORK/after/edc/sim/event_loop.h"
cp src/edc/sim/event_loop.cpp "$WORK/after/event_loop.cpp"

for variant in before after; do
  echo "== building micro_sim ($variant) =="
  # -I order matters: the variant's edc/sim/event_loop.h shadows src/'s.
  "$CXX" -std=c++20 -O2 -g -DNDEBUG -I"$WORK/$variant" -Isrc -I. \
    bench/micro_sim.cpp "$WORK/$variant/event_loop.cpp" src/edc/sim/network.cpp \
    src/edc/obs/*.cpp src/edc/common/*.cpp \
    -lbenchmark -lpthread -o "$WORK/$variant/micro_sim"
done

for variant in before after; do
  echo "== running micro_sim ($variant) =="
  (cd "$WORK/$variant" && ./micro_sim --benchmark_repetitions="$REPS" \
    --benchmark_display_aggregates_only=true \
    --benchmark_out="$PWD/$variant.json" --benchmark_out_format=json)
done

mkdir -p bench_results
python3 - "$WORK" "$BASE_REV" <<'PY'
import json, sys
work, base = sys.argv[1], sys.argv[2]
merged, medians = None, {}
for variant in ("before", "after"):
    with open(f"{work}/{variant}/{variant}.json") as f:
        doc = json.load(f)
    rows = doc["benchmarks"]
    if merged is None:
        merged = dict(doc, benchmarks=[])
        merged["context"]["before_event_loop_rev"] = base
    for row in rows:
        for key in ("name", "run_name"):
            row[key] = f"{variant}/{row[key]}"
        merged["benchmarks"].append(row)
        if row.get("aggregate_name") == "median":
            medians[row["run_name"]] = row["cpu_time"]
with open("bench_results/BENCH_micro_sim.json", "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
for name, after in medians.items():
    if name.startswith("after/"):
        before = medians["before/" + name[len("after/"):]]
        print(f"{name[len('after/'):]:28s} before {before:10.1f} ns  after {after:10.1f} ns"
              f"  ({after / before:.2f}x)")
print("wrote bench_results/BENCH_micro_sim.json")
PY
