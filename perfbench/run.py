#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/edc_perf from the library sources
and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root. Each repetition runs in its own process, so
wall_s and peak_rss_mb belong to that workload alone.

Each run derives SUBS independent inputs from --seed (edc_perf --sub). With
--trace 0 it runs each of them once, then cycles through them again until
--seconds have passed, and at least once more. A repeated input must give
exactly the simulated-clock results it gave the first time (the determinism
check). The simulated-clock metrics are the medians over the inputs. The
native metrics are the medians over all repetitions.

With --trace 1 it runs pairs for --seconds, at least one pair. Each pair is
one untraced and one traced repetition of the next input. The traced
repetition has observability and the benchmark's timers on. Its simulated-clock
results must equal the untraced ones exactly (the zero-perturbation check).
The per-layer metrics are the medians over the traced repetitions.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The metric names and units come from BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SUBS = 9
REP_TIMEOUT_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds edc_perf; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: library sources (src/) not found next to perfbench/")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "edc_perf", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "edc_perf")


def run_rep(binary, workload, seed, sub, traced):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--sub", str(sub)]
    if traced:
        cmd.append("--traced")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=REP_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sim_result(rep):
    """Everything a repetition reports on the simulated clock."""
    return rep["sim"], rep["attempted"], rep["failed"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    binary = build()

    errors = []
    untraced, traced = [], []
    t0 = time.monotonic()
    if args.trace:
        while not untraced or time.monotonic() - t0 < args.seconds:
            sub = len(untraced) % SUBS
            untraced.append(run_rep(binary, args.workload, args.seed, sub, False))
            traced.append(run_rep(binary, args.workload, args.seed, sub, True))
            if sim_result(traced[-1]) != sim_result(untraced[-1]):
                errors.append(f"input {sub}: traced run differs from untraced in "
                              f"simulated time: {traced[-1]['sim']} vs {untraced[-1]['sim']}")
    else:
        while len(untraced) <= SUBS or time.monotonic() - t0 < args.seconds:
            sub = len(untraced) % SUBS
            untraced.append(run_rep(binary, args.workload, args.seed, sub, False))
            if len(untraced) > SUBS and sim_result(untraced[-1]) != sim_result(untraced[sub]):
                errors.append(f"input {sub}: repetition differs in simulated time: "
                              f"{untraced[-1]['sim']} vs {untraced[sub]['sim']}")
    for rep in untraced + traced:
        errors += rep["errors"]

    firsts = untraced[:SUBS]
    values = {key: statistics.median(r["sim"][key] for r in firsts) for key in firsts[0]["sim"]}
    for key in firsts[0]["native"]:
        values[key] = statistics.median(r["native"][key] for r in untraced)
    attempted = sum(r["attempted"] for r in firsts)
    failed = sum(r["failed"] for r in firsts)
    print(f"{args.workload} seed {args.seed}: {len(firsts)} inputs, {len(untraced)} untraced "
          f"+ {len(traced)} traced repetitions; medians ops_per_s={values['ops_per_s']:.1f} "
          f"p50_ms={values['p50_ms']:.4f} p99_ms={values['p99_ms']:.4f} "
          f"(latency samples per input: {[r['sim']['latency_samples'] for r in firsts]}); "
          f"attempted={attempted} failed={failed} "
          f"unanswered={sum(r['sim']['unanswered'] for r in firsts)}")
    if args.trace:
        for key in traced[0]["layers"]:
            values[key] = statistics.median(r["layers"][key] for r in traced)
        values["sim.events_per_wall_s"] = statistics.median(
            r["sim"]["events"] / r["native"]["wall_s"] for r in untraced)
        values["obs.overhead_ratio"] = statistics.median(
            t["native"]["wall_s"] / u["native"]["wall_s"] for t, u in zip(traced, untraced))
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            errors.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for e in errors:
        log(f"perfbench: check failed: {e}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
