#!/usr/bin/env python3
"""Steadiness report for the AquaCMP benchmark.

    python3 aquabench/steadiness.py [--workloads a,b] [--runs 10]
        [--sets 2] [--first-seed 11] [--traced-pairs] [--out FILE]

Runs run.py --trace 0 once per seed (runs seeds per set, a fresh block of
seeds per set) on each workload and prints, per end-to-end metric, the
median, quartiles and spread ((q3 - q1) / median, Python's
statistics.quantiles(values, n=4)) of every set, the shift of each set's
median against the first set's, and whether both stay within the metric's
bound in BENCHMARK.json. --traced-pairs also makes two traced runs of the
default seed per workload and lists the per-layer metrics whose values
differ between them. The report starts with a machine fingerprint. Run
from the root of a checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = "unknown"
    try:
        with open(os.path.join(ROOT, ".bench_build", "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "nproc=%d cpu=%r build=%s python=%s kernel=%s" % (
        os.cpu_count() or 0, model, build_type, platform.python_version(),
        platform.release())


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        sys.exit("%s seed %d: no result (exit %d)" % (workload, seed,
                                                      out.returncode))
    if out.returncode != 0 or not result["correct"]:
        sys.exit("%s seed %d failed:\n%s" % (workload, seed, out.stdout))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=11)
    parser.add_argument("--traced-pairs", action="store_true")
    parser.add_argument("--out", default="")
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in opts.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    lines = ["machine: " + fingerprint(),
             "run_seconds=%d runs=%d sets=%d" % (spec["run_seconds"],
                                                 opts.runs, opts.sets)]
    print(lines[0], flush=True)
    ok = True
    for workload in workloads:
        sets = []
        started = time.time()
        for s in range(opts.sets):
            seeds = range(opts.first_seed + s * opts.runs,
                          opts.first_seed + (s + 1) * opts.runs)
            sets.append([run(workload, seed, spec["run_seconds"], 0)
                         for seed in seeds])
        lines.append("")
        lines.append("%s (%.0f s for %d runs)" % (
            workload, time.time() - started, opts.runs * opts.sets))
        lines.append("  %-12s %-4s %12s %12s %12s %8s %8s %6s" % (
            "metric", "set", "q1", "median", "q3", "spread", "shift",
            "bound"))
        for m in spec["end_to_end"]:
            name = m["name"]
            first_median = None
            for i, runs in enumerate(sets):
                q1, med, q3, sp = spread([r[name] for r in runs])
                if first_median is None:
                    first_median = med
                worse = (med - first_median if m["better"] == "lower"
                         else first_median - med) / first_median
                within = worse <= m["bound"] and sp <= m["bound"]
                ok = ok and within
                note = ("  OUT OF BOUND" if not within else
                        "  spread above a third of the bound"
                        if sp > m["bound"] / 3 else "")
                lines.append("  %-12s %-4d %12.6g %12.6g %12.6g %8.4f %8.4f "
                             "%6.2f%s" % (name, i + 1, q1, med, q3, sp, worse,
                                          m["bound"], note))
        print("\n".join(lines[-2 - len(spec["end_to_end"]) * opts.sets:]),
              flush=True)
        if opts.traced_pairs:
            a = run(workload, 1, spec["run_seconds"], 1)
            b = run(workload, 1, spec["run_seconds"], 1)
            differ = sorted(k for k in a if a[k] != b[k])
            lines.append("  traced pair, seed 1: values that differ: " +
                         (", ".join(differ) or "none"))
            print(lines[-1], flush=True)
    if opts.out:
        with open(opts.out, "a") as f:
            f.write("\n".join(lines) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
