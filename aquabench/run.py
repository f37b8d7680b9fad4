#!/usr/bin/env python3
"""AquaCMP benchmark entry point (see README.md next to this file).

    python3 aquabench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the aquabench program from the
checkout's sources into .bench_build/, runs one workload, checks its
outputs and prints human-readable lines followed, as the last line of
standard output, by one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end_to_end list of
BENCHMARK.json, with --trace 1 the per_layer list. Exits 0 only when the
outputs are correct. --workload all runs the four workloads in turn, each
printing its own summary and result line.

    python3 aquabench/run.py --write-reference

re-records reference.json (the default-seed digests and exact counts) from
the current program. Do that only in a change that alters the program's
results on purpose.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "aquabench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("thermal_sweep", "npb_cold", "sweep_parallel", "service_mix")
DEFAULT_SEED = 1  # kDefaultSeed in src/common.hpp
RUN_TIMEOUT_S = 170
# Batch workloads time set-up from process spawn to "ready", in bursts of
# spawns; the mean of a burst is one set-up sample. The first burst is this
# many set-up-only processes plus the measured run itself. After each timed
# pass comes one more burst: at least this many spawns, and more until they
# have taken this share of the pass's time, so the samples spread over the
# run as the passes do. A sample is a burst's mean, not a single spawn,
# because single spawns read one of two speeds (see STEADINESS.md).
SETUP_SPAWNS_BEFORE = 4
SETUP_SPAWNS_BETWEEN = 2
SETUP_SHARE_BETWEEN = 0.1


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no AquaCMP sources (src/CMakeLists.txt) in " + ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target", "aquabench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)


def spawn(args, deadline, stdin=None):
    """Starts the aquabench program; returns (process, seconds from spawn to 'ready')."""
    start = time.perf_counter()
    proc = subprocess.Popen([BINARY] + args, stdin=stdin,
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        fail("aquabench failed during set-up: " + line.strip())
    if time.monotonic() > deadline:
        proc.kill()
        proc.wait()
        fail("set-up overran the run's time limit")
    return proc, ready_s


def sample_setups(base, count, deadline):
    """Times `count` set-up-only runs, one after the other."""
    samples = []
    for _ in range(count):
        proc, ready_s = spawn(base + ["--seconds", "1", "--setup-only"],
                              deadline)
        proc.stdout.read()
        if proc.wait() != 0:
            fail("set-up-only run failed")
        samples.append(ready_s)
    return samples


def run_program(opts, work_dir):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--work-dir", work_dir]
    batch = opts.workload != "service_mix"
    before = sample_setups(base, SETUP_SPAWNS_BEFORE, deadline) if batch else []
    setup = []
    args = base + ["--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    if batch:
        args.append("--pause-between-passes")
    if opts.trace:
        trace_file = os.path.join(BUILD, "traces", "%s-seed%d.jsonl"
                                  % (opts.workload, opts.seed))
        os.makedirs(os.path.dirname(trace_file), exist_ok=True)
        args += ["--trace-file", trace_file]
    proc, ready_s = spawn(args, deadline, stdin=subprocess.PIPE)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    lines = []
    pass_start = time.monotonic()
    try:
        for line in proc.stdout:
            if line.strip() == "between":
                gap_start = time.monotonic()
                pass_s = gap_start - pass_start
                burst = sample_setups(base, SETUP_SPAWNS_BETWEEN, deadline)
                while (time.monotonic() - gap_start <
                       SETUP_SHARE_BETWEEN * pass_s):
                    burst += sample_setups(base, 1, deadline)
                setup.append(statistics.mean(burst))
                proc.stdin.write("go\n")
                proc.stdin.flush()
                pass_start = time.monotonic()
            else:
                lines.append(line)
        returncode = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if time.monotonic() > deadline:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if not lines:
        fail("aquabench printed no result (exit %d)" % returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("aquabench's last line is not JSON (exit %d)" % returncode)
    if returncode not in (0, 1):
        fail("aquabench exited %d" % returncode)
    if batch:
        result["setup_samples_s"] = [statistics.mean(before + [ready_s])] + setup
    return result


def check_reference(workload, result):
    """At the default seed, digests and exact counts must match."""
    with open(REFERENCE) as f:
        reference = json.load(f)[workload]
    errors = []
    for kind in ("digests", "counts"):
        for name, want in reference[kind].items():
            got = result[kind].get(name)
            if got != want:
                errors.append("%s %s: got %r, reference %r"
                              % (kind, name, got, want))
    return errors


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(opts, spec, result):
    """Checks one aquabench result; prints its summary and the result line.
    Returns True when the outputs are correct."""
    errors = list(result["errors"])
    failed = result["failed"]
    if opts.seed == DEFAULT_SEED:
        mismatches = check_reference(opts.workload, result)
        errors += mismatches
        failed += len(mismatches)

    measured = dict(result["metrics"])
    measured["setup_s"] = statistics.median(result["setup_samples_s"])
    wanted = spec["per_layer"] if opts.trace else spec["end_to_end"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(measured) - known)
    if unknown:
        fail("aquabench reported metrics BENCHMARK.json does not list: %s"
             % ", ".join(unknown))
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in measured and not opts.trace:
            fail("workload %s did not measure %s" % (opts.workload, name))
        # A per-layer metric of a layer this workload does not exercise
        # reads 0.
        metrics[name] = {"value": measured.get(name, 0.0), "unit": m["unit"]}

    attempted = result["attempted"]
    print("workload %s seed %d trace %d: %d cells attempted, %d failed, "
          "error_rate %.6f" % (opts.workload, opts.seed, opts.trace,
                               attempted, failed, failed / max(attempted, 1)))
    for name, values in sorted(result["samples"].items()):
        q1, q2, q3 = quartiles(values)
        print("  %-12s n=%-3d median %.6g  q1 %.6g  q3 %.6g"
              % (name, len(values), q2, q1, q3))
    print("  %-12s n=%-3d median %.6g" % ("setup_s",
          len(result["setup_samples_s"]), measured["setup_s"]))
    for name, value in sorted(result["info"].items()):
        print("  %-28s %.6g" % (name, value))
    for name, m in metrics.items():
        print("  %-28s %.6g %s" % (name, m["value"], m["unit"]))
    for e in errors:
        print("  OUTPUT MISMATCH: " + e)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return not errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    opts = parser.parse_args()
    if opts.workload is None and not opts.write_reference:
        parser.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    work_dir = os.path.join(BUILD, "work-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    try:
        if opts.write_reference:
            write_reference(opts, work_dir)
            return 0
        ok = True
        for workload in WORKLOADS if opts.workload == "all" else [opts.workload]:
            opts.workload = workload
            ok = report(opts, spec, run_program(opts, work_dir)) and ok
        return 0 if ok else 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def write_reference(opts, work_dir):
    reference = {}
    for workload in WORKLOADS:
        opts.workload, opts.seed, opts.trace = workload, DEFAULT_SEED, 0
        opts.seconds = 1
        result = run_program(opts, work_dir)
        if result["errors"]:
            fail("%s: %s" % (workload, "; ".join(result["errors"])))
        reference[workload] = {"digests": result["digests"],
                               "counts": result["counts"]}
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote " + REFERENCE)


if __name__ == "__main__":
    sys.exit(main())
