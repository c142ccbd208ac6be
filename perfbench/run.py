#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper_batch --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark binary under .bench_build/ (a few minutes); later
runs only re-check the build. The binary's standard output is passed
through, except its last line: the result, which is completed against
BENCHMARK.json and printed as the last line. The exit code is non-zero when
the build fails, an output check fails, or the result does not match
BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the perfbench target; build logs go to stderr."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if proc.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def complete_result(line, trace):
    """Return (result, error): the binary's result line with its metrics
    put in BENCHMARK.json's order and units. A per-layer metric of a layer
    the workload never enters reads 0; a missing end-to-end metric, an
    unknown metric or a unit mismatch is an error."""
    try:
        result = json.loads(line)
    except ValueError:
        return None, "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, "result keys are %s" % sorted(result)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    unknown = set(got) - {m["name"] for m in spec}
    if unknown:
        return None, "metrics not in BENCHMARK.json: %s" % sorted(unknown)
    metrics = {}
    for m in spec:
        value = got.get(m["name"], {"value": 0, "unit": m["unit"]})
        if m["name"] not in got and not trace:
            return None, "end-to-end metric %s not measured" % m["name"]
        if value["unit"] != m["unit"]:
            return None, "%s has unit %s, BENCHMARK.json says %s" % (
                m["name"], value["unit"], m["unit"])
        metrics[m["name"]] = value
    result["metrics"] = metrics
    return result, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    if not build():
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    start = time.monotonic()
    # Its own process group, so a timeout also stops the client processes
    # tract_phantom forks.
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            sys.stderr.write("perfbench: run exceeded %d s; killed\n"
                             % RUN_TIMEOUT_S)
            return 3
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    result, error = complete_result(lines[-1], args.trace == 1)
    if error is not None:
        sys.stderr.write("perfbench: %s (exit code %d)\n"
                         % (error, proc.returncode))
        return proc.returncode or 4
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stderr.write("perfbench: %s run took %.1f s\n"
                     % (args.workload, time.monotonic() - start))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
