#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the repository root. The first call configures and builds the
library sources and the perfbench program into .bench_build/perfbench
(Release); later calls only re-check it. The benchmark then runs
in a child process, so peak RSS is measured for one workload at a time.

With a single workload the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; its metric names and units
are checked against BENCHMARK.json. `--workload all` runs every workload
untraced and traced, prints every metric by name with its unit plus
failed jobs against jobs attempted, and exits non-zero if any output
check failed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        for step in (["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"],
                     ["cmake", "--build", BUILD, "-j", jobs]):
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(step))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(spec, workload, seed, seconds, trace):
    """Runs one workload in a child process; returns (stdout lines, result).

    The last line is the result object as the child printed it."""
    try:
        done = subprocess.run(
            [BINARY, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail(f"{workload} exited with code {done.returncode}")
    result = json.loads(lines[-1])
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        sys.stdout.write(done.stdout)
        fail(f"{workload}: metrics do not match BENCHMARK.json "
             f"(missing {sorted(set(want) - set(got))}, "
             f"unexpected {sorted(set(got) - set(want))})")
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {names} or all")
    if seconds < 1:
        fail("--seconds must be at least 1")
    build()

    if args.workload != "all":
        lines, _ = run_one(spec, args.workload, args.seed, seconds,
                           args.trace)
        print("\n".join(lines))
        return

    ok = True
    for workload in names:
        for trace in (0, 1):
            lines, result = run_one(spec, workload, args.seed, seconds,
                                    trace)
            print("\n".join(lines[:-1]))
            print(f"== {workload} trace={trace}: correct={result['correct']}"
                  f", failed {result['failed']} of {result['attempted']} "
                  "jobs attempted")
            ok = ok and result["correct"] and result["failed"] == 0
    if not ok:
        fail("an output check failed")


if __name__ == "__main__":
    main()
