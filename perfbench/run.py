#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the perfbench program and
the simulator library from source (CMake, Release) into .bench_build/,
or into $CARGO_TARGET_DIR when that is set, then runs one workload.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 1 also writes the
run's spans as Chrome trace JSON into the build directory.

--workload all runs the four workloads one after another, each in its
own perfbench process (so each reports its own peak memory), and ends with
one JSON object whose metric names are prefixed by the workload.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["app-ocean", "fig9-grid", "explore-litmus", "app-faulted"]
RUN_TIMEOUT_S = 170

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                allow_abbrev=False)
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=0,
                   help="trace seed-salt of app-ocean and fig9-grid")
    p.add_argument("--seconds", type=int, default=10,
                   help="length of the measured phase")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="1: traced run, per-layer metrics")
    # Inputs that --seed does not set (see README.md).
    p.add_argument("--fault-seed", type=int,
                   help="first fault seed of app-faulted")
    p.add_argument("--litmus-variant", type=int,
                   help="timing variant of explore-litmus's sb test")
    a = p.parse_args()
    if min(a.seed, a.fault_seed or 0, a.litmus_variant or 0) < 0 \
            or a.seconds < 1:
        p.error("seeds must be >= 0 and --seconds >= 1")
    return a


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, d, "perfbench")


def build():
    """Configure once, then (re)build; tool output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/; "
             "run from the root of a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def run_one(exe, a, workload):
    """Run one workload; returns (exit code, output lines)."""
    cmd = [exe, "--workload", workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    for flag in ["fault_seed", "litmus_variant"]:
        v = getattr(a, flag)
        if v is not None:
            cmd += ["--" + flag.replace("_", "-"), str(v)]
    if a.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), "trace-%s-seed%d.json" % (workload, a.seed))]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S),
             3)
    lines = r.stdout.splitlines()
    if r.returncode not in (0, 1) or not lines:
        sys.stdout.write(r.stdout)
        fail("perfbench exited with status %d" % r.returncode, 3)
    return r.returncode, lines


def main():
    a = parse_args()
    exe = build()
    if a.workload != "all":
        code, lines = run_one(exe, a, a.workload)
        print("\n".join(lines), flush=True)
        sys.exit(code)

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, lines = run_one(exe, a, w)
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"][w + "." + name] = m
        worst = max(worst, code)
    print(json.dumps(total), flush=True)
    sys.exit(worst)


if __name__ == "__main__":
    main()
