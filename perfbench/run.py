#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the simulator libraries and the perfbench program from source
(CMake, RelWithDebInfo) into $CARGO_TARGET_DIR (default .bench_build),
runs one workload, and relays the program's report.  The last line of
standard output is the program's JSON result.  Exits non-zero, without
a result, when the build or the run fails.

--scale overrides the workload's buildDbSet scale; the self-test uses
it to run at smoke size.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("detail-paper", "server-mix", "sampled-ckpt")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build(build_dir):
    """Configure and build; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as exc:
            print("perfbench: %s" % exc, file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    out_dir = os.path.join(build_dir, "out")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    if args.scale is not None:
        cmd += ["--scale", str(args.scale)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout)
        print("perfbench: program exited with %d and no result"
              % done.returncode, file=sys.stderr)
        return 1
    json.loads(lines[-1])  # the result line must parse
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
