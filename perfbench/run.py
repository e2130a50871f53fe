#!/usr/bin/env python3
"""Build and run the tQUAD repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark program (perfbench/src) is
configured and built with CMake into .bench_build/perfbench on first use,
together with the libraries it links from src/; later runs only check that
the build is up to date. Build output goes to stderr, so the last line of
stdout is the program's JSON result. `--workload all` runs every workload in
turn, each in its own process. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["wfs-live-trio", "wfs-record", "wfs-replay", "zoo-parallel"]


def build():
    """Configure (once) and build the benchmark program; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD, name))
                     for name in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(BUILD, "perfbench")


def run_workload(program, args, workload):
    workdir = os.path.join(BUILD, "work")
    os.makedirs(workdir, exist_ok=True)
    command = [program, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    sys.stdout.flush()
    return subprocess.run(command).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    program = build()
    if program is None:
        return 2
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        status = max(status, run_workload(program, args, workload))
    return status


if __name__ == "__main__":
    sys.exit(main())
