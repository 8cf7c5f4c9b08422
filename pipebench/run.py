#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 pipebench/run.py --workload advise|answer|update \
        --seed N --seconds S --trace 0|1

The program is built with dune into .bench_build/ (the shared dune cache
is turned off, so nothing is written outside the checkout), then run in
a process of its own.  Its last line of output is the result object.
With --trace 1 the recorded spans are written to
.bench_build/pipebench/trace-<workload>-<seed>.json.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./pipebench/pipeline.exe"
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=["advise", "answer", "update"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "-j", "2",
         "--display", "quiet", TARGET],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("pipebench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(BUILD_DIR, "default", "pipebench", "pipeline.exe"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        out_dir = os.path.join(BUILD_DIR, "pipebench")
        os.makedirs(out_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("pipebench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
