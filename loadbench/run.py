#!/usr/bin/env python3
"""Builds the load benchmark (Release, from this directory's CMakeLists.txt)
and runs one workload.

    python3 loadbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. --trace 0 runs the end-to-end command
(xks_loadbench); --trace 1 runs the per-layer traced replay
(xks_layer_replay). Build output goes to stderr; the program's report goes
to stdout, ending with one JSON object.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(os.getcwd(), ".bench_build", "loadbench")
TARGETS = {"0": "xks_loadbench", "1": "xks_layer_replay"}


def run_quiet(cmd):
    """Runs a build step, sending its output to stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def commit():
    try:
        out = subprocess.run(["git", "-C", HERE, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    target = TARGETS[args.trace]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"]) != 0:
        print("loadbench: configure failed", file=sys.stderr)
        return 1
    if run_quiet(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs]) != 0:
        print("loadbench: build failed", file=sys.stderr)
        return 1

    env = dict(os.environ, XKS_LOADBENCH_COMMIT=commit())
    cmd = [os.path.join(BUILD_DIR, target), "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds]
    if args.trace == "1":
        cmd += ["--spans-dir", os.path.join(os.getcwd(), ".bench_build", "spans")]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
