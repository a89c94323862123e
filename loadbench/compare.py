#!/usr/bin/env python3
"""Compares two sets of load-benchmark runs.

    python3 loadbench/compare.py BASE_DIR HEAD_DIR

Each directory holds the saved standard output of runs of loadbench/run.py,
one file per run (any name). For every workload x end-to-end metric named in
BENCHMARK.json it prints each set's median and quartiles, the spread
(inter-quartile distance over the median), whether the head median is within
the metric's bound of the base median, and how many seed-matched pairs the
head wins. Runs recorded on different numbers of CPUs are refused.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(directory):
    runs = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().strip().splitlines()
        header = None
        for line in lines:
            if line.startswith("# run-header "):
                header = json.loads(line[len("# run-header "):])
                break
        if header is None or not lines:
            print(f"compare: {path}: no run header, skipped", file=sys.stderr)
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"compare: {path}: no result line, skipped", file=sys.stderr)
            continue
        runs.append({"path": path, "header": header, "result": result})
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    base = load_runs(sys.argv[1])
    head = load_runs(sys.argv[2])
    cpus = {run["header"].get("num_cpus") for run in base + head}
    if len(cpus) != 1:
        print(f"compare: refusing runs recorded on different CPU counts: {sorted(cpus)}",
              file=sys.stderr)
        return 2
    print(f"num_cpus={cpus.pop()} base_runs={len(base)} head_runs={len(head)}")

    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        def pick(runs):
            return {run["header"]["seed"]: run for run in runs
                    if run["header"]["workload"] == workload
                    and not run["header"].get("trace")}
        base_runs, head_runs = pick(base), pick(head)
        if not base_runs or not head_runs:
            print(f"{workload}: no runs in one of the sets")
            continue
        failed_share = {
            name: sorted({r["result"]["failed"] / r["result"]["attempted"]
                          for r in runs.values()})
            for name, runs in (("base", base_runs), ("head", head_runs))}
        print(f"\n{workload}: base n={len(base_runs)} head n={len(head_runs)} "
              f"failed share base={failed_share['base']} head={failed_share['head']}")
        for metric in spec["end_to_end"]:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            b = [r["result"]["metrics"][name]["value"] for r in base_runs.values()]
            h = [r["result"]["metrics"][name]["value"] for r in head_runs.values()]
            bq, hq = quartiles(b), quartiles(h)
            change = (hq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            worse = change if better == "lower" else -change
            within = worse <= bound
            failures += 0 if within else 1
            seeds = sorted(set(base_runs) & set(head_runs))
            wins = 0
            for seed in seeds:
                bv = base_runs[seed]["result"]["metrics"][name]["value"]
                hv = head_runs[seed]["result"]["metrics"][name]["value"]
                if (hv < bv) if better == "lower" else (hv > bv):
                    wins += 1
            spread_b = (bq[2] - bq[0]) / bq[1] if bq[1] else 0.0
            spread_h = (hq[2] - hq[0]) / hq[1] if hq[1] else 0.0
            print(f"  {name:28s} base {bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}] "
                  f"spread {spread_b:.3f} | head {hq[1]:.4g} [{hq[0]:.4g}, {hq[2]:.4g}] "
                  f"spread {spread_h:.3f} | change {change:+.1%} "
                  f"{'within' if within else 'OUTSIDE'} bound {bound:.0%} | "
                  f"head wins {wins}/{len(seeds)} pairs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
