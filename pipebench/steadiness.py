#!/usr/bin/env python3
"""Steadiness check: run one workload on several seeds, twice over, as
two sets of runs of the same code, and print for each end-to-end metric:

  - per set, the median and the spread (distance between the first and
    the third quartile, as a share of the median);
  - the drift, the second set's median against the first's, as a share
    of the first;
  - the metric's bound from BENCHMARK.json.

A spread (setup_s excepted) at or above a third of the bound, or a drift
beyond the bound in the worse direction, is flagged.  The share of failed
operations must be the same in every run.

Usage, from the root of a checkout:

    python3 pipebench/steadiness.py --workload answer --seeds 1-10

Each run lasts BENCHMARK.json's run_seconds and reports the end-to-end
metrics (--trace 0).
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_set(bench, workload, seeds):
    """One run per seed; returns per-metric values, the failed shares and
    whether every run ended correct."""
    values, shares, ok = {}, set(), True
    for seed in seeds:
        out = subprocess.run(
            bench["command"] + ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        shares.add(result["failed"] / result["attempted"])
        ok = ok and result["correct"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values, shares, ok


def spread(vals):
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / statistics.median(vals)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = seed_list(args.seeds)

    sets = []
    for i in (1, 2):
        print(f"set {i}", flush=True)
        sets.append(run_set(bench, args.workload, seeds))
    (v1, s1, ok1), (v2, s2, ok2) = sets
    shares = s1 | s2
    print(f"failed share: {sorted(shares)}")
    print(f"{'metric':24s} {'median 1':>12s} {'spread 1':>8s} {'median 2':>12s} "
          f"{'spread 2':>8s} {'drift':>7s} {'bound':>6s}")
    for name, m in metrics.items():
        a, b = v1.get(name, []), v2.get(name, [])
        if len(a) < 2 or len(b) < 2:
            print(f"{name:24s} missing")
            continue
        m1, m2 = statistics.median(a), statistics.median(b)
        sp1, sp2 = spread(a), spread(b)
        drift = (m2 - m1) / m1
        worse = drift if m["better"] == "lower" else -drift
        flags = []
        if name != "setup_s" and max(sp1, sp2) >= m["bound"] / 3:
            flags.append("spread >= bound/3")
        if worse > m["bound"]:
            flags.append("drift beyond bound")
        print(f"{name:24s} {m1:12.6g} {sp1:8.3f} {m2:12.6g} {sp2:8.3f} {drift:+7.3f} "
              f"{m['bound']:6.2f}  {', '.join(flags)}")
    return 0 if ok1 and ok2 and len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
