#!/usr/bin/env python3
"""Steadiness check: runs one workload N times with different seeds and
prints, for each end-to-end metric, the median and the interquartile
spread as a share of the median, beside the bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload point_lookups --runs 10

Run k uses seed k, and every run lasts BENCHMARK.json's run_seconds.

A spread above a third of its bound is flagged. The failed share of
operations must be identical in every run.
"""
import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    shares = set()
    for seed in range(1, args.runs + 1):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect answers\n{out.stderr}")
        shares.add(Fraction(result["failed"], result["attempted"]))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} "
              + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s; failed shares: {sorted(map(str, shares))}")
    print(f"{'metric':<24}{'median':>14}{'iqr/median':>12}{'bound':>8}")
    worst = 0.0
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above a third of the bound"
        print(f"{name:<24}{med:>14.5g}{spread:>12.4f}{bounds[name]:>8}{flag}")
        if name != "setup_s":
            worst = max(worst, spread / bounds[name])
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
