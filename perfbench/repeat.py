#!/usr/bin/env python3
"""Runs one workload N times and reports each metric's spread against its bound.

    python3 perfbench/repeat.py --workload train-tt [--runs 10] [--first-seed 1]
                                [--trace 0]

Run from the repository root. Run i uses seed first_seed + i and the run
length from BENCHMARK.json. For every metric it prints the median, the
quartiles (statistics.quantiles(values, n=4)), the spread (q3 - q1) / median
and, for end-to-end metrics, the bound and spread / bound. The raw results go
to .bench_results/<workload>-trace<t>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run with seed %d failed (exit %d)" % (seed, out.returncode))
    return json.loads(lines[-1])


def summarize(runs):
    rows = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        rows[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                      "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / abs(med) if med else float("inf")}
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        runs.append(run_once(args.workload, seed, bench["run_seconds"], args.trace))
        r = runs[-1]
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, r["correct"], r["attempted"], r["failed"]), flush=True)

    print("\n%-30s %-11s %14s %14s %14s %8s %6s %7s" %
          ("metric", "unit", "median", "q1", "q3", "spread", "bound", "sp/bd"))
    for name, row in summarize(runs).items():
        bound = specs.get(name, {}).get("bound")
        line = "%-30s %-11s %14.6g %14.6g %14.6g %8.4f" % (
            name, row["unit"], row["median"], row["q1"], row["q3"], row["spread"])
        line += " %6s %7s" % (("%.3f" % bound, "%.2f" % (row["spread"] / bound))
                              if bound else ("-", "-"))
        print(line)
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print("\nfailed share per run: %s; all correct: %s" %
          (shares, all(r["correct"] for r in runs)))

    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-trace%d.json" % (args.workload, args.trace))
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "trace": args.trace, "runs": runs}, f,
                  indent=1)
    print("results: %s" % os.path.relpath(path, ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
