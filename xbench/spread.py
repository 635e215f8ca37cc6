#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

    python3 xbench/spread.py --workload W [--runs 10] [--trace 0|1]

Run from the repository root.  Run k uses seed k and runs for
BENCHMARK.json's run_seconds.  For every metric it prints the median
and the quartiles over the runs (Python's
statistics.quantiles(values, n=4)) and the interquartile distance as a
share of the median, next to the bound BENCHMARK.json gives the metric.
The host stamp of the runs is printed first.  The summary is also
written to .xbench/spread-<workload>-trace<0|1>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    units = {}
    host = None
    failed = 0
    for k in range(args.runs):
        seed = k + 1
        proc = subprocess.run(
            [sys.executable, os.path.join("xbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", args.trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            failed += 1
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        host = detail.get("host")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        # unscaled throughput and the host's slowness, for comparison
        for name in ("ops_per_s.raw", "host_slowness"):
            if name in detail:
                values.setdefault(name, []).append(detail[name]["median"])
                units[name] = "1/s" if name.startswith("ops") else "ratio"
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
            if n in bounds or args.trace == "1" and m["value"] != 0),
            file=sys.stderr)

    print(json.dumps({"host": host, "workload": args.workload,
                      "runs": args.runs, "failed_runs": failed}))
    summary = {}
    for name, vs in values.items():
        if len(vs) >= 2:
            q1, med, q3 = statistics.quantiles(vs, n=4)
        else:
            q1 = med = q3 = vs[0]
        share = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "iqr_share": share, "unit": units[name],
                         "bound": bounds.get(name)}
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "  OK" if share < bound / 3 else (
                "  WIDE" if share < bound else "  OVER")
        print(f"{name:32s} median {med:14.6g} q1 {q1:14.6g} q3 {q3:14.6g}"
              f"  iqr/median {share:7.4f}"
              + (f"  bound {bound}" if bound is not None else "") + flag)
    os.makedirs(".xbench", exist_ok=True)
    path = os.path.join(
        ".xbench", f"spread-{args.workload}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"host": host, "workload": args.workload,
                   "metrics": summary}, f, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
