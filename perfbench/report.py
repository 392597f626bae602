"""Run the benchmark on several workloads and seeds; print every metric.

    python3 perfbench/report.py [--workload W ...] [--seeds 1-10] [--seconds S] [--trace 0|1]

For each workload and metric it prints the median, the quartiles and the
spread (quartile distance over the median) across the seeds, with the unit
and, for end-to-end metrics, the bound from BENCHMARK.json.  Runs are made one
after the other, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workload or names:
        values, units, failed = {}, {}, 0
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
            cmd += ["--seed", str(seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            *_, details, last = done.stdout.splitlines()
            result = json.loads(last)
            failed += result["failed"] + (not result["correct"])
            unbounded = json.loads(details)["details"].get("unbounded", {})
            for name, metric in {**result["metrics"], **unbounded}.items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"{workload}  (seeds {args.seeds}, {args.seconds:g} s, trace {args.trace}, failures {failed})")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = f"  bound {bounds[name]}" if name in bounds else ("  not bounded" if name in unbounded else "")
            print(f"  {name:46s} {med:14.6g} {units[name]:6s} [{q1:.6g}, {q3:.6g}]  spread {spread:.3f}{bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
