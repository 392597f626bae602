"""qperturb benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-dense --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  The line before
it holds the run's details and provenance.  See perfbench/README.md.

Set-up time is measured from outside: the workload's set-up runs in
``SETUP_SAMPLES`` fresh processes (the last of which goes on to the timed
loop), each timed from just before it is started to the moment it is ready,
and ``setup_s`` is their median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("solve-dense", "first-order-batch", "sweep-dense", "cli-box")
SETUP_SAMPLES = 3
BUDGET_S = 170  # every worker must have ended by then
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def worker_env():
    """BLAS/OpenMP pinned to one thread; the checkout's own package first."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_worker(cmd, env, deadline):
    """Run one worker and return (start time, its JSON line); exit on failure."""
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: worker exceeded the time budget")
    if done.returncode != 0:
        sys.exit(f"perfbench: worker exited with code {done.returncode}")
    lines = done.stdout.decode().strip().splitlines()
    return started, json.loads(lines[-1])


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not os.path.isfile(os.path.join(SRC, "qperturb", "__init__.py")):
        print(f"perfbench: no qperturb package under {SRC}", file=sys.stderr)
        return 2
    env = worker_env()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]

    setup, setup_errors = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            started, probe = run_worker(cmd + ["--setup-only"], env, deadline)
            setup.append(probe["ready_at"] - started)
            setup_errors += probe["setup_errors"]
    started, result = run_worker(cmd, env, deadline)
    metrics = result["metrics"]
    details = result["details"]
    if not args.trace:
        setup.append(result["ready_at"] - started)
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}
        details["setup_samples_s"] = setup
        details["setup_errors"] += setup_errors
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": result["correct"] and not setup_errors,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
