"""One benchmark process: set-up, the closed loop and its checks, for one workload.

Started by ``run.py``, which times set-up from outside.  Prints one JSON line
with the moment set-up finished (``ready_at``, on the system-wide monotonic
clock), the run's metrics and its details.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from time import monotonic, perf_counter

import numpy
import qperturb
from qperturb import NoConvergence, QPerturbError

import workloads
from metrics import END_TO_END, UNBOUNDED, median, per_layer, tail
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")

TRACE_PREFIX_OPS = 6  # counts are per operation over this many first traced ops
SPAN_CAP = 250_000  # a traced run ends early rather than hold more spans
IMPORT_PROBES = 5
IMPORT_SNIPPET = "import time; t = time.perf_counter(); import qperturb; print(time.perf_counter() - t)"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


class Loop:
    """Closed loop over operations 0, 1, ... of one workload.

    Each operation's input is run by every runner in turn, the order rotating
    from one operation to the next, so runners compared with each other see
    the same inputs and the same machine.  The loop runs until ``seconds``
    have passed or ``full()`` is true, at least ``min_ops`` operations were
    made and the last cycle is whole.  Every output is checked after its latency is taken; a failed
    check or a raised ``QPerturbError`` counts as a failure and the loop goes
    on.  Output counts (``facts``) come from the first runner.
    """

    def __init__(self, workload, runners, seconds, min_ops=0, keep_facts=None, full=lambda: False):
        self.latencies = [[] for _ in runners]
        self.passed = [[] for _ in runners]
        self.facts, self.errors = [], []
        deadline = monotonic() + seconds
        i = 0
        while i < min_ops or i % workload.cycle or (monotonic() < deadline and not full()):
            inp = workload.make_input(i)
            for k in range(len(runners)):
                r = (i + k) % len(runners)
                t0 = perf_counter()
                try:
                    out = runners[r](i, inp)
                except QPerturbError as exc:
                    out, errors = None, [f"{type(exc).__name__}: {exc}"]
                latency = perf_counter() - t0
                if out is not None:
                    errors = workload.check(inp, out)
                    if r == 0 and (keep_facts is None or i < keep_facts):
                        self.facts.append(workload.facts(out))
                self.latencies[r].append(latency)
                self.passed[r].append(not errors)
                if errors and len(self.errors) < 5:
                    self.errors.append(f"op {i}: {'; '.join(errors)}")
            i += 1

    @property
    def attempted(self):
        return sum(map(len, self.passed))

    @property
    def failed(self):
        return sum(p.count(False) for p in self.passed)

    def ok_latencies_ms(self, r=0):
        """Latencies in ms; a failed operation counts as missing every limit."""
        return [1e3 * t if ok else float("inf") for t, ok in zip(self.latencies[r], self.passed[r])]


def smallest_sweeps(jacobi, matrix, limit=100):
    """Smallest ``max_sweeps`` with which the eigensolver converges on ``matrix``."""
    for k in range(limit + 1):
        try:
            jacobi(matrix, max_sweeps=k)
        except NoConvergence:
            continue
        return k
    return None


def provenance(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def git_commit():
    """The checkout's commit, read from its own .git directory only."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            return next(line.split()[0] for line in f if line.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown: not a git checkout"


def end_to_end(workload, loop):
    latencies = loop.ok_latencies_ms()
    ok = loop.attempted - loop.failed
    tail_ms, percentile, beyond, samples = tail(latencies)
    who = resource.RUSAGE_CHILDREN if workload.runs_children else resource.RUSAGE_SELF
    values = {
        "op_p50_ms": median(latencies),
        "op_tail_ms": tail_ms,
        "ops_per_s": ok / sum(loop.latencies[0]),
        "pass_frac": ok / loop.attempted,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items() if k in END_TO_END}
    details = {
        "unbounded": {k: {"value": values[k], "unit": unit} for k, unit in UNBOUNDED.items()},
        "op_tail_ms": {"percentile": percentile, "samples": samples, "beyond": beyond},
        "fail_frac": {"value": loop.failed / loop.attempted, "failed": loop.failed, "attempted": loop.attempted},
        "timed_phase_s": sum(loop.latencies[0]),
        "facts": sum_facts(loop.facts),
        "tracing_overhead_ms": "measured by the traced run (--trace 1)",
    }
    return metrics, details


def sum_facts(facts):
    total = {}
    for f in facts:
        for k, v in f.items():
            total[k] = total.get(k, 0) + v
    return total


def traced(workload, tracer, seconds, setup_capture):
    """Every input run untraced and traced, then the per-layer metrics.

    On ``cli-box`` the traced runner is ``cli.main`` in this process, and each
    input is also run as a subprocess, untraced.
    """
    in_process = getattr(workload, "run_in_process", None)
    target = in_process or workload.run
    first_cycle = []

    def plain(i, inp):
        return target(inp)

    def spanned(i, inp):
        tracer.capture = first_cycle if i < workload.cycle else None
        tracer.install()
        try:
            with tracer.span("op", op=i):
                return target(inp)
        finally:
            tracer.uninstall()
            tracer.capture = None

    runners = [spanned, plain]
    if in_process:
        runners.append(lambda i, inp: workload.run(inp))
    loop = Loop(
        workload, runners, seconds, TRACE_PREFIX_OPS, TRACE_PREFIX_OPS, lambda: len(tracer.spans) >= SPAN_CAP
    )
    traced_ms, plain_ms = loop.ok_latencies_ms(0), loop.ok_latencies_ms(1)
    extra = {"trace.overhead_ms": median([t - p for t, p in zip(traced_ms, plain_ms)])}
    if in_process:
        extra["cli.main_ms"] = sum(plain_ms) / len(plain_ms)
        extra["cli.process_overhead_ms"] = sum(loop.ok_latencies_ms(2)) / len(plain_ms) - extra["cli.main_ms"]
        extra["cli.import_ms"] = 1e3 * median(import_times())

    sample = first_cycle or setup_capture
    probed = [smallest_sweeps(qperturb.eigensolver.jacobi_eigendecompose, m) for m in sample]
    probed = [k for k in probed if k is not None]
    sweeps = sum(probed) / len(probed) if probed else 0.0

    ops = len(traced_ms)
    span_cost = tracer.span_cost()
    metrics = per_layer(tracer.spans, ops, TRACE_PREFIX_OPS, sweeps, loop.facts, extra, span_cost)
    details = {
        "tracing_overhead_ms": {
            "measured": extra["trace.overhead_ms"],
            "computed": metrics["trace.overhead_calc_ms"]["value"],
            "span_cost_us": 1e6 * span_cost,
        },
        "op_p50_ms": {"untraced": median(plain_ms), "traced": median(traced_ms)},
        "traced_ops": ops,
        "count_prefix_ops": TRACE_PREFIX_OPS,
        "sweeps_probed": probed,
        "facts_over_prefix": sum_facts(loop.facts),
        "absent": tracer.absent,
    }
    return loop, metrics, details


def import_times():
    times = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET], capture_output=True, text=True, timeout=60, check=True
        )
        times.append(float(done.stdout))
    return times


def main(argv=None):
    args = parse_args(argv)
    tracer = setup_capture = None
    if args.trace:
        tracer = Tracer()
        tracer.capture = setup_capture = []
        tracer.install()
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        workload = workloads.create(args.workload, args.seed, workdir)
        setup_errors = workload.setup_errors + workload.warm_up()
        ready_at = monotonic()
        if tracer:
            tracer.capture = None
            tracer.uninstall()
        if args.setup_only:
            print(json.dumps({"ready_at": ready_at, "setup_errors": setup_errors}))
            return 0
        if tracer:
            loop, metrics, details = traced(workload, tracer, args.seconds, setup_capture)
            os.makedirs(WORK, exist_ok=True)
            spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(spans_path)
            details["spans"] = os.path.relpath(spans_path, ROOT)
        else:
            loop = Loop(workload, [lambda i, inp: workload.run(inp)], args.seconds)
            metrics, details = end_to_end(workload, loop)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details.update(
        {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "provenance": provenance(args.seed),
            "setup_errors": setup_errors,
            "errors": loop.errors,
        }
    )
    print(
        json.dumps(
            {
                "ready_at": ready_at,
                "correct": loop.failed == 0 and not setup_errors,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": metrics,
                "details": details,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
