"""Smoke test of the benchmark itself: a short run of every workload in both modes.

    python3 -m pytest -q perfbench/test_smoke.py

Asserts that every metric named in BENCHMARK.json is emitted with its unit,
that no operation failed, and that a traced run reports its overhead and
repeats its exact counts.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER, UNBOUNDED  # noqa: E402
from tracer import TRACED  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
EXACT_COUNTS = [
    "eigensolver.calls",
    "eigensolver.sweeps",
    "perturbation.first_order.calls",
    "numkernel.matrix_element.calls",
    "numkernel.inner_product.calls",
    "numkernel.matvec.calls",
    "numkernel.hermitian_build.calls",
    "numkernel.add_scaled.calls",
    "verify.exact_levels.calls",
    "verify.slope_below_1p8",
    "fileio.bytes_parsed",
    "cli.stdout_bytes",
]


def bench(workload, trace, seed=3, seconds=1):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True)
    *_, details, result = done.stdout.splitlines()
    return json.loads(details)["details"], json.loads(result)


def test_benchmark_json_matches_the_metrics():
    assert [m["name"] for m in BENCH["end_to_end"]] == list(END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    details, result = bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert {k: v["unit"] for k, v in details["unbounded"].items()} == UNBOUNDED
    assert all(v["value"] > 0 for v in details["unbounded"].values())
    assert details["fail_frac"]["value"] == 0
    assert details["provenance"]["seed"] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced(workload):
    details, result = bench(workload, trace=1)
    again_details, again = bench(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    assert isinstance(details["tracing_overhead_ms"]["measured"], float)
    assert details["tracing_overhead_ms"]["computed"] > 0
    for name in EXACT_COUNTS:
        assert result["metrics"][name]["value"] == again["metrics"][name]["value"], name
    m = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(m[f"{layer}.self_ms"] for layer in TRACED)
    assert layers + m["trace.unattributed_ms"] == pytest.approx(m["trace.op_ms"], rel=1e-9)


def test_bare_directory_fails():
    """Without the package next to it the benchmark exits non-zero and prints no result."""
    bare = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
