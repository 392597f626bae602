"""Metric names, units and how they are computed from one run's figures.

``END_TO_END`` and ``PER_LAYER`` must name the same metrics as
``BENCHMARK.json``; the smoke test checks that they do.  ``UNBOUNDED`` are
end-to-end metrics every run prints in its details line but that
``BENCHMARK.json`` does not bound: on a machine whose speed swings they
spread too much between runs to carry a regression bound (see README.md).
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracer import ARG, NAME, OP, TRACED, self_times

END_TO_END = {
    "setup_s": "s",
    "op_tail_ms": "ms",
    "pass_frac": "ratio",
    "peak_rss_mb": "MB",
}
UNBOUNDED = {
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
}

PER_LAYER = {
    **{f"{layer}.self_ms": "ms" for layer in TRACED},
    "eigensolver.calls": "count",
    "eigensolver.share": "ratio",
    "eigensolver.sweeps": "count",
    "eigensolver.us_per_rotation": "us",
    "perturbation.first_order.self_ms": "ms",
    "perturbation.level_shifts.self_ms": "ms",
    "perturbation.correction_coefficients.self_ms": "ms",
    "perturbation.first_order.calls": "count",
    "numkernel.matrix_element.calls": "count",
    "numkernel.inner_product.calls": "count",
    "numkernel.matvec.calls": "count",
    "numkernel.hermitian_build.calls": "count",
    "numkernel.hermitian_build.self_ms": "ms",
    "numkernel.add_scaled.calls": "count",
    "verify.exact_levels.calls": "count",
    "verify.exact_levels.self_ms": "ms",
    "verify.level_sweep.self_ms": "ms",
    "verify.superposition_sweep.self_ms": "ms",
    "verify.pair_and_errors.self_ms": "ms",
    "verify.convergence_order.self_ms": "ms",
    "verify.slope_below_1p8": "count",
    "models.random_hermitian.ms": "ms",
    "models.box_potential_matrix.ms": "ms",
    "fileio.parse_matrix.ms": "ms",
    "fileio.parse_vector.ms": "ms",
    "fileio.format_matrix.ms": "ms",
    "fileio.bytes_parsed": "bytes",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "cli.process_overhead_ms": "ms",
    "cli.stdout_bytes": "bytes",
    "trace.op_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_calc_ms": "ms",
}

CALL_COUNTS = {
    "eigensolver.calls": "eigensolver.jacobi_eigendecompose",
    **{
        f"{name}.calls": name
        for name in (
            "perturbation.first_order",
            "numkernel.matrix_element",
            "numkernel.inner_product",
            "numkernel.matvec",
            "numkernel.hermitian_build",
            "numkernel.add_scaled",
            "verify.exact_levels",
        )
    },
}
SELF_TIMES = [
    "perturbation.first_order",
    "perturbation.level_shifts",
    "perturbation.correction_coefficients",
    "numkernel.hermitian_build",
    "verify.exact_levels",
    "verify.level_sweep",
    "verify.superposition_sweep",
    "verify.pair_and_errors",
    "verify.convergence_order",
]
PER_CALL = ["models.random_hermitian", "models.box_potential_matrix"]
PER_OP = ["fileio.parse_matrix", "fileio.parse_vector", "fileio.format_matrix"]


TAIL_PERCENTILE = 90


def tail(latencies, percentile=TAIL_PERCENTILE):
    """Latency at ``percentile`` (nearest rank), lowered where needed to the
    highest percentile that still has ten samples beyond it.

    Returns (value, percentile used, samples beyond it, samples).  With ten
    samples or fewer no percentile qualifies and the maximum is returned.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n if n <= 10 else min(math.ceil(percentile * n / 100), n - 10)
    return ordered[rank - 1], 100.0 * rank / n, n - rank, n


def per_layer(spans, n_ops, prefix, sweeps, facts, extra, span_cost):
    """Per-layer metrics from the spans of one traced run.

    Self times and inclusive times are means over the ``n_ops`` traced
    operations.  Call counts and output counts are per operation over the
    first ``prefix`` traced operations, so they repeat exactly between runs of
    the same seed.  ``sweeps`` is the probed mean sweep count; ``facts`` the
    per-operation output counts of those first operations; ``extra`` holds
    figures measured outside the spans (cli timings, tracing overhead);
    ``span_cost`` the calibrated seconds one traced call adds.
    """
    durations, own = self_times(spans)
    layer_self = defaultdict(float)
    name_self = defaultdict(float)
    name_incl = defaultdict(float)
    prefix_calls = defaultdict(int)
    prefix_args = defaultdict(int)
    all_incl = defaultdict(float)
    all_calls = defaultdict(int)
    op_total = op_own = 0.0
    op_spans = 0
    eig_own = eig_pairs = 0.0
    for s, d, o in zip(spans, durations, own):
        name = s[NAME]
        all_incl[name] += d
        all_calls[name] += 1
        if name == "eigensolver.jacobi_eigendecompose":
            eig_own += o
            eig_pairs += s[ARG] * (s[ARG] - 1) / 2
        if not isinstance(s[OP], int):
            continue
        op_spans += 1
        if name == "op":
            op_total += d
            op_own += o
            continue
        layer_self[name.split(".")[0]] += o
        name_self[name] += o
        name_incl[name] += d
        if s[OP] < prefix:
            prefix_calls[name] += 1
            if s[ARG] is not None:
                prefix_args[name] += s[ARG]

    ms_per_op = 1e3 / n_ops
    out = {f"{layer}.self_ms": layer_self[layer] * ms_per_op for layer in TRACED}
    out.update({metric: prefix_calls[name] / prefix for metric, name in CALL_COUNTS.items()})
    out.update({f"{name}.self_ms": name_self[name] * ms_per_op for name in SELF_TIMES})
    out.update({f"{name}.ms": name_incl[name] * ms_per_op for name in PER_OP})
    out.update(
        {f"{name}.ms": 1e3 * all_incl[name] / max(1, all_calls[name]) for name in PER_CALL}
    )
    out["eigensolver.share"] = layer_self["eigensolver"] / op_total if op_total else 0.0
    out["eigensolver.sweeps"] = sweeps
    rotations = sweeps * eig_pairs
    out["eigensolver.us_per_rotation"] = 1e6 * eig_own / rotations if rotations else 0.0
    out["verify.slope_below_1p8"] = sum(f.get("slope_below_1p8", 0) for f in facts)
    out["fileio.bytes_parsed"] = (
        prefix_args["fileio.parse_matrix"] + prefix_args["fileio.parse_vector"]
    ) / prefix
    out["cli.stdout_bytes"] = sum(f.get("stdout_bytes", 0) for f in facts) / prefix
    out["trace.op_ms"] = op_total * ms_per_op
    out["trace.unattributed_ms"] = op_own * ms_per_op
    out["trace.overhead_calc_ms"] = op_spans * span_cost * ms_per_op
    for key in ("cli.import_ms", "cli.main_ms", "cli.process_overhead_ms", "trace.overhead_ms"):
        out[key] = extra.get(key, 0.0)
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER.items()}


def median(values):
    return statistics.median(values) if values else 0.0
