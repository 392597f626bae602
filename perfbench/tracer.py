"""Span tracing around the package's public functions, installed from outside.

The package binds names with ``from .x import f``, so one function object can
be reachable under several module namespaces (``verify.jacobi_eigendecompose``
is a separate binding from ``eigensolver.jacobi_eigendecompose``).  The tracer
replaces every binding of a traced function with one wrapper and restores the
originals on ``uninstall``.  ``HermitianMatrix`` is traced through its
``__init__``.

Spans are kept in memory as ``[name, start, end, parent, op, arg]`` lists and
written out once, when the run ends.  A span's self time is its duration minus
the durations of its direct children; because calls nest, the self times of a
span tree add up exactly to the duration of its root.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import perf_counter

# layer -> public names traced in it.  A name the package no longer defines is
# reported as absent, not as an error.
TRACED = {
    "numkernel": ["HermitianMatrix", "add_scaled", "inner_product", "matvec", "matrix_element"],
    "eigensolver": ["jacobi_eigendecompose"],
    "perturbation": [
        "first_order",
        "level_shifts",
        "correction_coefficients",
        "expected_energy",
        "total_energy",
        "perturbed_state",
        "residual_norm",
    ],
    "verify": [
        "exact_levels",
        "level_sweep",
        "superposition_sweep",
        "pair_and_errors",
        "convergence_order",
        "records_for_level",
    ],
    "models": ["random_hermitian", "box_hamiltonian", "box_potential_matrix"],
    "fileio": ["parse_matrix", "parse_vector", "format_matrix", "format_vector"],
    "cli": ["main"],
}
# Span names differ from attribute names only for the traced constructor.
SPAN_NAMES = {"numkernel.HermitianMatrix": "numkernel.hermitian_build"}

NAME, START, END, PARENT, OP, ARG = range(6)


def _span_arg(span_name, args):
    """The one argument a span records: matrix dim for the eigensolver, text
    length for the parsers."""
    if span_name == "eigensolver.jacobi_eigendecompose" and args:
        return args[0].dim
    if span_name in ("fileio.parse_matrix", "fileio.parse_vector") and args:
        return len(args[0])
    return None


class Tracer:
    """Records nested spans for the traced functions of one package."""

    def __init__(self, package="qperturb"):
        self.package = importlib.import_module(package)
        self.modules = [self.package] + [
            importlib.import_module(f"{package}.{layer}") for layer in TRACED
        ]
        self.spans = []
        self.op = "setup"
        self.absent = []
        self.capture = None  # list that receives eigensolver inputs while set
        self._stack = []
        self.bindings = self._bindings()

    @contextmanager
    def span(self, name, op=None):
        """A span opened by the benchmark itself, e.g. around one operation."""
        previous = self.op
        if op is not None:
            self.op = op
        record = self._open(name, None)
        try:
            yield record
        finally:
            self._close(record)
            self.op = previous

    def _open(self, name, arg):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, arg]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        return record

    def _close(self, record):
        record[END] = perf_counter()
        self._stack.pop()

    def _wrap(self, span_name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.capture is not None and span_name == "eigensolver.jacobi_eigendecompose":
                tracer.capture.append(args[0])
            record = tracer._open(span_name, _span_arg(span_name, args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(record)

        return traced

    def _bindings(self):
        """(owner, attribute, original, wrapper) for every binding of a traced name."""
        bindings = []
        for layer, names in TRACED.items():
            home = importlib.import_module(f"{self.package.__name__}.{layer}")
            for name in names:
                span_name = SPAN_NAMES.get(f"{layer}.{name}", f"{layer}.{name}")
                target = getattr(home, name, None)
                if target is None:
                    self.absent.append(span_name)
                elif isinstance(target, type):
                    init = target.__dict__["__init__"]
                    bindings.append((target, "__init__", init, self._wrap(span_name, init)))
                else:
                    wrapper = self._wrap(span_name, target)
                    for module in self.modules:
                        for attr, value in vars(module).items():
                            if value is target:
                                bindings.append((module, attr, target, wrapper))
        return bindings

    def install(self):
        for owner, attr, _, wrapper in self.bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self.bindings:
            setattr(owner, attr, original)

    def span_cost(self, calls=20000, repeats=3):
        """Seconds a traced call adds to an untraced one, measured on a no-op."""

        def noop():
            return None

        wrapped = self._wrap("calibration", noop)
        kept, self.spans = self.spans, []
        best = float("inf")
        try:
            for _ in range(repeats):
                self.spans.clear()
                t0 = perf_counter()
                for _ in range(calls):
                    noop()
                t1 = perf_counter()
                for _ in range(calls):
                    wrapped()
                t2 = perf_counter()
                best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
        finally:
            self.spans = kept
        return best

    def write(self, path):
        """One JSON array per line: name, start, end, parent index, op, arg."""
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps(record))
                out.write("\n")


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    durations = [s[END] - s[START] for s in spans]
    own = list(durations)
    for s, d in zip(spans, durations):
        if s[PARENT] >= 0:
            own[s[PARENT]] -= d
    return durations, own
