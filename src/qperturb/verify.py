"""Exact-diagonalization oracle and convergence-order analysis.

A first-order method is correct when its error against the exactly
diagonalized perturbed matrix shrinks like x^2.  This module produces the
(x, level, perturbative, exact, error) records for a strength sweep and
fits the log-log error slope; slope >= ~2 (threshold 1.8 in the tests)
separates a correct first-order implementation from a broken one.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import eigensolver
from .eigensolver import SpectralDecomposition, jacobi_eigendecompose
from .errors import AttemptsExhausted, DimensionMismatch, InsufficientData
from .models import random_hermitian
from .numkernel import HermitianMatrix, add_scaled, checked_index
from .perturbation import StateVector, expected_energy, level_shifts

# Two decades of strengths, inside the perturbative regime for O(1)-gap spectra.
DEFAULT_X_GRID = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
# Errors at or below this are considered numerical noise, not signal.
ERROR_FLOOR = 1e-12
# Reject random instances whose smallest level gap is below this fraction of
# the spectral spread: keeps the x-grid inside the rank-pairing regime, where
# no two levels cross (past a crossing the sweeps' records swap labels).
MIN_GAP_FRACTION = 0.1
# Draws random_nondegenerate_pair makes before giving up.
MAX_ATTEMPTS = 1000

SUPERPOSITION_LEVEL = -1  # level tag for weighted-total records
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class SweepRecord:
    """One (strength, level) comparison of a perturbative value vs the oracle.

    ``abs_error`` is not an argument: it is always ``|perturbative - exact|``.
    """

    x: float
    level: int
    perturbative: float
    exact: float
    abs_error: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.x) and self.x > 0):
            raise ValueError(f"sweep strength must be positive and finite, got {self.x}")
        object.__setattr__(self, "abs_error", abs(self.perturbative - self.exact))


@dataclass(frozen=True)
class OrderFit:
    """Least-squares slope of log10(error) against log10(strength).

    ``floored`` means the points above the noise floor span fewer than two
    distinct strengths, so the slope is not applicable (reported as NaN).
    """

    slope: float
    intercept: float
    n_points: int
    floored: bool


def exact_levels(
    hamiltonian: HermitianMatrix, perturbation: HermitianMatrix, x: float
) -> np.ndarray:
    """Ascending eigenvalues of H + x H', diagonalized exactly at finite x.

    A writable copy of ``jacobi_eigendecompose(add_scaled(H, H', x))``'s
    eigenvalues: a solve builds its eigenvectors in the start basis anyway,
    and neither the off-diagonal certificate nor a restart reads them.  Bit
    for bit the row for x of the sweeps' oracle, which solves the same
    member inside its stack.
    Not cached: only the sweeps' pass is.
    """
    return jacobi_eigendecompose(add_scaled(hamiltonian, perturbation, x)).eigenvalues.copy()


def _two_distinct(values: list[float]) -> bool:
    """Whether a list of finite floats holds at least two distinct values."""
    return len(values) > 1 and min(values) < max(values)


def fit_order(xs, errors) -> OrderFit:
    """Fit log10(error) vs log10(x), ignoring points at or below ``ERROR_FLOOR``.

    Every strength must be positive and finite and every error non-negative
    and finite, else :class:`InsufficientData`: such a point can be neither
    fitted nor dropped as noise.

    The line is ``np.polyfit(log10(x), log10(error), 1)`` with polyfit's
    arithmetic inline: the matrix ``[log10 x, 1]`` with each column scaled
    to unit norm, one ``np.linalg.lstsq`` with ``rcond = n * eps``, the
    coefficients unscaled, and polyfit's ``RankWarning`` where the matrix is
    rank deficient (strengths a few ulps apart).  So slope and intercept are
    polyfit's bit for bit at about half the cost: a sweep fits every level
    on a handful of points, where polyfit's argument handling and checks by
    numpy reductions cost more than the fit.  The checks here run in plain
    Python.
    """
    x_arr = np.asarray(xs, dtype=np.float64)
    e_arr = np.asarray(errors, dtype=np.float64)
    if x_arr.shape != e_arr.shape or x_arr.ndim != 1:
        raise DimensionMismatch("xs and errors must be 1-D and equally long")
    x_list, e_list = x_arr.tolist(), e_arr.tolist()
    if not all(0.0 < x < math.inf for x in x_list):  # NaN fails too
        raise InsufficientData("all strengths must be positive and finite")
    if not all(0.0 <= e < math.inf for e in e_list):
        raise InsufficientData("all errors must be non-negative and finite")
    if not _two_distinct(x_list):
        raise InsufficientData("need at least 2 distinct strengths to fit a slope")
    kept = [(x, e) for x, e in zip(x_list, e_list) if e > ERROR_FLOOR]
    n = len(kept)
    if not _two_distinct([x for x, _ in kept]):
        return OrderFit(math.nan, math.nan, n, True)
    logs = np.log10(np.array(kept).T)
    lhs = np.ones((n, 2))
    lhs[:, 0] = logs[0]
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    coefficients, _, rank, _ = np.linalg.lstsq(lhs, logs[1], n * _EPS)
    slope, intercept = (coefficients / scale).tolist()
    if rank != 2:
        warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning, stacklevel=2)
    return OrderFit(slope, intercept, n, False)


def convergence_order(records) -> OrderFit:
    """Order fit for one level's sweep records."""
    recs = list(records)
    return fit_order([r.x for r in recs], [r.abs_error for r in recs])


def records_for_level(records, level: int) -> list[SweepRecord]:
    return [r for r in records if r.level == level]


def _sweep(hamiltonian: HermitianMatrix, perturbation: HermitianMatrix, xs):
    """The checked grid followed by :func:`_eigenbasis_pass`'s decomposition,
    shifts, first-order levels and oracle spectra: the one place where the
    sweeps diagonalize.

    H and H' are checked first: they must have the same dim
    (:class:`DimensionMismatch`, as from :func:`add_scaled`).  Then the
    grid: it must not be empty (:class:`InsufficientData`) and every
    strength must be positive and finite.  The pass itself is cached for
    the last H, H' and grid.
    """
    if hamiltonian.dim != perturbation.dim:
        raise DimensionMismatch(f"matrix dims differ: {hamiltonian.dim} vs {perturbation.dim}")
    grid = tuple(float(x) for x in xs)
    if not grid:
        raise InsufficientData("need at least one strength to sweep")
    for x in grid:
        if not (math.isfinite(x) and x > 0):
            raise ValueError(f"sweep strength must be positive and finite, got {x}")
    return (grid, *_eigenbasis_pass(hamiltonian, perturbation, grid))


@functools.lru_cache(maxsize=1)
def _eigenbasis_pass(hamiltonian: HermitianMatrix, perturbation: HermitianMatrix, grid):
    """One sweep pass over a checked grid, kept for the last completed call.

    Returns H's decomposition, its first-order shifts E'_n from
    :func:`level_shifts`, so that every perturbative value equals
    :func:`first_order`'s bit for bit, and two ``(B, N)`` arrays with one
    row per strength: the first-order levels E_n + x E'_n and the oracle
    spectrum.  Each row is sorted ascending, so column n pairs the n-th
    first-order level with the n-th exact one; this is the only place where
    levels are paired.  The arrays are read-only, as every caller shares
    them.

    ``HermitianMatrix`` compares and hashes by identity, so the cache returns
    the pass for the same H and H' objects and an equal grid: a level sweep
    and a superposition sweep of one pair diagonalize once between them.  A
    pass that raises is not kept.  Call it positionally: a keyword call is a
    different cache key.

    The oracle and H's decomposition are one solve: the ``(B + 1, N, N)``
    stack ``[H, H + x_1 H', ..., H + x_B H']`` goes through one
    ``eigensolver._eigensystems`` call: the members above the tolerance go
    through one loop of batched starts, and one that meets it (the box
    model's diagonal H) comes back as it is.  The members are one broadcast
    ``s = H + grid * H'``, symmetrized as one ``s / 2 + s^H / 2``: the
    arithmetic of :func:`add_scaled` and of :class:`HermitianMatrix`, so
    each is bit-identical to ``add_scaled(H, H', x).array``.  They are Hermitian by construction, so
    only their finiteness is checked, once, with the same ``ValueError``.
    Every member is bit-identical to a solve of its own, so member 0 is
    ``jacobi_eigendecompose(H)`` and each spectrum row is
    ``exact_levels(H, H', x)``.  Shifts that overflow after the solve raise
    the same ``ValueError``.
    """
    members = hamiltonian.array + np.array(grid)[:, None, None] * perturbation.array
    if not np.isfinite(members).all():
        raise ValueError("matrix entries must be finite")
    members = members / 2.0 + members.conj().swapaxes(1, 2) / 2.0
    stack = np.concatenate([hamiltonian.array[None], members])
    del members  # only the stack lives through the solve
    eigenvalues, eigenvectors = eigensolver._eigensystems(stack)
    decomp = SpectralDecomposition(eigenvalues=eigenvalues[0], eigenvectors=eigenvectors)
    shifts = level_shifts(perturbation, decomp)
    if not np.isfinite(shifts).all():
        raise ValueError("matrix entries must be finite")
    # One C-ordered row per x: a strided row would change the rounding of dot products.
    exact = eigenvalues[1:]
    first = np.sort(decomp.eigenvalues + np.array(grid)[:, None] * shifts, axis=1)
    for values in (shifts, first, exact):
        values.setflags(write=False)
    return decomp, shifts, first, exact


def level_sweep(
    hamiltonian: HermitianMatrix,
    perturbation: HermitianMatrix,
    xs=DEFAULT_X_GRID,
    levels=None,
) -> list[SweepRecord]:
    """Sweep the strength grid comparing every E1_n = E_n + x E'_n to the oracle.

    At each strength the n-th lowest first-order level is paired with the
    n-th lowest exact eigenvalue (rank pairing).  Where two levels cross
    inside the grid, the records past the crossing carry the other level's
    values under each label: on H = diag(0, 1, 1.02) and
    H' = [[0, 1e-3, 0], [1e-3, 1, 1e-4], [0, 1e-4, -1]], levels 1 and 2
    cross at x = 0.01, and level 1's x = 0.1 record carries 0.92, level
    2's value.  Pairing by level identity waits on the benchmark's
    reference, which pairs by rank too.

    ``levels`` restricts the emitted records (default: all levels), in the
    given order; they (at least one, else :class:`InsufficientData`) and
    the strengths are checked before any diagonalization, and only the
    requested columns of the pass are read.
    Records are ordered by the given grid order, then by level.  The
    diagonalization pass is shared with a following
    :func:`superposition_sweep` or level sweep on the same H and H' objects
    and an equal grid.
    """
    dim = hamiltonian.dim
    selected = range(dim) if levels is None else [checked_index(n, "level", dim) for n in levels]
    if not selected:
        raise InsufficientData("need at least one level to sweep")
    grid, _, _, first, exact = _sweep(hamiltonian, perturbation, xs)
    return [
        SweepRecord(x, level, float(p[level]), float(e[level]))
        for x, p, e in zip(grid, first, exact) for level in selected
    ]


def superposition_sweep(
    hamiltonian: HermitianMatrix,
    perturbation: HermitianMatrix,
    state: StateVector,
    xs=DEFAULT_X_GRID,
) -> list[SweepRecord]:
    """Sweep comparing the weighted total E1 to the |b_n|^2-weighted exact spectrum.

    E' is taken once and E1 = E + x E' per strength, both by
    :func:`total_energy`'s arithmetic, so E1 equals :func:`first_order`'s
    total bit for bit.

    Weight |b_n|^2 goes to the n-th lowest exact eigenvalue (rank pairing),
    so a crossing inside the grid moves it to another level: on the
    diag(0, 1, 1.02) example of :func:`level_sweep`, b = e_1 at x = 0.1
    reports abs_error 0.18, although first order is right there to 1e-8.

    Records carry ``level = SUPERPOSITION_LEVEL`` (-1), marking the aggregate
    comparison rather than a single level.  The state's dimension and the
    strengths are checked before any diagonalization.  The diagonalization
    pass is shared with a preceding :func:`level_sweep` or superposition
    sweep on the same H and H' objects and an equal grid.
    """
    if state.dim != hamiltonian.dim:
        raise DimensionMismatch(f"state dim {state.dim} vs basis dim {hamiltonian.dim}")
    grid, decomp, shifts, _, exact = _sweep(hamiltonian, perturbation, xs)
    energy = expected_energy(state, decomp)
    weights = np.abs(state.coefficients) ** 2
    eprime = float(weights @ shifts)
    return [
        SweepRecord(x, SUPERPOSITION_LEVEL, energy + x * eprime, float(weights @ spectrum))
        for x, spectrum in zip(grid, exact)
    ]


def random_nondegenerate_pair(
    seed: int,
    dim: int,
    perturbation_scale: float = 1.0,
    min_gap_fraction: float = MIN_GAP_FRACTION,
) -> tuple[HermitianMatrix, HermitianMatrix]:
    """Seeded (H, H') pair whose H has well-separated levels.

    Candidates are drawn from :func:`random_hermitian` with unit entry scale;
    H is regenerated until its minimum level gap is at least
    ``min_gap_fraction`` of the spectral spread (any H passes for dim 1).
    ``perturbation_scale`` sets the entry magnitude of H'; choosing it small
    relative to the gaps keeps the whole default x-grid inside the
    perturbative regime.  Deterministic for a given seed.  Raises
    ``ValueError`` up front when ``min_gap_fraction`` is negative or not
    finite, or when ``(dim - 1) * min_gap_fraction > 1``: the dim - 1 gaps
    sum to the spread, so no H can meet the gap criterion; raises
    :class:`AttemptsExhausted` when ``MAX_ATTEMPTS`` draws all fail it.
    """
    if not (math.isfinite(min_gap_fraction) and min_gap_fraction >= 0):
        raise ValueError(f"min_gap_fraction must be finite and >= 0, got {min_gap_fraction}")
    if (dim - 1) * min_gap_fraction > 1:
        raise ValueError(f"min_gap_fraction {min_gap_fraction} is infeasible for dim {dim}")
    rng = np.random.default_rng(seed)
    perturbation = random_hermitian(int(rng.integers(2**63)), dim, perturbation_scale)
    for _ in range(MAX_ATTEMPTS):
        hamiltonian = random_hermitian(int(rng.integers(2**63)), dim)
        if dim == 1:
            return hamiltonian, perturbation
        values = jacobi_eigendecompose(hamiltonian).eigenvalues
        spread = float(values[-1] - values[0])
        if spread > 0 and float(np.diff(values).min()) >= min_gap_fraction * spread:
            return hamiltonian, perturbation
    raise AttemptsExhausted(MAX_ATTEMPTS)
