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
import operator
from dataclasses import dataclass, field

import numpy as np

from . import eigensolver
from .eigensolver import jacobi_eigendecompose
from .errors import AttemptsExhausted, DimensionMismatch, InsufficientData
from .models import random_hermitian
from .numkernel import HermitianMatrix, add_scaled
from .perturbation import StateVector, expected_energy, level_shifts

# Two decades of strengths, inside the perturbative regime for O(1)-gap spectra.
DEFAULT_X_GRID = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
# Errors at or below this are considered numerical noise, not signal.
ERROR_FLOOR = 1e-12
# Reject random instances whose smallest level gap is below this fraction of
# the spectral spread: keeps the x-grid inside the rank-pairing regime, where
# no two levels cross (past a crossing the sweeps' records swap labels).
MIN_GAP_FRACTION = 0.1

SUPERPOSITION_LEVEL = -1  # level tag for weighted-total records


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
        if not (np.isfinite(self.x) and self.x > 0):
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
    eigenvalues: a cold solve builds its eigenvectors in the start basis
    anyway, and the finishing rotations never read them.  Not cached: only
    the sweeps' pass is.
    """
    return jacobi_eigendecompose(add_scaled(hamiltonian, perturbation, x)).eigenvalues.copy()


def _two_distinct(values: np.ndarray) -> bool:
    """Whether a 1-D array of finite floats holds at least two distinct values.

    Not ``np.unique``: in numpy 2.x its first call imports ``numpy.ma``, and
    each later call costs about twice this minimum and maximum.
    """
    return bool(values.size) and bool(values.min() < values.max())


def fit_order(xs, errors) -> OrderFit:
    """Fit log10(error) vs log10(x), ignoring points at or below ``ERROR_FLOOR``.

    Every strength must be positive and finite and every error non-negative
    and finite, else :class:`InsufficientData`: such a point can be neither
    fitted nor dropped as noise.
    """
    x_arr = np.asarray(xs, dtype=np.float64)
    e_arr = np.asarray(errors, dtype=np.float64)
    if x_arr.shape != e_arr.shape or x_arr.ndim != 1:
        raise DimensionMismatch("xs and errors must be 1-D and equally long")
    if np.any(x_arr <= 0) or not np.isfinite(x_arr).all():
        raise InsufficientData("all strengths must be positive and finite")
    if np.any(e_arr < 0) or not np.isfinite(e_arr).all():
        raise InsufficientData("all errors must be non-negative and finite")
    if not _two_distinct(x_arr):
        raise InsufficientData("need at least 2 distinct strengths to fit a slope")
    keep = e_arr > ERROR_FLOOR
    if not _two_distinct(x_arr[keep]):
        return OrderFit(math.nan, math.nan, int(keep.sum()), True)
    slope, intercept = np.polyfit(np.log10(x_arr[keep]), np.log10(e_arr[keep]), 1)
    return OrderFit(float(slope), float(intercept), int(keep.sum()), False)


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

    The grid is checked first: it must not be empty (:class:`InsufficientData`)
    and every strength must be positive and finite.  The pass itself is
    cached for the last H, H' and grid.
    """
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

    Returns H's decomposition, its first-order shifts E'_n, and two
    ``(B, N)`` arrays with one row per strength: the first-order levels
    E_n + x E'_n and the oracle spectrum.  Each row is sorted ascending, so
    column n pairs the n-th first-order level with the n-th exact one; this
    is the only place where levels are paired.  The arrays are read-only, as
    every caller shares them.

    ``HermitianMatrix`` compares and hashes by identity, so the cache returns
    the pass for the same H and H' objects and an equal grid: a level sweep
    and a superposition sweep of one pair diagonalize once between them.  A
    pass that raises is not kept.  Call it positionally: a keyword call is a
    different cache key.

    The oracle is warm-started in H's eigenbasis Phi: at each x it takes the
    eigenvalues of ``Phi^dagger (H + x H') Phi = A0 + x V``, with
    ``A0 = Phi^dagger H Phi`` (not ``diag(E)``, so the Jacobi remainder of H
    is kept) and ``V = Phi^dagger H' Phi``, both symmetrized as
    ``(W + W^dagger)/2`` so that the roundoff of the products cannot break
    hermiticity.  That matrix is unitarily similar to H + x H' up to the
    roundoff of Phi and already nearly diagonal, so Jacobi needs two or three
    sweeps from the identity, with no start basis.  The whole grid is one
    ``(N, N, B)`` stack, ``A0 + V x`` broadcast over the strengths, and is
    diagonalized as one, so each numpy call of a Jacobi step serves every
    strength; each spectrum is bit-identical to a values-only Jacobi solve
    of ``A0 + V x`` on its own.  A stack entry that is not finite (an
    overflowing H', or a strength large enough to overflow ``x V``) raises
    ``ValueError`` before the oracle runs.
    """
    decomp = jacobi_eigendecompose(hamiltonian)
    shifts = level_shifts(perturbation, decomp)
    phi = decomp.eigenvectors
    products = [phi.conj().T @ m.array @ phi for m in (hamiltonian, perturbation)]
    base, coupling = [(w + w.conj().T) / 2.0 for w in products]
    strengths = np.array(grid)
    stack = base[..., None] + coupling[..., None] * strengths
    if not np.isfinite(stack).all():
        raise ValueError("matrix entries must be finite")
    eigensolver._diagonalize(stack, None, eigensolver.DEFAULT_MAX_SWEEPS)
    # One C-ordered row per x: a strided row would change the rounding of dot products.
    exact = np.diagonal(stack).real.copy()
    exact.sort(axis=1, kind="stable")
    first = np.sort(decomp.eigenvalues + strengths[:, None] * shifts, axis=1)
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
    given order; they and the strengths are checked before any
    diagonalization, and only the requested columns of the pass are read.
    Records are ordered by the given grid order, then by level.  The
    diagonalization pass is shared with a following
    :func:`superposition_sweep` or level sweep on the same H and H' objects
    and an equal grid.
    """
    dim = hamiltonian.dim
    selected = range(dim) if levels is None else list(levels)
    for level in selected:
        try:
            operator.index(level)
        except TypeError:
            raise DimensionMismatch(f"level {level!r} is not an integer") from None
        if not 0 <= level < dim:
            raise DimensionMismatch(f"level {level} out of range for dim {dim}")
    grid, _, _, first, exact = _sweep(hamiltonian, perturbation, xs)
    return [
        SweepRecord(x, operator.index(level), float(p[level]), float(e[level]))
        for x, p, e in zip(grid, first, exact) for level in selected
    ]


def superposition_sweep(
    hamiltonian: HermitianMatrix,
    perturbation: HermitianMatrix,
    state: StateVector,
    xs=DEFAULT_X_GRID,
) -> list[SweepRecord]:
    """Sweep comparing the weighted total E1 to the |b_n|^2-weighted exact spectrum.

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
    max_attempts: int = 1000,
) -> tuple[HermitianMatrix, HermitianMatrix]:
    """Seeded (H, H') pair whose H has well-separated levels.

    Candidates are drawn from :func:`random_hermitian` with unit entry scale;
    H is regenerated until its minimum level gap is at least
    ``min_gap_fraction`` of the spectral spread (any H passes for dim 1).
    ``perturbation_scale`` sets the entry magnitude of H'; choosing it small
    relative to the gaps keeps the whole default x-grid inside the
    perturbative regime.  Deterministic for a given seed.  Raises
    ``ValueError`` up front when ``(dim - 1) * min_gap_fraction > 1``: the
    dim - 1 gaps sum to the spread, so no H can meet the gap criterion;
    raises :class:`AttemptsExhausted` when ``max_attempts`` draws all fail it.
    """
    if (dim - 1) * min_gap_fraction > 1:
        raise ValueError(f"min_gap_fraction {min_gap_fraction} is infeasible for dim {dim}")
    rng = np.random.default_rng(seed)
    perturbation = random_hermitian(int(rng.integers(2**63)), dim, perturbation_scale)
    for _ in range(max_attempts):
        hamiltonian = random_hermitian(int(rng.integers(2**63)), dim)
        if dim == 1:
            return hamiltonian, perturbation
        values = jacobi_eigendecompose(hamiltonian).eigenvalues
        spread = float(values[-1] - values[0])
        if spread > 0 and float(np.diff(values).min()) >= min_gap_fraction * spread:
            return hamiltonian, perturbation
    raise AttemptsExhausted(max_attempts)
