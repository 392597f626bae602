"""Deterministic test-Hamiltonian builders.

Two families: seeded dense random Hermitian matrices, and a truncated
particle-in-a-box (infinite well, natural units hbar = m = 1) whose
perturbing potential matrix is built entry by entry from the closed forms
of <m|V|n> for a constant, linear or quadratic V.  The truncated
n_levels x n_levels matrices are the exact system under study; the
verification oracle diagonalizes the same truncation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .numkernel import HermitianMatrix

POTENTIAL_KINDS = ("const", "linear", "quadratic")


@dataclass(frozen=True)
class BoxModelSpec:
    """Infinite square well of width ``width`` truncated to ``n_levels`` states.

    ``potential`` is one of ``const`` (V(x) = strength), ``linear``
    (V(x) = strength * x) or ``quadratic`` (V(x) = strength * x^2).  The
    width must be positive with ``2 * width**2`` finite (width at most about
    9.48e153), as the levels divide by it.
    """

    n_levels: int
    width: float
    potential: str = "const"
    strength: float = 1.0

    def __post_init__(self):
        try:
            operator.index(self.n_levels)
        except TypeError:
            raise ValueError(f"n_levels must be an integer, got {self.n_levels!r}") from None
        if self.n_levels < 1:
            raise ValueError("n_levels must be >= 1")
        # Python floats: a product that overflows is inf, where width**2 would raise.
        width = float(self.width)
        if not (width > 0 and math.isfinite(2.0 * width * width)):
            raise ValueError("width must be positive, with 2 * width**2 finite")
        if self.potential not in POTENTIAL_KINDS:
            raise ParseError(
                f"unknown potential {self.potential!r}; expected one of {POTENTIAL_KINDS}"
            )
        if not np.isfinite(self.strength):
            raise ValueError("potential strength must be finite")


def random_hermitian(seed: int, n: int, scale: float = 1.0) -> HermitianMatrix:
    """Seeded dense Hermitian matrix with every entry magnitude <= scale.

    Generator: numpy ``default_rng`` (PCG64).  Diagonal entries are real
    uniform on [-scale, scale]; strict-upper entries have real and imaginary
    parts uniform on [-scale/sqrt(2), scale/sqrt(2)] and are mirrored by
    conjugation.  Identical arguments give bit-identical matrices on one
    platform.  ``ValueError`` when ``n`` is not an integer of at least 1
    (``operator.index`` rejects 2.5 and 3.0), or when ``2 * scale``
    overflows (scale above about 8.99e307), as that range cannot be drawn
    from.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"dimension must be an integer, got {n!r}") from None
    if n < 1:
        raise ValueError("dimension must be >= 1")
    # uniform(-scale, scale) draws from a range of width 2 * scale.
    if not (scale > 0 and math.isfinite(2.0 * float(scale))):
        raise ValueError("scale must be positive, with 2 * scale finite")
    rng = np.random.default_rng(seed)
    diagonal = rng.uniform(-scale, scale, size=n)
    half = scale / math.sqrt(2.0)
    re = rng.uniform(-half, half, size=(n, n))
    im = rng.uniform(-half, half, size=(n, n))
    upper = np.triu(re + 1j * im, k=1)
    return HermitianMatrix(upper + upper.conj().T + np.diag(diagonal))


def box_hamiltonian(spec: BoxModelSpec) -> HermitianMatrix:
    """Diagonal well Hamiltonian with levels E_n = n^2 pi^2 / (2 L^2), n = 1..N."""
    n = np.arange(1, spec.n_levels + 1, dtype=np.float64)
    return HermitianMatrix(np.diag(n * n * math.pi**2 / (2.0 * spec.width**2)))


def box_potential_matrix(spec: BoxModelSpec) -> HermitianMatrix:
    """Perturbation matrix ``<m|V|n> = (2/L) int_0^L sin(m pi x/L) V(x) sin(n pi x/L) dx``.

    Closed forms for levels m, n = 1..N, width L and strength c, with
    k_mn = 8 m n / (pi^2 (m^2 - n^2)^2) for m != n (Griffiths, the infinite
    square well):

    - ``const``: c I;
    - ``linear``: c L / 2 on the diagonal; off it -c L k_mn where m + n is
      odd and exactly 0 where it is even;
    - ``quadratic``: c L^2 (1/3 - 1/(2 pi^2 n^2)) on the diagonal;
      (-1)^(m+n) c L^2 k_mn off it.

    The entries are real and exactly symmetric, and ``strength`` multiplies
    them last.
    """
    levels = np.arange(1, spec.n_levels + 1, dtype=np.float64)
    m, n = levels[:, None], levels
    gap = m * m - n * n + np.eye(spec.n_levels)  # 1 on the diagonal, overwritten below
    coupling = 8.0 * m * n / (math.pi**2 * gap * gap)
    odd = (m + n) % 2 == 1
    width = spec.width
    if spec.potential == "const":
        mat = np.eye(spec.n_levels)
    elif spec.potential == "linear":
        mat = np.where(odd, -width * coupling, 0.0)
        np.fill_diagonal(mat, width / 2.0)
    else:
        mat = width * width * np.where(odd, -coupling, coupling)
        np.fill_diagonal(mat, width * width * (1.0 / 3.0 - 1.0 / (2.0 * math.pi**2 * n * n)))
    return HermitianMatrix(spec.strength * mat)
