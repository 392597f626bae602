"""Hermitian matrices and their bra-ket matrix elements.

Vectors are plain 1-D ``complex128`` numpy arrays.  Matrices enter through
:class:`HermitianMatrix`, a frozen dataclass like every other value type of
the package, which validates and symmetrizes raw entries once, so
everything downstream can rely on exact self-adjointness.  Matrix
elements are conjugate-linear in the bra (physics convention):
``<u|A|v> = sum_ij conj(u_i) A[i,j] v_j``.

Every computation that must work at any scale (the solver, the norms of
matrices and states) scales by one rule, :func:`_unit_scaled`: exactly, by
the power of two of the largest real or imaginary part.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput

# Relative tolerance for accepting raw entries as Hermitian, and for the
# guaranteed realness of diagonal matrix elements.
HERMITICITY_RTOL = 1e-12


def checked_index(value, what: str, size: int | None = None) -> int:
    """``operator.index(value)``, which must also lie in ``range(size)``
    unless ``size`` is None; else :class:`DimensionMismatch`.  ``True``
    reads as 1, and 1.5 or 3.0 are rejected."""
    try:
        index = operator.index(value)
    except TypeError:
        raise DimensionMismatch(f"{what} {value!r} is not an integer") from None
    if size is not None and not 0 <= index < size:
        raise DimensionMismatch(f"{what} {index} out of range for dim {size}")
    return index


def _as_vector(v) -> np.ndarray:
    u = np.asarray(v, dtype=np.complex128)
    if u.ndim != 1 or u.shape[0] < 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {u.shape}")
    return u


def _unit_scaled(a: np.ndarray, axes=None) -> tuple[np.ndarray, np.ndarray]:
    """``(a 2^-e, e)`` for a complex array: e is the exponent that puts the
    largest real or imaginary magnitude over ``axes`` (all of them by
    default) in [0.5, 1), and 0 where that magnitude is 0.  e keeps the
    reduced axes with size 1, so that it broadcasts against ``a``, and the
    scaled array is C-ordered whatever the layout of ``a``.  Each part is
    scaled by ``np.ldexp``, exact barring subnormals; a factor ``2**-e``
    would overflow for a subnormal peak."""
    peaks = [np.abs(part).max(axes, keepdims=True, initial=0.0) for part in (a.real, a.imag)]
    e = np.frexp(np.maximum(*peaks))[1]
    scaled = np.empty(a.shape, dtype=a.dtype)
    scaled.real, scaled.imag = np.ldexp(a.real, -e), np.ldexp(a.imag, -e)
    return scaled, e


def _norm(a: np.ndarray) -> float:
    """The 2-norm of a complex array (the Frobenius norm of a matrix):
    ``np.linalg.norm``'s value where that is at least 2^-500 and finite,
    otherwise the norm of :func:`_unit_scaled` ``a``, scaled back.  From
    2^-500 up the squared sum is at least 2^-1000, and each square rounded into
    the subnormals (below 2^-1022) is off by at most 2^-1075, so n of them
    move the sum by at most n 2^-75 of itself, below its own rounding for n
    under 2^22.  So the value is right wherever it is finite (a vector
    ``[1e-160, 0]`` would read 5.6e-6 low unscaled), 0 only for zeros, and
    ``inf``, with no warning, only where it passes the largest float."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
        if not 2.0**-500 <= norm < np.inf:
            scaled, e = _unit_scaled(a)
            norm = float(np.ldexp(np.linalg.norm(scaled), e.item()))
    return norm


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """Dense complex self-adjoint matrix on an N-dimensional basis.

    Built from its raw entries, ``HermitianMatrix(entries)``, which must
    form a non-empty square array (else :class:`DimensionMismatch`), be
    finite (else ``ValueError``) and be Hermitian within tolerance:
    ``max |A[i,j] - conj(A[j,i])| <= HERMITICITY_RTOL * max|A[i,j]|``,
    else :class:`NonHermitianInput`.  They are then symmetrized as
    ``(A + A^dagger)/2``, which is idempotent and makes the stored
    :attr:`array` self-adjoint to the last bit (diagonal exactly real).
    The instance is frozen and its array read-only, so instances are safe
    to share; they compare and hash by identity (``eq=False``), as the
    sweep pass's cache keys on them.  The Frobenius norm is computed once,
    on first use.
    """

    array: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.array, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        violation = float(np.abs(a - a.conj().T).max())
        if violation > HERMITICITY_RTOL * float(np.abs(a).max()):
            raise NonHermitianInput(violation)
        # halves first: (a + a^dagger) could overflow for entries near float max
        sym = a / 2.0 + a.conj().T / 2.0
        sym.setflags(write=False)
        object.__setattr__(self, "array", sym)

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @functools.cached_property
    def frobenius_norm(self) -> float:
        """``||A||_F`` by :func:`_norm`: a finite norm reads as itself however
        large or small its squares, one past the largest float as ``inf``,
        with no warning."""
        return _norm(self.array)

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


def matrix_element(u, a: HermitianMatrix, v) -> complex:
    """``<u|A|v> = sum_ij conj(u_i) A[i,j] v_j``: conjugate-linear in ``u``.

    For ``u == v`` the value is real up to roundoff (A is Hermitian); the
    residual imaginary part is zeroed in that case.
    """
    x, y = _as_vector(u), _as_vector(v)
    if not (a.dim == x.shape[0] == y.shape[0]):
        raise DimensionMismatch(
            f"dims disagree: bra {x.shape[0]}, matrix {a.dim}, ket {y.shape[0]}"
        )
    z = complex(np.vdot(x, a.array @ y))
    if np.array_equal(x, y):
        return complex(z.real, 0.0)
    return z


def add_scaled(a: HermitianMatrix, b: HermitianMatrix, x: float) -> HermitianMatrix:
    """Entrywise ``A + x B`` for real ``x``; Hermitian matrices are closed under it."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"matrix dims differ: {a.dim} vs {b.dim}")
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("scale factor must be finite")
    return HermitianMatrix(a.array + x * b.array)
