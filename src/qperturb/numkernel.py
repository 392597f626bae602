"""Hermitian matrices and their bra-ket matrix elements.

Vectors are plain 1-D ``complex128`` numpy arrays.  Matrices enter through
:class:`HermitianMatrix`, which validates and symmetrizes raw entries once,
so everything downstream can rely on exact self-adjointness.  Matrix
elements are conjugate-linear in the bra (physics convention):
``<u|A|v> = sum_ij conj(u_i) A[i,j] v_j``.
"""

from __future__ import annotations

import operator

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


def _as_square(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def _as_vector(v) -> np.ndarray:
    u = np.asarray(v, dtype=np.complex128)
    if u.ndim != 1 or u.shape[0] < 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {u.shape}")
    return u


class HermitianMatrix:
    """Dense complex self-adjoint matrix on an N-dimensional basis.

    Raw entries must be finite (else ``ValueError``) and Hermitian within
    tolerance: ``max |A[i,j] - conj(A[j,i])| <= HERMITICITY_RTOL * max|A[i,j]|``,
    else :class:`NonHermitianInput`.  They are then symmetrized as
    ``(A + A^dagger)/2``, which is idempotent and makes the stored array
    self-adjoint to the last bit (diagonal exactly real).  The array is
    frozen after construction, so instances are safe to share, and its
    Frobenius norm is computed once, on first use.
    """

    __slots__ = ("_array", "_frobenius_norm")

    def __init__(self, entries):
        a = _as_square(entries)
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        violation = float(np.abs(a - a.conj().T).max())
        if violation > HERMITICITY_RTOL * float(np.abs(a).max()):
            raise NonHermitianInput(violation)
        # halves first: (a + a^dagger) could overflow for entries near float max
        sym = a / 2.0 + a.conj().T / 2.0
        sym.setflags(write=False)
        self._array = sym
        self._frobenius_norm = None

    @property
    def dim(self) -> int:
        return self._array.shape[0]

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the stored complex matrix."""
        return self._array

    @property
    def frobenius_norm(self) -> float:
        """``||A||_F`` as ``float(np.linalg.norm(array))`` wherever that is
        finite, ``0.0`` when the squares all underflow.  Where the squares
        overflow, the norm is taken again with the entries scaled by 2^-e, e
        the exponent of the largest real or imaginary part, and unscaled:
        a finite norm above about 1.34e154 reads as itself, and one past the
        largest float as ``inf``, with no warning."""
        if self._frobenius_norm is None:
            with np.errstate(over="ignore"):
                norm = float(np.linalg.norm(self._array))
                if norm == np.inf:  # ldexp scales exactly; math.ldexp would raise on overflow
                    parts = np.stack([self._array.real, self._array.imag])
                    e = np.frexp(np.abs(parts).max())[1]
                    norm = float(np.ldexp(np.linalg.norm(np.ldexp(parts, -e)), e))
                self._frobenius_norm = norm
        return self._frobenius_norm

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
