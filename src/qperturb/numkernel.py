"""Complex vector and matrix arithmetic with bra-ket inner-product conventions.

Vectors are plain 1-D ``complex128`` numpy arrays.  Matrices enter through
:class:`HermitianMatrix`, which validates and symmetrizes raw entries once,
so everything downstream can rely on exact self-adjointness.  The inner
product is conjugate-linear in its first argument (physics convention):
``<u|v> = sum_i conj(u_i) v_i``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput

# Relative tolerance for accepting raw entries as Hermitian, and for the
# guaranteed realness of diagonal matrix elements.
HERMITICITY_RTOL = 1e-12


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
    frozen after construction, so instances are safe to share.
    """

    __slots__ = ("_array",)

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

    @property
    def dim(self) -> int:
        return self._array.shape[0]

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the stored complex matrix."""
        return self._array

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


def identity(dim: int) -> HermitianMatrix:
    """The dim-dimensional identity operator."""
    return HermitianMatrix(np.eye(dim))


def inner_product(u, v) -> complex:
    """``<u|v>``: conjugate-linear in ``u``, linear in ``v``."""
    a, b = _as_vector(u), _as_vector(v)
    if a.shape != b.shape:
        raise DimensionMismatch(f"vector dims differ: {a.shape[0]} vs {b.shape[0]}")
    return complex(np.vdot(a, b))


def matvec(a: HermitianMatrix, v) -> np.ndarray:
    """Apply the operator: ``(A v)_i = sum_j A[i,j] v_j``."""
    b = _as_vector(v)
    if a.dim != b.shape[0]:
        raise DimensionMismatch(f"matrix dim {a.dim} vs vector dim {b.shape[0]}")
    return a.array @ b


def matrix_element(u, a: HermitianMatrix, v) -> complex:
    """``<u|A|v>`` = ``inner_product(u, matvec(A, v))``.

    For ``u == v`` the value is real up to roundoff (A is Hermitian); the
    residual imaginary part is zeroed in that case.
    """
    x, y = _as_vector(u), _as_vector(v)
    if not (a.dim == x.shape[0] == y.shape[0]):
        raise DimensionMismatch(
            f"dims disagree: bra {x.shape[0]}, matrix {a.dim}, ket {y.shape[0]}"
        )
    z = inner_product(x, matvec(a, y))
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
