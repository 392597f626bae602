"""Full spectral decomposition of Hermitian matrices via parallel-order Jacobi rotations.

No external eigensolver is used: sweeps of 2x2 complex Jacobi rotations in
the round-robin ordering of Brent & Luk (1985) annihilate off-diagonal
entries, each step rotating up to N/2 disjoint index pairs at once, until
the off-diagonal Frobenius norm falls below ``OFFDIAG_RTOL * ||A||_F``.
Eigenvalues are returned ascending, eigenvector columns permuted in
lockstep, and each column's phase is fixed so results are deterministic and
comparable.  :func:`jacobi_eigenvalues` runs the same sweeps without
accumulating eigenvectors; on a nearly diagonal matrix (an operator written
in the eigenbasis of a nearby one) cyclic Jacobi converges quadratically, so
it needs only two or three sweeps there.  The sweep loop also takes an
``(N, N, B)`` stack of B matrices, so that each numpy call of a step serves
all B members; every member ends bit-identical to a solve of its own.

A sweep runs on one C-contiguous copy ``[A^T, Phi^T]`` of the matrix and its
eigenvectors.  Transposed, the column updates ``A <- AJ`` and
``Phi <- Phi J`` of a step are one contiguous row update of both, and
``A <- J^H A`` is a column update of ``A^T``; a step reads and resets its
pivots and diagonal entries through precomputed flat indices, and works in
buffers allocated once per sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, ZeroVector
from .numkernel import HermitianMatrix

# Convergence threshold for the off-diagonal Frobenius norm, relative to ||A||_F.
OFFDIAG_RTOL = 1e-12
DEFAULT_MAX_SWEEPS = 100


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    ``eigenvectors[:, m]`` is the m-th eigenvector, phase-fixed so that its
    largest-magnitude entry is real and strictly positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=np.float64)
        vecs = np.array(self.eigenvectors, dtype=np.complex128)
        if vals.ndim != 1 or vecs.shape != (vals.shape[0], vals.shape[0]):
            raise DimensionMismatch(
                f"inconsistent decomposition shapes {vals.shape} / {vecs.shape}"
            )
        vals.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def eigenvector(self, m: int) -> np.ndarray:
        return self.eigenvectors[:, m]

    def synthesize(self, coefficients) -> np.ndarray:
        """Map eigenbasis coordinates to the computational basis: sum_j b_j phi_j."""
        b = np.asarray(coefficients, dtype=np.complex128)
        if b.shape != (self.dim,):
            raise DimensionMismatch(f"expected {self.dim} coefficients, got {b.shape}")
        return self.eigenvectors @ b


def fix_phase(column) -> np.ndarray:
    """Multiply a vector by the unit scalar that makes its largest-magnitude
    entry real and strictly positive (magnitude ties broken by lowest index)."""
    return _fix_phases(np.array(column, dtype=np.complex128)[:, None])[:, 0]


def _fix_phases(columns: np.ndarray) -> np.ndarray:
    """:func:`fix_phase` applied to every column of a 2-D array at once."""
    mags = np.abs(columns)
    rows = np.argmax(mags, axis=0)  # lowest index on magnitude ties
    cols = np.arange(columns.shape[1])
    pivot_mags = mags[rows, cols]
    if not pivot_mags.all():
        raise ZeroVector("cannot fix the phase of a zero vector")
    out = columns * np.conj(columns[rows, cols] / pivot_mags)
    out[rows, cols] = pivot_mags  # exact: kill the pivots' roundoff imaginary parts
    return out


def _offdiag_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a - np.diag(np.diag(a))))


def _round_robin_steps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """One sweep of the round-robin ordering of Brent & Luk (1985): arrays
    ``p`` and ``q`` shaped ``(steps, N // 2)``, row ``i`` holding step ``i``'s
    disjoint index pairs ``(p, q)`` with ``p < q``.

    Index 0 stays put while the others rotate one place per step, so the
    N - 1 steps (N with a dummy index for odd N, its pairs left out) visit
    every pair exactly once.
    """
    m = n + n % 2
    steps = m - 1 if n > 1 else 0
    players = np.zeros((steps, m), dtype=np.intp)
    players[:, 1:] = (np.arange(m - 1) - np.arange(steps)[:, None]) % (m - 1) + 1
    ends = players[:, : m // 2], players[:, : m // 2 - 1 : -1]
    p, q = np.minimum(*ends), np.maximum(*ends)
    real = q < n
    return p[real].reshape(steps, n // 2), q[real].reshape(steps, n // 2)


def _step_indices(n: int, slabs: int) -> list[tuple[np.ndarray, ...]]:
    """The indices :func:`_sweep` needs, one tuple per step, built once per
    solve so that a step slices nothing.  For a step's pairs ``(p, q)``:

    - ``rows``: rows p and q of every slab of ``x``, as rows of ``x``
      reshaped to ``(slabs * N, N)``, shaped ``(2, slabs, N // 2)``;
    - ``first``: ``rows[:, :1]``, the first slab's rows, p and q themselves;
    - ``read``: ``A[p,p], A[q,q], A[p,q]`` as flat indices into ``A^T``;
    - ``pivots``: ``A[p,q], A[q,p]``, and ``diagonals``: ``A[p,p], A[q,q]``,
      the same way.
    """
    p, q = _round_robin_steps(n)
    k = n // 2
    rows = np.stack([p, q], axis=1)[:, :, None, :] + n * np.arange(slabs)[:, None]
    entries = np.concatenate([p * (n + 1), q * (n + 1), q * n + p, p * n + q], axis=1)
    return [
        (r, r[:, :1], e[: 3 * k], e[2 * k :], e[: 2 * k]) for r, e in zip(rows, entries)
    ]


def _rotation_operands(old: np.ndarray, new: np.ndarray, tmp: np.ndarray) -> tuple:
    """:func:`_rotate`'s buffers: ``old``'s halves, ``new`` and ``tmp`` whole
    and in halves, as views made once per sweep."""
    return old[0], old[1], new, new[0], new[1], tmp, tmp[0], tmp[1]


def _rotate(operands: tuple, cs, sc) -> None:
    """``new = [c*P - s*w*Q, s*P + c*w*Q]`` for ``old = [P, Q]``, with
    ``cs = [c, s]`` and ``sc = [s*w, c*w]``; ``tmp`` is scratch, and
    ``operands`` is :func:`_rotation_operands` ``(old, new, tmp)``."""
    p, q, new, new_p, new_q, tmp, tmp_p, tmp_q = operands
    np.multiply(cs, p, out=new)
    np.multiply(sc, q, out=tmp)
    np.subtract(new_p, tmp_p, out=new_p)
    np.add(new_q, tmp_q, out=new_q)


def _sweep(x: np.ndarray, steps) -> None:
    """One round-robin sweep in place on ``x = [A^T, Phi^T]`` (``[A^T]``
    without eigenvectors), a ``(2, N, N[, B])`` or ``(1, N, N[, B])`` array
    that must be C-contiguous: its flat views below must not be copies.

    Transposed, the column updates ``A <- AJ`` and ``Phi <- Phi J`` are one
    row update of ``x[:, p]`` and ``x[:, q]``, and ``A <- J^H A`` is a
    column update of ``x[0]``.  Each update gathers into, computes in and
    scatters from buffers allocated once per sweep, so a step allocates no
    matrix-sized temporary, and the views a step passes to numpy are made
    once per sweep too.  Every entry is computed with the same operations on
    the same operands as in the untransposed layout.
    """
    slabs, n, tail = x.shape[0], x.shape[1], x.shape[3:]
    k = n // 2
    flat = x[0].reshape((n * n,) + tail)  # views, since x is C-contiguous
    flat_imag = flat.imag
    x_rows = x.reshape((slabs * n, n) + tail)
    row_starts = np.repeat(n * np.arange(n)[:, None], k, axis=1)
    cols_at = np.empty((2, n, k), dtype=np.intp)
    # The row and the column update take turns on the same three buffers,
    # _rotate's old, new and tmp.
    buffers = np.empty((3, 2 * slabs * k * n * math.prod(tail)), dtype=x.dtype)
    rows = [b.reshape((2, slabs, k, n) + tail) for b in buffers]
    cols = [b[: 2 * n * k * math.prod(tail)].reshape((2, n, k) + tail) for b in buffers]
    # [c, s] as complex numbers, so the updates' products need no casts;
    # their imaginary parts stay 0.  It is updated in place, so its views
    # below stay valid for the whole sweep.
    cs = np.zeros((2, k) + tail, dtype=x.dtype)
    c, s = cs.real
    sc_conj, sc = np.empty_like(cs), np.empty_like(cs)
    reversed_cs = cs[::-1]
    row_rotation = _rotation_operands(*rows), cs[:, None, :, None], sc_conj[:, None, :, None]
    col_rotation = _rotation_operands(*cols), cs[:, None], sc[:, None]
    # A step's A[p,p], A[q,q] and A[p,q].  mode="clip" lets take write
    # straight into out, here and below; the indices are in range.
    got = np.empty((3 * k,) + tail, dtype=x.dtype)
    app, aqq, apq = got[:k].real, got[k : 2 * k].real, got[2 * k :]
    for rows_at, first, read, pivots, diagonals in steps:
        flat.take(read, axis=0, out=got, mode="clip")
        r = np.abs(apq)
        zero = r == 0.0  # already annihilated: identity rotation
        r[zero] = 1.0
        phase = apq / r
        phase[zero] = 1.0
        tau = (aqq - app) / (2.0 * r)
        tau[zero] = np.inf  # so that t = 0
        t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
        np.divide(1.0, np.hypot(1.0, t), out=c)
        np.multiply(t, c, out=s)
        # Unitaries on the (p,q) planes: [[c, s], [-s*conj(phase), c*conj(phase)]].
        # sc_conj = [s*conj(phase), c*conj(phase)], sc = [s*phase, c*phase].
        np.multiply(reversed_cs, np.conj(phase), out=sc_conj)
        np.multiply(reversed_cs, phase, out=sc)
        # A <- AJ and Phi <- Phi J: rows p and q of x.
        x_rows.take(rows_at, axis=0, out=rows[0], mode="clip")
        _rotate(*row_rotation)
        x_rows[rows_at] = rows[1]
        # A <- J^H A: columns p and q of A^T.
        np.add(row_starts, first, out=cols_at)
        flat.take(cols_at, axis=0, out=cols[0], mode="clip")
        _rotate(*col_rotation)
        flat[cols_at] = cols[1]
        # Exact post-conditions of the rotations.
        flat[pivots] = 0.0
        flat_imag[diagonals] = 0.0


def _diagonalize(work: np.ndarray, vecs: np.ndarray | None, max_sweeps: int):
    """Run round-robin Jacobi sweeps in place on one ``(N, N)`` matrix or an
    ``(N, N, B)`` stack of B matrices until each one's off-diagonal norm is
    at most ``OFFDIAG_RTOL`` times its own Frobenius norm; return the number
    of sweeps (an int for one matrix, one per member for a stack).

    The rotations are also applied to the columns of ``vecs`` (shaped like
    ``work``) unless it is None.  They never depend on ``vecs``, so ``work``
    ends bit-identical either way.  Each sweep copies ``work`` and ``vecs``
    transposed into one new C-contiguous array ``x = [A^T, Phi^T]``
    (``(2, N, N[, B])``, or ``(1, ...)`` without vectors), runs on it (see
    :func:`_sweep`) and writes the result back, so any memory layout of the
    caller's arrays gives the same bits.  The stack axis is last, so a
    step's indexing and broadcasting read the same for one matrix and for a
    stack, and each numpy call of a step serves all members at once.  A
    member is rotated only in the sweeps it would run alone: once some
    members have converged, only the others are copied for the sweep and
    written back, so every member ends bit-identical to a solve of that
    matrix on its own.  Raises :class:`NoConvergence` for the first member
    still above its tolerance after ``max_sweeps`` sweeps, and ``ValueError``
    before any rotation when some member's Frobenius norm is not finite (its
    entries are finite but too large): its tolerance would be infinite, and
    it would pass as converged untouched.
    """
    members = work[..., None] if work.ndim == 2 else work  # a view: one member for one matrix

    def member(b):  # C order, so the norms below round the same for any layout of work
        return np.ascontiguousarray(members[..., b])

    count = members.shape[-1]
    # ||A||_F is rotation-invariant.
    with np.errstate(over="ignore"):
        norms = np.array([np.linalg.norm(member(b)) for b in range(count)])
    if not np.isfinite(norms).all():
        raise ValueError("matrix norm overflows: entries too large to diagonalize")
    tol = OFFDIAG_RTOL * norms
    parts = [work] if vecs is None else [work, vecs]
    steps = _step_indices(work.shape[0], len(parts))
    sweeps = np.zeros(count, dtype=int)
    while True:
        off_norms = np.array([_offdiag_norm(member(b)) for b in range(count)])
        active = np.flatnonzero(off_norms > tol)
        if active.size == 0:
            break
        first = active[0]
        if sweeps[first] >= max_sweeps:
            raise NoConvergence(int(sweeps[first]), float(off_norms[first]))
        # Only a stack can have converged members; they are left out of the sweep.
        sel = ... if active.size == count else (..., active)
        x = np.empty((len(parts),) + work[sel].shape, dtype=np.complex128)
        for m, m_t in zip(parts, x):
            m_t[...] = m[sel].swapaxes(0, 1)
        _sweep(x, steps)
        for m, m_t in zip(parts, x):
            m[sel] = m_t.swapaxes(0, 1)
        sweeps[active] += 1
    return sweeps if work.ndim == 3 else int(sweeps[0])


def jacobi_eigendecompose(
    a: HermitianMatrix, max_sweeps: int = DEFAULT_MAX_SWEEPS
) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix by round-robin complex Jacobi rotations.

    Each rotation annihilates one off-diagonal entry A[p,q] with the unitary
    that diagonalizes the (p,q) 2x2 block.  A sweep is the round-robin
    ordering of Brent & Luk (SIAM J. Sci. Stat. Comput. 6(1), 1985): N - 1
    steps (N for odd N), each applying up to N/2 rotations on disjoint index
    pairs at once, which equals applying them one after another because no
    rotation touches another's 2x2 block.  Raises :class:`NoConvergence` if
    the off-diagonal norm is still above ``OFFDIAG_RTOL * ||A||_F`` after
    ``max_sweeps`` sweeps, and ``ValueError`` if ``||A||_F`` overflows.
    Deterministic: identical input gives bit-identical output.
    """
    work = np.array(a.array, dtype=np.complex128)
    vecs = np.eye(a.dim, dtype=np.complex128)
    _diagonalize(work, vecs, max_sweeps)
    eigenvalues = np.real(np.diag(work)).copy()
    order = np.argsort(eigenvalues, kind="stable")
    vecs = _fix_phases(vecs[:, order])
    return SpectralDecomposition(eigenvalues=eigenvalues[order], eigenvectors=vecs)


def jacobi_eigenvalues(a: HermitianMatrix) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, without eigenvectors.

    The same rotations as :func:`jacobi_eigendecompose`, so the result is
    bit-identical to its ``eigenvalues``, but no eigenvector is accumulated.
    It converges in few sweeps when ``a`` is already nearly diagonal, e.g.
    an operator written in the eigenbasis of a nearby matrix.
    """
    work = np.array(a.array, dtype=np.complex128)
    _diagonalize(work, None, DEFAULT_MAX_SWEEPS)
    return np.sort(np.real(np.diag(work)), kind="stable")
