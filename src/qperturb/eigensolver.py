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
"""

from __future__ import annotations

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


def _round_robin_steps(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One sweep of the round-robin ordering of Brent & Luk (1985) as steps
    ``(p, q)`` of disjoint index pairs with ``p < q``.

    Index 0 stays put while the others rotate one place per step, so the
    N - 1 steps (N with a dummy index for odd N, its pairs left out) visit
    every pair exactly once.
    """
    m = n + n % 2
    players = np.arange(m)
    steps = []
    for _ in range(m - 1):
        ends = np.stack([players[: m // 2], players[: m // 2 - 1 : -1]])
        p, q = ends.min(axis=0), ends.max(axis=0)
        real = q < n
        if real.any():
            steps.append((p[real], q[real]))
        players[1:] = np.roll(players[1:], 1)
    return steps


def _diagonalize(work: np.ndarray, vecs: np.ndarray | None, max_sweeps: int):
    """Run round-robin Jacobi sweeps in place on one ``(N, N)`` matrix or an
    ``(N, N, B)`` stack of B matrices until each one's off-diagonal norm is
    at most ``OFFDIAG_RTOL`` times its own Frobenius norm; return the number
    of sweeps (an int for one matrix, one per member for a stack).

    The rotations are also applied to the columns of ``vecs`` (shaped like
    ``work``) unless it is None.  They never depend on ``vecs``, so ``work``
    ends bit-identical either way.  The stack axis is last, so a step's
    indexing and broadcasting read the same for one matrix and for a stack,
    and each numpy call of a step serves all members at once.  A member is
    rotated only in the sweeps it would run alone: once some members have
    converged, the others are gathered for the sweep and scattered back, so
    every member ends bit-identical to a solve of that matrix on its own.
    Raises :class:`NoConvergence` for the first member still above its
    tolerance after ``max_sweeps`` sweeps.
    """
    members = work[..., None] if work.ndim == 2 else work  # a view: one member for one matrix
    count = members.shape[-1]
    # ||A||_F is rotation-invariant.
    tol = OFFDIAG_RTOL * np.array([np.linalg.norm(members[..., b]) for b in range(count)])
    steps = _round_robin_steps(work.shape[0])
    sweeps = np.zeros(count, dtype=int)
    while True:
        off_norms = np.array([_offdiag_norm(members[..., b]) for b in range(count)])
        active = np.flatnonzero(off_norms > tol)
        if active.size == 0:
            break
        first = active[0]
        if sweeps[first] >= max_sweeps:
            raise NoConvergence(int(sweeps[first]), float(off_norms[first]))
        # Only a stack can have converged members; gathering copies the others.
        whole = active.size == count
        a = work if whole else work[..., active]
        v = vecs if whole or vecs is None else vecs[..., active]
        for p, q in steps:
            apq = a[p, q]
            r = np.abs(apq)
            zero = r == 0.0  # already annihilated: identity rotation
            r[zero] = 1.0
            phase = np.where(zero, 1.0, apq / r)
            tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
            t = np.where(zero, 0.0, np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau)))
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            conj_phase = np.conj(phase)
            # Unitaries on the (p,q) planes: [[c, s], [-s*conj(phase), c*conj(phase)]].
            # Fancy indexing copies, so the old columns and rows stay available.
            col_p, col_q = a[:, p], a[:, q]
            a[:, p] = c * col_p - s * conj_phase * col_q
            a[:, q] = s * col_p + c * conj_phase * col_q
            row_p, row_q = a[p, :], a[q, :]
            a[p, :] = c[:, None] * row_p - (s * phase)[:, None] * row_q
            a[q, :] = s[:, None] * row_p + (c * phase)[:, None] * row_q
            # Exact post-conditions of the rotations.
            a[p, q] = 0.0
            a[q, p] = 0.0
            a[p, p] = a[p, p].real
            a[q, q] = a[q, q].real
            if v is not None:
                vec_p, vec_q = v[:, p], v[:, q]
                v[:, p] = c * vec_p - s * conj_phase * vec_q
                v[:, q] = s * vec_p + c * conj_phase * vec_q
        if not whole:
            work[..., active] = a
            if v is not None:
                vecs[..., active] = v
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
    ``max_sweeps`` sweeps.  Deterministic: identical input gives
    bit-identical output.
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
