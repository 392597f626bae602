"""Full spectral decomposition of Hermitian matrices: a Householder /
multisection start, finished and certified by parallel-order Jacobi rotations.

No external eigensolver is used.  A cold solve first builds a near-exact
eigenbasis Phi0: a complex Householder reduction to a tridiagonal T
(Golub & Van Loan, *Matrix Computations*, section 8.3), a diagonal phase
that makes T real symmetric, every eigenvalue of T from one vectorized
Sturm-count multisection (Lo, Philippe & Sameh, 1987), eigenvectors from two
steps of inverse iteration over all shifts at once with a QR
re-orthonormalization after each, and the back-transform.  Jacobi then
finishes ``W = Phi0^H A Phi0`` from Phi0 and is the convergence test: its
sweeps of 2x2 complex rotations in the round-robin ordering of Brent & Luk
(1985), each step rotating up to N/2 disjoint index pairs at once, run
until the off-diagonal Frobenius norm is at most ``OFFDIAG_RTOL * ||A||_F``.
From a good start that holds with no sweep at all; a poor one (clusters,
pivot trouble) is rotated until it holds, so it is never returned as is.
The finish certifies only the off-diagonal of W, so Phi0 must be unitary to
roundoff, and is by construction: reflectors kept unitary (a negligible
sub-column counts as reduced), a diagonal phase and QR factors.
A matrix that already meets the tolerance (a diagonal one) skips the start
and comes back bit for bit.

Eigenvalues are returned ascending, eigenvector columns permuted in
lockstep, and each column's phase is fixed so results are deterministic and
comparable.  :func:`jacobi_eigendecompose` is the one cold solve; a caller
that needs only eigenvalues reads its ``eigenvalues``.  The sweep loop also
serves the sweeps' oracle, which starts from H's eigenbasis instead: on a
nearly diagonal matrix (an operator written in the eigenbasis of a nearby
one) cyclic Jacobi converges quadratically, in two or three sweeps.  That
loop takes an ``(N, N, B)`` stack of B matrices, so that each numpy call of
a step serves all B members; every member ends bit-identical to a solve of
its own, because each member's norms are summed over its own C-ordered
entries.

A sweep runs on one C-contiguous copy ``[A^T, Phi^T]`` of the matrix and its
eigenvectors.  Transposed, the column updates ``A <- AJ`` and
``Phi <- Phi J`` of a step are one contiguous row update of both, and
``A <- J^H A`` is a column update of ``A^T``; a step reads and resets its
pivots and diagonal entries through flat indices built when a solve's first
sweep runs, and works in buffers allocated once per sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence
from .numkernel import HermitianMatrix

# Convergence threshold for the off-diagonal Frobenius norm, relative to ||A||_F.
OFFDIAG_RTOL = 1e-12
DEFAULT_MAX_SWEEPS = 100
# Sturm-count points per interval in a multisection pass (4 bits per pass).
_POINTS = 15
# Seed of inverse iteration's start vectors.
_START_SEED = 0
# The smallest Frobenius norm whose square is a normal float.
_SMALLEST_NORM = math.sqrt(np.finfo(np.float64).tiny)


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


def _fix_phases(columns: np.ndarray) -> np.ndarray:
    """Multiply each column of an orthonormal basis by the unit scalar that
    makes its largest-magnitude entry real and strictly positive (magnitude
    ties broken by lowest index)."""
    mags = np.abs(columns)
    rows = np.argmax(mags, axis=0)  # lowest index on magnitude ties
    cols = np.arange(columns.shape[1])
    pivot_mags = mags[rows, cols]
    out = columns * np.conj(columns[rows, cols] / pivot_mags)
    out[rows, cols] = pivot_mags  # exact: kill the pivots' roundoff imaginary parts
    return out


def _norms(members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``||A||_F`` and the off-diagonal Frobenius norm of every member A of an
    ``(N, N, B)`` stack (one matrix ``a`` is the stack ``a[..., None]``).

    Each norm is summed over the member's own C-ordered entries, one BLAS dot
    per real and imaginary part as in ``np.linalg.norm``, so a member's norms
    round the same for any B and any memory layout of the stack.  Raises
    ``ValueError`` when some ``||A||_F`` overflows, or underflows while A is
    not 0.  The sweeps square entries, and so do the norms: finite entries
    such as ``1e200`` give an infinite norm and tolerance, and entries below
    about ``1.5e-154`` square into zero or subnormals, so that the norm, the
    tolerance and the off-diagonal norm all collapse.  Either way the matrix
    would pass as converged with its diagonal as the spectrum.
    """
    n, _, count = members.shape
    # A C-ordered copy, one row per member; its diagonal is zeroed below.
    flat = np.array(np.moveaxis(members, -1, 0), order="C").reshape(count, n * n)

    def norms():
        re, im = flat.real[:, None], flat.imag[:, None]
        return np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])

    with np.errstate(over="ignore"):
        frobenius = norms()
        if not np.isfinite(frobenius).all():
            raise ValueError("matrix norm overflows: entries too large to diagonalize")
        if ((frobenius < _SMALLEST_NORM) & flat.any(axis=1)).any():
            raise ValueError("matrix norm underflows: entries too small to diagonalize")
        flat[:, :: n + 1] = 0.0
        return frobenius, norms()


def _unit_scales(norms):
    """The powers of two that scale Frobenius norms into [0.5, 1) (1 for a
    norm of 0): multiplying by them is exact, barring subnormals."""
    return np.ldexp(1.0, -np.frexp(norms)[1])


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
    solve that sweeps so that a step slices nothing.  For a step's pairs ``(p, q)``:

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
    before any rotation when some member's Frobenius norm overflows or
    underflows (see :func:`_norms`).  The step indices are built when the
    first sweep runs, so a solve that needs none builds none.
    """
    members = work[..., None] if work.ndim == 2 else work  # a view: one member for one matrix
    count = members.shape[-1]
    norms = _norms(members)[0]
    # A member with a norm below 0.5 is scaled up by an exact power of two
    # to a norm in [0.5, 1) for the sweeps, so that the off-diagonal norms
    # square no entry that counts into a subnormal; the rotations commute
    # with the scaling bit for bit.  None is scaled down, which could flush
    # tiny entries into subnormals; a finite norm keeps every square finite.
    scales = np.maximum(_unit_scales(norms), 1.0)
    members *= scales
    tol = OFFDIAG_RTOL * norms * scales  # ||A||_F is rotation-invariant
    parts = [work] if vecs is None else [work, vecs]
    steps = None
    sweeps = np.zeros(count, dtype=int)
    while True:
        off_norms = _norms(members)[1]
        active = np.flatnonzero(off_norms > tol)
        if active.size == 0:
            break
        first = active[0]
        if sweeps[first] >= max_sweeps:
            members /= scales
            raise NoConvergence(int(sweeps[first]), float(off_norms[first] / scales[first]))
        if steps is None:
            steps = _step_indices(work.shape[0], len(parts))
        # Only a stack can have converged members; they are left out of the sweep.
        sel = ... if active.size == count else (..., active)
        x = np.empty((len(parts),) + work[sel].shape, dtype=np.complex128)
        for m, m_t in zip(parts, x):
            m_t[...] = m[sel].swapaxes(0, 1)
        _sweep(x, steps)
        for m, m_t in zip(parts, x):
            m[sel] = m_t.swapaxes(0, 1)
        sweeps[active] += 1
    members /= scales
    return sweeps if work.ndim == 3 else int(sweeps[0])


def _tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Householder reduction of a Hermitian matrix to tridiagonal form
    (Golub & Van Loan, *Matrix Computations*, section 8.3).

    Returns the real diagonal ``d``, the complex subdiagonal ``e`` and the
    unit reflector vectors ``u_k`` (None where column k needs none), so that
    ``A = Q T Q^H`` with ``Q = P_0 P_1 ... P_{N-3}``, where
    ``P_k = I - 2 u_k u_k^H`` acts on indices ``k+1:``.  ``||A||_F`` must
    be in [0.5, 1), so that no squared norm overflows and none that counts
    is subnormal.

    A sub-column ``x = A[k+1:, k]`` with ``||x|| <= eps * ||A||_F`` counts
    as reduced: it is set to 0, which moves A by at most eps relative.
    Every other x has ``||x||^2`` far above the subnormals, so the squares
    that make up ``||x||`` and ``||u_k||`` lose nothing that counts and
    ``P_k`` is unitary to roundoff.
    """
    a = a.copy()
    small = np.finfo(np.float64).eps * np.linalg.norm(a)
    reflectors = []
    for k in range(a.shape[0] - 2):
        x = a[k + 1 :, k]
        alpha = math.sqrt(np.vdot(x, x).real)
        if alpha <= small:
            x[0] = 0.0  # the subdiagonal entry; the rest of column k is never read
            reflectors.append(None)
            continue
        head = complex(x[0])
        phase = head / abs(head) if head else 1.0
        u = x.copy()
        u[0] += phase * alpha  # no cancellation: |u_0| = |x_0| + alpha
        u *= 1.0 / math.sqrt(2.0 * alpha * (alpha + abs(head)))  # ||u|| = 1
        x[0] = -phase * alpha  # P_k x; the rest of column k is never read again
        # P A P = A - u w^H - w u^H on the trailing block, one rank-2 product.
        rest = a[k + 1 :, k + 1 :]
        p = rest @ u
        w = 2.0 * (p - np.vdot(u, p).real * u)
        uw = np.array([u, w])
        rest -= uw.T @ uw[::-1].conj()
        reflectors.append(u)
    return np.diagonal(a).real.copy(), np.diagonal(a, -1).copy(), reflectors


def _sturm_counts(d: np.ndarray, b2: np.ndarray, points: np.ndarray):
    """How many eigenvalues of the real symmetric tridiagonal matrix with
    diagonal ``d`` and squared off-diagonal ``b2``, scaled as for
    :func:`_multisection`, lie below each point: the negative pivots of
    ``T - x I`` (Golub & Van Loan, section 8.4), all points at once.

    Every pivot q is moved away from 0 by the smallest normal float
    ``pivmin`` with its own sign (-0 counting as negative), so no pivot is
    smaller than ``pivmin`` in magnitude, and ``b2 / q`` cannot overflow
    because ``b2 < 1``; a pivot above ``2**53 * pivmin`` in magnitude does
    not change.  Each row's signs are added into one count per point, so
    no ``(N, points)`` array is built.
    """
    pivmin = np.finfo(np.float64).tiny
    counts = np.zeros(points.size, dtype=np.intp)
    q, tmp = d[0] - points, np.empty_like(points)
    below = np.empty(points.size, dtype=bool)
    d, b2 = d.tolist(), b2.tolist()  # Python floats: cheaper scalar operands
    for i in range(len(d)):
        if i:  # q = d_i - (x + b2_{i-1} / q)
            np.divide(b2[i - 1], q, out=tmp)
            np.add(tmp, points, out=tmp)
            np.subtract(d[i], tmp, out=q)
        np.copysign(pivmin, q, out=tmp)
        np.add(q, tmp, out=q)
        np.signbit(q, out=below)
        counts += below
    return counts


def _multisection(d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every eigenvalue, ascending, of the real symmetric tridiagonal matrix
    with diagonal ``d`` and off-diagonal ``b >= 0``, scaled to a Frobenius
    norm below 1.

    Eigenvalue j starts in the Gershgorin interval.  Each pass places
    ``_POINTS`` equally spaced points in every interval, counts with one
    vectorized Sturm sequence how many eigenvalues lie below each point, and
    keeps the subinterval where the count passes j (Lo, Philippe & Sameh,
    *SIAM J. Sci. Stat. Comput.* 8(2), 1987), until every interval is a few
    ulps of the matrix scale wide.
    """
    n, b2 = d.size, b * b
    eps = np.finfo(np.float64).eps
    radius = np.zeros(n)
    radius[:-1] += b
    radius[1:] += b
    lo, hi = float((d - radius).min()), float((d + radius).max())
    scale = max(abs(lo), abs(hi))
    pad = 4.0 * n * eps * scale  # room for the counts' roundoff
    grid = np.empty((n, _POINTS + 2))
    grid[:, 0], grid[:, -1] = lo - pad, hi + pad
    fractions = np.arange(1, _POINTS + 1) / (_POINTS + 1)
    levels, rows = np.arange(n)[:, None], np.arange(n)
    while (grid[:, -1] - grid[:, 0]).max() > 2.0 * eps * scale:
        lower, upper = grid[:, :1], grid[:, -1:]
        grid[:, 1:-1] = lower + (upper - lower) * fractions
        counts = _sturm_counts(d, b2, grid[:, 1:-1].ravel()).reshape(n, _POINTS)
        # The last point with at most j eigenvalues below it, and the next.
        at = (counts <= levels).sum(axis=1)
        grid[:, 0], grid[:, -1] = grid[rows, at], grid[rows, at + 1]
    return (grid[:, 0] + grid[:, -1]) / 2.0


def _inverse_iteration(d: np.ndarray, b: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvectors, one column per shift, of the real symmetric
    tridiagonal matrix with diagonal ``d`` and off-diagonal ``b``, scaled as
    for :func:`_multisection`.

    Two steps of inverse iteration, each solving ``(T - shift_j I) y_j = x_j``
    for every shift at once by the Thomas recurrences and then
    re-orthonormalizing the columns by QR, so that vectors of close or equal
    eigenvalues span their eigenspace instead of collapsing onto one vector.
    The start vectors are seeded and distinct.  A pivot smaller than
    ``eps * ||T||`` in magnitude is replaced by that bound with its sign.
    """
    n = d.size
    guard = np.finfo(np.float64).eps * max(np.abs(d).max(), b.max(initial=0.0))
    # LU factors of every T - shift I: pivots and multipliers, one row per index.
    pivots, multipliers = np.empty((n, n)), np.zeros((n, n))
    pivots[0] = d[0] - shifts
    for i in range(n):
        if i:
            np.divide(b[i - 1], pivots[i - 1], out=multipliers[i])
            pivots[i] = (d[i] - shifts) - multipliers[i] * b[i - 1]
        pivots[i] = np.copysign(np.maximum(np.abs(pivots[i]), guard), pivots[i])
    x = np.random.default_rng(_START_SEED).standard_normal((n, n))
    for _ in range(2):
        for i in range(1, n):
            x[i] -= multipliers[i] * x[i - 1]
        x[n - 1] /= pivots[n - 1]
        for i in range(n - 2, -1, -1):
            x[i] -= b[i] * x[i + 1]
            x[i] /= pivots[i]
        x = np.linalg.qr(x)[0]
    return x


def _start_basis(a: np.ndarray) -> np.ndarray:
    """Near-exact orthonormal eigenvectors of a Hermitian matrix with
    ``||A||_F`` in [0.5, 1), columns in ascending eigenvalue order, for the
    finishing Jacobi sweeps to start from.

    A Householder reduction gives
    ``A = Q T Q^H`` with T Hermitian tridiagonal; a diagonal unitary D makes
    ``D^H T D`` real symmetric with off-diagonal ``|e|``.  That matrix gets
    its eigenvalues by :func:`_multisection` and its eigenvectors Y by
    :func:`_inverse_iteration`, and the start basis is ``Q D Y``.
    """
    d, e, reflectors = _tridiagonalize(a)
    b = np.abs(e)
    # D = diag(delta) with delta_{k+1} = delta_k e_k / |e_k| (1 where e_k = 0).
    units = np.divide(e, b, out=np.ones_like(e), where=b > 0)
    delta = np.concatenate([[1.0 + 0j], np.cumprod(units)])
    delta /= np.abs(delta)
    basis = delta[:, None] * _inverse_iteration(d, b, _multisection(d, b))
    for k, u in reversed(list(enumerate(reflectors))):  # basis <- P_k basis
        if u is not None:
            tail = basis[k + 1 :]
            tail -= np.outer(2.0 * u, u.conj() @ tail)
    return basis


def jacobi_eigendecompose(
    a: HermitianMatrix, max_sweeps: int = DEFAULT_MAX_SWEEPS
) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix: a Householder/multisection start
    basis, finished by round-robin complex Jacobi rotations.

    Unless A already meets the tolerance, the start basis Phi0 (see the
    module docstring) turns A into ``W = Phi0^H A Phi0``, nearly diagonal,
    and the Jacobi sweeps run on W with Phi0 as the eigenvectors.  Each
    rotation annihilates one off-diagonal entry W[p,q] with the unitary that
    diagonalizes the (p,q) 2x2 block.  A sweep is the round-robin ordering
    of Brent & Luk (SIAM J. Sci. Stat. Comput. 6(1), 1985): N - 1 steps (N
    for odd N), each applying up to N/2 rotations on disjoint index pairs at
    once, which equals applying them one after another because no rotation
    touches another's 2x2 block.  ``max_sweeps`` bounds these finishing
    sweeps; from a good start none runs.  Raises :class:`NoConvergence` if
    the off-diagonal norm is still above ``OFFDIAG_RTOL * ||W||_F`` after
    ``max_sweeps`` sweeps, and ``ValueError`` before any work if ``||A||_F``
    overflows, or underflows while A is not 0 (see :func:`_norms`), and
    before any rotation if the start basis is not finite or W overflows.
    Deterministic: identical input gives bit-identical output.

    A that already meets the tolerance keeps the identity as its start, so
    diagonal input comes back bit for bit; otherwise the sweeps start from
    ``W = (Phi0^H A Phi0 + h.c.) / 2``.  The tolerance test and the start
    see A scaled by an exact power of two to ``||A||_F`` in [0.5, 1), which
    scales the eigenvalues the same way, leaves the eigenvectors as they
    are, and keeps every square that counts clear of the subnormals.
    """
    work = np.array(a.array, dtype=np.complex128)
    norm = _norms(work[..., None])[0][0]
    scale = _unit_scales(norm)
    scaled = work * scale
    vecs = np.eye(a.dim, dtype=np.complex128)
    if _norms(scaled[..., None])[1][0] > OFFDIAG_RTOL * norm * scale:
        vecs = _start_basis(scaled)
        if not np.isfinite(vecs).all():
            raise ValueError("start basis is not finite")
        w = vecs.conj().T @ work @ vecs
        work = (w + w.conj().T) / 2.0
    _diagonalize(work, vecs, max_sweeps)
    eigenvalues = np.real(np.diag(work)).copy()
    order = np.argsort(eigenvalues, kind="stable")
    vecs = _fix_phases(vecs[:, order])
    return SpectralDecomposition(eigenvalues=eigenvalues[order], eigenvectors=vecs)

