"""Full spectral decomposition of Hermitian matrices: a Householder /
multisection start basis, restarted from itself until its off-diagonal
norm certifies it.

No external eigensolver is used.  A solve first scales A by the power of two
``s = 2^-e`` that puts its largest real or imaginary part in [0.5, 1)
(``numkernel._unit_scaled``), exactly barring subnormals, so that every
square that counts is clear of overflow and of the subnormals, and A's
norms are taken once, on sA.  So no finite matrix is refused for its size:
the solve gives the same eigenvectors, and its eigenvalues scaled by the
same power of two, at any scale, and only a spectrum past the largest float
raises ``ValueError``.  A matrix that already meets the tolerance below (a
diagonal one) stops here, unscaled: its diagonal and the identity come back
bit for bit.  Any other gets a near-exact eigenbasis Phi0 of the scaled
matrix: a complex Householder reduction to a tridiagonal T (Golub & Van Loan, *Matrix
Computations*, section 8.3), a diagonal phase that makes T real symmetric,
every eigenvalue of T from one vectorized Sturm-count multisection (Lo,
Philippe & Sameh, 1987), eigenvectors from inverse iteration over all shifts
at once (Golub & Van Loan, section 8.4), and the back-transform.  Each
eigenvalue is only as good as two inverse-iteration steps need.  A bracket
well apart from its neighbours leaves the multisection and its midpoint is
polished by safeguarded Newton steps on ``det(T - x I)``; a dense solve
takes two passes (the first of 15 N points) and three Newton steps.
Clusters refine to machine precision.  Every member takes the same two steps
and a QR re-orthonormalization after them; a member with a shift that Newton
did not polish also takes a QR between the steps.  The returned eigenvalues
come from the Rayleigh quotients on the diagonal of
``W = Phi0^H (sA) Phi0``, scaled back by ``2^e``.  The certificate is W's
off-diagonal Frobenius norm: a solve ends only once it is at most
``OFFDIAG_RTOL * ||sA||_F``.  From a good start that holds at once; a poor
one (clusters, pivot trouble) is restarted from W itself, with S the start
basis of W, ``Phi <- Phi S`` and ``W <- S^H W S``, until it holds, so it is
never returned as is.  The certificate covers only the off-diagonal of W,
so Phi must be unitary to roundoff, and is by construction: reflectors kept
unitary (a negligible sub-column counts as reduced), a diagonal phase, QR
factors and products of such bases.

Eigenvalues are returned ascending, eigenvector columns permuted in
lockstep, and each column's phase is fixed so results are deterministic and
comparable.  Every step takes a ``(B, N, N)`` stack of B matrices, member b
at ``stack[b]``, so that each numpy call serves all B members, and every
member ends bit-identical to a solve of its own: a step's arithmetic is
batched matmuls and QR factorizations (each one a separate BLAS or LAPACK
call per member), elementwise or per-member scalar arithmetic, and each
member's norms are summed over its own C-ordered entries.
:func:`jacobi_eigendecompose` is the B = 1 case; the sweeps' oracle solves
H and every ``H + x H'`` of its grid as one stack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence
from .numkernel import HermitianMatrix, _unit_scaled, checked_index

# Convergence threshold for the off-diagonal Frobenius norm, relative to ||A||_F.
OFFDIAG_RTOL = 1e-12
# Restarts allowed before NoConvergence: a stalled input fails after a few solves.
DEFAULT_MAX_SWEEPS = 4
# Sturm-count points per interval in a multisection pass (4 bits per pass);
# the first pass puts _POINTS * N points in each member's one interval.
_POINTS = 15
# A bracket is separated once _SEPARATION times its width is at most its
# distance to each neighbouring bracket; Newton's method then polishes its
# midpoint, and an entry still moving after _NEWTON_CAP steps goes back to
# multisection.
_SEPARATION = 16.0
_NEWTON_CAP = 8


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    ``eigenvectors[:, m]`` is the m-th eigenvector, phase-fixed so that its
    largest-magnitude entry is real and strictly positive (see
    :func:`_fix_phases` for ties).  Both arrays are stored C-ordered and
    read-only; :attr:`adjoint` is computed once, on first use.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=np.float64, order="C")
        vecs = np.array(self.eigenvectors, dtype=np.complex128, order="C")
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

    @functools.cached_property
    def adjoint(self) -> np.ndarray:
        """Read-only ``eigenvectors.conj().T``: row m is the bra <phi_m|."""
        adj = self.eigenvectors.conj().T
        adj.setflags(write=False)
        return adj

    def eigenvector(self, m: int) -> np.ndarray:
        """Column m; :class:`DimensionMismatch` unless ``0 <= m < dim``."""
        return self.eigenvectors[:, checked_index(m, "level", self.dim)]

    def synthesize(self, coefficients) -> np.ndarray:
        """Map eigenbasis coordinates to the computational basis: sum_j b_j phi_j."""
        b = np.asarray(coefficients, dtype=np.complex128)
        if b.shape != (self.dim,):
            raise DimensionMismatch(f"expected {self.dim} coefficients, got {b.shape}")
        return self.eigenvectors @ b


def _fix_phases(basis: np.ndarray) -> np.ndarray:
    """Multiply each column of one ``(N, N)`` orthonormal basis by the unit
    scalar that makes its largest-magnitude entry real and strictly
    positive.  Magnitudes are compared rounded to single precision, ties
    broken by lowest index, so that entries of equal magnitude in exact
    arithmetic (as in both eigenvectors of ``[[0, 1], [1, 0]]``) are not
    told apart by the solver's roundoff."""
    columns, mags = np.arange(len(basis)), np.abs(basis)
    pivots = np.argmax(mags.astype(np.float32), axis=0)  # lowest row on magnitude ties
    pivot_mags = mags[pivots, columns]
    out = basis * np.conj(basis[pivots, columns] / pivot_mags)
    out[pivots, columns] = pivot_mags  # exact: kill the pivots' roundoff imaginary parts
    return out


def _norms(members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``||A||_F`` and the off-diagonal Frobenius norm of every member A of a
    ``(B, N, N)`` stack (one matrix ``a`` is the stack ``a[None]``).

    Each norm is summed over the member's own C-ordered entries, one BLAS dot
    per real and imaginary part as in ``np.linalg.norm``, so a member's norms
    round the same for any B and any memory layout of the stack.  The
    squares are taken as they are: every stack that comes here is scaled
    (see :func:`_eigensystems`), so that none overflows and none that counts
    is subnormal.
    """
    count, n, _ = members.shape
    # A C-ordered copy, one row per member; its diagonal is zeroed below.
    flat = np.array(members, order="C").reshape(count, n * n)

    def norms():
        re, im = flat.real[:, None], flat.imag[:, None]
        return np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])

    frobenius = norms()
    flat[:, :: n + 1] = 0.0
    return frobenius, norms()


def _diagonalize(
    work: np.ndarray, vecs: np.ndarray, tol: np.ndarray, exponents: np.ndarray, max_sweeps: int
) -> np.ndarray:
    """Certify a ``(B, N, N)`` stack W of B nearly diagonal matrices:
    restart each member in place, and its columns of ``vecs`` (shaped like
    ``work``), until its off-diagonal norm is at most its tolerance
    ``tol``; return the number of restarts of each member.  Member b is
    its matrix scaled by ``2^-exponents[b]``, which only
    :class:`NoConvergence` reads.

    A restart gathers the members still above their tolerance, takes the
    start basis S of each W scaled as :func:`_tridiagonalize` needs
    (``numkernel._unit_scaled``), and sets ``Phi <- Phi S`` and
    ``W <- (S^H W S + h.c.) / 2`` from the unscaled W (:func:`_started`).
    Every step is batched per member, so each member ends bit-identical to
    a solve of that matrix on its own.  Raises :class:`NoConvergence` for
    the first member still above its tolerance after ``max_sweeps``
    restarts, its off-diagonal norm unscaled, and ``ValueError`` if S is
    not finite.
    """
    restarts = np.zeros(len(work), dtype=int)
    while True:
        off_norms = _norms(work)[1]
        active = np.flatnonzero(off_norms > tol)
        if active.size == 0:
            return restarts
        first = active[0]
        if restarts[first] >= max_sweeps:
            raise NoConvergence(int(restarts[first]), float(np.ldexp(off_norms, exponents)[first]))
        w = work[active]
        start, work[active] = _started(w, _unit_scaled(w, axes=(1, 2))[0])
        vecs[active] = vecs[active] @ start
        restarts[active] += 1


def _tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householder reduction of every member of a ``(B, N, N)`` stack of
    Hermitian matrices to tridiagonal form (Golub & Van Loan, *Matrix
    Computations*, section 8.3).

    Returns the real diagonals ``d`` ``(B, N)``, the complex subdiagonals
    ``e`` ``(B, N - 1)`` and the unit reflector vectors ``u`` ``(B, N, N)``:
    row k of a member holds its ``u_k`` in entries ``k+1:`` and zeros
    elsewhere, so that ``A = Q T Q^H`` with ``Q = P_0 P_1 ... P_{N-3}``, where
    ``P_k = I - 2 u_k u_k^H``.  Every member's largest real or imaginary
    part must be in [0.5, 1), so that ``0.5 <= ||A||_F < sqrt(2) N``: no
    squared norm overflows and none that counts is subnormal.

    A sub-column ``x = A[k+1:, k]`` with ``||x|| <= eps * ||A||_F`` counts
    as reduced: it is set to 0 and its reflector is 0, which moves A by at
    most eps relative.  Every other x has ``||x||^2`` far above the
    subnormals, so the squares that make up ``||x||`` and ``||u_k||`` lose
    nothing that counts and ``P_k`` is unitary to roundoff.  A zero
    reflector still runs its (null) update, and a step is batched matmuls,
    elementwise arithmetic and each member's own scalars, so each member
    ends bit-identical to a reduction of its own.
    """
    a = a.copy()
    count, n, _ = a.shape
    pairs = a.reshape(count, 1, -1).view(np.float64)  # (re, im) pairs of each member
    small = (np.finfo(np.float64).eps * np.sqrt(pairs @ pairs.swapaxes(1, 2))).ravel().tolist()
    reflectors = np.zeros_like(a)
    for k in range(n - 2):
        x = a[:, k + 1 :, k]
        u = reflectors[:, k, k + 1 :]
        u[:] = x
        pairs = u.view(np.float64)  # (re, im) pairs: ||x||^2 is one real dot
        squares = (pairs[:, None] @ pairs[:, :, None]).ravel().tolist()
        # Per member: u_0 = x_0 + phase * alpha, 1 / ||u|| (0 where x counts
        # as reduced, so that u is 0) and P_k x's head, -phase * alpha.
        steps = []
        for head, square, tol in zip(x[:, 0].tolist(), squares, small):
            alpha = math.sqrt(square)
            if alpha <= tol:
                steps.append((0j, 0.0, 0j))
                continue
            mag = abs(head)
            shift = (head / mag if mag else 1.0) * alpha
            # no cancellation: |u_0| = |x_0| + alpha
            steps.append((head + shift, 1.0 / math.sqrt(2.0 * alpha * (alpha + mag)), -shift))
        first, inverse, head = np.array(steps).T
        u[:, 0] = first
        u *= inverse.real[:, None]  # ||u|| = 1
        x[:, 0] = head  # P_k x; the rest of column k is never read again
        # P A P = A - u w^H - w u^H on the trailing block, one rank-2 product.
        rest = a[:, k + 1 :, k + 1 :]
        column = u[:, :, None]
        p = rest @ column
        w = 2.0 * (p - (column.conj().swapaxes(1, 2) @ p).real * column)
        uw = np.concatenate([column, w], axis=2)
        rest -= uw @ uw[:, :, ::-1].conj().swapaxes(1, 2)
    diagonal, subdiagonal = np.diagonal(a, axis1=1, axis2=2), np.diagonal(a, -1, axis1=1, axis2=2)
    return diagonal.real.copy(), subdiagonal.copy(), reflectors


def _sturm_counts(d: np.ndarray, b2: np.ndarray, points: np.ndarray) -> np.ndarray:
    """How many eigenvalues of member m lie below each point ``points[m]``:
    the negative pivots of ``T - x I`` (Golub & Van Loan, section 8.4),
    all points at once.

    Member m is the real symmetric tridiagonal matrix with diagonal
    ``d[m]`` and squared off-diagonal ``b2[m]``, scaled as for
    :func:`_multisection`, every ``b2`` entry at least the smallest normal
    float.  So no ``b2 / q`` is 0/0: a zero pivot ``q = +-0`` gives the
    next pivot -+inf and the one after it the plain ``d - x``, which counts
    as a pivot of tiny magnitude and the same sign would (Kahan's IEEE
    Sturm count, as in LAPACK's ``dlaebz``), and a quotient past the
    largest float counts as an infinite one.
    """
    d, b2 = d.T[:, :, None], b2.T[:, :, None]  # row i of every member: (B, 1)
    q, tmp = d[0] - points, np.empty_like(points)
    below = np.empty((len(d), *points.shape), dtype=bool)
    np.signbit(q, out=below[0])
    with np.errstate(divide="ignore", over="ignore"):
        for i in range(1, len(d)):  # q = (d_i - x) - b2_{i-1} / q
            np.divide(b2[i - 1], q, out=tmp)
            np.subtract(d[i], points, out=q)
            np.subtract(q, tmp, out=q)
            np.signbit(q, out=below[i])
    return below.sum(axis=0)


def _pivot_sums(d: np.ndarray, b2: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Newton evaluation at ``x[k]`` for K entries, entry k the
    tridiagonal matrix with diagonal ``d[:, k]`` and squared off-diagonal
    ``b2[:, k]`` (``d`` is ``(N, K)``): how many pivots of ``T - x I`` are
    negative, and ``sum_i q_i' / q_i``, the derivative of
    ``log |det(T - x I)|``, whose reciprocal is the Newton step.

    The pivots are those of :func:`_sturm_counts`, by the same arithmetic,
    ``q_i = (d_i - x) - b2_{i-1} / q_{i-1}``, and their derivatives follow
    ``q_i' = (b2_{i-1} / q_{i-1}**2) q_{i-1}' - 1`` (Wilkinson, *The
    Algebraic Eigenvalue Problem*, ch. 5), five elementwise calls per row.
    A zero pivot makes the sum infinite or NaN.  The sum is accumulated row
    by row, so each entry's value is the same for any K and any other
    columns: :func:`_multisection`'s Newton round relies on this when it
    evaluates its frozen entries beside the moving ones.
    """
    q, s, r = d - x, np.empty_like(d), np.empty_like(x)  # s_i = q_i' / q_i
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(-1.0, q[0], out=s[0])
        for i in range(1, len(d)):  # q_i' = r s_{i-1} - 1 with r = b2_{i-1} / q_{i-1}
            np.divide(b2[i - 1], q[i - 1], out=r)
            np.subtract(q[i], r, out=q[i])
            np.multiply(r, s[i - 1], out=r)
            np.subtract(r, 1.0, out=r)
            np.divide(r, q[i], out=s[i])
        total = np.add.accumulate(s, axis=0)[-1]
    return np.signbit(q).sum(axis=0), total


def _multisection(d: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenvalue, ascending, of each real symmetric tridiagonal
    matrix with diagonal ``d[m]`` and off-diagonal ``b[m] >= 0`` (``d`` is
    ``(B, N)``), each from a matrix scaled as for :func:`_tridiagonalize`
    (a Frobenius norm below ``sqrt(2) N``), as shifts for
    :func:`_inverse_iteration`; and, per member, whether Newton's method
    polished every one of its shifts.

    A pass places ``_POINTS`` equally spaced points in every bracket,
    counts with one vectorized Sturm sequence how many eigenvalues lie below
    each point, and keeps the subinterval where the count passes j for
    eigenvalue j (Lo, Philippe & Sameh, *SIAM J. Sci. Stat. Comput.* 8(2),
    1987).  The first pass splits one bracket per member, the Gershgorin
    interval, at ``_POINTS * N`` points, as many Sturm counts as a later
    pass over N brackets.  Eigenvalue j's bracket is good enough once it is
    at most ``max(2 eps scale, sqrt(eps scale gap_j))`` wide, ``scale`` the
    member's Gershgorin bound on ``|lambda|`` and ``gap_j`` the distance to
    the neighbouring brackets: after the two inverse-iteration steps a shift
    error delta leaves ``off(W)`` about ``delta**2 / gap``, here under
    ``eps scale``.

    Two paths.  A bracket is *separated* once ``_SEPARATION`` times its
    width is at most gap_j; it then leaves the passes.  Once no other
    bracket needs one, the one Newton round runs on the ``(B, N)`` bracket
    arrays themselves, under one mask of *moving* entries that starts as
    the separated ones.  Every entry's iterate x starts at its bracket's
    midpoint, and each step evaluates :func:`_pivot_sums` at every entry
    at once.  A moving entry takes a safeguarded Newton step
    on ``det(T - x I)``: the count of negative pivots at x moves one end of
    the bracket to x, a step that is not finite or leaves the bracket
    bisects instead, and the entry stops moving once a Newton step is at
    most ``max(2 eps scale, (eps scale gap_j**2) ** (1/3))``; a bisecting
    step never stops it.  Any other entry is frozen: it is evaluated with
    the rest, but its x and its bracket keep their values.  A polished
    entry's shift is its last x, any other's its bracket's midpoint.  The
    stop is wider than the passes' width, but Newton converges
    quadratically on a bracket that holds one eigenvalue: the last step is
    about the error of the iterate before it, and the error it leaves is
    about that step squared over gap_j, far below either width.  An entry
    still moving after ``_NEWTON_CAP`` steps goes back to the passes and
    refines to the passes' width.  After the round no bracket separates:
    the entries it gives back finish in the passes, and no other entry
    would need a second round, as brackets only narrow, so gaps only grow
    and a bracket narrow enough before the round stays so.  Brackets
    that never separate (clusters) refine to 2 eps scale.  The squared
    off-diagonal is floored at the smallest normal float for the
    counts (see :func:`_sturm_counts`), which moves no eigenvalue by more
    than 1.5e-154.  A bracket's arithmetic reads only its own member, so
    each member's shifts are bit-identical to a multisection of its own.
    """
    count, n = d.shape
    b2 = np.maximum(b * b, np.finfo(np.float64).tiny)
    eps = np.finfo(np.float64).eps
    radius = np.zeros((count, n))
    radius[:, :-1] += b
    radius[:, 1:] += b
    lo, hi = (d - radius).min(axis=1), (d + radius).max(axis=1)
    scale = np.maximum(np.abs(lo), np.abs(hi))[:, None]
    pad = 4.0 * n * eps * scale  # room for the counts' roundoff
    members, levels = np.arange(count)[:, None], np.arange(n)

    def refine(lower, upper, brackets, inner):
        """The subinterval of each ``(B, K)`` bracket, split by ``inner``
        points, where the count passes j, for eigenvalue j in bracket
        ``brackets[j]``."""
        fractions = np.arange(1, inner + 1) / (inner + 1)
        points = lower[..., None] + (upper - lower)[..., None] * fractions
        counts = _sturm_counts(d, b2, points.reshape(count, -1)).reshape(points.shape)
        grid = np.empty((*lower.shape, inner + 2))
        grid[..., 0], grid[..., 1:-1], grid[..., -1] = lower, points, upper
        # The last point with at most j eigenvalues below it, and the next.
        at = (counts <= levels[:, None]).sum(axis=2)
        return grid[members, brackets, at], grid[members, brackets, at + 1]

    # The first pass shares one bracket per member, the Gershgorin interval,
    # and gives it as many points as a later pass gives all N brackets.
    first = np.zeros(n, dtype=np.intp)
    lower, upper = refine(lo[:, None] - pad, hi[:, None] + pad, first, _POINTS * n)
    gaps = np.full((count, n + 1), np.inf)
    floor, unit = 2.0 * eps * scale, eps * scale
    polished, x = np.zeros((count, n), dtype=bool), None  # the Newton round makes x
    while True:
        gaps[:, 1:-1] = lower[:, 1:] - upper[:, :-1]
        gap = np.maximum(np.minimum(gaps[:, :-1], gaps[:, 1:]), 0.0)
        width = upper - lower
        active = ~polished & (width > np.maximum(floor, np.sqrt(unit * gap)))
        separated = active & (_SEPARATION * width <= gap) & (x is None)
        active &= ~separated
        if active.any():
            refined = refine(lower, upper, levels, _POINTS)
            lower, upper = np.where(active, refined[0], lower), np.where(active, refined[1], upper)
            continue
        midpoints = (lower + upper) / 2.0
        if not separated.any():
            shifts = midpoints if x is None else np.where(polished, x, midpoints)
            return shifts, polished.all(axis=1)
        # The one Newton round, on every entry at once, entry (m, j) in
        # column m N + j; a frozen entry keeps its x and its bracket.
        stop = np.maximum(floor, (unit * gap**2) ** (1.0 / 3.0))
        rows, squares = np.repeat(d.T, n, axis=1), np.repeat(b2.T, n, axis=1)
        x, moving = midpoints, separated.copy()
        for _ in range(_NEWTON_CAP):
            negatives, total = _pivot_sums(rows, squares, x.ravel())
            above = negatives.reshape(count, n) > levels  # eigenvalue j lies below x
            low, high = np.where(above, lower, x), np.where(above, x, upper)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = x - 1.0 / total.reshape(count, n)
            newton = (low <= step) & (step <= high)  # else bisect, and go on
            step = np.where(newton, step, (low + high) / 2.0)
            lower, upper = np.where(moving, low, lower), np.where(moving, high, upper)
            done = newton & (np.abs(step - x) <= stop)
            x = np.where(moving, step, x)
            moving &= ~done
            if not moving.any():
                break
        polished = separated & ~moving


def _start_vectors(n: int) -> np.ndarray:
    """Inverse iteration's start vectors, the columns of an ``(N, N)``
    matrix: splitmix64 (Steele, Lea & Flood, OOPSLA 2014) of the counters
    1 to N^2, mapped to [-0.5, 0.5).  Seeded and distinct, exact integer
    arithmetic, and no ``numpy.random``, whose first use costs a fresh
    process about 12 ms."""
    z = np.arange(1, n * n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(factor)
    z ^= z >> np.uint64(31)
    return ((z >> np.uint64(11)) * 2.0**-53 - 0.5).reshape(n, n)


def _thomas_solve(multipliers: np.ndarray, b: np.ndarray, pivots: np.ndarray, x: np.ndarray) -> None:
    """One inverse-iteration step in place: ``x <- (T - shift I)^{-1} x``
    for every column of an index-major ``(N, B, N)`` stack ``x``, by the
    Thomas recurrences over the LU factors of :func:`_inverse_iteration`."""
    n, tmp = len(x), np.empty(x.shape[1:])
    for i in range(1, n):
        np.multiply(multipliers[i], x[i - 1], out=tmp)
        np.subtract(x[i], tmp, out=x[i])
    x[n - 1] /= pivots[n - 1]
    for i in range(n - 2, -1, -1):
        np.multiply(b[i], x[i + 1], out=tmp)
        np.subtract(x[i], tmp, out=x[i])
        np.divide(x[i], pivots[i], out=x[i])


def _inverse_iteration(
    d: np.ndarray, b: np.ndarray, shifts: np.ndarray, polished: np.ndarray
) -> np.ndarray:
    """Orthonormal eigenvectors, one column per shift, of each real
    symmetric tridiagonal matrix with diagonal ``d[m]`` and off-diagonal
    ``b[m]`` (``d`` and ``shifts`` are ``(B, N)``), scaled as for
    :func:`_multisection`; ``polished[m]`` says that Newton's method
    polished every shift of member m.

    Every member takes the same two steps, each solving
    ``(T - shift_j I) y_j = x_j`` for every shift of every member at once
    (:func:`_thomas_solve`), from :func:`_start_vectors`.  After the first,
    each column is scaled to a largest entry of 1, and a batched QR makes
    the columns orthonormal after the second.  A member that is not
    polished (clusters, or a shift Newton gave up on) also takes a QR
    between the steps, so that vectors of close or equal eigenvalues span
    their eigenspace instead of collapsing onto one vector; a polished
    member's eigenvalues are separated and its shifts near exact, so it
    needs none (as LAPACK's ``dstein`` re-orthogonalizes only inside
    clusters; Jessup & Ipsen, *SIAM J. Sci. Stat. Comput.* 13(2), 1992).
    Each step is elementwise per column and each QR one LAPACK call per
    member, so each member is bit-identical to a solve of its own.

    A pivot smaller than ``eps * ||T||`` in magnitude is replaced by that
    bound with its sign.  The pivots are formed in place in one
    ``(N, B, N)`` array that starts as the diagonals of every
    ``T - shift I``.
    """
    count, n = d.shape
    # eps * ||T||, ||T|| to a factor 3
    bound = np.finfo(np.float64).eps * np.maximum(np.abs(d).max(axis=1), b.max(axis=1, initial=0.0))
    # Index-major, (N, B, N): entry [i, m, j] belongs to member m's shift j.
    b = np.repeat(b.T[:, :, None], n, axis=2)
    guard, tmp = np.repeat(bound[:, None], n, axis=1), np.empty((count, n))
    # LU factors of every T - shift I: pivots and multipliers, one row per
    # index; row i of the pivots holds row i of T - shift I until step i.
    pivots, multipliers = d.T[:, :, None] - shifts, np.zeros((n, count, n))
    for i in range(n):
        if i:
            np.divide(b[i - 1], pivots[i - 1], out=multipliers[i])
            np.multiply(multipliers[i], b[i - 1], out=tmp)
            np.subtract(pivots[i], tmp, out=pivots[i])
        np.abs(pivots[i], out=tmp)
        np.maximum(tmp, guard, out=tmp)
        np.copysign(tmp, pivots[i], out=pivots[i])
    x = np.repeat(_start_vectors(n)[:, None], count, axis=1)
    _thomas_solve(multipliers, b, pivots, x)
    x /= np.abs(x).max(axis=0)
    unpolished = np.flatnonzero(~polished)
    if unpolished.size:
        x[:, unpolished] = np.linalg.qr(x[:, unpolished].transpose(1, 0, 2))[0].transpose(1, 0, 2)
    _thomas_solve(multipliers, b, pivots, x)
    return np.linalg.qr(x.transpose(1, 0, 2))[0]


def _start_basis(a: np.ndarray) -> np.ndarray:
    """Near-exact orthonormal eigenvectors of every member of a ``(B, N, N)``
    stack of Hermitian matrices scaled as for :func:`_tridiagonalize`, columns in
    ascending eigenvalue order, for a solve to start and restart
    from; each member bit-identical to a start of its own.

    A Householder reduction gives
    ``A = Q T Q^H`` with T Hermitian tridiagonal; a diagonal unitary D makes
    ``D^H T D`` real symmetric with off-diagonal ``|e|``.  That matrix gets
    its eigenvalues by :func:`_multisection` and its eigenvectors Y by
    :func:`_inverse_iteration`, and the start basis is ``Q D Y``, the
    reflectors applied from one conjugated and one doubled copy (doubling is
    exact).
    """
    d, e, reflectors = _tridiagonalize(a)
    b = np.abs(e)
    # D = diag(delta) with delta_{k+1} = delta_k e_k / |e_k| (1 where e_k = 0).
    units = np.divide(e, b, out=np.ones_like(e), where=b > 0)
    delta = np.concatenate([np.ones_like(units[:, :1]), np.cumprod(units, axis=1)], axis=1)
    delta /= np.abs(delta)
    basis = delta[:, :, None] * _inverse_iteration(d, b, *_multisection(d, b))
    adjoint, reflectors = reflectors.conj()[:, :, None], 2.0 * reflectors  # 2u: exact
    for k in range(a.shape[1] - 3, -1, -1):  # basis <- P_k basis
        tail = basis[:, k + 1 :]
        tail -= reflectors[:, k, k + 1 :, None] * (adjoint[:, k, :, k + 1 :] @ tail)
    return basis


def _started(w: np.ndarray, scaled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The start basis S of ``scaled``, a ``(B, N, N)`` stack w scaled
    for :func:`_start_basis`, and ``(S^H w S + h.c.) / 2``, exactly
    Hermitian as a restart's start basis assumes.  ``ValueError`` if S is
    not finite."""
    start = _start_basis(scaled)
    if not np.isfinite(start).all():
        raise ValueError("start basis is not finite")
    w = start.conj().swapaxes(1, 2) @ w @ start
    return start, (w + w.conj().swapaxes(1, 2)) / 2.0


def _eigensystems(stack: np.ndarray, max_sweeps: int = DEFAULT_MAX_SWEEPS):
    """Ascending eigenvalues ``(B, N)`` of every member of a ``(B, N, N)``
    stack of Hermitian matrices, and phase-fixed eigenvector columns
    ``(N, N)`` of ``stack[0]`` alone: the one solve path, of which
    :func:`jacobi_eigendecompose` is the B = 1 case.  Both callers read only
    the first member's vectors (the sweeps' oracle puts H first); another
    member's vectors are those of the stack rolled so that it comes first.

    The stack is read where it lies, in any layout, and never written.
    Each member A is scaled once, into one array, by the power of two
    ``s = 2^-e`` of its largest real or imaginary part
    (``numkernel._unit_scaled``), exact barring subnormals; one
    :func:`_norms` call on that array gives each member's tolerance
    ``OFFDIAG_RTOL * ||sA||_F`` and its off-diagonal norm.  A member whose
    sA already meets it comes back as it is, its own diagonal with the
    identity as eigenvectors.  The others, gathered (the whole scaled stack
    is dropped there), get one batched start basis Phi0 (see the module
    docstring) and ``W = (Phi0^H (sA) Phi0 + h.c.) / 2``, nearly diagonal;
    one :func:`_diagonalize` call certifies them all, restarting any that
    need it in W and Phi0 in place, and their eigenvalues are
    ``np.ldexp(diag(W), e)``.
    Every step serves all members at once and reads only each member's own
    entries, so each member ends bit-identical to a solve of its own, and a
    member scaled by 2^k, entries kept normal, gives the same eigenvectors
    and its eigenvalues scaled by 2^k, bit for bit.  Errors as for
    :func:`jacobi_eigendecompose`, for the first member that has one.
    """
    a = np.asarray(stack, dtype=np.complex128)  # read only, never written
    scaled, e = _unit_scaled(a, axes=(1, 2))
    frobenius, off = _norms(scaled)
    need = np.flatnonzero(off > OFFDIAG_RTOL * frobenius)
    eigenvalues = np.diagonal(a, axis1=1, axis2=2).real.copy()
    vecs = np.eye(a.shape[1], dtype=np.complex128)
    if need.size:
        scaled, e = scaled[need], e[need, 0]  # the whole scaled stack is dropped here
        start, w = _started(scaled, scaled)
        _diagonalize(w, start, OFFDIAG_RTOL * frobenius[need], e[:, 0], max_sweeps)
        with np.errstate(over="ignore"):
            eigenvalues[need] = np.ldexp(np.diagonal(w, axis1=1, axis2=2).real, e)
        if not np.isfinite(eigenvalues).all():
            raise ValueError("eigenvalues overflow: the spectrum passes the largest float")
        if need[0] == 0:
            vecs = start[0]
    order = np.argsort(eigenvalues[0], kind="stable")
    return np.sort(eigenvalues, axis=1, kind="stable"), _fix_phases(vecs[:, order])


def jacobi_eigendecompose(
    a: HermitianMatrix, max_sweeps: int = DEFAULT_MAX_SWEEPS
) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix (see the module docstring).

    In the returned eigenbasis, A's off-diagonal Frobenius norm is at most
    ``OFFDIAG_RTOL * ||A||_F``; :class:`NoConvergence` is raised if that
    takes more than ``max_sweeps`` restarts from W.  No finite A is
    refused for the size of its entries or of its norm: ``ValueError`` is
    raised only if an eigenvalue passes the largest float, as for
    ``[[1e308, 1e308], [1e308, 1e308]]`` (``eigenvalues overflow: …``), or,
    if a start basis is not finite.  Deterministic:
    identical input gives bit-identical output, the same as a member of an
    :func:`_eigensystems` stack.  A
    matrix that already meets the tolerance, such as a diagonal one, comes
    back bit for bit: its diagonal, and identity columns in the same order.
    """
    eigenvalues, eigenvectors = _eigensystems(a.array[None], max_sweeps)
    return SpectralDecomposition(eigenvalues=eigenvalues[0], eigenvectors=eigenvectors)
