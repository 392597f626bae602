import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperturb import eigensolver
from qperturb.eigensolver import (
    SpectralDecomposition,
    _diagonalize,
    _fix_phases,
    _round_robin_steps,
    jacobi_eigendecompose,
)
from qperturb.errors import NoConvergence
from qperturb.models import random_hermitian
from qperturb.numkernel import HermitianMatrix, add_scaled, identity


def two_by_two_eigenvalues(a, b, d):
    # oracle: roots of the characteristic polynomial of [[a, b], [conj(b), d]]
    mean = (a + d) / 2.0
    disc = math.sqrt(((a - d) / 2.0) ** 2 + abs(b) ** 2)
    return mean - disc, mean + disc


def _loop_round_robin_steps(n):
    """Reference schedule: index 0 stays, the others rotate one place per step."""
    m = n + n % 2
    players = list(range(m))
    steps = []
    for _ in range(m - 1):
        pairs = [tuple(sorted((players[i], players[m - 1 - i]))) for i in range(m // 2)]
        real = [pair for pair in pairs if pair[1] < n]
        if real:
            steps.append(([p for p, _ in real], [q for _, q in real]))
        players[1:] = players[-1:] + players[1:-1]
    return steps


class TestJacobi:
    def test_already_diagonal(self):
        dec = jacobi_eigendecompose(HermitianMatrix(np.diag([3.0, 1.0, 2.0])))
        np.testing.assert_array_equal(dec.eigenvalues, [1.0, 2.0, 3.0])
        # eigenvectors form the permutation sending sorted levels to their slots
        np.testing.assert_array_equal(
            dec.eigenvectors.real, np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        )

    def test_symmetric_two_by_two(self):
        dec = jacobi_eigendecompose(HermitianMatrix([[0, 1], [1, 0]]))
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)
        s = 1 / math.sqrt(2)
        np.testing.assert_allclose(dec.eigenvector(0), [s, -s], atol=1e-14)
        np.testing.assert_allclose(dec.eigenvector(1), [s, s], atol=1e-14)

    def test_weakly_coupled_two_by_two(self):
        dec = jacobi_eigendecompose(HermitianMatrix([[0, 0.1], [0.1, 2]]))
        lo, hi = two_by_two_eigenvalues(0.0, 0.1, 2.0)
        assert dec.eigenvalues[0] == pytest.approx(lo, abs=1e-14)
        assert dec.eigenvalues[1] == pytest.approx(hi, abs=1e-14)
        assert dec.eigenvalues[0] == pytest.approx(1 - math.sqrt(1.01), abs=1e-14)

    def test_complex_two_by_two_against_oracle(self):
        dec = jacobi_eigendecompose(HermitianMatrix([[1, 2 - 1j], [2 + 1j, -1]]))
        lo, hi = two_by_two_eigenvalues(1.0, 2 - 1j, -1.0)
        np.testing.assert_allclose(dec.eigenvalues, [lo, hi], atol=1e-14)

    def test_dimension_one(self):
        dec = jacobi_eigendecompose(HermitianMatrix([[-4.5]]))
        np.testing.assert_array_equal(dec.eigenvalues, [-4.5])
        np.testing.assert_array_equal(dec.eigenvectors, [[1.0 + 0j]])

    @pytest.mark.parametrize("seed", range(0, 100, 10))
    def test_matches_numpy_eigvalsh(self, seed):
        n = 2 + seed % 7
        matrix = random_hermitian(seed, n)
        dec = jacobi_eigendecompose(matrix)
        np.testing.assert_allclose(
            dec.eigenvalues, np.linalg.eigvalsh(matrix.array), atol=1e-12
        )

    def test_reconstruction_orthonormality_trace(self):
        for k in range(100):
            n = 2 + k % 7
            matrix = random_hermitian(1000 + k, n)
            dec = jacobi_eigendecompose(matrix)
            v, lam = dec.eigenvectors, dec.eigenvalues
            h_norm = np.linalg.norm(matrix.array)
            assert np.linalg.norm(matrix.array @ v - v * lam) <= 1e-10 * h_norm
            assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-10
            assert np.linalg.norm(v * lam @ v.conj().T - matrix.array) <= 1e-10 * h_norm
            trace = float(np.trace(matrix.array).real)
            assert abs(trace - lam.sum()) <= 1e-10 * max(abs(trace), np.abs(lam).sum())

    def test_eigenvalues_sorted_ascending(self):
        for k in range(20):
            dec = jacobi_eigendecompose(random_hermitian(k, 6))
            assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_phase_fixed_columns(self):
        for k in range(20):
            dec = jacobi_eigendecompose(random_hermitian(50 + k, 5))
            for m in range(5):
                col = dec.eigenvector(m)
                pivot = col[int(np.argmax(np.abs(col)))]
                assert pivot.imag == 0
                assert pivot.real > 0

    def test_determinism(self):
        matrix = random_hermitian(42, 7)
        a = jacobi_eigendecompose(matrix)
        b = jacobi_eigendecompose(matrix)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_shift_covariance(self):
        matrix = random_hermitian(9, 6)
        shifted = add_scaled(matrix, identity(6), 2.5)
        base = jacobi_eigendecompose(matrix).eigenvalues
        np.testing.assert_allclose(
            jacobi_eigendecompose(shifted).eigenvalues, base + 2.5, atol=1e-10
        )

    def test_stable_order_for_equal_eigenvalues(self):
        dec = jacobi_eigendecompose(HermitianMatrix(np.diag([1.0, 1.0])))
        np.testing.assert_array_equal(dec.eigenvalues, [1.0, 1.0])
        np.testing.assert_array_equal(dec.eigenvectors, np.eye(2, dtype=complex))

    def test_no_convergence_error(self):
        with pytest.raises(NoConvergence) as exc:
            _solo([[0, 1], [1, 0]], True, max_sweeps=0)
        assert exc.value.sweeps == 0

    @pytest.mark.parametrize("solve", [jacobi_eigendecompose], ids=["vectors"])
    def test_overflowing_norm_rejected(self, solve):
        # finite entries, but ||A||_F overflows: an infinite tolerance would
        # return the diagonal (-1, 1) instead of about (-1e200, 1e200)
        with pytest.raises(ValueError, match="matrix norm overflows"):
            solve(HermitianMatrix([[1.0, 1e200], [1e200, -1.0]]))

    @pytest.mark.parametrize("solve", [jacobi_eigendecompose], ids=["vectors"])
    def test_underflowing_norm_rejected(self, solve):
        # ||A||_F squares into 0: a zero tolerance and off-diagonal norm would
        # return the diagonal (0, 0) instead of (-1e-200, 1e-200)
        with pytest.raises(ValueError, match="matrix norm underflows"):
            solve(HermitianMatrix([[0.0, 1e-200], [1e-200, 0.0]]))

    def test_norm_just_above_underflow_is_solved(self):
        # ||A||_F passes the underflow check, but unscaled the off-diagonal
        # entries square to 0: taken as converged, the identity vectors would
        # leave a residual of 5e-10 ||A||_F
        tiny = np.array([[1.5e-154, 1e-163], [1e-163, -1.5e-154]])
        dec = jacobi_eigendecompose(HermitianMatrix(tiny))
        scale = 2.0**520  # exact; keeps the gates' own squares normal
        scaled = SpectralDecomposition(scale * dec.eigenvalues, dec.eigenvectors)
        _assert_gates(HermitianMatrix(scale * tiny), scaled)
        stack = _stack([random_hermitian(97, 2).array, tiny])
        assert _diagonalize(stack, None, 100)[1] == 1

    def test_underflowing_stack_member_rejected_before_any_rotation(self):
        dense = random_hermitian(96, 6).array
        stacks = [_stack([dense, 1e-160 * dense])]
        # the same check on a strided view of a stack and on a Fortran-ordered matrix
        for kind in ("strided-stack", "fortran"):
            _, work, _, _ = _layout(kind, False)
            if work.ndim == 3:
                work[..., 1] *= 1e-160  # the view's middle member
            else:
                work *= 1e-160
            stacks.append(work)
        for stack in stacks:
            before = stack.copy()
            with pytest.raises(ValueError, match="matrix norm underflows"):
                _diagonalize(stack, None, 100)
            assert np.array_equal(stack, before)

    def test_zero_matrix(self):
        dec = jacobi_eigendecompose(HermitianMatrix(np.zeros((3, 3))))
        np.testing.assert_array_equal(dec.eigenvalues, np.zeros(3))

    @pytest.mark.parametrize("n", [16, 33, 64])
    def test_large_dense_against_numpy(self, n):
        matrix = random_hermitian(300 + n, n)
        dec = jacobi_eigendecompose(matrix)
        lam, v = dec.eigenvalues, dec.eigenvectors
        h_norm = np.linalg.norm(matrix.array)
        spectral_norm = np.linalg.norm(matrix.array, 2)
        np.testing.assert_allclose(
            lam, np.linalg.eigvalsh(matrix.array), rtol=0, atol=1e-12 * max(1.0, spectral_norm)
        )
        assert np.linalg.norm(matrix.array @ v - v * lam) <= 1e-10 * h_norm
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-10
        again = jacobi_eigendecompose(matrix)
        assert np.array_equal(again.eigenvalues, lam)
        assert np.array_equal(again.eigenvectors, v)

    @pytest.mark.parametrize(
        "entries",
        [
            # tridiagonal: most pairs of every step start at exactly 0
            np.diag(np.arange(20.0)) + np.diag(np.full(19, 0.5 + 0.25j), 1)
            + np.diag(np.full(19, 0.5 - 0.25j), -1),
            # block diagonal: pairs across the blocks stay exactly 0
            np.kron(np.eye(5), [[1.0, 2.0 - 1j, 0.5], [2.0 + 1j, -1.0, 0.3j], [0.5, -0.3j, 4.0]])
            + np.diag(np.arange(15.0) / 10),
        ],
        ids=["tridiagonal", "block-diagonal"],
    )
    def test_sparse_against_numpy(self, entries):
        matrix = HermitianMatrix(entries)
        dec = jacobi_eigendecompose(matrix)
        lam, v = dec.eigenvalues, dec.eigenvectors
        np.testing.assert_allclose(lam, np.linalg.eigvalsh(matrix.array), rtol=0, atol=1e-12)
        assert np.linalg.norm(matrix.array @ v - v * lam) <= 1e-10 * np.linalg.norm(entries)

    def test_eigenvalues_only_no_convergence_error(self):
        with pytest.raises(NoConvergence) as exc:
            _diagonalize(np.array([[0, 1], [1, 0]], dtype=np.complex128), None, 0)
        assert exc.value.sweeps == 0

    @pytest.mark.parametrize("n", [*range(1, 10), 32, 33])
    def test_round_robin_schedule(self, n):
        ps, qs = _round_robin_steps(n)
        assert ps.shape == qs.shape == (n - 1 + n % 2 if n > 1 else 0, n // 2)
        # the same steps, pairs in the same order, as one rotation per step in a loop
        reference = _loop_round_robin_steps(n)
        assert [(p.tolist(), q.tolist()) for p, q in zip(ps, qs)] == reference
        seen = []
        for p, q in zip(ps, qs):
            assert np.all(p < q)
            step = np.concatenate([p, q])
            assert len(set(step.tolist())) == step.size  # disjoint within the step
            seen += zip(p.tolist(), q.tolist())
        assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]


def _solo(matrix, with_vectors, max_sweeps=100):
    """``_diagonalize`` on one matrix: (work, vectors or None, sweeps)."""
    work = np.array(matrix, dtype=np.complex128)
    vecs = np.eye(work.shape[0], dtype=np.complex128) if with_vectors else None
    return work, vecs, _diagonalize(work, vecs, max_sweeps)


def _stack(matrices):
    """An (N, N, B) stack, member b at ``[..., b]``."""
    return np.stack([np.asarray(m, dtype=np.complex128) for m in matrices], axis=-1)


class TestStackedJacobi:
    """``_diagonalize`` on an (N, N, B) stack against one solve per member."""

    # Sweep counts of the single-matrix solve at N = 1, 2, 3, 16, 33 before it
    # learned stacks; the single-matrix path must keep them.
    SOLO_SWEEPS = {1: 0, 2: 1, 3: 3, 16: 6, 33: 7}

    @pytest.mark.parametrize("n", sorted(SOLO_SWEEPS))
    @pytest.mark.parametrize("with_vectors", [False, True], ids=["values", "vectors"])
    def test_single_matrix_unchanged(self, n, with_vectors):
        matrix = random_hermitian(500 + n, n).array
        work, vecs, sweeps = _solo(matrix, with_vectors)
        assert type(sweeps) is int and sweeps == self.SOLO_SWEEPS[n]
        # the same matrix as the middle member of a stack ends bit-identical
        stack = _stack([random_hermitian(600 + n, n).array, matrix, np.diag(np.arange(n, 0, -1.0))])
        stack_vecs = _stack([np.eye(n)] * 3) if with_vectors else None
        stack_sweeps = _diagonalize(stack, stack_vecs, 100)
        assert stack_sweeps[1] == sweeps
        assert np.array_equal(stack[..., 1], work)
        if with_vectors:
            assert np.array_equal(stack_vecs[..., 1], vecs)

    @pytest.mark.parametrize("with_vectors", [False, True], ids=["values", "vectors"])
    def test_members_with_different_sweep_counts(self, with_vectors):
        # A diagonal member, a nearly diagonal one and dense ones of very
        # different norms: members drop out after different sweeps, so the
        # others are gathered, and each keeps its own tolerance.
        n = 12
        near = np.diag(np.arange(n, dtype=float)) + 1e-3 * random_hermitian(71, n).array
        matrices = [random_hermitian(70, n).array, np.diag(np.arange(n, 0, -1.0)), near,
                    random_hermitian(72, n, 0.05).array, random_hermitian(73, n, 1e6).array]
        stack = _stack(matrices)
        stack_vecs = _stack([np.eye(n)] * len(matrices)) if with_vectors else None
        sweeps = _diagonalize(stack, stack_vecs, 100)
        assert sweeps.shape == (len(matrices),)
        assert sweeps[1] == 0
        assert len(set(sweeps.tolist())) >= 3
        for b, matrix in enumerate(matrices):
            work, vecs, solo_sweeps = _solo(matrix, with_vectors)
            assert sweeps[b] == solo_sweeps
            assert np.array_equal(stack[..., b], work)
            if with_vectors:
                assert np.array_equal(stack_vecs[..., b], vecs)

    def test_diagonal_member_takes_no_sweep(self):
        diagonal = np.diag([2.0, -1.0, 0.5 + 0j])
        stack = _stack([diagonal, random_hermitian(80, 3).array])
        sweeps = _diagonalize(stack, None, 100)
        assert sweeps[0] == 0 and sweeps[1] > 0
        assert np.array_equal(stack[..., 0], diagonal)

    def test_all_diagonal_stack_takes_no_sweep(self):
        stack = _stack([np.diag([1.0, 2.0]), np.diag([3.0, -3.0])])
        assert _diagonalize(stack, None, 0).tolist() == [0, 0]

    def test_overflowing_member_rejected_before_any_rotation(self):
        dense = random_hermitian(95, 6).array
        stack = _stack([dense, 1e154 * dense])
        before = stack.copy()
        with pytest.raises(ValueError, match="matrix norm overflows"):
            _diagonalize(stack, None, 100)
        assert np.array_equal(stack, before)

    def test_member_that_cannot_converge(self):
        dense = random_hermitian(90, 8).array
        with pytest.raises(NoConvergence) as solo:
            _solo(dense, False, max_sweeps=2)
        stack = _stack([np.diag(np.arange(8.0)), dense, dense[::-1, ::-1]])
        with pytest.raises(NoConvergence) as stacked:
            _diagonalize(stack, None, 2)
        # the first member above its tolerance, with its own off-diagonal norm
        assert stacked.value.sweeps == solo.value.sweeps == 2
        assert stacked.value.off_norm == solo.value.off_norm


def _layout(kind, with_vectors):
    """``work`` and ``vecs`` (or None) laid out as ``kind`` says, with the
    array each one is a view of (itself when it is no view)."""
    n = 9
    if kind == "strided-stack":
        base = _stack([random_hermitian(110 + b, n).array for b in range(5)])
        base_vecs = _stack([np.eye(n)] * 5)
        step = (..., slice(None, None, 2))  # members 0, 2 and 4
        return base, base[step], base_vecs, base_vecs[step] if with_vectors else None
    matrix = random_hermitian(110, n).array
    eye = np.eye(n, dtype=np.complex128)
    if kind == "fortran":
        work, vecs = np.asfortranarray(matrix), np.asfortranarray(eye)
        return work, work, vecs, vecs if with_vectors else None
    work_t, vecs_t = np.ascontiguousarray(matrix.T), eye.T.copy()
    return work_t, work_t.T, vecs_t, vecs_t.T if with_vectors else None


class TestSweepLayout:
    """``_diagonalize`` works on a transposed C-contiguous copy of its input,
    so the caller's memory layout must not change a bit of the result."""

    @pytest.mark.parametrize("with_vectors", [False, True], ids=["values", "vectors"])
    @pytest.mark.parametrize("kind", ["fortran", "transposed", "strided-stack"])
    def test_any_layout_bit_identical_to_c_order(self, kind, with_vectors):
        base, work, base_vecs, vecs = _layout(kind, with_vectors)
        assert not work.flags.c_contiguous
        assert vecs is None or not vecs.flags.c_contiguous
        untouched = base.copy(), base_vecs.copy()
        c_work = np.array(work, order="C")
        c_vecs = None if vecs is None else np.array(vecs, order="C")
        c_sweeps = _diagonalize(c_work, c_vecs, 100)
        sweeps = _diagonalize(work, vecs, 100)
        assert np.all(np.asarray(sweeps) > 0)
        assert np.array_equal(sweeps, c_sweeps)
        # bit for bit (tobytes tells -0.0 from 0.0), and in the caller's arrays
        assert np.ascontiguousarray(work).tobytes() == c_work.tobytes()
        if vecs is not None:
            assert np.ascontiguousarray(vecs).tobytes() == c_vecs.tobytes()
        assert np.shares_memory(work, base) and (vecs is None or np.shares_memory(vecs, base_vecs))
        if kind == "strided-stack":  # members left out of the view stay as they were
            assert np.array_equal(base[..., 1::2], untouched[0][..., 1::2])
            assert np.array_equal(base_vecs[..., 1::2], untouched[1][..., 1::2])

    @pytest.mark.parametrize("kind", ["fortran", "transposed", "strided-stack"])
    def test_norms_match_per_member_reference(self, kind):
        # each member's norms equal np.linalg.norm of its own C-ordered copy, bit for bit
        _, work, _, _ = _layout(kind, False)
        stack = work if work.ndim == 3 else work[..., None]
        frobenius, off = eigensolver._norms(stack)
        for b in range(stack.shape[-1]):
            member = np.ascontiguousarray(stack[..., b])
            assert frobenius[b] == np.linalg.norm(member)
            assert off[b] == np.linalg.norm(member - np.diag(np.diag(member)))

    def test_vectors_accumulate_on_the_right(self):
        n = 12
        matrix = random_hermitian(120, n).array
        work, phi, _ = _solo(matrix, True)
        # phi diagonalizes the matrix, which an accumulation of J^T or J^H would not
        residual = matrix @ phi - phi * np.diag(work).real
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(matrix)
        # started from a unitary U, the rotations give U @ phi, not phi @ U
        rng = np.random.default_rng(121)
        u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        started = u.copy()
        _diagonalize(np.array(matrix), started, 100)
        np.testing.assert_allclose(started, u @ phi, rtol=0, atol=1e-12)
        assert np.linalg.norm(started - phi @ u) > 1e-3


def _prescribed(levels, seed=0):
    """``U diag(E) U^H`` with U the Q factor of a seeded complex Gaussian matrix."""
    levels = np.asarray(levels, dtype=float)
    n = levels.size
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return HermitianMatrix((u * levels) @ u.conj().T)


_BLOCK = [[1.0, 2.0 - 1j, 0.5], [2.0 + 1j, -1.0, 0.3j], [0.5, -0.3j, 4.0]]
# Wilkinson's W21+: pairs of eigenvalues that agree to about 1e-14.
_WILKINSON = np.diag(np.abs(np.arange(-10.0, 11.0))) + np.eye(21, k=1) + np.eye(21, k=-1)
HARD_SPECTRA = {
    "triple": lambda: _prescribed([-1.0, 0.5, 0.5, 0.5, 2.0, 3.0], seed=1),
    "split-1e-9": lambda: _prescribed([-1.0, 0.5, 0.5 + 1e-9, 2.0, 3.0, 0.5 - 1e-9], seed=2),
    "six-4-fold": lambda: _prescribed(np.repeat(np.arange(6.0) - 2.5, 4), seed=3),
    "block-repeats": lambda: HermitianMatrix(np.kron(np.eye(5), _BLOCK)),
    "identity-8": lambda: identity(8),
    "sigma-x": lambda: HermitianMatrix([[0.0, 1.0], [1.0, 0.0]]),
    "scale-1e100": lambda: HermitianMatrix(1e100 * random_hermitian(7, 12).array),
    "scale-1e-100": lambda: HermitianMatrix(1e-100 * random_hermitian(7, 12).array),
    "wilkinson-21": lambda: HermitianMatrix(_WILKINSON),
    # A sub-column whose squares are subnormal: its reflector would not be unitary.
    "coupling-1e-160": lambda: HermitianMatrix([[1.0, 1e-160, 0.0], [1e-160, 2.0, 1.0],
                                                [0.0, 1.0, 3.0]]),
    **{
        f"dense-{n}": (lambda n=n: random_hermitian(700 + n, n))
        for n in [*range(1, 10), 16, 33, 64, 128]
    },
}


def _assert_gates(matrix, dec):
    """Residual and orthogonality within 1e-10, eigenvalues within
    ``1e-12 * max(1, ||H||_2)`` of numpy's ``eigvalsh``."""
    h = matrix.array
    lam, v = dec.eigenvalues, dec.eigenvectors
    np.testing.assert_allclose(
        lam, np.linalg.eigvalsh(h), rtol=0, atol=1e-12 * max(1.0, np.linalg.norm(h, 2))
    )
    assert np.linalg.norm(h @ v - v * lam) <= 1e-10 * np.linalg.norm(h)
    assert np.linalg.norm(v.conj().T @ v - np.eye(matrix.dim)) <= 1e-10


def _counting_finish(monkeypatch):
    """Record the sweep count of every ``_diagonalize`` call."""
    diagonalize = eigensolver._diagonalize
    sweeps = []

    def counting(work, vecs, max_sweeps):
        sweeps.append(diagonalize(work, vecs, max_sweeps))
        return sweeps[-1]

    monkeypatch.setattr(eigensolver, "_diagonalize", counting)
    return sweeps


class TestStartBasis:
    """The cold solve starts from a Householder/multisection basis and Jacobi
    only finishes it."""

    @pytest.mark.parametrize("name", HARD_SPECTRA)
    def test_gates_and_repeatability(self, monkeypatch, name):
        matrix = HARD_SPECTRA[name]()
        sweeps = _counting_finish(monkeypatch)
        dec = jacobi_eigendecompose(matrix)
        _assert_gates(matrix, dec)
        assert sweeps == [0]  # the start already meets the tolerance
        again = jacobi_eigendecompose(matrix)
        assert np.array_equal(again.eigenvalues, dec.eigenvalues)
        assert np.array_equal(again.eigenvectors, dec.eigenvectors)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.integers(-60, 60),
    )
    def test_random_hermitian_property(self, n, seed, exponent):
        matrix = HermitianMatrix(2.0**exponent * random_hermitian(seed, n).array)
        _assert_gates(matrix, jacobi_eigendecompose(matrix))

    @settings(max_examples=20, deadline=None)
    @given(levels=st.lists(st.integers(-3, 3), min_size=1, max_size=40), seed=st.integers(0, 99))
    def test_degenerate_spectra_property(self, levels, seed):
        matrix = _prescribed(levels, seed)
        _assert_gates(matrix, jacobi_eigendecompose(matrix))

    @pytest.mark.parametrize("n", [5, 24])
    def test_poor_start_is_finished_by_sweeps(self, monkeypatch, n):
        # A random unitary in place of the start: the finish must rotate until
        # the same criterion holds, never return the poor start as it is.
        def random_unitary(a):
            rng = np.random.default_rng(n)
            return np.linalg.qr(rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape))[0]

        monkeypatch.setattr(eigensolver, "_start_basis", random_unitary)
        sweeps = _counting_finish(monkeypatch)
        matrix = random_hermitian(800 + n, n)
        _assert_gates(matrix, jacobi_eigendecompose(matrix))
        assert sweeps[0] >= 1

    def test_diagonal_input_skips_the_start(self, monkeypatch):
        def no_start(a):
            raise AssertionError("the start ran on a diagonal matrix")

        monkeypatch.setattr(eigensolver, "_start_basis", no_start)
        dec = jacobi_eigendecompose(HermitianMatrix(np.diag([2.0, -1.0, 0.5])))
        np.testing.assert_array_equal(dec.eigenvalues, [-1.0, 0.5, 2.0])

    def test_non_finite_start_rejected(self, monkeypatch):
        monkeypatch.setattr(eigensolver, "_start_basis", lambda a: np.full(a.shape, np.nan + 0j))
        with pytest.raises(ValueError, match="start basis is not finite"):
            jacobi_eigendecompose(random_hermitian(5, 4))


class TestFixPhase:
    """``_fix_phases`` on orthonormal bases, one column per vector."""

    def test_sign_flip(self):
        basis = np.array([[-1, 0], [0, 1]], dtype=np.complex128)
        np.testing.assert_array_equal(_fix_phases(basis), np.eye(2))

    def test_rotate_by_i(self):
        basis = np.array([[0, 1j], [-1j, 0]])
        np.testing.assert_allclose(_fix_phases(basis), [[0, 1], [1, 0]], atol=1e-16)

    def test_positive_dominant_unchanged(self):
        basis = np.array([[0.6j, 0.8], [0.8, 0.6j]])
        np.testing.assert_array_equal(_fix_phases(basis), basis)

    def test_tie_breaks_to_lowest_index(self):
        s = math.sqrt(0.5)
        out = _fix_phases(np.array([[-s, s], [s, s]], dtype=np.complex128))
        np.testing.assert_allclose(out, [[s, s], [-s, s]])

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        basis = np.linalg.qr(raw)[0]
        np.testing.assert_allclose(
            np.linalg.norm(_fix_phases(basis), axis=0), np.ones(6), rtol=1e-15
        )


class TestSpectralDecomposition:
    def test_synthesize_reconstructs_columns(self):
        dec = jacobi_eigendecompose(random_hermitian(4, 5))
        b = np.zeros(5, dtype=complex)
        b[2] = 1.0
        np.testing.assert_array_equal(dec.synthesize(b), dec.eigenvector(2))

    def test_shape_validation(self):
        from qperturb.errors import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            SpectralDecomposition(np.zeros(2), np.zeros((3, 3)))
