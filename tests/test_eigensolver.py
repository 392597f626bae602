import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperturb import eigensolver, verify
from qperturb.eigensolver import (
    SpectralDecomposition,
    _fix_phases,
    _round_robin_steps,
    jacobi_eigendecompose,
)
from qperturb.errors import DimensionMismatch, NoConvergence
from qperturb.models import random_hermitian
from qperturb.numkernel import HermitianMatrix, add_scaled


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
        shifted = add_scaled(matrix, HermitianMatrix(np.eye(6)), 2.5)
        base = jacobi_eigendecompose(matrix).eigenvalues
        np.testing.assert_allclose(
            jacobi_eigendecompose(shifted).eigenvalues, base + 2.5, atol=1e-10
        )

    def test_stable_order_for_equal_eigenvalues(self):
        dec = jacobi_eigendecompose(HermitianMatrix(np.diag([1.0, 1.0])))
        np.testing.assert_array_equal(dec.eigenvalues, [1.0, 1.0])
        np.testing.assert_array_equal(dec.eigenvectors, np.eye(2, dtype=complex))

    def test_no_convergence_error(self, monkeypatch):
        monkeypatch.setattr(eigensolver, "_start_basis", _identity_start)
        with pytest.raises(NoConvergence) as exc:
            jacobi_eigendecompose(HermitianMatrix([[0, 1], [1, 0]]), max_sweeps=0)
        assert exc.value.sweeps == 0

    def test_norm_whose_squares_overflow_is_solved(self):
        # ||A||_F overflows unscaled: an infinite tolerance would return the
        # diagonal (-1, 1) instead of about (-1e200, 1e200)
        _assert_solved_at_scale(np.array([[1.0, 1e200], [1e200, -1.0]]), 665)

    def test_norm_whose_squares_underflow_is_solved(self):
        # ||A||_F squares into 0 unscaled: a zero tolerance and off-diagonal
        # norm would return the diagonal (0, 0) instead of (-1e-200, 1e-200)
        _assert_solved_at_scale(np.array([[0.0, 1e-200], [1e-200, 0.0]]), -664)

    def test_overflowing_eigenvalue_rejected(self):
        # The eigenvalues are 0 and 2e308: the larger one is past the
        # largest float, so no spectrum can be returned (and no warning either).
        with pytest.raises(ValueError, match="^eigenvalues overflow: "):
            jacobi_eigendecompose(HermitianMatrix(np.full((2, 2), 1e308)))

    def test_norm_just_above_underflow_is_solved(self, monkeypatch):
        # ||A||_F passes the underflow check, but unscaled the off-diagonal
        # entries square to 0: taken as converged, the identity vectors would
        # leave a residual of 5e-10 ||A||_F
        tiny = np.array([[1.5e-154, 1e-163], [1e-163, -1.5e-154]])
        dec = jacobi_eigendecompose(HermitianMatrix(tiny))
        scale = 2.0**520  # exact; keeps the gates' own squares normal
        scaled = SpectralDecomposition(scale * dec.eigenvalues, dec.eigenvectors)
        _assert_gates(HermitianMatrix(scale * tiny), scaled)
        # swept from the identity, it takes one sweep
        monkeypatch.setattr(eigensolver, "_start_basis", _identity_start)
        calls = _counting_finish(monkeypatch)
        eigensolver._eigensystems(_stack([random_hermitian(97, 2).array, tiny]))
        assert calls[0][1] == 1

    def test_underflowing_stack_member_rejected_before_any_rotation(self):
        # A member whose squares underflow (entries near 2^-600) is solved,
        # not refused: each member is solved at its own largest entry's
        # scale, so it gives the dense member's bytes, its eigenvalues
        # scaled by the same power of two, and the stack is not written.
        dense = random_hermitian(96, 6).array
        stack = _stack([dense, 2.0**-600 * dense])
        before = stack.copy()
        values, vectors = eigensolver._eigensystems(stack)
        assert values[1].tobytes() == np.ldexp(values[0], -600).tobytes()
        assert _member_vectors(stack, 1).tobytes() == vectors.tobytes()
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

    @pytest.mark.parametrize("n", [*range(1, 10), 32, 33])
    def test_round_robin_schedule(self, n):
        steps = _round_robin_steps(n)
        assert steps.shape == (n - 1 + n % 2 if n > 1 else 0, 2, n // 2)
        ps, qs = steps[:, 0], steps[:, 1]
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


def _assert_solved_at_scale(entries, k):
    """The solve of ``entries`` against ``eigvalsh`` of the entries scaled by
    the exact 2^-k: eigenvalues within 1e-12 relative, scaled back, and the
    eigenvectors of the scaled matrix bit for bit."""
    dec = jacobi_eigendecompose(HermitianMatrix(entries))
    scaled = np.ldexp(entries, -k)
    expected = np.ldexp(np.linalg.eigvalsh(scaled), k)
    np.testing.assert_allclose(dec.eigenvalues, expected, rtol=1e-12, atol=0)
    unit = jacobi_eigendecompose(HermitianMatrix(scaled))
    assert dec.eigenvectors.tobytes() == unit.eigenvectors.tobytes()


def _stack(matrices):
    """A (B, N, N) stack, member b at ``[b]``."""
    return np.stack([np.asarray(m, dtype=np.complex128) for m in matrices])


def _member_vectors(stack, b):
    """Member b's eigenvectors from ``_eigensystems``, which returns only the
    first member's: those of the stack rolled so that member b comes first."""
    return eigensolver._eigensystems(np.roll(stack, -b, axis=0))[1]


def _identity_start(a):
    """In place of the start basis: identities, so the finish sweeps from them."""
    return np.broadcast_to(np.eye(a.shape[1], dtype=np.complex128), a.shape).copy()


def _no_start(a):
    raise AssertionError("the start ran")


def _counting_finish(monkeypatch):
    """Record, for every ``_diagonalize`` call, the sweep count of each
    member it finishes (the members above their tolerance)."""
    diagonalize = eigensolver._diagonalize
    calls = []

    def counting(*args):
        done = diagonalize(*args)
        calls.append(done.tolist())
        return done

    monkeypatch.setattr(eigensolver, "_diagonalize", counting)
    return calls


class TestStackedJacobi:
    """The finish on a (B, N, N) stack against one solve per member, with
    the start patched to the identity so that the members sweep from it."""

    # Sweep counts of the single-matrix solve at N = 1, 2, 3, 16, 33 before it
    # learned stacks; the single-matrix path must keep them.
    SOLO_SWEEPS = {1: 0, 2: 1, 3: 3, 16: 6, 33: 7}

    @pytest.mark.parametrize("n", sorted(SOLO_SWEEPS))
    @pytest.mark.parametrize("solve", [jacobi_eigendecompose], ids=["vectors"])
    def test_single_matrix_unchanged(self, monkeypatch, n, solve):
        monkeypatch.setattr(eigensolver, "_start_basis", _identity_start)
        calls = _counting_finish(monkeypatch)
        matrix = random_hermitian(500 + n, n)
        solo = solve(matrix)
        finished = [[self.SOLO_SWEEPS[n]]] if n > 1 else []  # 1x1 already meets the tolerance
        assert calls == finished
        # the same matrix as the middle member of a stack ends bit-identical
        calls.clear()
        stack = _stack([random_hermitian(600 + n, n).array, matrix.array,
                        np.diag(np.arange(n, 0, -1.0))])
        values, _ = eigensolver._eigensystems(stack)
        assert [sweeps[1:] for sweeps in calls] == finished  # after the dense member 0
        assert values[1].tobytes() == solo.eigenvalues.tobytes()
        assert _member_vectors(stack, 1).tobytes() == solo.eigenvectors.tobytes()

    def test_members_with_different_sweep_counts(self, monkeypatch):
        # A diagonal member, a nearly diagonal one and dense ones of very
        # different norms: members drop out after different sweeps, so the
        # others are gathered, and each keeps its own tolerance.
        monkeypatch.setattr(eigensolver, "_start_basis", _identity_start)
        calls = _counting_finish(monkeypatch)
        n = 12
        near = np.diag(np.arange(n, dtype=float)) + 1e-3 * random_hermitian(71, n).array
        matrices = [random_hermitian(70, n).array, np.diag(np.arange(n, 0, -1.0)), near,
                    random_hermitian(72, n, 0.05).array, random_hermitian(73, n, 1e6).array]
        stack = _stack(matrices)
        values, _ = eigensolver._eigensystems(stack)
        # one call for every member but the diagonal one
        (sweeps,) = calls
        assert len(sweeps) == len(matrices) - 1
        assert len(set(sweeps)) >= 3
        vectors = [_member_vectors(stack, b) for b in range(len(matrices))]
        calls.clear()
        for b, matrix in enumerate(matrices):
            solo = jacobi_eigendecompose(HermitianMatrix(matrix))
            assert values[b].tobytes() == solo.eigenvalues.tobytes()
            assert vectors[b].tobytes() == solo.eigenvectors.tobytes()
        assert calls == [[count] for count in sweeps]

    def test_diagonal_member_takes_no_sweep(self, monkeypatch):
        monkeypatch.setattr(eigensolver, "_start_basis", _identity_start)
        calls = _counting_finish(monkeypatch)
        diagonal = np.diag([2.0, -1.0, 0.5])
        values, vectors = eigensolver._eigensystems(_stack([diagonal, random_hermitian(80, 3).array]))
        # only the dense member reaches the finish, and it sweeps
        assert len(calls) == 1 and len(calls[0]) == 1 and calls[0][0] > 0
        assert values[0].tolist() == [-1.0, 0.5, 2.0]
        assert np.array_equal(vectors, np.eye(3)[:, [1, 2, 0]])

    def test_all_diagonal_stack_takes_no_sweep(self, monkeypatch):
        calls = _counting_finish(monkeypatch)
        values, _ = eigensolver._eigensystems(_stack([np.diag([1.0, 2.0]), np.diag([3.0, -3.0])]), 0)
        assert values.tolist() == [[1.0, 2.0], [-3.0, 3.0]]
        assert calls == []

    def test_overflowing_member_rejected_before_any_rotation(self):
        # A member whose squares overflow (entries near 2^600) is solved
        # like any other; only a member whose eigenvalues pass the largest
        # float is refused, and the stack is not written either way.
        dense = random_hermitian(95, 6).array
        stack = _stack([dense, 2.0**600 * dense])
        values, vectors = eigensolver._eigensystems(stack)
        assert values[1].tobytes() == np.ldexp(values[0], 600).tobytes()
        assert _member_vectors(stack, 1).tobytes() == vectors.tobytes()
        stack = _stack([dense, np.full((6, 6), 1e308)])  # an eigenvalue of 6e308
        before = stack.copy()
        with pytest.raises(ValueError, match="^eigenvalues overflow: "):
            eigensolver._eigensystems(stack)
        assert np.array_equal(stack, before)

    def test_member_that_cannot_converge(self, monkeypatch):
        monkeypatch.setattr(eigensolver, "_start_basis", _identity_start)
        dense = random_hermitian(90, 8).array
        with pytest.raises(NoConvergence) as solo:
            jacobi_eigendecompose(HermitianMatrix(dense), max_sweeps=2)
        stack = _stack([np.diag(np.arange(8.0)), dense, dense[::-1, ::-1]])
        with pytest.raises(NoConvergence) as stacked:
            eigensolver._eigensystems(stack, 2)
        # the first member above its tolerance, with its own off-diagonal norm
        assert stacked.value.sweeps == solo.value.sweeps == 2
        assert stacked.value.off_norm == solo.value.off_norm
        # in the matrix's own units, not those of its scaled copy
        with pytest.raises(NoConvergence) as small:
            jacobi_eigendecompose(HermitianMatrix(2.0**-40 * dense), max_sweeps=2)
        assert small.value.off_norm == 2.0**-40 * solo.value.off_norm


def _power_of_two_range(a, eigenvalues):
    """The k in [-1000, 1000] for which every nonzero real and imaginary
    part of 2^k a is a normal float and every 2^k eigenvalue is finite."""
    parts = np.abs(np.concatenate([a.real.ravel(), a.imag.ravel()]))
    smallest = np.frexp(parts[parts > 0].min())[1]  # parts >= 2^(smallest - 1)
    largest = np.frexp(np.abs(eigenvalues).max())[1]  # |eigenvalues| < 2^largest
    return np.arange(max(-1000, -1021 - smallest), min(1000, 1024 - largest) + 1)


class TestPowerOfTwoScaling:
    """A solve scales each member by the power of two of its largest part,
    so 2^k A gives A's eigenvectors and 2^k times its eigenvalues, bit for
    bit, wherever the entries stay normal and the eigenvalues finite."""

    @pytest.mark.parametrize("n", [2, 5, 24])
    def test_every_power_of_two(self, n):
        a = random_hermitian(40 + n, n).array
        base = jacobi_eigendecompose(HermitianMatrix(a))
        ks = _power_of_two_range(a, base.eigenvalues)
        assert ks[0] < -990 and ks[-1] > 990
        # Every k's eigenvalues from stacks (each member solves as on its
        # own); eigenvectors from single solves at every 16th k and the ends.
        for chunk in np.array_split(ks, 8):
            values, _ = eigensolver._eigensystems(a * np.ldexp(1.0, chunk)[:, None, None])
            assert values.tobytes() == np.ldexp(base.eigenvalues, chunk[:, None]).tobytes()
        for k in [*ks[::16], ks[-1]]:
            dec = jacobi_eigendecompose(HermitianMatrix(a * 2.0**k))
            assert dec.eigenvalues.tobytes() == np.ldexp(base.eigenvalues, k).tobytes()
            assert dec.eigenvectors.tobytes() == base.eigenvectors.tobytes()

    def test_stack_of_mixed_scales_gives_solo_bytes(self):
        matrices = [random_hermitian(97, 8).array, 2.0**-600 * random_hermitian(98, 8).array,
                    random_hermitian(99, 8).array, 2.0**600 * random_hermitian(100, 8).array]
        stack = _stack(matrices)
        values, _ = eigensolver._eigensystems(stack)
        for b, matrix in enumerate(matrices):
            solo = jacobi_eigendecompose(HermitianMatrix(matrix))
            assert values[b].tobytes() == solo.eigenvalues.tobytes()
            assert _member_vectors(stack, b).tobytes() == solo.eigenvectors.tobytes()


def _layout(kind):
    """A stack that is not C-contiguous, laid out as ``kind`` says."""
    n = 9
    if kind == "strided-stack":  # members 0, 2 and 4 of a stack
        return _stack([random_hermitian(110 + b, n).array for b in range(5)])[::2]
    matrix = random_hermitian(110, n).array
    if kind == "fortran":
        return np.asfortranarray(matrix)[None]
    return np.ascontiguousarray(matrix.T).T[None]


class TestSweepLayout:
    """Each member's norms read its own C-ordered entries whatever the
    stack's layout, and the finish accumulates its rotations on the right."""

    @pytest.mark.parametrize("kind", ["fortran", "transposed", "strided-stack"])
    def test_norms_match_per_member_reference(self, kind):
        # each member's norms equal np.linalg.norm of its own C-ordered copy, bit for bit
        stack = _layout(kind)
        assert not stack.flags.c_contiguous
        frobenius, off = eigensolver._norms(stack)
        for b in range(len(stack)):
            member = np.ascontiguousarray(stack[b])
            assert frobenius[b] == np.linalg.norm(member)
            assert off[b] == np.linalg.norm(member - np.diag(np.diag(member)))

    def test_vectors_accumulate_on_the_right(self, monkeypatch):
        # Swept from the identity and from a random unitary U, the result
        # diagonalizes the matrix only if each rotation J is accumulated as
        # Phi <- Phi J: J^T, J^H or J Phi would not.
        n = 12
        matrix = random_hermitian(120, n).array
        rng = np.random.default_rng(121)
        u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        calls = _counting_finish(monkeypatch)
        for start in (np.eye(n, dtype=np.complex128), u):
            monkeypatch.setattr(eigensolver, "_start_basis", lambda a, start=start: start[None].copy())
            dec = jacobi_eigendecompose(HermitianMatrix(matrix))
            residual = matrix @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
            assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(matrix)
        assert len(calls) == 2 and all(sweeps[0] > 0 for sweeps in calls)


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
    "identity-8": lambda: HermitianMatrix(np.eye(8)),
    "sigma-x": lambda: HermitianMatrix([[0.0, 1.0], [1.0, 0.0]]),
    "scale-1e100": lambda: HermitianMatrix(1e100 * random_hermitian(7, 12).array),
    "scale-1e-100": lambda: HermitianMatrix(1e-100 * random_hermitian(7, 12).array),
    "wilkinson-21": lambda: HermitianMatrix(_WILKINSON),
    # One eigenvalue next to an end of its bracket: every Newton step
    # overshoots past that end and bisects, so the entry goes back to the
    # passes unpolished (see TestMultisection).
    "newton-fails": lambda: add_scaled(
        random_hermitian(33, 12), random_hermitian(34, 12, 0.05), 3e-3
    ),
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


class TestStartBasis:
    """The cold solve starts from a Householder/multisection basis and Jacobi
    only finishes it."""

    @pytest.mark.parametrize("name", HARD_SPECTRA)
    def test_gates_and_repeatability(self, monkeypatch, name):
        matrix = HARD_SPECTRA[name]()
        calls = _counting_finish(monkeypatch)
        dec = jacobi_eigendecompose(matrix)
        _assert_gates(matrix, dec)
        assert calls in ([], [[0]])  # the start (or the matrix) already meets the tolerance
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
        with pytest.MonkeyPatch.context() as patch:
            calls = _counting_finish(patch)
            _assert_gates(matrix, jacobi_eigendecompose(matrix))
        assert calls in ([], [[0]])  # the start (or the matrix) already meets the tolerance

    @settings(max_examples=20, deadline=None)
    @given(levels=st.lists(st.integers(-3, 3), min_size=1, max_size=40), seed=st.integers(0, 99))
    def test_degenerate_spectra_property(self, levels, seed):
        matrix = _prescribed(levels, seed)
        with pytest.MonkeyPatch.context() as patch:
            calls = _counting_finish(patch)
            _assert_gates(matrix, jacobi_eigendecompose(matrix))
        assert calls in ([], [[0]])

    @pytest.mark.parametrize("n", [5, 24])
    def test_poor_start_is_finished_by_sweeps(self, monkeypatch, n):
        # A random unitary in place of the start: the finish must rotate until
        # the same criterion holds, never return the poor start as it is.
        def random_unitary(a):
            rng = np.random.default_rng(n)
            return np.linalg.qr(rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape))[0]

        monkeypatch.setattr(eigensolver, "_start_basis", random_unitary)
        calls = _counting_finish(monkeypatch)
        matrix = random_hermitian(800 + n, n)
        _assert_gates(matrix, jacobi_eigendecompose(matrix))
        assert calls[0][0] >= 1

    def test_diagonal_input_skips_the_start(self, monkeypatch):
        monkeypatch.setattr(eigensolver, "_start_basis", _no_start)
        dec = jacobi_eigendecompose(HermitianMatrix(np.diag([2.0, -1.0, 0.5])))
        np.testing.assert_array_equal(dec.eigenvalues, [-1.0, 0.5, 2.0])

    def test_extreme_range_diagonal_comes_back_bit_for_bit(self, monkeypatch):
        # Scaled to a unit norm (by 2^-500), 1e-160 would be subnormal and
        # lose digits: a member that meets the tolerance must come back as
        # it is, never scaled and never rotated, alone or in a stack.
        extreme = np.diag([1e150, 1e-160, -3.0])
        solo = jacobi_eigendecompose(HermitianMatrix(extreme))
        assert solo.eigenvalues.tobytes() == np.array([-3.0, 1e-160, 1e150]).tobytes()
        assert solo.eigenvectors.tobytes() == np.eye(3, dtype=np.complex128)[:, ::-1].tobytes()
        dense = random_hermitian(81, 3).array
        calls = _counting_finish(monkeypatch)
        stack = _stack([dense, extreme, 1e100 * dense, 1e-100 * dense])
        values, _ = eigensolver._eigensystems(stack)
        assert [len(sweeps) for sweeps in calls] == [3]  # the dense members only
        assert values[1].tobytes() == solo.eigenvalues.tobytes()
        assert _member_vectors(stack, 1).tobytes() == solo.eigenvectors.tobytes()

    def test_non_finite_start_rejected(self, monkeypatch):
        monkeypatch.setattr(eigensolver, "_start_basis", lambda a: np.full(a.shape, np.nan + 0j))
        with pytest.raises(ValueError, match="start basis is not finite"):
            jacobi_eigendecompose(random_hermitian(5, 4))


def _batch_members(n):
    """Hermitian matrices of dim n that exercise every per-member branch of
    the batched solve: a diagonal member (no start), clusters, a split of
    1e-9, members whose Householder sub-columns count as reduced (exact
    zeros of a block-diagonal matrix, and a first sub-column of 1e-160),
    dense members and members scaled by 1e100 and 1e-100.  At n = 24 one
    more dense member has an entry whose Newton steps all bisect, so that
    every other entry of the stack stays frozen for the rest of the round."""
    cluster = np.repeat(np.arange(n // 4) - 2.5, 4) if n % 4 == 0 else [0.5, 0.5, 0.5, -1, 2, 3]
    split = np.linspace(-1.0, 3.0, n)
    split[1:3] = 0.5, 0.5 + 1e-9
    split[-1] = 0.5 - 1e-9
    chain = np.diag(np.arange(1.0, n + 1)) + np.eye(n, k=1) + np.eye(n, k=-1)
    chain[0, 1] = chain[1, 0] = 1e-160
    dense = random_hermitian(900 + n, n).array
    return [
        HermitianMatrix(np.diag(np.arange(n, 0, -1.0))),
        _prescribed(cluster, seed=3),
        _prescribed(split, seed=2),
        HermitianMatrix(np.kron(np.eye(n // 3), _BLOCK)),
        HermitianMatrix(chain),
        random_hermitian(901 + n, n),
        HermitianMatrix(1e100 * dense),
        HermitianMatrix(1e-100 * dense),
        random_hermitian(902 + n, n),
        *([random_hermitian(1001822, n)] if n == 24 else []),
    ]


class TestBatchedSolve:
    """``_eigensystems`` on a (B, N, N) stack against one solve per member."""

    @pytest.mark.parametrize("n", [6, 24])
    def test_members_bit_identical_to_solo(self, monkeypatch, n):
        members = _batch_members(n)
        calls = _counting_finish(monkeypatch)
        solo = [jacobi_eigendecompose(m) for m in members]
        solo_calls = list(calls)
        calls.clear()
        stack = np.stack([m.array for m in members])
        values, _ = eigensolver._eigensystems(stack)
        # one finishing call for every member but the diagonal one, each with its own count
        assert len(solo_calls) == len(members) - 1
        assert calls == [[sweeps for (sweeps,) in solo_calls]]
        vectors = [_member_vectors(stack, b) for b in range(len(members))]
        for b, dec in enumerate(solo):
            # bit for bit: tobytes tells -0.0 from 0.0
            assert values[b].tobytes() == dec.eigenvalues.tobytes()
            assert vectors[b].tobytes() == dec.eigenvectors.tobytes()
        _assert_gates(members[3], SpectralDecomposition(values[3], vectors[3]))

    def test_start_runs_once_for_the_members_that_need_it(self, monkeypatch):
        members = _batch_members(24)
        start = eigensolver._start_basis
        batches = []

        def recording(a):
            batches.append(len(a))
            return start(a)

        monkeypatch.setattr(eigensolver, "_start_basis", recording)
        eigensolver._eigensystems(np.stack([m.array for m in members]))
        assert batches == [len(members) - 1]  # all but the diagonal member


def _oracle_stack(n, points=20):
    """The sweeps' oracle stack for a dense pair of dim n: H, then H + x H'
    for ``points`` strengths from 1e-1 down to 1e-3."""
    h, hp = random_hermitian(35, n), random_hermitian(36, n, 0.05)
    strengths = np.geomspace(1e-1, 1e-3, points)
    return _stack([h.array] + [add_scaled(h, hp, x).array for x in strengths])


class TestStackInput:
    """``_eigensystems`` reads the caller's stack as it is laid out, never
    writes it, and holds few copies of it."""

    @pytest.mark.parametrize("name", ["oracle", "batch"])
    def test_layouts_give_the_same_bytes_and_input_unchanged(self, name):
        stack = _oracle_stack(9, 5) if name == "oracle" else _stack(
            [m.array for m in _batch_members(6)]
        )
        count, n, _ = stack.shape
        fortran = np.asfortranarray(stack)
        big = np.zeros((count, 2 * n, 2 * n), dtype=np.complex128)
        big[:, ::2, ::2] = stack
        strided = big[:, ::2, ::2]
        assert not fortran.flags.c_contiguous and not strided.flags.c_contiguous
        before = [array.copy() for array in (stack, fortran, big)]
        values, vectors = eigensolver._eigensystems(stack)
        for layout in (fortran, strided):
            got_values, got_vectors = eigensolver._eigensystems(layout)
            assert got_values.tobytes() == values.tobytes()
            assert got_vectors.tobytes() == vectors.tobytes()
        for array, copy in zip((stack, fortran, big), before):
            assert array.tobytes() == copy.tobytes()

    def test_working_memory(self):
        # The tracemalloc peak of one solve of a (21, 64, 64) oracle stack, in
        # copies of the stack: 9.3 with a scaled copy of every member and
        # arrays that mirror others, 5.7 without.  numpy registers its
        # buffers with tracemalloc and BLAS workspaces are not traced, so the
        # count repeats from run to run.
        stack = _oracle_stack(64)
        tracemalloc.start()
        try:
            eigensolver._eigensystems(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * stack.nbytes


def _counting_calls(monkeypatch, name):
    """Record every call of ``eigensolver.<name>`` by its arguments' shapes."""
    function, calls = getattr(eigensolver, name), []

    def counting(*args):
        calls.append(tuple(np.shape(arg) for arg in args))
        return function(*args)

    monkeypatch.setattr(eigensolver, name, counting)
    return calls


class TestMultisection:
    def test_stops_where_inverse_iteration_no_longer_needs_it(self):
        # Separated eigenvalues take Newton steps from their brackets'
        # midpoints, and an entry stops once its step is at most
        # (eps * scale * gap^2)^(1/3), not at 2 eps: the error is then
        # bounded by that step (quadratic convergence makes it far smaller
        # than the two-step width sqrt(eps * scale * gap) that an unpolished
        # bracket refines to), and the two inverse-iteration steps suffice.
        d, b = np.array([[0.1, 0.3, 0.5]]), np.array([[0.01, 0.02]])
        values, polished = eigensolver._multisection(d, b)
        reference = np.linalg.eigvalsh(np.diag(d[0]) + np.diag(b[0], 1) + np.diag(b[0], -1))
        assert polished.tolist() == [True]
        assert np.abs(values[0] - reference).max() <= np.cbrt(np.finfo(float).eps * 0.6 * 0.2**2)

    @pytest.mark.parametrize("solve", ["dense-32", "oracle-24"])
    def test_two_passes_then_newton(self, monkeypatch, solve):
        # one pass of 15 N points and one of 15 per bracket separate every
        # bracket, and Newton's method polishes all midpoints at once
        passes = _counting_calls(monkeypatch, "_sturm_counts")
        newton = _counting_calls(monkeypatch, "_pivot_sums")
        if solve == "dense-32":
            jacobi_eigendecompose(random_hermitian(1, 32))
        else:
            verify._eigenbasis_pass.cache_clear()
            verify.level_sweep(random_hermitian(1, 24), random_hermitian(2, 24, 0.05))
        assert len(passes) == 2
        assert 1 <= len(newton) <= 4

    def test_clusters_refine_to_machine_precision(self):
        # three equal eigenvalues: brackets never separate
        d, b = np.array([[0.25, 0.25, 0.25, 0.6]]), np.zeros((1, 3))
        values, polished = eigensolver._multisection(d, b)
        assert np.abs(values[0, :3] - 0.25).max() <= 2 * np.finfo(float).eps * 0.6
        assert polished.tolist() == [False]

    def test_failed_newton_steps_bisect_then_go_back_to_multisection(self, monkeypatch):
        # Every Newton step NaN: each one bisects instead, and no entry
        # counts as converged, however narrow bisection makes its bracket;
        # after _NEWTON_CAP steps every bracket returns to the passes,
        # refines to the two-step width and is not polished.
        monkeypatch.setattr(eigensolver, "_NEWTON_CAP", 60)
        pivot_sums = eigensolver._pivot_sums

        def failing(*args):
            negatives, total = pivot_sums(*args)
            return negatives, np.full_like(total, np.nan)

        monkeypatch.setattr(eigensolver, "_pivot_sums", failing)
        newton = _counting_calls(monkeypatch, "_pivot_sums")
        solves = _counting_calls(monkeypatch, "_thomas_solve")
        calls = _counting_finish(monkeypatch)
        matrix = random_hermitian(1, 12)
        _assert_gates(matrix, jacobi_eigendecompose(matrix))
        assert len(newton) == 60
        assert len(solves) == 2
        assert calls in ([], [[0]])

    @pytest.mark.parametrize(
        "matrix",
        [HARD_SPECTRA["newton-fails"], lambda: random_hermitian(1001822, 24)],
        ids=["newton-fails", "dense-24"],
    )
    def test_newton_overshoot_goes_back_to_multisection(self, monkeypatch, matrix):
        # No forced failure: each of the _NEWTON_CAP steps of one entry
        # leaves its bracket and bisects, so the member is not polished and
        # takes the QR between the inverse-iteration steps.
        multisection, reports = eigensolver._multisection, []

        def recording(d, b):
            shifts, polished = multisection(d, b)
            reports.append(polished.tolist())
            return shifts, polished

        monkeypatch.setattr(eigensolver, "_multisection", recording)
        newton = _counting_calls(monkeypatch, "_pivot_sums")
        calls = _counting_finish(monkeypatch)
        matrix = matrix()
        _assert_gates(matrix, jacobi_eigendecompose(matrix))
        assert reports == [[False]]
        assert len(newton) == eigensolver._NEWTON_CAP
        assert calls in ([], [[0]])

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 40),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pivot_sums_columns_are_independent(self, n, k, seed):
        # The Newton round evaluates its frozen entries beside the moving
        # ones, so each column's count and sum must not depend on which
        # other columns share the call: any subset, and each column alone
        # (where a pairwise sum would round differently from N = 8 on),
        # gives exactly those columns of the full call.
        rng = np.random.default_rng(seed)
        d, b2 = rng.uniform(-1.0, 1.0, (n, k)), rng.uniform(0.0, 0.5, (n - 1, k)) ** 2
        x = rng.uniform(-1.5, 1.5, k)
        full = eigensolver._pivot_sums(d, b2, x)
        subset = rng.permutation(k)[: rng.integers(1, k + 1)]
        for columns in [subset, *([j] for j in range(k))]:
            part = eigensolver._pivot_sums(d[:, columns], b2[:, columns], x[columns])
            for got, want in zip(part, full):
                assert got.tobytes() == want[columns].tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 24),
        k=st.integers(1, 13),
        at=st.integers(0, 23),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_close_pair_property(self, n, k, at, seed):
        # One pair 10^-k apart among levels spread over [-1, 1]: the pair
        # separates and takes Newton steps, or stays a cluster, and either
        # path meets the gates with no finishing sweep.
        levels = np.sort(np.random.default_rng(seed).uniform(-1.0, 1.0, n))
        levels = np.append(levels, levels[at % n] + 10.0**-k)
        matrix = _prescribed(levels, seed)
        with pytest.MonkeyPatch.context() as patch:
            calls = _counting_finish(patch)
            _assert_gates(matrix, jacobi_eigendecompose(matrix))
        assert calls in ([], [[0]])


class TestInverseIteration:
    """Two steps for every member in one batch, and a QR at the end; a
    member whose shifts Newton did not all polish also takes a QR between
    the steps."""

    @staticmethod
    def _counts(monkeypatch, stack):
        """Thomas solves and QR factorizations, each as the number of
        members it served, and the solve's eigenvalues and vectors."""
        solves = _counting_calls(monkeypatch, "_thomas_solve")
        qr, factorizations = np.linalg.qr, []

        def counting_qr(a, *args, **kwargs):
            factorizations.append(len(a))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        values, vectors = eigensolver._eigensystems(stack)
        monkeypatch.undo()
        # the solves' x is index-major, (N, B, N)
        return [x[1] for *_, x in solves], factorizations, values, vectors

    @pytest.mark.parametrize("name", ["dense-32", "six-4-fold"])
    def test_counts_per_member(self, monkeypatch, name):
        if name == "dense-32":
            matrix, steps = random_hermitian(1, 32), ([1, 1], [1])
        else:
            matrix, steps = HARD_SPECTRA[name](), ([1, 1], [1, 1])
        assert self._counts(monkeypatch, matrix.array[None])[:2] == steps

    def test_mixed_stack_keeps_each_members_solo_counts_and_bytes(self, monkeypatch):
        dense, cluster = random_hermitian(1, 24).array, HARD_SPECTRA["six-4-fold"]().array
        members = [dense, cluster, 2.0 * dense + 0.25 * cluster]
        solo = [self._counts(monkeypatch, member[None]) for member in members]
        assert [(s[0], s[1]) for s in solo] == [
            ([1, 1], [1]), ([1, 1], [1, 1]), ([1, 1], [1])
        ]
        stack = _stack(members)
        solves, factorizations, values, _ = self._counts(monkeypatch, stack)
        # one batch of all three members; the cluster alone between the steps
        assert solves == [3, 3] and factorizations == [1, 3]
        for b, (_, _, solo_values, solo_vectors) in enumerate(solo):
            assert values[b].tobytes() == solo_values[0].tobytes()
            assert _member_vectors(stack, b).tobytes() == solo_vectors.tobytes()


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
        # a tie broken only by roundoff (one ulp) is still a tie
        larger = np.nextafter(s, 1.0)
        out = _fix_phases(np.array([[-s, s], [larger, larger]], dtype=np.complex128))
        np.testing.assert_array_equal(out.real, [[s, s], [-larger, larger]])

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

    @pytest.mark.parametrize(
        "coefficients, shape",
        [([1.0, 0.0], r"\(2,\)"), (np.eye(5), r"\(5, 5\)")],
        ids=["short", "2-D"],
    )
    def test_synthesize_checks_the_coefficient_count(self, coefficients, shape):
        dec = jacobi_eigendecompose(random_hermitian(4, 5))
        with pytest.raises(DimensionMismatch, match=f"expected 5 coefficients, got {shape}"):
            dec.synthesize(coefficients)

    def test_eigenvector_index_checked(self):
        dec = jacobi_eigendecompose(random_hermitian(5, 3))
        for m in (3, 5, -1, 1.0, 1.5):
            with pytest.raises(DimensionMismatch):
                dec.eigenvector(m)
        for m in (0, 2, np.int64(1), True):
            assert np.array_equal(dec.eigenvector(m), dec.eigenvectors[:, int(m)])

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            SpectralDecomposition(np.zeros(2), np.zeros((3, 3)))

    def test_adjoint_cached_and_read_only(self):
        dec = jacobi_eigendecompose(random_hermitian(6, 7))
        adjoint = dec.adjoint
        assert adjoint.tobytes(order="A") == dec.eigenvectors.conj().T.tobytes(order="A")
        assert dec.adjoint is adjoint
        with pytest.raises(ValueError):
            adjoint[0, 0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            dec.adjoint = adjoint
        assert [f.name for f in dataclasses.fields(dec)] == ["eigenvalues", "eigenvectors"]
        assert "adjoint" not in repr(dec)

    def test_arrays_stored_c_ordered(self):
        dec = jacobi_eigendecompose(random_hermitian(6, 7))
        fortran = SpectralDecomposition(
            np.asfortranarray(dec.eigenvalues), np.asfortranarray(dec.eigenvectors)
        )
        assert fortran.eigenvectors.flags.c_contiguous
        assert np.array_equal(fortran.eigenvectors, dec.eigenvectors)
