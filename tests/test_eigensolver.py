import math

import numpy as np
import pytest

from qperturb.eigensolver import (
    SpectralDecomposition,
    _diagonalize,
    _round_robin_steps,
    fix_phase,
    jacobi_eigendecompose,
    jacobi_eigenvalues,
)
from qperturb.errors import NoConvergence, ZeroVector
from qperturb.models import random_hermitian
from qperturb.numkernel import HermitianMatrix, add_scaled, identity


def two_by_two_eigenvalues(a, b, d):
    # oracle: roots of the characteristic polynomial of [[a, b], [conj(b), d]]
    mean = (a + d) / 2.0
    disc = math.sqrt(((a - d) / 2.0) ** 2 + abs(b) ** 2)
    return mean - disc, mean + disc


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
            jacobi_eigendecompose(HermitianMatrix([[0, 1], [1, 0]]), max_sweeps=0)
        assert exc.value.sweeps == 0

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

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
    def test_eigenvalues_only_bit_identical(self, n):
        for matrix in (random_hermitian(500 + n, n), HermitianMatrix(np.diag(np.arange(n, 0, -1.0)))):
            assert np.array_equal(
                jacobi_eigenvalues(matrix), jacobi_eigendecompose(matrix).eigenvalues
            )

    def test_eigenvalues_only_no_convergence_error(self):
        with pytest.raises(NoConvergence) as exc:
            _diagonalize(np.array([[0, 1], [1, 0]], dtype=np.complex128), None, 0)
        assert exc.value.sweeps == 0

    @pytest.mark.parametrize("n", range(1, 10))
    def test_round_robin_schedule(self, n):
        steps = _round_robin_steps(n)
        assert len(steps) == (n - 1 + n % 2 if n > 1 else 0)
        seen = []
        for p, q in steps:
            assert np.all(p < q)
            step = np.concatenate([p, q])
            assert len(set(step.tolist())) == step.size  # disjoint within the step
            seen += zip(p.tolist(), q.tolist())
        assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]


class TestFixPhase:
    def test_sign_flip(self):
        np.testing.assert_array_equal(fix_phase([-1, 0]), [1, 0])

    def test_rotate_by_i(self):
        np.testing.assert_allclose(fix_phase([0, -1j]), [0, 1], atol=1e-16)

    def test_positive_dominant_unchanged(self):
        v = np.array([0.25, 0.8, -0.3 + 0.1j])
        np.testing.assert_array_equal(fix_phase(v), v)

    def test_tie_breaks_to_lowest_index(self):
        out = fix_phase([-0.5, 0.5])
        np.testing.assert_allclose(out, [0.5, -0.5])

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            fix_phase(np.zeros(3))

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert np.linalg.norm(fix_phase(v)) == pytest.approx(np.linalg.norm(v), rel=1e-15)


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
