import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qperturb.errors import DimensionMismatch, NonHermitianInput
from qperturb.numkernel import (
    HERMITICITY_RTOL,
    HermitianMatrix,
    add_scaled,
    identity,
    inner_product,
    matrix_element,
    matvec,
)

SIGMA_X = [[0, 1], [1, 0]]


def brute_force_element(u, a, v):
    # independent oracle: explicit double loop over sum_ij conj(u_i) A_ij v_j
    total = 0.0 + 0.0j
    for i in range(len(u)):
        for j in range(len(v)):
            total += np.conj(u[i]) * a[i][j] * v[j]
    return total


def finite_floats(bound=10.0):
    return st.floats(-bound, bound, allow_nan=False, allow_infinity=False)


@st.composite
def vector_pairs(draw, max_dim=6):
    dim = draw(st.integers(1, max_dim))
    def vec():
        re = draw(arrays(np.float64, (dim,), elements=finite_floats()))
        im = draw(arrays(np.float64, (dim,), elements=finite_floats()))
        return re + 1j * im
    return vec(), vec()


class TestInnerProduct:
    def test_orthogonal_basis_vectors(self):
        assert inner_product([1, 0], [0, 1]) == 0

    def test_unit_norm_under_conjugation(self):
        assert inner_product([1j, 0], [1j, 0]) == 1

    def test_orthogonal_superpositions(self):
        s = 1 / math.sqrt(2)
        assert inner_product([s, s], [s, -s]) == pytest.approx(0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            inner_product([1, 0], [1, 0, 0])

    @given(vector_pairs())
    def test_conjugate_symmetry(self, pair):
        u, v = pair
        lhs = inner_product(u, v)
        rhs = np.conj(inner_product(v, u))
        assert abs(lhs - rhs) <= 1e-15 * max(1.0, abs(lhs))

    @given(vector_pairs())
    def test_self_product_real_nonnegative(self, pair):
        v, _ = pair
        z = inner_product(v, v)
        assert z.imag == 0
        assert z.real >= 0

    def test_self_product_zero_only_for_zero_vector(self):
        assert inner_product(np.zeros(4), np.zeros(4)) == 0
        v = np.array([0.0, 1e-3, 0.0])
        assert inner_product(v, v).real > 0


class TestMatvec:
    def test_identity(self):
        out = matvec(identity(2), [3 + 1j, -2])
        np.testing.assert_array_equal(out, np.array([3 + 1j, -2 + 0j]))

    def test_permutation_action(self):
        out = matvec(HermitianMatrix(SIGMA_X), [1, 0])
        np.testing.assert_allclose(out, [0, 1])

    def test_diagonal_action(self):
        out = matvec(HermitianMatrix(np.diag([0.0, 2.0])), [5 + 1j, 7 - 2j])
        np.testing.assert_allclose(out, [0, 14 - 4j])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            matvec(identity(3), [1, 0])


class TestMatrixElement:
    def test_zero_diagonal(self):
        assert matrix_element([1, 0], HermitianMatrix(SIGMA_X), [1, 0]) == 0

    def test_off_diagonal_read_off(self):
        assert matrix_element([0, 1], HermitianMatrix(SIGMA_X), [1, 0]) == 1

    def test_superposition_expectation(self):
        # frozen from the brute-force oracle: (1/2)(0 + 1 + 1 + 0) = 1
        s = 1 / math.sqrt(2)
        psi = np.array([s, s])
        got = matrix_element(psi, HermitianMatrix(SIGMA_X), psi)
        oracle = brute_force_element(psi, SIGMA_X, psi)
        assert got == pytest.approx(1.0, abs=1e-15)
        assert got == pytest.approx(oracle, abs=1e-15)

    def test_matches_brute_force_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a = HermitianMatrix((raw + raw.conj().T) / 2)
            u = rng.normal(size=n) + 1j * rng.normal(size=n)
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            got = matrix_element(u, a, v)
            assert got == pytest.approx(brute_force_element(u, a.array, v), rel=1e-12)

    def test_diagonal_element_imaginary_part_bounded(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a = HermitianMatrix((raw + raw.conj().T) / 2)
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            z = inner_product(v, matvec(a, v))
            bound = 1e-12 * np.linalg.norm(a.array) * np.linalg.norm(v) ** 2
            assert abs(z.imag) <= bound
            assert matrix_element(v, a, v).imag == 0


class TestAddScaled:
    def test_zero_strength(self):
        a = HermitianMatrix([[1, 2j], [-2j, 3]])
        b = HermitianMatrix(SIGMA_X)
        np.testing.assert_array_equal(add_scaled(a, b, 0.0).array, a.array)

    def test_arithmetic(self):
        a = HermitianMatrix(np.diag([0.0, 2.0]))
        b = HermitianMatrix(SIGMA_X)
        out = add_scaled(a, b, 0.1)
        np.testing.assert_allclose(out.array, [[0, 0.1], [0.1, 2]])

    def test_closure_on_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a = HermitianMatrix((raw + raw.conj().T) / 2)
            raw2 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            b = HermitianMatrix((raw2 + raw2.conj().T) / 2)
            out = add_scaled(a, b, float(rng.normal()))
            np.testing.assert_array_equal(out.array, out.array.conj().T)

    @given(x1=finite_floats(1.0), x2=finite_floats(1.0))
    @settings(max_examples=50)
    def test_linear_in_strength(self, x1, x2):
        a = HermitianMatrix([[1, 1 - 1j], [1 + 1j, -2]])
        b = HermitianMatrix([[0.5, 2j], [-2j, 1.5]])
        direct = add_scaled(a, b, x1 + x2).array
        stepped = add_scaled(add_scaled(a, b, x1), b, x2).array
        assert np.abs(direct - stepped).max() <= 1e-15 * max(1.0, abs(x1) + abs(x2))

    def test_nonfinite_strength_rejected(self):
        a = identity(2)
        with pytest.raises(ValueError):
            add_scaled(a, a, math.inf)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            add_scaled(identity(2), identity(3), 1.0)


class TestCheckHermitian:
    """The hermiticity rule that ``HermitianMatrix`` construction enforces."""

    def test_pauli_y_form(self):
        HermitianMatrix([[0, 1j], [-1j, 0]])

    def test_upper_triangular_only(self):
        with pytest.raises(NonHermitianInput):
            HermitianMatrix([[0, 1], [0, 0]])

    def test_real_diagonal(self):
        HermitianMatrix(np.diag([3.0, -1.0, 0.0]))

    def test_tolerance_scales_with_entries(self):
        base = np.array([[0.0, 1.0], [1.0, 0.0]])
        wiggle = np.array([[0.0, 1e-14], [0.0, 0.0]])
        HermitianMatrix(base + wiggle)
        with pytest.raises(NonHermitianInput):
            HermitianMatrix(base + 1e4 * wiggle)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            HermitianMatrix([[np.inf, 0], [0, 0]])
        with pytest.raises(ValueError, match="finite"):
            HermitianMatrix([[np.nan, 0], [0, 0]])

    def test_zero_matrix(self):
        HermitianMatrix(np.zeros((3, 3)))


class TestHermitianMatrix:
    def test_symmetrization_is_exact(self):
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        raw = (raw + raw.conj().T) / 2
        raw += HERMITICITY_RTOL * 0.1 * np.abs(raw).max() * rng.normal(size=(5, 5))
        m = HermitianMatrix(raw).array
        assert np.array_equal(m, m.conj().T)
        assert np.all(np.diag(m).imag == 0)

    def test_symmetrization_idempotent(self):
        m = HermitianMatrix([[1, 2 + 1j], [2 - 1j, -1]])
        again = HermitianMatrix(m.array)
        assert np.array_equal(m.array, again.array)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput) as exc:
            HermitianMatrix([[0, 1], [0, 0]])
        assert exc.value.max_violation == pytest.approx(1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            HermitianMatrix([[np.nan, 0], [0, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            HermitianMatrix(np.zeros((2, 3)))

    def test_array_is_read_only(self):
        m = identity(2)
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0
