import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qperturb.errors import DimensionMismatch, NonHermitianInput
from qperturb.models import BoxModelSpec, box_hamiltonian, random_hermitian
from qperturb.numkernel import (
    HERMITICITY_RTOL,
    HermitianMatrix,
    _norm,
    add_scaled,
    matrix_element,
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
            z = np.vdot(v, a.array @ v)
            bound = 1e-12 * np.linalg.norm(a.array) * np.linalg.norm(v) ** 2
            assert abs(z.imag) <= bound
            assert matrix_element(v, a, v).imag == 0

    @pytest.mark.parametrize(
        "u, v, message",
        [
            ([[1, 0]], [1, 0], r"expected a 1-D vector, got shape \(1, 2\)"),
            ([1, 0], [], r"expected a 1-D vector, got shape \(0,\)"),
            ([1, 0, 0], [1, 0], "dims disagree: bra 3, matrix 2, ket 2"),
            ([1, 0], [1], "dims disagree: bra 2, matrix 2, ket 1"),
        ],
        ids=["bra-2-D", "ket-empty", "bra-3", "ket-1"],
    )
    def test_shape_checked(self, u, v, message):
        with pytest.raises(DimensionMismatch, match=message):
            matrix_element(u, HermitianMatrix(SIGMA_X), v)

    @given(vector_pairs(), st.integers(0, 2**32 - 1))
    def test_conjugate_symmetry(self, pair, seed):
        # <u|A|v> = conj(<v|A|u>) for Hermitian A
        u, v = pair
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(u.size, u.size)) + 1j * rng.normal(size=(u.size, u.size))
        a = HermitianMatrix((raw + raw.conj().T) / 2)
        lhs = matrix_element(u, a, v)
        rhs = np.conj(matrix_element(v, a, u))
        scale = np.linalg.norm(a.array) * np.linalg.norm(u) * np.linalg.norm(v)
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, scale)


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
        a = HermitianMatrix(np.eye(2))
        with pytest.raises(ValueError):
            add_scaled(a, a, math.inf)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="matrix dims differ: 2 vs 3"):
            add_scaled(HermitianMatrix(np.eye(2)), HermitianMatrix(np.eye(3)), 1.0)


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
        m = HermitianMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0
        # the instance is frozen: neither the array nor the cached norm rebinds
        norm = m.frobenius_norm
        with pytest.raises(AttributeError):
            m.array = np.zeros((2, 2))
        with pytest.raises(AttributeError):
            m.frobenius_norm = 0.0
        assert m.frobenius_norm is norm
        assert m.array.flags.writeable is False and np.array_equal(m.array, np.eye(2))

    @pytest.mark.parametrize(
        "build, k",
        [
            (lambda: random_hermitian(3, 16), 0),
            (lambda: box_hamiltonian(BoxModelSpec(12, math.pi, "linear", 1.0)), 0),
            (lambda: HermitianMatrix(np.zeros((4, 4))), 0),
            *(
                (lambda e=e: HermitianMatrix(random_hermitian(4, 6).array * 2.0**e), e)
                for e in (500, -500, 600, -600)
            ),
            (lambda: add_scaled(random_hermitian(5, 8), random_hermitian(6, 8), 0.3), 0),
        ],
        ids=["dense", "box", "zero", "2^500", "2^-500", "2^600", "2^-600", "add_scaled"],
    )
    def test_frobenius_norm_computed_once(self, build, k, monkeypatch):
        m = build()
        calls = []
        norm = np.linalg.norm
        # The entries scaled by the exact 2^-k square with no overflow and
        # no underflow that counts; scaled back, their norm is exact.  At
        # 2^+-600 (the squares overflow, or all underflow) and for zeros the
        # norm is taken a second time, on the scaled entries.
        expected = math.ldexp(float(norm(m.array * 2.0**-k)), k)
        rescaled = abs(k) == 600 or not m.array.any()
        monkeypatch.setattr(np.linalg, "norm", lambda *a, **kw: calls.append(a) or norm(*a, **kw))
        first, second = m.frobenius_norm, m.frobenius_norm
        assert len(calls) == (2 if rescaled else 1)  # the scaled norm only where needed
        assert type(first) is float
        assert first == expected
        assert second is first

    @pytest.mark.parametrize("n", [2, 5, 24])
    def test_norm_commutes_with_powers_of_two(self, n):
        # For every k in [-1000, 1000] where each nonzero part of 2^k a is
        # a normal float and the norm is finite, bit for bit: the squares
        # of the smallest parts underflow over part of that range, and the
        # largest overflow over another.
        a = random_hermitian(40 + n, n).array
        norm = _norm(a)
        parts = np.abs(np.concatenate([a.real.ravel(), a.imag.ravel()]))
        low = -1021 - np.frexp(parts[parts > 0].min())[1]
        high = 1024 - np.frexp(norm)[1]
        assert low < -990 and high > 990
        for k in range(max(-1000, low), min(1000, high) + 1):
            assert _norm(a * 2.0**k) == np.ldexp(norm, k)

    @pytest.mark.parametrize(
        "entry, expected",
        [(1e160, math.sqrt(2.0) * 1e160), (1.5 * 2.0**1023, math.inf), (1.3e308, math.inf),
         (1e300 + 1e300j, 2e300)],
        ids=["1e160", "1.5*2^1023", "1.3e308", "complex-1e300"],
    )
    def test_frobenius_norm_past_the_squares_range(self, entry, expected):
        # The squares overflow; the norm is finite unless it passes the
        # largest float, where it reads inf with no warning.
        coupling = np.zeros((3, 3), dtype=np.complex128)
        coupling[0, 1], coupling[1, 0] = entry, np.conj(entry)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert HermitianMatrix(coupling).frobenius_norm == expected
