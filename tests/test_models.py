import math

import numpy as np
import pytest

from qperturb.errors import ParseError
from qperturb.models import (
    BoxModelSpec,
    box_hamiltonian,
    box_potential_matrix,
    random_hermitian,
)
from qperturb.numkernel import HermitianMatrix


def gauss_legendre_element(m, n, width, potential, nodes=200):
    # independent quadrature oracle (different rule from the implementation)
    t, w = np.polynomial.legendre.leggauss(nodes)
    x = 0.5 * width * (t + 1.0)
    w = 0.5 * width * w
    f = (
        (2.0 / width)
        * np.sin(m * np.pi * x / width)
        * potential(x)
        * np.sin(n * np.pi * x / width)
    )
    return float(w @ f)


def linear_element(m, n, width):
    # closed form for <m|x|n> in the infinite well
    if m == n:
        return width / 2.0
    if (m + n) % 2 == 0:
        return 0.0
    return -8.0 * width * m * n / (math.pi**2 * (m * m - n * n) ** 2)


class TestRandomHermitian:
    def test_output_is_hermitian(self):
        for seed in range(10):
            HermitianMatrix(random_hermitian(seed, 5).array)

    def test_deterministic(self):
        a = random_hermitian(7, 6, 2.0)
        b = random_hermitian(7, 6, 2.0)
        assert np.array_equal(a.array, b.array)

    def test_different_seeds_differ(self):
        assert not np.array_equal(random_hermitian(1, 4).array, random_hermitian(2, 4).array)

    def test_entry_magnitudes_bounded(self):
        for seed in range(5):
            m = random_hermitian(seed, 8, 0.7)
            assert np.abs(m.array).max() <= 0.7

    def test_dimension_one(self):
        m = random_hermitian(3, 1, 0.5)
        assert m.dim == 1
        entry = m.array[0, 0]
        assert entry.imag == 0
        assert abs(entry) <= 0.5

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            random_hermitian(0, 0)
        with pytest.raises(ValueError):
            random_hermitian(0, 3, -1.0)
        # 2 * scale overflows, so uniform(-scale, scale) has no finite range
        for scale in (1e308, np.float64(8.99e307), math.inf, math.nan):
            with pytest.raises(ValueError, match="2 \\* scale finite"):
                random_hermitian(0, 3, scale)
        largest = np.finfo(np.float64).max / 2
        assert np.abs(random_hermitian(0, 3, largest).array).max() <= largest


class TestBoxHamiltonian:
    def test_three_levels_unit_pi_width(self):
        spec = BoxModelSpec(3, math.pi)
        np.testing.assert_allclose(
            box_hamiltonian(spec).array, np.diag([0.5, 2.0, 4.5]), atol=1e-15
        )

    def test_single_level(self):
        spec = BoxModelSpec(1, math.pi)
        assert box_hamiltonian(spec).array[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_levels_strictly_increasing(self):
        spec = BoxModelSpec(7, 2.3)
        diag = np.diag(box_hamiltonian(spec).array).real
        assert np.all(np.diff(diag) > 0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BoxModelSpec(0, 1.0)
        with pytest.raises(ValueError):
            BoxModelSpec(2, -1.0)
        with pytest.raises(ParseError):
            BoxModelSpec(2, 1.0, "cubic", 1.0)
        # width**2 overflows, or 2 * width**2 does
        for width in (1.35e154, np.float64(9.49e153), math.inf, math.nan):
            with pytest.raises(ValueError, match="2 \\* width\\*\\*2 finite"):
                BoxModelSpec(2, width)
        assert box_hamiltonian(BoxModelSpec(2, 9.48e153)).array[0, 0] > 0


class TestBoxPotentialMatrix:
    def test_constant_potential_is_scaled_identity(self):
        spec = BoxModelSpec(4, 2.5, "const", 3.25)
        got = box_potential_matrix(spec).array
        assert np.abs(got - 3.25 * np.eye(4)).max() <= 1e-10

    @pytest.mark.parametrize("width", [math.pi, 2.5])
    def test_linear_potential_against_closed_form(self, width):
        spec = BoxModelSpec(4, width, "linear", 1.0)
        got = box_potential_matrix(spec).array.real
        for m in range(1, 5):
            for n in range(1, 5):
                assert got[m - 1, n - 1] == pytest.approx(
                    linear_element(m, n, width), abs=1e-8
                )

    def test_linear_diagonal_is_half_width(self):
        spec = BoxModelSpec(3, math.pi, "linear", 1.0)
        got = np.diag(box_potential_matrix(spec).array).real
        np.testing.assert_allclose(got, np.full(3, math.pi / 2), atol=1e-10)

    def test_linear_first_off_diagonal_value(self):
        spec = BoxModelSpec(3, math.pi, "linear", 1.0)
        got = box_potential_matrix(spec).array[0, 1].real
        assert got == pytest.approx(-16.0 / (9.0 * math.pi), abs=1e-8)

    def test_quadratic_diagonal_against_closed_form(self):
        # oracle: <n|x^2|n> = L^2 (1/3 - 1/(2 pi^2 n^2))
        width = 1.7
        spec = BoxModelSpec(4, width, "quadratic", 1.0)
        got = np.diag(box_potential_matrix(spec).array).real
        expected = [
            width**2 * (1.0 / 3.0 - 1.0 / (2.0 * (math.pi * n) ** 2)) for n in (1, 2, 3, 4)
        ]
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_quadratic_matches_gauss_legendre(self):
        spec = BoxModelSpec(4, 2.0, "quadratic", 0.8)
        got = box_potential_matrix(spec).array.real
        for m in range(1, 5):
            for n in range(1, 5):
                oracle = gauss_legendre_element(m, n, 2.0, lambda x: 0.8 * x * x)
                assert got[m - 1, n - 1] == pytest.approx(oracle, abs=1e-10)

    def test_strength_scales_linearly(self):
        base = box_potential_matrix(BoxModelSpec(3, 1.0, "linear", 1.0)).array
        scaled = box_potential_matrix(BoxModelSpec(3, 1.0, "linear", -2.5)).array
        np.testing.assert_allclose(scaled, -2.5 * base, atol=1e-14)

    def test_quadrature_refinement_stable(self):
        for kind in ("const", "linear", "quadratic"):
            spec = BoxModelSpec(5, 2.0, kind, 1.3)
            coarse = box_potential_matrix(spec, 2048).array
            fine = box_potential_matrix(spec, 4096).array
            assert np.abs(coarse - fine).max() <= 1e-10

    def test_output_is_hermitian(self):
        spec = BoxModelSpec(5, 3.0, "quadratic", -0.4)
        HermitianMatrix(box_potential_matrix(spec).array)

    def test_odd_subdivision_rejected(self):
        with pytest.raises(ValueError):
            box_potential_matrix(BoxModelSpec(2, 1.0), quadrature_points=101)
