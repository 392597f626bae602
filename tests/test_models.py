import math

import numpy as np
import pytest

from qperturb import models
from qperturb.errors import ParseError
from qperturb.models import (
    BoxModelSpec,
    box_hamiltonian,
    box_potential_matrix,
    random_hermitian,
)
from qperturb.numkernel import HermitianMatrix


def gauss_legendre_element(m, n, width, potential, nodes=200, panels=1):
    # independent quadrature oracle (different rule from the implementation):
    # Gauss-Legendre with ``nodes`` nodes on each of ``panels`` equal panels
    t, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(0.0, width, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    x = (edges[:-1, None] + half * (t + 1.0)).ravel()
    w = (half * w).ravel()
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
        for n in (2.5, 3.0, "3", None):
            with pytest.raises(ValueError, match="dimension must be an integer"):
                random_hermitian(0, n)
        assert random_hermitian(0, np.int64(3)).dim == 3
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
        # a non-integer level count would be truncated by arange
        for levels in (2.5, 3.0, "3"):
            with pytest.raises(ValueError, match="integer"):
                BoxModelSpec(levels, 1.0)
        assert box_hamiltonian(BoxModelSpec(np.int64(3), 1.0)).dim == 3
        assert box_potential_matrix(BoxModelSpec(np.int32(3), 1.0)).dim == 3
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

    def test_every_kind_matches_gauss_legendre(self):
        potentials = {
            "const": lambda x: np.full_like(x, 1.3),
            "linear": lambda x: 1.3 * x,
            "quadratic": lambda x: 1.3 * x * x,
        }
        for kind, potential in potentials.items():
            got = box_potential_matrix(BoxModelSpec(5, 2.0, kind, 1.3)).array
            for m in range(1, 6):
                for n in range(1, 6):
                    oracle = gauss_legendre_element(m, n, 2.0, potential)
                    assert abs(got[m - 1, n - 1] - oracle) <= 1e-10

    def test_output_is_hermitian(self, monkeypatch):
        # the entries as built, before HermitianMatrix symmetrizes them
        built = []

        def capture(array):
            built.append(np.asarray(array))
            return HermitianMatrix(array)

        monkeypatch.setattr(models, "HermitianMatrix", capture)
        for kind in ("const", "linear", "quadratic"):
            box_potential_matrix(BoxModelSpec(5, 3.0, kind, -0.4))
        assert len(built) == 3
        for entries in built:
            assert np.isrealobj(entries)
            assert np.array_equal(entries, entries.T)


class TestBoxPotentialMatrixAtManyLevels:
    # 1100 levels: sin((m + n) pi x / L) reaches frequencies that a fixed
    # sampling of [0, L] would alias
    LEVELS = 1100

    def test_const_is_exactly_scaled_identity(self):
        got = box_potential_matrix(BoxModelSpec(self.LEVELS, math.pi, "const", 2.0)).array
        assert np.array_equal(got, 2.0 * np.eye(self.LEVELS))

    def test_linear_diagonal_and_even_parity_entries_exact(self):
        got = box_potential_matrix(BoxModelSpec(self.LEVELS, math.pi, "linear", 1.0)).array
        assert np.all(np.diag(got) == math.pi / 2)
        levels = np.arange(1, self.LEVELS + 1)
        even = (levels[:, None] + levels) % 2 == 0
        np.fill_diagonal(even, False)
        assert np.all(got[even] == 0.0)

    @pytest.mark.parametrize(
        "kind, potential",
        [("linear", lambda x: x), ("quadratic", lambda x: x * x)],
        ids=["linear", "quadratic"],
    )
    def test_corner_entries_match_gauss_legendre(self, kind, potential):
        got = box_potential_matrix(BoxModelSpec(self.LEVELS, math.pi, kind, 1.0)).array
        last = self.LEVELS
        for m, n in [(1, 1), (1, last), (last - 1, last), (last, last)]:
            # 4000 nodes: 40 on each of 100 panels
            oracle = gauss_legendre_element(m, n, math.pi, potential, nodes=40, panels=100)
            assert abs(got[m - 1, n - 1] - oracle) <= 1e-11
