import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qperturb.eigensolver import SpectralDecomposition, _fix_phases, jacobi_eigendecompose
from qperturb.errors import (
    DegenerateDenominator,
    DimensionMismatch,
    NotNormalized,
    ZeroVector,
)
from qperturb.models import BoxModelSpec, box_hamiltonian, box_potential_matrix, random_hermitian
from qperturb.numkernel import HermitianMatrix, matrix_element
from qperturb.perturbation import (
    DEFAULT_TOL_DEGEN,
    DEFAULT_TOL_NUM,
    FirstOrderResult,
    StateVector,
    correction_coefficients,
    expected_energy,
    first_order,
    level_shifts,
    perturbed_state,
    residual_norm,
    total_energy,
)
from qperturb.verify import random_nondegenerate_pair

INV_SQRT2 = 1 / math.sqrt(2)

H_2x2 = HermitianMatrix(np.diag([0.0, 2.0]))
HP_2x2 = HermitianMatrix([[0, 1], [1, 0]])


@pytest.fixture(scope="module")
def dec_2x2():
    return jacobi_eigendecompose(H_2x2)


def loop_level_shifts(perturbation, decomp):
    """Reference: one <phi_n|H'|phi_n> per level."""
    return np.array(
        [
            matrix_element(decomp.eigenvector(n), perturbation, decomp.eigenvector(n)).real
            for n in range(decomp.dim)
        ]
    )


def loop_correction_coefficients(perturbation, decomp, state, energy, eprime):
    """Reference: a_m = nu_m / (E - E_m) one level at a time, same degeneracy guard."""
    hp_psi = perturbation.array @ decomp.synthesize(state.coefficients)
    spread = float(decomp.eigenvalues[-1] - decomp.eigenvalues[0]) + 1.0
    hp_scale = float(np.linalg.norm(perturbation.array))
    out = np.zeros(decomp.dim, dtype=np.complex128)
    for m in range(decomp.dim):
        numerator = np.vdot(decomp.eigenvector(m), hp_psi) - eprime * state.coefficients[m]
        denominator = energy - float(decomp.eigenvalues[m])
        if abs(denominator) > DEFAULT_TOL_DEGEN * spread:
            out[m] = numerator / denominator
        elif abs(numerator) > DEFAULT_TOL_NUM * hp_scale:
            raise DegenerateDenominator(m, abs(denominator), abs(numerator))
    return out


class TestStateVector:
    def test_unit_vector_ok(self):
        s = StateVector(np.array([1.0, 0.0]))
        assert s.dim == 2

    def test_rejects_off_norm(self):
        with pytest.raises(NotNormalized) as exc:
            StateVector(np.array([1.0, 1.0]))
        assert exc.value.norm == pytest.approx(math.sqrt(2))

    def test_rejects_norm_squared_off_by_1e_8(self):
        with pytest.raises(NotNormalized):
            StateVector(np.array([math.sqrt(1.0 + 1e-8), 0.0]))

    def test_basis_state(self):
        s = StateVector.basis_state(3, 1)
        np.testing.assert_array_equal(s.coefficients, [0, 1, 0])

    def test_basis_state_range_check(self):
        for dim, level in [(3, 3), (3, -1), (3, 1.5), (3.0, 1), (3, "1")]:
            with pytest.raises(DimensionMismatch):
                StateVector.basis_state(dim, level)
        # True is the integer 1, as in level_sweep; it is not a boolean mask
        np.testing.assert_array_equal(StateVector.basis_state(3, True).coefficients, [0, 1, 0])
        np.testing.assert_array_equal(
            StateVector.basis_state(np.int64(3), np.int32(2)).coefficients, [0, 0, 1]
        )

    def test_from_unnormalized(self):
        s = StateVector.from_unnormalized([3.0, 4.0])
        np.testing.assert_allclose(s.coefficients, [0.6, 0.8])

    def test_from_unnormalized_zero_rejected(self):
        with pytest.raises(ZeroVector):
            StateVector.from_unnormalized([0.0, 0.0])

    def test_from_unnormalized_extreme_magnitudes(self):
        # the plain norm squares 1e-200 to 0 and 1e200 to inf
        for tiny_or_huge in (1e-200, 1e200):
            s = StateVector.from_unnormalized([tiny_or_huge, tiny_or_huge])
            np.testing.assert_allclose(s.coefficients, [INV_SQRT2, INV_SQRT2], rtol=0, atol=1e-15)
        subnormal = StateVector.from_unnormalized([1e-320, 0.0])
        np.testing.assert_array_equal(subnormal.coefficients, [1.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            StateVector.from_unnormalized([math.inf, 1.0])

    def test_from_unnormalized_matches_plain_division(self):
        # each part divided by the norm, not b / norm, which multiplies by 1 / norm
        b = [1e3, 1e3j] @ np.random.default_rng(5).normal(size=(2, 9))
        s = StateVector.from_unnormalized(b)
        norm = np.linalg.norm(b)
        np.testing.assert_array_equal(s.coefficients.real, b.real / norm)
        np.testing.assert_array_equal(s.coefficients.imag, b.imag / norm)

    def test_from_unnormalized_single_entry_is_basis_state(self):
        # 0.98828125 / 0.98828125 is 1, but 0.98828125 * (1 / 0.98828125) is not
        dim = 4
        dec = jacobi_eigendecompose(random_hermitian(13, dim))
        rng = np.random.default_rng(14)
        entries = [0.98828125, 1e-320, *(10.0 ** rng.uniform(-300, 300, size=500))]
        for k, entry in enumerate(entries):
            level = k % dim
            b = np.zeros(dim)
            b[level] = entry
            state = StateVector.from_unnormalized(b)
            basis = StateVector.basis_state(dim, level)
            assert state.coefficients.tobytes() == basis.coefficients.tobytes()  # signed zeros too
            assert expected_energy(state, dec) == dec.eigenvalues[level]


class TestExpectedEnergy:
    def test_eigenstate_case(self, dec_2x2):
        assert expected_energy(StateVector.basis_state(2, 0), dec_2x2) == 0.0

    def test_symmetric_superposition(self, dec_2x2):
        b = StateVector(np.array([INV_SQRT2, INV_SQRT2]))
        assert expected_energy(b, dec_2x2) == pytest.approx(1.0, abs=1e-15)

    def test_weighted_arithmetic(self, dec_2x2):
        b = StateVector(np.array([0.5, math.sqrt(0.75)]))
        assert expected_energy(b, dec_2x2) == pytest.approx(1.5, abs=1e-15)

    def test_exact_for_every_basis_state(self):
        dec = jacobi_eigendecompose(random_hermitian(2, 5))
        for n in range(5):
            got = expected_energy(StateVector.basis_state(5, n), dec)
            assert got == dec.eigenvalues[n]


class TestLevelShifts:
    def test_zero_diagonal_coupling(self, dec_2x2):
        np.testing.assert_array_equal(level_shifts(HP_2x2, dec_2x2), [0.0, 0.0])

    def test_identity_perturbation(self):
        dec = jacobi_eigendecompose(random_hermitian(8, 4))
        shifts = level_shifts(HermitianMatrix(np.eye(4)), dec)
        np.testing.assert_allclose(shifts, np.ones(4), atol=1e-12)

    def test_box_linear_potential_gives_half_width(self):
        # oracle: <n|x|n> = L/2 for every well level
        spec = BoxModelSpec(4, math.pi, "linear", 1.0)
        dec = jacobi_eigendecompose(box_hamiltonian(spec))
        shifts = level_shifts(box_potential_matrix(spec), dec)
        np.testing.assert_allclose(shifts, np.full(4, math.pi / 2), atol=1e-8)

    @pytest.mark.parametrize("n", [1, 5, 24, 128, 256])
    def test_bitwise_equal_to_real_pair_form(self, n):
        # Re(conj(phi) H'phi) per column as Re.Re + Im.Im, each a real column sum;
        # within a few eps ||H'||_F of the complex einsum it replaced
        dec = jacobi_eigendecompose(random_hermitian(70 + n, n))
        hp = random_hermitian(80 + n, n, 0.05)
        phi, hp_phi = dec.eigenvectors, hp.array @ dec.eigenvectors
        pairs = np.einsum("ij,ij->j", phi.real, hp_phi.real)
        pairs += np.einsum("ij,ij->j", phi.imag, hp_phi.imag)
        shifts = level_shifts(hp, dec)
        assert np.array_equal(shifts, pairs)
        complex_form = np.einsum("ij,ij->j", phi.conj(), hp_phi).real
        bound = 4 * np.finfo(np.float64).eps * hp.frobenius_norm
        assert np.abs(shifts - complex_form).max() <= bound

    def test_fortran_ordered_decomposition(self):
        dec = jacobi_eigendecompose(random_hermitian(3, 6))
        hp = random_hermitian(4, 6, 0.1)
        fortran = SpectralDecomposition(
            np.asfortranarray(dec.eigenvalues), np.asfortranarray(dec.eigenvectors)
        )
        assert np.array_equal(level_shifts(hp, fortran), level_shifts(hp, dec))


class TestTotalEnergy:
    def test_zero_shifts(self):
        b = StateVector.basis_state(2, 0)
        eprime, e1 = total_energy(1.5, np.zeros(2), b, 0.3)
        assert eprime == 0.0
        assert e1 == 1.5

    def test_identity_shifts_add_strength(self):
        b = StateVector.from_unnormalized([1.0, 2.0, -1.0])
        eprime, e1 = total_energy(0.7, np.ones(3), b, 0.25)
        assert eprime == pytest.approx(1.0, abs=1e-15)
        assert e1 == pytest.approx(0.95, abs=1e-15)

    def test_arithmetic_example(self):
        b = StateVector(np.array([INV_SQRT2, INV_SQRT2]))
        eprime, e1 = total_energy(1.0, np.array([0.4, -0.2]), b, 0.1)
        assert eprime == pytest.approx(0.1, abs=1e-15)
        assert e1 == pytest.approx(1.01, abs=1e-15)


class TestCorrectionCoefficients:
    def test_zero_perturbation(self, dec_2x2):
        zero = HermitianMatrix(np.zeros((2, 2)))
        b = StateVector.basis_state(2, 0)
        a = correction_coefficients(zero, dec_2x2, b, 0.0, 0.0)
        np.testing.assert_array_equal(a, np.zeros(2))

    def test_eigenstate_mode_hand_value(self, dec_2x2):
        # nu_1 = <phi_1|H'|phi_0> = 1, E - E_1 = -2 -> a_1 = -0.5; a_0 is the 0/0 gauge zero
        b = StateVector.basis_state(2, 0)
        a = correction_coefficients(HP_2x2, dec_2x2, b, 0.0, 0.0)
        np.testing.assert_allclose(a, [0.0, -0.5], atol=1e-15)

    def test_superposition_mode_hand_value(self, dec_2x2):
        # nu_m = 1/sqrt(2) each; denominators are +1 and -1
        b = StateVector(np.array([INV_SQRT2, INV_SQRT2]))
        energy = expected_energy(b, dec_2x2)
        eprime, _ = total_energy(energy, level_shifts(HP_2x2, dec_2x2), b, 0.1)
        a = correction_coefficients(HP_2x2, dec_2x2, b, energy, eprime)
        np.testing.assert_allclose(a, [INV_SQRT2, -INV_SQRT2], atol=1e-15)

    @pytest.mark.parametrize("name", ["tol_degen", "tol_num"])
    @pytest.mark.parametrize("value", [math.nan, -1.0, math.inf])
    def test_invalid_tolerance_rejected(self, dec_2x2, name, value):
        b = StateVector.basis_state(2, 0)
        with pytest.raises(ValueError, match=f"{name}={value}"):
            correction_coefficients(HP_2x2, dec_2x2, b, 0.0, 0.0, **{name: value})
        with pytest.raises(ValueError, match=f"{name}={value}"):
            first_order(dec_2x2, HP_2x2, b, 0.1, **{name: value})

    @pytest.mark.parametrize("name", ["tol_degen", "tol_num"])
    def test_zero_tolerance_accepted(self, dec_2x2, name):
        b = StateVector.basis_state(2, 0)
        a = correction_coefficients(HP_2x2, dec_2x2, b, 0.0, 0.0, **{name: 0.0})
        np.testing.assert_allclose(a, [0.0, -0.5], atol=1e-15)
        res = first_order(dec_2x2, HP_2x2, b, 0.1, **{name: 0.0})
        np.testing.assert_allclose(res.corrections, [0.0, -0.5], atol=1e-15)

    def test_textbook_reduction_on_random_instances(self):
        # eigenstate mode must reproduce a_m = <phi_m|H'|phi_n>/(E_n - E_m), a_n = 0
        for seed in range(8):
            h, hp = random_nondegenerate_pair(seed, 5, perturbation_scale=0.2)
            dec = jacobi_eigendecompose(h)
            for n in range(5):
                b = StateVector.basis_state(5, n)
                energy = expected_energy(b, dec)
                eprime, _ = total_energy(energy, level_shifts(hp, dec), b, 0.01)
                a = correction_coefficients(hp, dec, b, energy, eprime)
                assert a[n] == 0
                for m in range(5):
                    if m == n:
                        continue
                    textbook = matrix_element(dec.eigenvector(m), hp, dec.eigenvector(n)) / (
                        dec.eigenvalues[n] - dec.eigenvalues[m]
                    )
                    assert abs(a[m] - textbook) <= 1e-12

    def test_degenerate_levels_rejected(self):
        h = HermitianMatrix(np.diag([1.0, 1.0]))
        dec = jacobi_eigendecompose(h)
        b = StateVector.basis_state(2, 0)
        with pytest.raises(DegenerateDenominator) as exc:
            correction_coefficients(HP_2x2, dec, b, 1.0, 0.0)
        assert exc.value.level == 1

    def test_lowest_degenerate_offender_reported(self):
        # level 0 couples to both degenerate partners 1 and 2
        dec = jacobi_eigendecompose(HermitianMatrix(np.diag([1.0, 1.0, 1.0])))
        hp = HermitianMatrix([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
        b = StateVector.basis_state(3, 0)
        with pytest.raises(DegenerateDenominator) as exc:
            correction_coefficients(hp, dec, b, 1.0, 0.0)
        assert exc.value.level == 1

    def test_matches_per_level_loop(self):
        rng = np.random.default_rng(11)
        for seed in range(6):
            h, hp = random_nondegenerate_pair(200 + seed, 7, perturbation_scale=0.3)
            dec = jacobi_eigendecompose(h)
            shifts = level_shifts(hp, dec)
            np.testing.assert_allclose(shifts, loop_level_shifts(hp, dec), rtol=0, atol=1e-13)
            b = StateVector.from_unnormalized(rng.normal(size=7) + 1j * rng.normal(size=7))
            energy = expected_energy(b, dec)
            eprime, _ = total_energy(energy, shifts, b, 0.05)
            np.testing.assert_allclose(
                correction_coefficients(hp, dec, b, energy, eprime),
                loop_correction_coefficients(hp, dec, b, energy, eprime),
                rtol=0,
                atol=1e-13,
            )

    @pytest.mark.parametrize("level", [0, 7, None])
    def test_byte_identical_to_explicit_formula(self, level):
        # (Phi^dagger (H' Phi b) - E' b) / (E - E_m), with ||H'||_F and Phi^dagger
        # read from the objects; a repeated call reads the same cached values
        dec = jacobi_eigendecompose(random_hermitian(17, 12))
        hp = random_hermitian(18, 12, 0.2)
        rng = np.random.default_rng(5)
        b = (
            StateVector.from_unnormalized(rng.normal(size=12) + 1j * rng.normal(size=12))
            if level is None
            else StateVector.basis_state(12, level)
        )
        energy = expected_energy(b, dec)
        eprime, _ = total_energy(energy, level_shifts(hp, dec), b, 0.05)
        phi, coeffs = dec.eigenvectors, b.coefficients
        numerators = phi.conj().T @ (hp.array @ (phi @ coeffs)) - eprime * coeffs
        denominators = energy - dec.eigenvalues
        expected = np.zeros(12, dtype=np.complex128)
        spread = dec.eigenvalues[-1] - dec.eigenvalues[0] + 1.0
        small = np.abs(denominators) <= DEFAULT_TOL_DEGEN * spread
        np.divide(numerators, denominators, out=expected, where=~small)
        for _ in range(2):
            got = correction_coefficients(hp, dec, b, energy, eprime)
            assert got.tobytes() == expected.tobytes()

    def test_overflowing_perturbation_norm_rejected(self):
        # ||H'||_F = inf would make tol_num * ||H'||_F infinite and pass the
        # degenerate pair's numerator as negligible: a typed error instead,
        # raised before any product and with no numpy warning.
        decomp = jacobi_eigendecompose(HermitianMatrix(np.diag([1.0, 1.0, 2.0])))
        coupling = np.zeros((3, 3))
        coupling[0, 1] = coupling[1, 0] = 2.0**600
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                correction_coefficients(
                    HermitianMatrix(coupling), decomp, StateVector.basis_state(3, 0), 1.0, 0.0
                )

    def test_degenerate_with_negligible_numerator_is_gauge_zero(self):
        # diagonal perturbation on degenerate levels: every numerator vanishes
        h = HermitianMatrix(np.diag([1.0, 1.0]))
        dec = jacobi_eigendecompose(h)
        b = StateVector.basis_state(2, 0)
        a = correction_coefficients(HermitianMatrix(np.eye(2)), dec, b, 1.0, 1.0)
        np.testing.assert_array_equal(a, np.zeros(2))

    def test_gauge_invariance_under_column_phase(self):
        h, hp = random_nondegenerate_pair(3, 5, perturbation_scale=0.2)
        dec = jacobi_eigendecompose(h)
        b = StateVector.basis_state(5, 2)
        energy = expected_energy(b, dec)
        shifts = level_shifts(hp, dec)
        eprime, e1 = total_energy(energy, shifts, b, 0.05)
        a = correction_coefficients(hp, dec, b, energy, eprime)

        phased = np.array(dec.eigenvectors)
        phased[:, 1] = np.exp(0.81j) * phased[:, 1]
        dec_phased = SpectralDecomposition(dec.eigenvalues, phased)
        shifts_phased = level_shifts(hp, dec_phased)
        energy_phased = expected_energy(b, dec_phased)
        eprime_phased, e1_phased = total_energy(energy_phased, shifts_phased, b, 0.05)
        a_phased = correction_coefficients(hp, dec_phased, b, energy_phased, eprime_phased)

        np.testing.assert_allclose(shifts_phased, shifts, atol=1e-12)
        assert e1_phased == pytest.approx(e1, abs=1e-12)
        np.testing.assert_allclose(np.abs(a_phased), np.abs(a), atol=1e-12)

        # re-fixing the phases restores the original decomposition and output
        refixed = _fix_phases(phased)
        dec_refixed = SpectralDecomposition(dec.eigenvalues, refixed)
        a_refixed = correction_coefficients(
            hp, dec_refixed, b, expected_energy(b, dec_refixed),
            total_energy(energy, level_shifts(hp, dec_refixed), b, 0.05)[0],
        )
        np.testing.assert_allclose(a_refixed, a, atol=1e-12)


class TestPerturbedState:
    def test_zero_strength(self):
        b = StateVector(np.array([INV_SQRT2, INV_SQRT2]))
        psi1, psi1n = perturbed_state(b, np.array([0.3, -0.4j]), 0.0)
        np.testing.assert_array_equal(psi1, b.coefficients)
        np.testing.assert_allclose(psi1n, b.coefficients, atol=1e-15)

    def test_hand_value(self):
        b = StateVector.basis_state(2, 0)
        psi1, psi1n = perturbed_state(b, np.array([0.0, -0.5]), 0.1)
        np.testing.assert_allclose(psi1, [1.0, -0.05], atol=1e-15)
        assert np.linalg.norm(psi1n) == pytest.approx(1.0, rel=1e-15)

    def test_identity_perturbation_leaves_state(self):
        b = StateVector.from_unnormalized([1.0, 1j, -2.0])
        psi1, _ = perturbed_state(b, np.zeros(3), 0.7)
        np.testing.assert_array_equal(psi1, b.coefficients)

    def test_exact_cancellation_rejected(self):
        b = StateVector.basis_state(2, 0)
        with pytest.raises(ZeroVector):
            perturbed_state(b, np.array([-10.0, 0.0]), 0.1)

    def test_overflowing_norm_rejected(self):
        # psi1 is finite, but its norm overflows; dividing by it would give zeros
        b = StateVector.basis_state(4, 0)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
            perturbed_state(b, np.array([0.0, -1.5e308, 0.0, 0.0]), 0.01)


class TestResidualNorm:
    def test_exact_eigenpair_is_zero(self):
        h, hp = random_nondegenerate_pair(1, 4)
        from qperturb.numkernel import add_scaled

        perturbed = add_scaled(h, hp, 0.3)
        dec = jacobi_eigendecompose(perturbed)
        r = residual_norm(h, hp, 0.3, float(dec.eigenvalues[1]), dec.eigenvector(1))
        assert r <= 1e-12

    def test_identity_perturbation_exact_at_any_strength(self):
        h = random_hermitian(6, 4)
        dec = jacobi_eigendecompose(h)
        identity = HermitianMatrix(np.eye(4))
        for x in (0.0, 0.1, 0.5, 1.0):
            res = first_order(dec, identity, StateVector.basis_state(4, 2), x)
            psi1 = dec.synthesize(res.perturbed_state)
            assert residual_norm(h, identity, x, res.perturbed_levels[2], psi1) <= 1e-12

    def test_quadratic_scaling_matches_analytic_form(self, dec_2x2):
        # oracle for H = diag(0,2), H' offdiagonal, level 0:
        # psi1 = (1, -x/2), (H+xH')psi1 - E1*psi1 = (-x^2/2, 0)
        analytic = lambda x: (x * x / 2) / math.sqrt(1 + x * x / 4)
        values = []
        for x in (0.1, 0.01):
            res = first_order(dec_2x2, HP_2x2, StateVector.basis_state(2, 0), x)
            psi1 = dec_2x2.synthesize(res.perturbed_state)
            r = residual_norm(H_2x2, HP_2x2, x, res.perturbed_levels[0], psi1)
            assert r == pytest.approx(analytic(x), rel=1e-10)
            values.append(r)
        assert values[0] / values[1] == pytest.approx(100.0, rel=0.01)

    def test_zero_state_rejected(self):
        with pytest.raises(ZeroVector):
            residual_norm(H_2x2, HP_2x2, 0.1, 0.0, np.zeros(2))

    def test_overflowing_norm_rejected(self):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
            residual_norm(H_2x2, HP_2x2, 0.1, 0.0, np.array([1.0, 1.5e306]))


class TestFirstOrderResult:
    def test_assembles_hand_example(self, dec_2x2):
        res = first_order(dec_2x2, HP_2x2, StateVector.basis_state(2, 0), 0.1)
        assert isinstance(res, FirstOrderResult)
        assert res.expected_energy == 0.0
        np.testing.assert_array_equal(res.level_shifts, [0.0, 0.0])
        np.testing.assert_array_equal(res.perturbed_levels, [0.0, 2.0])
        assert res.total_energy == 0.0
        np.testing.assert_allclose(res.corrections, [0.0, -0.5], atol=1e-15)
        np.testing.assert_allclose(res.perturbed_state, [1.0, -0.05], atol=1e-15)

    def test_structural_identities_on_random_instances(self):
        rng = np.random.default_rng(77)
        for seed in range(10):
            h, hp = random_nondegenerate_pair(100 + seed, 6, perturbation_scale=0.2)
            dec = jacobi_eigendecompose(h)
            b = StateVector.from_unnormalized(
                rng.normal(size=6) + 1j * rng.normal(size=6)
            )
            x = float(rng.uniform(0.001, 0.1))
            res = first_order(dec, hp, b, x)
            # E1_n = E_n + x shift_n, exact arithmetic identity
            np.testing.assert_array_equal(
                res.perturbed_levels, dec.eigenvalues + x * res.level_shifts
            )
            # psi1 = b + x a, coordinatewise
            np.testing.assert_array_equal(
                res.perturbed_state, b.coefficients + x * res.corrections
            )
            # E1 = sum_n |b_n|^2 E1_n, the weighted-sum identity
            weights = np.abs(b.coefficients) ** 2
            weighted = float(weights @ res.perturbed_levels)
            scale = max(abs(res.total_energy), float(weights @ np.abs(res.perturbed_levels)))
            assert abs(res.total_energy - weighted) <= 1e-12 * scale

    def test_strength_zero_reproduces_unperturbed(self, dec_2x2):
        res = first_order(dec_2x2, HP_2x2, StateVector.basis_state(2, 1), 0.0)
        np.testing.assert_array_equal(res.perturbed_levels, dec_2x2.eigenvalues)
        np.testing.assert_array_equal(res.perturbed_state, [0.0, 1.0])
        assert res.total_energy == 2.0

    def test_nonfinite_strength_rejected(self, dec_2x2):
        with pytest.raises(ValueError):
            first_order(dec_2x2, HP_2x2, StateVector.basis_state(2, 0), math.nan)


@st.composite
def gapped_instances(draw):
    """(decomposition, H', state, x) for a dense pair with N <= 8.

    H is ``U diag(E) U^dagger`` with U the QR factor of a seeded complex
    Gaussian matrix and every gap E_{n+1} - E_n at least 0.25, so no draw is
    degenerate; H' has entries of order 0.1.
    """
    dim = draw(st.integers(2, 8))
    gaps = draw(st.lists(st.floats(0.25, 2.0), min_size=dim - 1, max_size=dim - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    energies = np.concatenate([[0.0], np.cumsum(gaps)]) - draw(st.floats(-3.0, 3.0))
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    h = HermitianMatrix((u * energies) @ u.conj().T)
    hp = random_hermitian(int(rng.integers(2**63)), dim, 0.1)
    state = StateVector.from_unnormalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    return jacobi_eigendecompose(h), hp, state, draw(st.floats(1e-3, 1e-1))


def _off_resonance(dec, state):
    """True when E = sum |b_m|^2 E_m keeps clear of every level E_m."""
    energy = expected_energy(state, dec)
    spread = float(dec.eigenvalues[-1] - dec.eigenvalues[0])
    return float(np.abs(energy - dec.eigenvalues).min()) >= 1e-3 * spread


class TestFirstOrderProperties:
    @settings(max_examples=50, deadline=None)
    @given(gapped_instances())
    def test_total_is_weighted_sum_of_levels(self, instance):
        dec, hp, state, x = instance
        assume(_off_resonance(dec, state))
        res = first_order(dec, hp, state, x)
        weights = np.abs(state.coefficients) ** 2
        scale = max(1.0, float(weights @ np.abs(res.perturbed_levels)))
        assert abs(res.total_energy - float(weights @ res.perturbed_levels)) <= 1e-12 * scale

    @settings(max_examples=50, deadline=None)
    @given(gapped_instances(), st.data())
    def test_basis_state_has_no_own_correction(self, instance, data):
        dec, hp, _, x = instance
        level = data.draw(st.integers(0, dec.dim - 1))
        res = first_order(dec, hp, StateVector.basis_state(dec.dim, level), x)
        assert res.corrections[level] == 0

    @settings(max_examples=50, deadline=None)
    @given(gapped_instances(), st.floats(-math.pi, math.pi))
    def test_global_phase(self, instance, theta):
        dec, hp, state, x = instance
        assume(_off_resonance(dec, state))
        phase = np.exp(1j * theta)
        res = first_order(dec, hp, state, x)
        turned = first_order(dec, hp, StateVector(phase * state.coefficients), x)
        scale = max(1.0, float(np.abs(dec.eigenvalues).max()))
        assert abs(turned.expected_energy - res.expected_energy) <= 1e-13 * scale
        assert abs(turned.total_first_order - res.total_first_order) <= 1e-13 * scale
        assert abs(turned.total_energy - res.total_energy) <= 1e-13 * scale
        a_scale = max(1.0, float(np.abs(res.corrections).max()))
        np.testing.assert_allclose(
            turned.corrections, phase * res.corrections, rtol=0, atol=1e-10 * a_scale
        )
