import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qperturb import eigensolver
from qperturb.eigensolver import jacobi_eigendecompose
from qperturb.errors import (
    AttemptsExhausted,
    DimensionMismatch,
    InsufficientData,
    NoConvergence,
    QPerturbError,
)
from qperturb.models import BoxModelSpec, box_hamiltonian, box_potential_matrix, random_hermitian
from qperturb.numkernel import HermitianMatrix, add_scaled, identity
from qperturb.perturbation import StateVector, first_order
from qperturb import verify
from qperturb.verify import (
    DEFAULT_X_GRID,
    ERROR_FLOOR,
    SUPERPOSITION_LEVEL,
    OrderFit,
    SweepRecord,
    convergence_order,
    exact_levels,
    fit_order,
    level_sweep,
    random_nondegenerate_pair,
    records_for_level,
    superposition_sweep,
)

H_2x2 = HermitianMatrix(np.diag([0.0, 2.0]))
HP_2x2 = HermitianMatrix([[0, 1], [1, 0]])


class TestExactLevels:
    def test_zero_strength_reproduces_spectrum(self):
        h = random_hermitian(5, 5)
        hp = random_hermitian(6, 5)
        base = jacobi_eigendecompose(h).eigenvalues
        np.testing.assert_allclose(exact_levels(h, hp, 0.0), base, atol=1e-12)

    def test_weak_coupling_closed_form(self):
        got = exact_levels(H_2x2, HP_2x2, 0.1)
        np.testing.assert_allclose(
            got, [1 - math.sqrt(1.01), 1 + math.sqrt(1.01)], atol=1e-14
        )

    def test_identity_shift(self):
        h = random_hermitian(12, 4)
        base = jacobi_eigendecompose(h).eigenvalues
        np.testing.assert_allclose(exact_levels(h, identity(4), 0.7), base + 0.7, atol=1e-10)


def _degenerate_pair():
    """Diagonal H with an exactly degenerate pair, dense H'."""
    h = HermitianMatrix(np.diag([-1.0, 0.5, 0.5, 2.0, 3.0, 4.5]))
    return h, random_hermitian(41, 6, 0.05)


def _box_pair():
    spec = BoxModelSpec(12, math.pi, "linear", 1.0)
    return box_hamiltonian(spec), box_potential_matrix(spec)


ORACLE_PAIRS = {
    "dense-6": lambda: (random_hermitian(31, 6), random_hermitian(32, 6, 0.05)),
    "dense-24": lambda: (random_hermitian(33, 24), random_hermitian(34, 24, 0.05)),
    "dense-64": lambda: (random_hermitian(35, 64), random_hermitian(36, 64, 0.05)),
    "degenerate-6": _degenerate_pair,
    "box-12": _box_pair,
}


def _eigvalsh_and_tol(h, hp, x):
    m = h.array + x * hp.array
    return np.linalg.eigvalsh(m), 1e-12 * max(1.0, float(np.linalg.norm(m, 2)))


class TestWarmStartedOracle:
    """The sweeps' oracle, warm-started in H's eigenbasis, against numpy."""

    @pytest.mark.parametrize("name", ORACLE_PAIRS)
    def test_level_sweep_exact_against_eigvalsh(self, name):
        h, hp = ORACLE_PAIRS[name]()
        records = level_sweep(h, hp)
        for k, x in enumerate(DEFAULT_X_GRID):
            ref, tol = _eigvalsh_and_tol(h, hp, x)
            block = records[k * h.dim : (k + 1) * h.dim]
            assert [r.x for r in block] == [x] * h.dim
            assert np.abs(np.array([r.exact for r in block]) - ref).max() <= tol

    @pytest.mark.parametrize("name", ORACLE_PAIRS)
    def test_superposition_sweep_exact_against_eigvalsh(self, name):
        h, hp = ORACLE_PAIRS[name]()
        rng = np.random.default_rng(h.dim)
        state = StateVector.from_unnormalized(rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim))
        weights = np.abs(state.coefficients) ** 2
        records = superposition_sweep(h, hp, state)
        assert [r.x for r in records] == list(DEFAULT_X_GRID)
        for r in records:
            ref, tol = _eigvalsh_and_tol(h, hp, r.x)
            assert abs(r.exact - weights @ ref) <= tol

    def test_exact_levels_matches_full_decomposition_bitwise(self):
        h, hp = ORACLE_PAIRS["dense-6"]()
        x = DEFAULT_X_GRID[0]
        full = jacobi_eigendecompose(add_scaled(h, hp, x)).eigenvalues
        assert np.array_equal(exact_levels(h, hp, x), full)

    def test_warm_start_needs_few_sweeps(self, monkeypatch):
        h, hp = ORACLE_PAIRS["dense-24"]()
        diagonalize = eigensolver._diagonalize
        solves = _counting_diagonalize(monkeypatch)
        level_sweep(h, hp)
        assert [kind for kind, _ in solves] == ["vectors", "values"]
        assert solves[0][1][0] <= 1  # the cold decomposition's finishing sweeps
        oracle_sweeps = solves[1][1]
        assert len(oracle_sweeps) == len(DEFAULT_X_GRID)
        assert max(oracle_sweeps) <= 3
        for x in DEFAULT_X_GRID:
            cold = np.array(add_scaled(h, hp, x).array)
            assert diagonalize(cold, None, eigensolver.DEFAULT_MAX_SWEEPS) >= 6

    @pytest.mark.parametrize("name", ORACLE_PAIRS)
    @pytest.mark.parametrize(
        "grid", [DEFAULT_X_GRID, (0.5, 0.1, 1e-4, 1e-7)], ids=["default", "wide"]
    )
    def test_stack_members_bit_identical_to_solo(self, monkeypatch, name, grid):
        verify._eigenbasis_pass.cache_clear()
        h, hp = ORACLE_PAIRS[name]()
        solves = _counting_diagonalize(monkeypatch)
        _, decomp, _, _, exact = verify._sweep(h, hp, grid)
        stack_sweeps = solves[1][1]
        base = _in_eigenbasis(h, decomp.eigenvectors)
        coupling = _in_eigenbasis(hp, decomp.eigenvectors)
        for x, spectrum, sweeps in zip(grid, exact, stack_sweeps):
            assert np.array_equal(spectrum, _solo_levels(base, coupling, x))
            assert solves[-1] == ("values", [sweeps])  # the solo solve's count
        if name.startswith("dense") and grid != DEFAULT_X_GRID:
            # members converge after different sweeps: the gather path ran
            assert len(set(stack_sweeps)) > 1
        # the weighted totals too: a strided spectrum row would round differently
        state = StateVector.from_unnormalized(np.arange(1, h.dim + 1) * (1 - 0.5j))
        weights = np.abs(state.coefficients) ** 2
        for record, x in zip(superposition_sweep(h, hp, state, grid), grid):
            assert record.exact == float(weights @ _solo_levels(base, coupling, x))


def _solo_levels(base, coupling, x):
    """The stack member for x solved on its own: a values-only Jacobi solve of
    ``A0 + x V`` from the identity, its diagonal sorted."""
    work = np.array(add_scaled(base, coupling, x).array)
    eigensolver._diagonalize(work, None, eigensolver.DEFAULT_MAX_SWEEPS)
    return np.sort(np.diagonal(work).real, kind="stable")


def _in_eigenbasis(matrix, eigenvectors):
    """Reference ``Phi^dagger A Phi``, symmetrized as ``(W + W^dagger)/2``."""
    w = eigenvectors.conj().T @ matrix.array @ eigenvectors
    return HermitianMatrix((w + w.conj().T) / 2.0)


def _counting_diagonalize(monkeypatch):
    """Record every Jacobi solve that runs as ``(kind, sweeps)``: kind
    ``"vectors"`` or ``"values"``, and one sweep count per member (a list of
    one for a single matrix)."""
    diagonalize = eigensolver._diagonalize
    solves = []

    def counting(work, vecs, max_sweeps):
        sweeps = diagonalize(work, vecs, max_sweeps)
        solves.append(("values" if vecs is None else "vectors", np.atleast_1d(sweeps).tolist()))
        return sweeps

    monkeypatch.setattr(eigensolver, "_diagonalize", counting)
    return solves


class TestSharedPass:
    """Sweeps on the same H and H' objects and an equal grid share one pass."""

    def test_three_sweeps_one_pass(self, monkeypatch):
        verify._eigenbasis_pass.cache_clear()
        h, hp = ORACLE_PAIRS["dense-24"]()
        solves = _counting_diagonalize(monkeypatch)
        level_sweep(h, hp)
        superposition_sweep(h, hp, StateVector.basis_state(h.dim, 3))
        level_sweep(h, hp, list(DEFAULT_X_GRID), levels=[0])
        # one solve with vectors, then the oracle: one stack, a member per strength
        assert [(kind, len(sweeps)) for kind, sweeps in solves] == [
            ("vectors", 1),
            ("values", len(DEFAULT_X_GRID)),
        ]

    @pytest.mark.parametrize(
        "change",
        [
            lambda h, hp, xs: (HermitianMatrix(h.array), hp, xs),
            lambda h, hp, xs: (h, HermitianMatrix(hp.array), xs),
            lambda h, hp, xs: (h, hp, xs[:-1]),
        ],
        ids=["equal-h-copy", "other-hp-object", "other-grid"],
    )
    def test_fresh_pass_for_other_inputs(self, monkeypatch, change):
        verify._eigenbasis_pass.cache_clear()
        h, hp = ORACLE_PAIRS["dense-6"]()
        level_sweep(h, hp)
        solves = _counting_diagonalize(monkeypatch)
        h2, hp2, xs = change(h, hp, DEFAULT_X_GRID)
        level_sweep(h2, hp2, xs)
        assert [(kind, len(sweeps)) for kind, sweeps in solves] == [
            ("vectors", 1),
            ("values", len(xs)),
        ]

    @pytest.mark.parametrize("name", ["dense-6", "dense-24", "box-12"])
    def test_shared_records_bit_identical_to_fresh(self, monkeypatch, name):
        h, hp = ORACLE_PAIRS[name]()
        state = StateVector.from_unnormalized(np.arange(1, h.dim + 1) * (1 - 0.5j))
        verify._eigenbasis_pass.cache_clear()
        fresh_levels = pickle.dumps(level_sweep(h, hp))
        verify._eigenbasis_pass.cache_clear()
        fresh_sup = pickle.dumps(superposition_sweep(h, hp, state))
        verify._eigenbasis_pass.cache_clear()
        shared_levels = pickle.dumps(level_sweep(h, hp))
        shared_sup = pickle.dumps(superposition_sweep(h, hp, state))
        assert shared_levels == fresh_levels
        assert shared_sup == fresh_sup

    def test_failed_pass_leaves_memo_unchanged(self, monkeypatch):
        verify._eigenbasis_pass.cache_clear()
        kept = pickle.dumps(level_sweep(H_2x2, HP_2x2))
        diagonalize = eigensolver._diagonalize

        def oracle_fails(work, vecs, max_sweeps):
            if vecs is None:
                raise NoConvergence(max_sweeps)
            return diagonalize(work, vecs, max_sweeps)

        monkeypatch.setattr(eigensolver, "_diagonalize", oracle_fails)
        h, hp = ORACLE_PAIRS["dense-6"]()
        with pytest.raises(NoConvergence):
            level_sweep(h, hp)
        # the earlier pass is still the cached one: repeating it solves nothing
        solves = _counting_diagonalize(monkeypatch)
        assert pickle.dumps(level_sweep(H_2x2, HP_2x2)) == kept
        assert solves == []


class TestSweepRecord:
    def test_measure_fills_error(self):
        r = SweepRecord(0.1, 0, 2.0, 2.005)
        assert r.abs_error == abs(2.0 - 2.005)

    def test_rejects_nonpositive_strength(self):
        with pytest.raises(ValueError):
            SweepRecord(0.0, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            SweepRecord(-0.1, 0, 1.0, 1.0)

    def test_error_is_not_an_argument(self):
        with pytest.raises(TypeError):
            SweepRecord(0.1, 0, 1.0, 2.0, 0.5)


class TestConvergenceOrder:
    def test_exact_quadratic_data(self):
        recs = [
            SweepRecord(x, 0, 0.0, err)
            for x, err in [(1e-1, 5e-3), (1e-2, 5e-5), (1e-3, 5e-7)]
        ]
        fit = convergence_order(recs)
        assert fit.slope == pytest.approx(2.0, abs=1e-9)
        assert not fit.floored
        assert fit.n_points == 3

    def test_exact_linear_data(self):
        fit = fit_order([1e-1, 1e-2, 1e-3], [4e-2, 4e-3, 4e-4])
        assert fit.slope == pytest.approx(1.0, abs=1e-9)

    def test_all_below_floor(self):
        fit = fit_order([1e-1, 1e-2, 1e-3], [1e-13, 5e-14, 1e-14])
        assert fit.floored
        assert math.isnan(fit.slope)
        assert fit.n_points == 0

    def test_single_survivor_is_floored(self):
        fit = fit_order([1e-1, 1e-2], [1e-3, 1e-14])
        assert fit.floored
        assert fit.n_points == 1

    def test_survivors_at_one_strength_are_floored(self):
        # two points survive the floor, but at one strength: no slope exists
        fit = fit_order([0.1, 0.1, 1e-3], [1e-3, 1e-3, 1e-20])
        assert fit.floored
        assert math.isnan(fit.slope) and math.isnan(fit.intercept)
        assert fit.n_points == 2

    def test_too_few_distinct_strengths(self):
        with pytest.raises(InsufficientData):
            fit_order([1e-1], [1e-3])
        with pytest.raises(InsufficientData):
            fit_order([1e-1, 1e-1], [1e-3, 1e-3])

    def test_nonpositive_strength_rejected(self):
        with pytest.raises(InsufficientData):
            fit_order([1e-1, -1e-2], [1e-3, 1e-4])

    @pytest.mark.parametrize(
        "errors",
        [
            [1e-2, math.nan, 1e-6],  # would fit slope 2.0 from the other two points
            [math.nan, math.nan, math.nan],  # would come back floored
            [1e-2, math.inf, 1e-6],  # would fit slope NaN, not floored
            [1e-2, -1e-4, 1e-6],
        ],
    )
    def test_unfittable_error_rejected(self, errors):
        with pytest.raises(InsufficientData, match="errors"):
            fit_order([0.1, 0.01, 0.001], errors)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(DEFAULT_X_GRID),
                st.sampled_from([0.0, 1e-20, ERROR_FLOOR, 2e-12, 1e-6, 1e-3]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @example([(0.1, 1e-3), (0.1, 1e-3)])  # one strength repeated
    @example([(0.1, ERROR_FLOOR), (0.01, 1e-20), (0.001, 0.0)])  # all at or below the floor
    @example([(0.1, 1e-3), (0.01, ERROR_FLOOR), (0.001, 1e-20)])  # one survivor
    @example([(0.1, 1e-3), (0.1, 1e-6), (0.001, 1e-20)])  # survivors at one strength
    def test_distinct_strength_rule_matches_set_reference(self, points):
        xs = [x for x, _ in points]
        errors = [e for _, e in points]
        survivors = [x for x, e in points if e > ERROR_FLOOR]
        if len(set(xs)) < 2:
            with pytest.raises(InsufficientData, match="2 distinct strengths"):
                fit_order(xs, errors)
            return
        fit = fit_order(xs, errors)
        assert fit.n_points == len(survivors)
        assert fit.floored == (len(set(survivors)) < 2)
        assert math.isnan(fit.slope) == fit.floored

    def test_intercept_from_known_line(self):
        # errors = 0.05 x^2 -> intercept = log10(0.05)
        fit = fit_order([1e-1, 1e-2, 1e-3], [0.05 * x**2 for x in (1e-1, 1e-2, 1e-3)])
        assert fit.intercept == pytest.approx(math.log10(0.05), abs=1e-9)


class TestLevelSweep:
    def test_two_by_two_defaults(self):
        recs = level_sweep(H_2x2, HP_2x2)
        assert len(recs) == 2 * len(DEFAULT_X_GRID)
        for level in (0, 1):
            fit = convergence_order(records_for_level(recs, level))
            assert fit.floored or fit.slope >= 1.8

    def test_level_restriction(self):
        recs = level_sweep(H_2x2, HP_2x2, levels=[1])
        assert {r.level for r in recs} == {1}
        assert len(recs) == len(DEFAULT_X_GRID)
        # A fresh restricted pass gives the full sweep's records for those
        # levels, bit for bit and in the requested order.
        for name in ("dense-24", "box-12"):
            h, hp = ORACLE_PAIRS[name]()
            levels = [h.dim - 1, 0]
            verify._eigenbasis_pass.cache_clear()
            full = {(r.x, r.level): r for r in level_sweep(h, hp)}
            verify._eigenbasis_pass.cache_clear()
            recs = level_sweep(h, hp, levels=levels)
            want = [full[x, level] for x in DEFAULT_X_GRID for level in levels]
            assert pickle.dumps(recs) == pickle.dumps(want)

    def test_identity_perturbation_floored(self):
        recs = level_sweep(H_2x2, identity(2))
        assert all(r.abs_error <= 1e-12 for r in recs)
        assert convergence_order(records_for_level(recs, 0)).floored

    def test_bad_level_rejected(self):
        with pytest.raises(DimensionMismatch):
            level_sweep(H_2x2, HP_2x2, levels=[5])

    @pytest.mark.parametrize("level", [1.5, 2])
    def test_bad_level_rejected_before_any_solve(self, monkeypatch, level):
        def no_solve(*args, **kwargs):
            raise AssertionError("diagonalized before the levels were checked")

        monkeypatch.setattr(verify, "jacobi_eigendecompose", no_solve)
        with pytest.raises(DimensionMismatch):
            level_sweep(H_2x2, HP_2x2, levels=[level])


    @pytest.mark.parametrize("bad", [-0.01, 0.0, math.nan, math.inf])
    def test_bad_strength_rejected_before_any_solve(self, monkeypatch, bad):
        def no_solve(*args, **kwargs):
            raise AssertionError("diagonalized before the strengths were checked")

        monkeypatch.setattr(verify, "jacobi_eigendecompose", no_solve)
        with pytest.raises(ValueError, match="sweep strength must be positive and finite"):
            level_sweep(H_2x2, HP_2x2, [0.1, bad])

    @pytest.mark.parametrize("superposition", [False, True], ids=["levels", "superposition"])
    def test_empty_grid_rejected_before_any_solve(self, monkeypatch, superposition):
        def no_solve(*args, **kwargs):
            raise AssertionError("diagonalized before the grid was checked")

        verify._eigenbasis_pass.cache_clear()
        monkeypatch.setattr(verify, "jacobi_eigendecompose", no_solve)
        monkeypatch.setattr(eigensolver, "_diagonalize", no_solve)
        with pytest.raises(InsufficientData, match="at least one strength"):
            if superposition:
                superposition_sweep(H_2x2, HP_2x2, StateVector.basis_state(2, 0), [])
            else:
                level_sweep(H_2x2, HP_2x2, [])

    @pytest.mark.parametrize("superposition", [False, True], ids=["levels", "superposition"])
    def test_overflowing_perturbation_rejected_before_oracle(self, monkeypatch, superposition):
        h = HermitianMatrix(np.diag([1.0, 2.0, 3.0, 4.0]))
        # passes HermitianMatrix's checks, but Phi^dagger H' Phi overflows
        hp = HermitianMatrix(1.5e308 * (np.eye(4) + np.eye(4, k=1) + np.eye(4, k=-1)))
        solves = _counting_diagonalize(monkeypatch)
        with np.errstate(all="ignore"), pytest.raises(
            ValueError, match="matrix entries must be finite"
        ):
            if superposition:
                superposition_sweep(h, hp, StateVector.basis_state(4, 0))
            else:
                level_sweep(h, hp)
        assert [kind for kind, _ in solves] == ["vectors"]

    @pytest.mark.parametrize("superposition", [False, True], ids=["levels", "superposition"])
    def test_overflowing_oracle_norm_rejected(self, superposition):
        h = HermitianMatrix(np.diag([1.0, 2.0, 3.0, 4.0]))
        # the stack is finite, but the x = 0.1 member's Frobenius norm overflows
        hp = HermitianMatrix(1e155 * (np.eye(4) + np.eye(4, k=1) + np.eye(4, k=-1)))
        verify._eigenbasis_pass.cache_clear()
        with pytest.raises(ValueError, match="matrix norm overflows"):
            if superposition:
                superposition_sweep(h, hp, StateVector.basis_state(4, 0))
            else:
                level_sweep(h, hp)

    @pytest.mark.parametrize("name", ["dense-24", "box-12"])
    def test_perturbative_column_is_first_order_bitwise(self, name):
        h, hp = ORACLE_PAIRS[name]()
        records = level_sweep(h, hp)
        decomp = jacobi_eigendecompose(h)
        state = StateVector.basis_state(h.dim, 0)
        for k, x in enumerate(DEFAULT_X_GRID):
            swept = np.array([r.perturbative for r in records[k * h.dim : (k + 1) * h.dim]])
            levels = np.sort(first_order(decomp, hp, state, x).perturbed_levels)
            assert swept.tobytes() == levels.tobytes()


class TestSuperpositionSweep:
    def test_asymmetric_state_quadratic(self):
        b = StateVector.from_unnormalized([2.0, 1.0])
        recs = superposition_sweep(H_2x2, HP_2x2, b)
        assert {r.level for r in recs} == {SUPERPOSITION_LEVEL}
        fit = convergence_order(recs)
        assert fit.floored or fit.slope >= 1.8

    def test_symmetric_state_exact(self):
        # equal weights: the weighted exact spectrum equals E1 identically
        b = StateVector.from_unnormalized([1.0, 1.0])
        recs = superposition_sweep(H_2x2, HP_2x2, b)
        assert all(r.abs_error <= 1e-12 for r in recs)
        assert convergence_order(recs).floored

    def test_state_dim_checked_before_any_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("diagonalized before the state was checked")

        monkeypatch.setattr(verify, "jacobi_eigendecompose", no_solve)
        with pytest.raises(DimensionMismatch):
            superposition_sweep(H_2x2, HP_2x2, StateVector.basis_state(3, 0))


class TestRandomNondegeneratePair:
    def test_deterministic(self):
        a1, b1 = random_nondegenerate_pair(4, 5)
        a2, b2 = random_nondegenerate_pair(4, 5)
        assert np.array_equal(a1.array, a2.array)
        assert np.array_equal(b1.array, b2.array)

    def test_gap_property(self):
        for seed in range(6):
            h, _ = random_nondegenerate_pair(seed, 6, min_gap_fraction=0.15)
            vals = jacobi_eigendecompose(h).eigenvalues
            spread = vals[-1] - vals[0]
            assert np.diff(vals).min() >= 0.15 * spread

    def test_perturbation_scale_respected(self):
        _, hp = random_nondegenerate_pair(2, 6, perturbation_scale=0.1)
        assert np.abs(hp.array).max() <= 0.1

    def test_infeasible_gap_fraction_fails_fast(self):
        # 11 gaps that sum to the spread cannot each be >= 0.1 of it
        with pytest.raises(ValueError, match="infeasible"):
            random_nondegenerate_pair(0, 12)

    def test_exhausted_attempts_typed(self):
        # feasible (5 * 0.19 < 1) but the single draw of seed 0 misses the gap criterion
        with pytest.raises(AttemptsExhausted) as exc:
            random_nondegenerate_pair(0, 6, min_gap_fraction=0.19, max_attempts=1)
        assert exc.value.attempts == 1
        assert isinstance(exc.value, QPerturbError)
        assert isinstance(exc.value, RuntimeError)


def test_order_fit_is_dataclass_with_expected_fields():
    fit = OrderFit(slope=2.0, intercept=-1.0, n_points=5, floored=False)
    assert (fit.slope, fit.intercept, fit.n_points, fit.floored) == (2.0, -1.0, 5, False)
