import math
import pickle
import tracemalloc
import warnings

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
from qperturb.numkernel import HermitianMatrix, add_scaled
from qperturb.perturbation import StateVector, first_order, level_shifts
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
        shifted = exact_levels(h, HermitianMatrix(np.eye(4)), 0.7)
        np.testing.assert_allclose(shifted, base + 0.7, atol=1e-10)


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
    """The sweeps' oracle, one batched solve of H and every H + x H', against
    numpy and against solves of its own."""

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

    @pytest.mark.parametrize("name", ["dense-6", "dense-24", "dense-64", "box-12"])
    def test_shifts_read_from_v_match_level_shifts(self, name):
        h, hp = ORACLE_PAIRS[name]()
        _, decomp, shifts, _, _ = verify._sweep(h, hp, DEFAULT_X_GRID)
        direct = level_shifts(hp, decomp)
        if name == "box-12":
            assert np.array_equal(decomp.eigenvectors, np.eye(h.dim))
            assert np.array_equal(shifts, direct)
        else:
            bound = 4 * np.finfo(np.float64).eps * np.linalg.norm(hp.array)
            assert np.abs(shifts - direct).max() <= bound

    def test_exact_levels_matches_full_decomposition_bitwise(self):
        h, hp = ORACLE_PAIRS["dense-6"]()
        x = DEFAULT_X_GRID[0]
        full = jacobi_eigendecompose(add_scaled(h, hp, x)).eigenvalues
        assert np.array_equal(exact_levels(h, hp, x), full)

    def test_one_finishing_call_runs_no_sweep(self, monkeypatch):
        h, hp = ORACLE_PAIRS["dense-24"]()
        verify._eigenbasis_pass.cache_clear()
        solves = _counting_solves(monkeypatch)
        start_basis, starts = eigensolver._start_basis, []

        def counting(a):
            starts.append(len(a))
            return start_basis(a)

        monkeypatch.setattr(eigensolver, "_start_basis", counting)
        level_sweep(h, hp)
        # H and one member per strength, solved by one call and started
        # together, from a start basis good enough that no member restarts
        assert solves == [len(DEFAULT_X_GRID) + 1]
        assert starts == [len(DEFAULT_X_GRID) + 1]

    @pytest.mark.parametrize("name", ORACLE_PAIRS)
    @pytest.mark.parametrize(
        "grid", [DEFAULT_X_GRID, (0.5, 0.1, 1e-4, 1e-7)], ids=["default", "wide"]
    )
    def test_stack_members_bit_identical_to_solo(self, name, grid):
        verify._eigenbasis_pass.cache_clear()
        h, hp = ORACLE_PAIRS[name]()
        _, decomp, _, _, exact = verify._sweep(h, hp, grid)
        solo = jacobi_eigendecompose(h)
        assert decomp.eigenvalues.tobytes() == solo.eigenvalues.tobytes()
        assert decomp.eigenvectors.tobytes() == solo.eigenvectors.tobytes()
        for x, spectrum in zip(grid, exact):
            assert spectrum.tobytes() == exact_levels(h, hp, x).tobytes()
        # the weighted totals too: a strided spectrum row would round differently
        state = StateVector.from_unnormalized(np.arange(1, h.dim + 1) * (1 - 0.5j))
        weights = np.abs(state.coefficients) ** 2
        for record, x in zip(superposition_sweep(h, hp, state, grid), grid):
            assert record.exact == float(weights @ exact_levels(h, hp, x))

    @pytest.mark.parametrize("name", ORACLE_PAIRS)
    def test_stack_bit_identical_to_add_scaled_members(self, monkeypatch, name):
        # the broadcast H + x H' build, members symmetrized as HermitianMatrix does
        verify._eigenbasis_pass.cache_clear()
        h, hp = ORACLE_PAIRS[name]()
        grid = (*DEFAULT_X_GRID, 0.7, 1.3e-5)
        eigensystems, stacks = eigensolver._eigensystems, []

        def capturing(stack, *args):
            stacks.append(np.array(stack))
            return eigensystems(stack, *args)

        monkeypatch.setattr(eigensolver, "_eigensystems", capturing)
        level_sweep(h, hp, grid)
        members = [h.array, *(add_scaled(h, hp, x).array for x in grid)]
        assert stacks[0].tobytes() == np.stack(members).tobytes()


def _counting_solves(monkeypatch):
    """Record the member count of every ``_eigensystems`` call that returns:
    one per solve of a matrix or of a sweep pass's stack."""
    eigensystems = eigensolver._eigensystems
    solves = []

    def counting(stack, *args):
        result = eigensystems(stack, *args)
        solves.append(len(stack))
        return result

    monkeypatch.setattr(eigensolver, "_eigensystems", counting)
    return solves


def _forbid_solves(monkeypatch, before):
    """Clear the pass cache and fail the test on any oracle solve."""

    def no_solve(*args, **kwargs):
        raise AssertionError(f"diagonalized before {before}")

    verify._eigenbasis_pass.cache_clear()
    monkeypatch.setattr(eigensolver, "_eigensystems", no_solve)


class TestSharedPass:
    """Sweeps on the same H and H' objects and an equal grid share one pass."""

    def test_three_sweeps_one_pass(self, monkeypatch):
        verify._eigenbasis_pass.cache_clear()
        h, hp = ORACLE_PAIRS["dense-24"]()
        solves = _counting_solves(monkeypatch)
        level_sweep(h, hp)
        superposition_sweep(h, hp, StateVector.basis_state(h.dim, 3))
        level_sweep(h, hp, list(DEFAULT_X_GRID), levels=[0])
        # one solve: a stack of H and a member per strength
        assert solves == [len(DEFAULT_X_GRID) + 1]

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
        solves = _counting_solves(monkeypatch)
        h2, hp2, xs = change(h, hp, DEFAULT_X_GRID)
        level_sweep(h2, hp2, xs)
        assert solves == [len(xs) + 1]

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
        eigensystems = eigensolver._eigensystems

        def oracle_fails(stack, *args):
            if len(stack) > 1:  # the oracle's stack, not a solve of one matrix
                raise NoConvergence(0, 1.0)
            return eigensystems(stack, *args)

        monkeypatch.setattr(eigensolver, "_eigensystems", oracle_fails)
        h, hp = ORACLE_PAIRS["dense-6"]()
        with pytest.raises(NoConvergence):
            level_sweep(h, hp)
        # the earlier pass is still the cached one: repeating it solves nothing
        solves = _counting_solves(monkeypatch)
        assert pickle.dumps(level_sweep(H_2x2, HP_2x2)) == kept
        assert solves == []


class TestSweepMatchesFirstOrder:
    """The sweeps' perturbative values are ``first_order``'s, bit for bit."""

    PAIRS = {
        **{name: ORACLE_PAIRS[name] for name in ("dense-6", "dense-24", "dense-64", "box-12")},
        # With shifts of their own, from diag(Phi^H H' Phi), the sweeps gave
        # 0.027122612058427375 for level 3 at x = 0.1, first_order 0.02712261205842738.
        "dense-6-last-ulp": lambda: (random_hermitian(5, 6), random_hermitian(55, 6, 0.05)),
    }

    @pytest.mark.parametrize("name", PAIRS)
    def test_level_and_total_values(self, name):
        h, hp = self.PAIRS[name]()
        decomp = jacobi_eigendecompose(h)
        state = StateVector.from_unnormalized(np.arange(1, h.dim + 1) * (1 - 0.5j))
        basis = StateVector.basis_state(h.dim, 0)  # the levels do not depend on the state
        verify._eigenbasis_pass.cache_clear()
        levels = level_sweep(h, hp)
        totals = superposition_sweep(h, hp, state)
        for x, total in zip(DEFAULT_X_GRID, totals):
            want = np.sort(first_order(decomp, hp, basis, x).perturbed_levels)
            got = [r.perturbative for r in levels if r.x == x]
            assert np.array(got).tobytes() == want.tobytes()
            assert total.perturbative == first_order(decomp, hp, state, x).total_energy


class TestSweepMemory:
    def test_level_sweep_working_memory(self):
        # The tracemalloc peak of a fresh level sweep at N = 64 with 20
        # strengths, in copies of its (21, 64, 64) complex stack: 11.2 with a
        # scaled copy of every member, mirror arrays and the members kept
        # beside the stack, 6.7 without.
        h, hp = ORACLE_PAIRS["dense-64"]()
        strengths = np.geomspace(1e-1, 1e-3, 20)
        stack_bytes = (len(strengths) + 1) * h.array.nbytes
        verify._eigenbasis_pass.cache_clear()
        tracemalloc.start()
        try:
            level_sweep(h, hp, strengths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            verify._eigenbasis_pass.cache_clear()
        assert peak <= 7.5 * stack_bytes


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
        "xs, errors",
        [([1e-1, 1e-2], [1e-3]), ([[1e-1, 1e-2]], [[1e-3, 1e-4]])],
        ids=["lengths", "2-D"],
    )
    def test_shapes_must_agree(self, xs, errors):
        with pytest.raises(DimensionMismatch, match="xs and errors must be 1-D and equally long"):
            fit_order(xs, errors)

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

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1e-9, max_value=10.0),
                st.one_of(
                    st.sampled_from([0.0, 1e-20, ERROR_FLOOR, np.nextafter(ERROR_FLOOR, 1.0)]),
                    st.floats(min_value=1e-18, max_value=1.0),
                ),
            ),
            min_size=2,
            max_size=8,
            unique_by=lambda point: point[0],
        )
    )
    @example([(0.1, 3e-3), (0.01, 3e-5), (0.001, ERROR_FLOOR)])
    def test_line_is_polyfit_bit_for_bit(self, points):
        xs = np.array([x for x, _ in points])
        errors = np.array([e for _, e in points])
        keep = errors > ERROR_FLOOR
        with warnings.catch_warnings(record=True) as ours:
            warnings.simplefilter("always")
            fit = fit_order(xs, errors)
        assert fit.n_points == int(keep.sum())
        assert fit.floored == (len(set(xs[keep].tolist())) < 2)
        if fit.floored:
            return
        with warnings.catch_warnings(record=True) as theirs:
            warnings.simplefilter("always")
            slope, intercept = np.polyfit(np.log10(xs[keep]), np.log10(errors[keep]), 1)
        assert np.float64(fit.slope).tobytes() == slope.tobytes()
        assert np.float64(fit.intercept).tobytes() == intercept.tobytes()
        assert [w.category for w in ours] == [w.category for w in theirs]

    def test_strengths_an_ulp_apart_warn_as_polyfit_does(self):
        with pytest.warns(np.exceptions.RankWarning):
            fit_order([1e-2, np.nextafter(1e-2, 1)], [1e-4, 2e-4])


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
        # True is the integer level 1, not a boolean mask over the levels
        assert pickle.dumps(level_sweep(H_2x2, HP_2x2, levels=[True])) == pickle.dumps(recs)
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

    def test_crossing_pairs_by_rank(self):
        # levels 1 and 2 cross at x = 0.01: past it, level 1's record holds
        # the lower first-order level (0.92, level 2's value), as does the
        # oracle's rank 1, so first order is right there to 1e-8
        h = HermitianMatrix(np.diag([0.0, 1.0, 1.02]))
        hp = HermitianMatrix([[0, 1e-3, 0], [1e-3, 1, 1e-4], [0, 1e-4, -1]])
        (record,) = level_sweep(h, hp, [0.1], levels=[1])
        assert record.perturbative == pytest.approx(0.92, abs=1e-12)
        assert record.abs_error < 1e-8

    def test_identity_perturbation_floored(self):
        recs = level_sweep(H_2x2, HermitianMatrix(np.eye(2)))
        assert all(r.abs_error <= 1e-12 for r in recs)
        assert convergence_order(records_for_level(recs, 0)).floored

    def test_bad_level_rejected(self):
        with pytest.raises(DimensionMismatch):
            level_sweep(H_2x2, HP_2x2, levels=[5])

    @pytest.mark.parametrize("level", [1.5, 2])
    def test_bad_level_rejected_before_any_solve(self, monkeypatch, level):
        _forbid_solves(monkeypatch, "the levels were checked")
        with pytest.raises(DimensionMismatch):
            level_sweep(H_2x2, HP_2x2, levels=[level])

    @pytest.mark.parametrize("bad", [-0.01, 0.0, math.nan, math.inf])
    def test_bad_strength_rejected_before_any_solve(self, monkeypatch, bad):
        _forbid_solves(monkeypatch, "the strengths were checked")
        with pytest.raises(ValueError, match="sweep strength must be positive and finite"):
            level_sweep(H_2x2, HP_2x2, [0.1, bad])

    @pytest.mark.parametrize("superposition", [False, True], ids=["levels", "superposition"])
    def test_empty_grid_rejected_before_any_solve(self, monkeypatch, superposition):
        _forbid_solves(monkeypatch, "the grid was checked")
        with pytest.raises(InsufficientData, match="at least one strength"):
            if superposition:
                superposition_sweep(H_2x2, HP_2x2, StateVector.basis_state(2, 0), [])
            else:
                level_sweep(H_2x2, HP_2x2, [])

    def test_empty_levels_rejected_before_any_solve(self, monkeypatch):
        # no level to emit: raise instead of a whole oracle solve that returns []
        _forbid_solves(monkeypatch, "the levels were checked")
        with pytest.raises(InsufficientData, match="at least one level"):
            level_sweep(H_2x2, HP_2x2, levels=[])

    @pytest.mark.parametrize("superposition", [False, True], ids=["levels", "superposition"])
    @pytest.mark.parametrize("dims", [(3, 4), (1, 4), (4, 1)], ids=["3-4", "1-4", "4-1"])
    def test_dim_mismatch_rejected_before_any_solve(self, monkeypatch, dims, superposition):
        # as exact_levels raises it (through add_scaled), not numpy's
        # broadcast error, and not after the oracle solve
        h, hp = (random_hermitian(50 + dim, dim) for dim in dims)
        _forbid_solves(monkeypatch, "the dims were checked")
        with pytest.raises(DimensionMismatch, match=f"matrix dims differ: {dims[0]} vs {dims[1]}"):
            if superposition:
                superposition_sweep(h, hp, StateVector.basis_state(h.dim, 0))
            else:
                level_sweep(h, hp)
        with pytest.raises(DimensionMismatch, match=f"matrix dims differ: {dims[0]} vs {dims[1]}"):
            exact_levels(h, hp, 0.1)

    @pytest.mark.parametrize("superposition", [False, True], ids=["levels", "superposition"])
    def test_overflowing_perturbation_rejected_before_oracle(self, monkeypatch, superposition):
        # H' passes HermitianMatrix's checks, but 2 H' overflows; and at
        # x = 0.1 of the default grid, so does H + x H' once H has an entry
        # near the largest float, although neither term does.
        hp = HermitianMatrix(1.5e308 * (np.eye(4) + np.eye(4, k=1) + np.eye(4, k=-1)))
        solves = _counting_solves(monkeypatch)
        for h, xs in [
            (HermitianMatrix(np.diag([1.0, 2.0, 3.0, 4.0])), (0.1, 2.0)),
            (HermitianMatrix(np.diag([1.0, 2.0, 3.0, 1.7e308])), DEFAULT_X_GRID),
        ]:
            verify._eigenbasis_pass.cache_clear()
            with np.errstate(all="ignore"), pytest.raises(
                ValueError, match="matrix entries must be finite"
            ):
                if superposition:
                    superposition_sweep(h, hp, StateVector.basis_state(4, 0), xs)
                else:
                    level_sweep(h, hp, xs)
        assert solves == []

    def test_overflowing_shifts_rejected(self, monkeypatch):
        # every member is finite at x = 1e-300, but Phi^dagger H' Phi overflows
        h = random_hermitian(45, 4)
        hp = HermitianMatrix(np.full((4, 4), 1.7e308))
        verify._eigenbasis_pass.cache_clear()
        solves = _counting_solves(monkeypatch)
        with np.errstate(all="ignore"), pytest.raises(
            ValueError, match="matrix entries must be finite"
        ):
            level_sweep(h, hp, [1e-300])
        assert solves == [2]  # the solve completed; its shifts overflow

    @pytest.mark.parametrize("superposition", [False, True], ids=["levels", "superposition"])
    def test_overflowing_oracle_norm_rejected(self, superposition):
        h = HermitianMatrix(np.diag([1.0, 2.0, 3.0, 4.0]))
        tridiagonal = np.eye(4) + np.eye(4, k=1) + np.eye(4, k=-1)
        state = StateVector.basis_state(4, 0)

        def sweep(hp, xs=DEFAULT_X_GRID):
            verify._eigenbasis_pass.cache_clear()
            if superposition:
                return superposition_sweep(h, hp, state, xs)
            return level_sweep(h, hp, xs, [0])

        # The x = 0.1 member's squares overflow, but its spectrum is finite:
        # the exact column is eigvalsh of the member scaled by the exact
        # 2^-520, scaled back.
        records = sweep(HermitianMatrix(1e155 * tridiagonal))
        for record in records:
            member = h.array + record.x * 1e155 * tridiagonal
            expected = np.ldexp(np.linalg.eigvalsh(member * 2.0**-520), 520)[0]
            assert record.exact == pytest.approx(expected, rel=1e-12)
        # At x = 1 the largest eigenvalue is 1.5e308 (1 + 2 cos(pi / 5)),
        # past the largest float.
        with pytest.raises(ValueError, match="^eigenvalues overflow: "):
            sweep(HermitianMatrix(1.5e308 * tridiagonal), (1.0,))

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


def _second_order_linear(n, width, strength):
    """The box's second-order energies in the uniform field V = c x, levels
    n = 1, 2, ... in the units of ``box_hamiltonian``:
    ``E2_n = c^2 L^4 (n^2 pi^2 - 15) / (24 n^4 pi^4)``, the Dalgarno-Lewis
    result (Dalgarno & Lewis, *Proc. R. Soc. Lond. A* 233, 70, 1955)."""
    n = np.asarray(n, dtype=float)
    return strength**2 * width**4 * (n**2 * math.pi**2 - 15) / (24 * n**4 * math.pi**4)


def _second_order_sum(spec, count):
    """The second-order sum ``E2_n = sum_{m != n} |V_mn|^2 / (E_n - E_m)``
    over every level of the box model ``spec``, for its first ``count``
    levels: the truncation error falls as the number of levels to the -7."""
    levels = np.diag(box_hamiltonian(spec).array).real
    coupling = box_potential_matrix(spec).array[:count]
    gaps = levels[:count, None] - levels
    gaps[np.arange(count), np.arange(count)] = np.inf
    return (np.abs(coupling) ** 2 / gaps).sum(axis=1)


class TestClosedFormOracle:
    """The oracle against mathematics rather than another eigensolver: on
    the box model at N = 64, exact - (E_n + x E'_n + x^2 E2_n) falls like
    the first order left out for levels 0 to 3."""

    def test_second_order_sum_matches_the_closed_form(self):
        spec = BoxModelSpec(1100, math.pi, "linear", 1.0)
        closed = _second_order_linear(range(1, 5), math.pi, 1.0)
        np.testing.assert_allclose(_second_order_sum(spec, 4), closed, rtol=1e-14, atol=0)

    @pytest.mark.parametrize(
        "potential, slope",
        # V - c L / 2 is odd about the well's centre, so the linear E3 is 0
        [("linear", 3.8), ("quadratic", 2.8)],
    )
    def test_residual_after_second_order(self, potential, slope):
        spec = BoxModelSpec(64, math.pi, potential, 1.0)
        if potential == "linear":
            second = _second_order_linear(range(1, 5), math.pi, 1.0)
        else:
            second = _second_order_sum(BoxModelSpec(1100, math.pi, potential, 1.0), 4)
        records = level_sweep(box_hamiltonian(spec), box_potential_matrix(spec), levels=range(4))
        for level in range(4):
            recs = records_for_level(records, level)
            xs = [r.x for r in recs]
            residuals = [abs(r.exact - (r.perturbative + r.x**2 * second[level])) for r in recs]
            assert fit_order(xs, residuals).slope >= slope
            if potential == "linear":
                assert residuals[xs.index(1e-3)] <= 1e-13


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
        _forbid_solves(monkeypatch, "the state was checked")
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

    def test_dimension_one_needs_no_solve(self, monkeypatch):
        # every 1x1 H has no gap to test, so the first draw is returned unsolved
        expected = random_nondegenerate_pair(7, 1)

        def no_solve(*args, **kwargs):
            raise AssertionError("diagonalized a 1x1 candidate")

        monkeypatch.setattr(verify, "jacobi_eigendecompose", no_solve)
        h, hp = random_nondegenerate_pair(7, 1)
        assert h.dim == hp.dim == 1
        assert h.array.tobytes() == expected[0].array.tobytes()
        assert hp.array.tobytes() == expected[1].array.tobytes()

    def test_perturbation_scale_respected(self):
        _, hp = random_nondegenerate_pair(2, 6, perturbation_scale=0.1)
        assert np.abs(hp.array).max() <= 0.1

    def test_infeasible_gap_fraction_fails_fast(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a candidate before the gap fraction was checked")

        monkeypatch.setattr(verify, "random_hermitian", no_draw)
        # 11 gaps that sum to the spread cannot each be >= 0.1 of it
        with pytest.raises(ValueError, match="infeasible"):
            random_nondegenerate_pair(0, 12)
        # NaN fails every draw's gap test; a negative fraction guarantees no gap
        for fraction in (math.nan, -0.1):
            with pytest.raises(ValueError, match="min_gap_fraction must be finite and >= 0"):
                random_nondegenerate_pair(0, 6, min_gap_fraction=fraction)

    def test_exhausted_attempts_typed(self, monkeypatch):
        monkeypatch.setattr(verify, "MAX_ATTEMPTS", 1)
        # feasible (5 * 0.19 < 1) but the single draw of seed 0 misses the gap criterion
        with pytest.raises(AttemptsExhausted) as exc:
            random_nondegenerate_pair(0, 6, min_gap_fraction=0.19)
        assert exc.value.attempts == 1
        assert isinstance(exc.value, QPerturbError)
        assert isinstance(exc.value, RuntimeError)


def test_order_fit_is_dataclass_with_expected_fields():
    fit = OrderFit(slope=2.0, intercept=-1.0, n_points=5, floored=False)
    assert (fit.slope, fit.intercept, fit.n_points, fit.floored) == (2.0, -1.0, 5, False)
