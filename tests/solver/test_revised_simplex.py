"""Unit and torture tests for the sparse revised simplex internals.

Covers the pieces the differential suite treats as a black box: the CSC
column store, the FTRAN/BTRAN eta-file algebra, anti-cycling (Beale's
classic example plus the degenerate generator profile and a forced
all-Bland run), the dual-simplex warm start including its abandon-to-cold
fallbacks, and the fixed-column pricing invariant.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.solver import revised
from repro.solver.revised import (
    AT_LB,
    BASIC,
    FIXED,
    Basis,
    RevisedProblem,
    SparseColumns,
    _State,
    solve_lp_revised,
)
from repro.solver.solution import SolveStatus
from repro.verify.generators import generate_lp


def _highs(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None):
    n = len(c)
    return linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                   bounds=bounds if bounds is not None else [(0, None)] * n,
                   method="highs")


class TestSparseColumns:
    def test_roundtrip_against_dense(self):
        rng = np.random.default_rng(7)
        dense = rng.normal(size=(5, 8))
        dense[rng.random(dense.shape) < 0.4] = 0.0
        cols = SparseColumns.from_dense(dense)
        assert cols.ncols == 8
        for j in range(8):
            assert np.allclose(cols.dense_column(j), dense[:, j])
        y = rng.normal(size=5)
        assert np.allclose(cols.t_dot(y), dense.T @ y)
        x = np.zeros(8)
        x[[1, 4, 6]] = rng.normal(size=3)
        assert np.allclose(cols.dot(x), dense @ x)
        sub = cols.submatrix(np.array([2, 0, 7]))
        assert sub.format == "csc"
        assert np.array_equal(sub.toarray(), dense[:, [2, 0, 7]])

    def test_extra_unit_columns(self):
        dense = np.array([[1.0, 2.0], [3.0, 4.0]])
        cols = SparseColumns.from_dense(dense, extra_unit_columns=[0, 1])
        assert cols.ncols == 4
        assert np.allclose(cols.dense_column(2), [1.0, 0.0])
        assert np.allclose(cols.dense_column(3), [0.0, 1.0])


class TestEtaFile:
    """FTRAN/BTRAN must stay mutually consistent through eta updates."""

    @pytest.fixture()
    def state(self):
        rng = np.random.default_rng(11)
        problem = RevisedProblem(rng.normal(size=6),
                                 a_ub=rng.normal(size=(4, 6)),
                                 b_ub=np.abs(rng.normal(size=4)) + 1.0)
        lower, upper = problem._working_bounds(None)
        status = np.full(problem.ncols, AT_LB, dtype=np.int8)
        order = np.arange(problem.art_start, problem.ncols, dtype=np.int64)
        status[order] = BASIC
        st = _State(problem, status, order, lower, upper)
        assert st.refactor()
        return problem, st

    def test_ftran_btran_adjoint(self, state):
        # <B^-T y, a> == <y, B^-1 a> for any y, a — the identity every
        # pricing step relies on, checked through a chain of etas.
        problem, st = state
        rng = np.random.default_rng(3)
        for q in range(3):  # pivot three structural columns in
            col = problem.columns.dense_column(q)
            alpha = st.ftran(col)
            row = int(np.argmax(np.abs(alpha)))
            st.push_eta(row, alpha)
            st.order[row] = q
            # After the eta update, B^-1 a_q must be exactly e_row.
            assert np.allclose(st.ftran(col), np.eye(len(st.order))[row],
                               atol=1e-9)
        for _ in range(5):
            y = rng.normal(size=problem.m)
            a = rng.normal(size=problem.m)
            assert np.isclose(st.btran(y) @ a, y @ st.ftran(a), atol=1e-8)

    def test_refactor_resets_etas(self, state):
        problem, st = state
        col = problem.columns.dense_column(0)
        alpha = st.ftran(col)
        row = int(np.argmax(np.abs(alpha)))
        st.push_eta(row, alpha)
        st.order[row] = 0
        before = st.ftran(problem.columns.dense_column(1)).copy()
        assert st.refactor()
        assert st.etas == []
        assert np.allclose(st.ftran(problem.columns.dense_column(1)), before,
                           atol=1e-9)

    @pytest.mark.parametrize("check", [False, True])
    def test_failed_refactor_commits_nothing(self, check):
        # One row, x * 1e-310 + s = 1.  The basis {x} has a finite,
        # nonzero pivot whose inverse overflows to inf: the refactor must
        # fail and leave the old factor *and* its eta file in force.
        problem = RevisedProblem([1.0], a_ub=[[1e-310]], b_ub=[1.0])
        lower, upper = problem._working_bounds(None)
        status = np.full(problem.ncols, AT_LB, dtype=np.int8)
        order = np.array([problem.art_start], dtype=np.int64)
        status[order] = BASIC
        st = _State(problem, status, order, lower, upper)
        assert st.refactor()
        slack = problem.columns.dense_column(1)
        st.push_eta(0, st.ftran(2.0 * slack))  # slack enters, scaled eta
        st.order[0] = 1
        probe = np.array([3.0])
        before = st.ftran(probe)
        etas = [(r, d.tobytes()) for r, d in st.etas]
        st.order[0] = 0  # x enters: its 1x1 basis inverts to inf
        assert not st.refactor(check=check)
        assert [(r, d.tobytes()) for r, d in st.etas] == etas
        after = st.ftran(probe)
        assert after.tobytes() == before.tobytes()


class TestAntiCycling:
    def test_beale_cycling_example_terminates_optimal(self):
        # Beale (1955): Dantzig pricing with naive tie-breaking cycles
        # forever on this LP; the Bland fallback must break the cycle.
        c = [-0.75, 150.0, -0.02, 6.0]
        a_ub = [[0.25, -60.0, -1.0 / 25.0, 9.0],
                [0.5, -90.0, -1.0 / 50.0, 3.0],
                [0.0, 0.0, 1.0, 0.0]]
        b_ub = [0.0, 0.0, 1.0]
        result, _ = solve_lp_revised(c, a_ub, b_ub)
        ref = _highs(c, a_ub, b_ub)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(ref.fun, abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_degenerate_profile_terminates(self, seed):
        case = generate_lp(seed, "degenerate")
        result, _ = solve_lp_revised(**case.lp_kwargs())
        ref = _highs(**case.lp_kwargs())
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(
            ref.fun, abs=1e-6 * (1 + abs(ref.fun)))

    @pytest.mark.parametrize("seed", range(4))
    def test_pure_bland_run_stays_correct(self, seed, monkeypatch):
        # Force Bland's rule from the very first pivot: slower, but it
        # must reach the same optimum — proving the fallback is a safe
        # landing spot, not just a termination hack.
        monkeypatch.setattr(revised, "BLAND_AFTER", 0)
        case = generate_lp(seed, "generic")
        result, _ = solve_lp_revised(**case.lp_kwargs())
        ref = _highs(**case.lp_kwargs())
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(
            ref.fun, abs=1e-6 * (1 + abs(ref.fun)))


class TestPricingRules:
    @pytest.mark.parametrize("seed", range(5))
    def test_devex_matches_dantzig(self, seed):
        case = generate_lp(seed, "generic")
        dantzig, _ = solve_lp_revised(pricing="dantzig", **case.lp_kwargs())
        devex, _ = solve_lp_revised(pricing="devex", **case.lp_kwargs())
        assert dantzig.status is SolveStatus.OPTIMAL
        assert devex.status is SolveStatus.OPTIMAL
        assert devex.objective == pytest.approx(
            dantzig.objective, abs=1e-7 * (1 + abs(dantzig.objective)))


class TestStatuses:
    def test_unbounded(self):
        result, _ = solve_lp_revised([-1.0, 0.0], a_ub=[[-1.0, 1.0]],
                                     b_ub=[1.0])
        assert result.status is SolveStatus.UNBOUNDED

    def test_infeasible(self):
        result, _ = solve_lp_revised([1.0], a_ub=[[1.0]], b_ub=[-1.0])
        assert result.status is SolveStatus.INFEASIBLE

    def test_unconstrained_boxes(self):
        result, _ = solve_lp_revised([1.0, -2.0],
                                     bounds=[(0.0, 3.0), (0.0, 5.0)])
        assert result.status is SolveStatus.OPTIMAL
        assert np.allclose(result.x, [0.0, 5.0])

    def test_iteration_limit_reports_limit(self):
        case = generate_lp(0, "generic")
        result, _ = solve_lp_revised(max_iter=1, **case.lp_kwargs())
        assert result.status is SolveStatus.LIMIT


class TestWarmStart:
    C = [-2.0, -3.0, -1.0]
    A_UB = [[1.0, 1.0, 1.0], [2.0, 1.0, 0.0], [0.0, 1.0, 3.0]]

    def _solve(self, b_ub, warm=None):
        problem = RevisedProblem(self.C, a_ub=self.A_UB, b_ub=b_ub)
        return problem.solve(warm=warm)

    def test_warm_start_matches_cold_after_rhs_change(self):
        cold0 = self._solve([10.0, 8.0, 12.0])
        assert cold0.result.status is SolveStatus.OPTIMAL
        for shift in (0.5, -0.5, 3.0):
            b = [10.0 + shift, 8.0, 12.0 - shift]
            warm = self._solve(b, warm=cold0.basis)
            cold = self._solve(b)
            ref = _highs(self.C, self.A_UB, b)
            assert warm.warm_used
            assert warm.result.status is SolveStatus.OPTIMAL
            assert warm.result.objective == pytest.approx(ref.fun, abs=1e-8)
            # The canonical finalize makes warm and cold *bit*-identical
            # whenever they land on the same basis.
            assert np.array_equal(warm.result.x, cold.result.x)

    def test_warm_start_saves_pivots_on_generated_chain(self):
        # A deadline-sweep-shaped chain: same matrix, drifting rhs.
        case = generate_lp(5, "generic")
        kwargs = case.lp_kwargs()
        problem = RevisedProblem(**kwargs)
        cold = problem.solve()
        assert cold.result.status is SolveStatus.OPTIMAL
        warm_total = cold_total = 0
        basis = cold.basis
        for step in range(1, 4):
            scaled = dict(kwargs, b_ub=kwargs["b_ub"] * (1 + 0.05 * step))
            chained = RevisedProblem(**scaled).solve(warm=basis)
            scratch = RevisedProblem(**scaled).solve()
            assert chained.result.status is SolveStatus.OPTIMAL
            assert chained.result.objective == pytest.approx(
                scratch.result.objective,
                abs=1e-8 * (1 + abs(scratch.result.objective)))
            warm_total += chained.result.iterations
            cold_total += scratch.result.iterations
            basis = chained.basis
        assert warm_total < cold_total

    def test_incompatible_basis_falls_back_cold(self):
        cold = self._solve([10.0, 8.0, 12.0])
        bogus = Basis(np.zeros(2, dtype=np.int8),
                      np.zeros(1, dtype=np.int64), (2, 1))
        warm = self._solve([10.0, 8.0, 12.0], warm=bogus)
        assert not warm.warm_used
        assert warm.result.status is SolveStatus.OPTIMAL
        assert np.array_equal(warm.result.x, cold.result.x)

    def test_singular_warm_basis_falls_back_cold(self):
        cold = self._solve([10.0, 8.0, 12.0])
        corrupt = cold.basis.copy()
        corrupt.order[:] = corrupt.order[0]  # duplicated basic column
        warm = self._solve([10.0, 8.0, 12.0], warm=corrupt)
        assert not warm.warm_used
        assert warm.result.status is SolveStatus.OPTIMAL
        assert np.array_equal(warm.result.x, cold.result.x)

    def test_warm_start_after_bound_pinning(self):
        # Branch-and-bound's usage: same problem object, per-node bounds
        # that pin a variable; statuses must renormalize to FIXED.
        problem = RevisedProblem(self.C, a_ub=self.A_UB,
                                 b_ub=[10.0, 8.0, 12.0])
        root = problem.solve()
        pinned = np.array([[0.0, 10.0], [1.0, 1.0], [0.0, 10.0]])
        child = problem.solve(warm=root.basis, bounds=pinned)
        ref = _highs(self.C, self.A_UB, [10.0, 8.0, 12.0],
                     bounds=[(0, 10), (1, 1), (0, 10)])
        assert child.result.status is SolveStatus.OPTIMAL
        assert child.result.objective == pytest.approx(ref.fun, abs=1e-8)
        assert child.result.x[1] == pytest.approx(1.0, abs=1e-12)


class TestFixedColumnInvariant:
    """Fixed columns must not enter the basis however attractive their
    cost: letting them in only causes zero-length churn."""

    def test_fixed_variable_holds_its_value(self):
        c = [-100.0, 1.0, 1.0]
        a_ub = [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]
        b_ub = [10.0, 10.0]
        bounds = np.array([[1.5, 1.5], [0.0, 10.0], [0.0, 10.0]])
        problem = RevisedProblem(c, a_ub=a_ub, b_ub=b_ub, bounds=bounds)
        outcome = problem.solve()
        assert outcome.result.status is SolveStatus.OPTIMAL
        assert outcome.result.x[0] == pytest.approx(1.5, abs=1e-12)
        assert outcome.basis.status[0] == FIXED
        ref = _highs(c, a_ub, b_ub, bounds=bounds)
        assert outcome.result.objective == pytest.approx(ref.fun, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_fixed_variables_respected(self, seed):
        # ~half the generic instances carry one fixed variable.
        case = generate_lp(seed, "generic")
        fixed = case.bounds[:, 0] == case.bounds[:, 1]
        result, basis = solve_lp_revised(**case.lp_kwargs())
        assert result.status is SolveStatus.OPTIMAL
        for j in np.nonzero(fixed)[0]:
            assert result.x[j] == case.bounds[j, 0]
            assert basis.status[j] == FIXED


class TestToleranceRegressions:
    def test_wide_range_seed_46(self):
        # Regression: a single max|c|-scaled dual tolerance masked a
        # profitable ~2e-5 reduced cost on a 1e-5-scale column here,
        # stopping ~28% short of the optimum.  dj_tol is per-column now.
        case = generate_lp(46, "wide_range")
        result, _ = solve_lp_revised(**case.lp_kwargs())
        ref = _highs(**case.lp_kwargs())
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(
            ref.fun, abs=1e-6 * (1 + abs(ref.fun)))

    @pytest.mark.parametrize("profile", ["near_singular", "rank_deficient",
                                         "wide_range"])
    def test_pathological_profiles_match_highs(self, profile):
        for seed in range(5):
            case = generate_lp(seed, profile)
            result, _ = solve_lp_revised(**case.lp_kwargs())
            ref = _highs(**case.lp_kwargs())
            assert result.status is SolveStatus.OPTIMAL, f"{profile}/s{seed}"
            assert result.objective == pytest.approx(
                ref.fun, abs=1e-6 * (1 + abs(ref.fun))), f"{profile}/s{seed}"
