"""Sparse revised simplex with bounded variables and dual warm starts.

This is the native LP core (the paper used CPLEX; scipy's HiGHS is the
other backend and the independent reference it is tested against).  The
problem is held in bounded-variable form::

    minimize    c @ x
    subject to  A x (+ slack) = b
                lower <= x <= upper

so variable bounds — including the fixed variables branch-and-bound
creates by pinning binaries — never become rows.  Columns keep a stable
identity across solves of the same shape, which is what makes a basis
from one deadline (or one branch-and-bound node) a valid warm start for
the next.

Key pieces:

* :class:`SparseColumns` — CSC-style column storage in plain NumPy
  (``indptr``/``indices``/``data``); pricing is a vectorized
  ``A^T y`` over all columns at once, each column summed on its own.
* the basis is factored as a sparse LU (``scipy.sparse.linalg.splu`` on
  a CSC slice of the column store) at refactorization points and
  advanced between them with product-form eta updates; FTRAN solves with
  the factor then applies the etas in order, BTRAN the transposed etas
  in reverse then the transposed factor.  Every ``REFACTOR_EVERY`` (16)
  pivots the factor is rebuilt and the basic values recomputed, bounding
  drift; a sparse refactor is cheap enough that short eta files win.
  No dense ``B^-1`` exists, and no threaded BLAS touches the pivot path,
  so pivot choices do not depend on the BLAS thread count.  An optimal
  solve hands its final factor on with its basis, so a branch-and-bound
  child (same problem, same basic columns) starts without a refactor.
* primal simplex with Dantzig or devex (steepest-edge flavoured)
  pricing, falling back to Bland's rule after a stall budget so
  termination is guaranteed; bound flips handle boxed variables without
  pivoting.
* a dual simplex entry point: a warm basis that is primal-infeasible
  after a bounds/rhs change (the deadline moved, a branch pinned a
  binary) is repaired with a handful of dual pivots instead of a cold
  two-phase solve.  Its ratio test flips boxed columns (bound-flipping
  ratio test): every boxed breakpoint that leaves the row infeasible is
  flipped and the next one pivots, in one iteration, and a row that
  stays infeasible with every eligible column flipped proves the LP
  infeasible.  A warm start that goes numerically bad is abandoned —
  counted per reason in ``solver.revised.warm_abandoned.<why>`` — and
  the solve falls back to the cold path: warm starting is an
  optimization, never a correctness dependency.

Feasibility is found with per-row artificials whose bounds are locked to
``[0, 0]`` after phase 1, so redundant rows never have to be dropped and
the column count stays stable for warm starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import observe
from repro.solver.solution import SolveStatus

_INF = float("inf")
_TOL = 1e-9
_PIVOT_TOL = 1e-9
_DEADLINE_CHECK_EVERY = 32
#: Pivots between refactorizations (eta-file length cap).
REFACTOR_EVERY = 16
#: A warm basis whose estimated 1-norm condition number reaches this is
#: refused (the warm start goes cold).
CONDITION_LIMIT = 1e9
#: Iterations before pricing falls back to Bland's anti-cycling rule.
BLAND_AFTER = 2000

#: Column states.  FIXED columns (``lower == upper``) are excluded from
#: pricing entirely: their reduced cost carries no sign information, and
#: letting them enter only causes zero-length churn (see
#: ``tests/solver/test_revised_simplex.py::TestFixedColumnInvariant``).
BASIC, AT_LB, AT_UB, FREE_NB, FIXED = 0, 1, 2, 3, 4


@dataclass
class SimplexResult:
    """Outcome of an LP solve in the original variable space."""

    status: SolveStatus
    objective: float = float("nan")
    x: np.ndarray = field(default_factory=lambda: np.empty(0))
    iterations: int = 0

    @property
    def ok(self) -> bool:
        return self.status.ok


class SparseColumns:
    """CSC-style column storage over the stacked (ub; eq) rows."""

    __slots__ = ("indptr", "indices", "data", "nrows", "_transposed")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray, nrows: int) -> None:
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.nrows = nrows
        self._transposed = None  # CSR of A^T, built on first t_dot

    @classmethod
    def from_dense(cls, dense: np.ndarray,
                   extra_unit_columns: list[int] | None = None) -> "SparseColumns":
        """Build from a dense (m, n) matrix, optionally appending unit
        columns ``e_row`` for each listed row (slacks/artificials)."""
        nrows = dense.shape[0]
        indptr = [0]
        indices: list[np.ndarray] = []
        data: list[np.ndarray] = []
        for j in range(dense.shape[1]):
            nz = np.nonzero(dense[:, j])[0]
            indices.append(nz)
            data.append(dense[nz, j])
            indptr.append(indptr[-1] + len(nz))
        for row in extra_unit_columns or []:
            indices.append(np.array([row], dtype=np.int64))
            data.append(np.array([1.0]))
            indptr.append(indptr[-1] + 1)
        return cls(
            np.asarray(indptr, dtype=np.int64),
            (np.concatenate(indices) if indices
             else np.empty(0, dtype=np.int64)).astype(np.int64),
            np.concatenate(data) if data else np.empty(0),
            nrows,
        )

    @property
    def ncols(self) -> int:
        return len(self.indptr) - 1

    def t_dot(self, y: np.ndarray) -> np.ndarray:
        """``A^T y`` for every column at once (vectorized pricing).

        One CSR product over ``A^T``, which shares this store's arrays:
        each column is summed on its own, so its rounding error scales
        with that column's terms.  (A difference of global prefix sums
        carries the running prefix's error into every later column.)
        """
        if self._transposed is None:
            from scipy.sparse import csr_matrix

            self._transposed = csr_matrix(
                (self.data, self.indices, self.indptr),
                shape=(self.ncols, self.nrows))
        return self._transposed @ y

    def dense_column(self, j: int) -> np.ndarray:
        out = np.zeros(self.nrows)
        lo, hi = self.indptr[j], self.indptr[j + 1]
        out[self.indices[lo:hi]] = self.data[lo:hi]
        return out

    def submatrix(self, cols: np.ndarray):
        """The listed columns as a scipy CSC matrix (refactorization),
        sliced straight out of ``indptr``/``indices``/``data``."""
        from scipy.sparse import csc_matrix

        starts = self.indptr[cols]
        lengths = self.indptr[cols + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        take = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return csc_matrix((self.data[take], self.indices[take], indptr),
                          shape=(self.nrows, len(cols)))

    def dot(self, x: np.ndarray) -> np.ndarray:
        """``A x`` exploiting sparsity of ``x`` (few nonbasic nonzeros)."""
        out = np.zeros(self.nrows)
        for j in np.nonzero(x)[0]:
            lo, hi = self.indptr[j], self.indptr[j + 1]
            out[self.indices[lo:hi]] += self.data[lo:hi] * x[j]
        return out


@dataclass(frozen=True, eq=False)
class _Factor:
    """The LU factor of one problem's basis matrix for one ``order``.

    Branch and bound re-solves one :class:`RevisedProblem` with new
    bounds only, so a child's warm basis is its parent's final
    ``order`` over the same columns: the parent's factor *is* the
    child's, and the child installs it instead of refactoring.
    """

    problem: "RevisedProblem"
    order: np.ndarray  # the basic columns the factor was built from
    lu: object

    def fits(self, problem: "RevisedProblem", order: np.ndarray) -> bool:
        return self.problem is problem and np.array_equal(self.order, order)


@dataclass
class Basis:
    """A restartable snapshot of the simplex basis.

    ``status`` holds one of BASIC/AT_LB/AT_UB/FREE_NB/FIXED per column
    (structural + slack + artificial); ``order`` maps each row to its
    basic column.  A warm start refactorizes against the *current*
    matrix and checks the factor, which is what makes a basis
    transferable across deadlines whose constraint coefficients differ
    (row scaling preserves which basis is optimal, not the numbers).

    An optimal solve's basis also carries that solve's final factor,
    bound to its problem object and ``order``; a warm start on the same
    problem with the same ``order`` (a branch-and-bound child) uses it
    as is.  :meth:`copy` drops the factor, so a stored or edited basis
    always takes the checked path.  Ephemeral by design: per-sweep
    state, never cached.
    """

    status: np.ndarray
    order: np.ndarray
    signature: tuple[int, int]  # (ncols, nrows) shape guard
    factor: _Factor | None = field(default=None, repr=False, compare=False)

    def copy(self) -> "Basis":
        return Basis(self.status.copy(), self.order.copy(), self.signature)

    def compatible(self, ncols: int, nrows: int) -> bool:
        return (self.signature == (ncols, nrows)
                and len(self.status) == ncols and len(self.order) == nrows)


@dataclass
class RevisedOutcome:
    """A revised-simplex solve plus its warm-start handover state."""

    result: SimplexResult
    basis: Basis
    warm_used: bool = False
    #: Reduced costs over all columns at termination (OPTIMAL only);
    #: exposed so tests can pin the pricing sign invariants.
    reduced_costs: np.ndarray | None = None


class _State:
    """Mutable solve state: statuses, basic values, factor + eta file."""

    def __init__(self, problem: "RevisedProblem", status: np.ndarray,
                 order: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> None:
        self.problem = problem
        self.status = status
        self.order = order
        self.lower = lower
        self.upper = upper
        self.x_b = np.zeros(len(order))
        self.lu = None  # SuperLU factor of the basis at the last refactor
        self.etas: list[tuple[int, np.ndarray]] = []
        self.ftran_count = 0
        self.btran_count = 0
        self.refactor_count = 0
        self.bound_flips = 0
        # The warm start ran on its parent's factor (no refactor).
        self.factor_reused = False
        # Why a warm start was given up for a cold solve (None: it was not).
        self.abandoned: str | None = None
        # Section timings, read only when tracing (flushed once per solve).
        self.timed = observe.enabled()
        self.factor_s = self.ftran_s = self.btran_s = self.pricing_s = 0.0

    # -- factorization -----------------------------------------------------

    def refactor(self, check: bool = False) -> bool:
        """Rebuild the sparse LU factor of the basis; returns False on a
        singular (or, with ``check``, numerically unusable) basis.

        The new factor is committed, and the eta file cleared, only once
        every check has passed: a rejected factor leaves the old factor
        and its etas in force.
        """
        t0 = observe.clock() if self.timed else 0.0
        self.refactor_count += 1
        lu = self._factor(check)
        if self.timed:
            self.factor_s += observe.clock() - t0
        if lu is not None:
            self.lu, self.etas = lu, []
        return lu is not None

    def _factor(self, check: bool):
        """``splu`` of the basis columns, or None if a check fails."""
        from scipy.sparse.linalg import splu

        basis_matrix = self.problem.columns.submatrix(self.order)
        try:
            lu = splu(basis_matrix)
        except RuntimeError:  # exactly singular
            return None
        with np.errstate(divide="ignore", over="ignore"):
            if not np.all(np.isfinite(1.0 / lu.U.diagonal())):
                return None  # a pivot so small its inverse overflows
        if check and not (_condition_estimate(lu, basis_matrix)
                          < CONDITION_LIMIT):
            return None  # NaN compares False: a non-finite estimate fails
        return lu

    def compute_xb(self) -> None:
        """Recompute basic values from scratch (fresh factor, no etas)."""
        x_n = self.nonbasic_values()
        resid = self.problem.b - self.problem.columns.dot(x_n)
        self.x_b = self.lu.solve(resid)

    def nonbasic_values(self) -> np.ndarray:
        x = np.where(
            self.status == AT_UB, self.upper,
            np.where((self.status == AT_LB) | (self.status == FIXED),
                     self.lower, 0.0),
        )
        x[self.order] = 0.0
        return x

    def full_x(self) -> np.ndarray:
        x = self.nonbasic_values()
        x[self.order] = self.x_b
        return x

    # -- FTRAN / BTRAN / pricing -------------------------------------------

    def ftran(self, column: np.ndarray) -> np.ndarray:
        """``B^-1 a``: factor solve, then eta updates in pivot order."""
        t0 = observe.clock() if self.timed else 0.0
        self.ftran_count += 1
        v = self.lu.solve(column)
        for r, d in self.etas:
            piv = v[r] / d[r]
            v -= d * piv
            v[r] = piv
        if self.timed:
            self.ftran_s += observe.clock() - t0
        return v

    def btran(self, rhs: np.ndarray) -> np.ndarray:
        """``B^-T y``: transposed etas in reverse, then the factor."""
        t0 = observe.clock() if self.timed else 0.0
        self.btran_count += 1
        y = rhs.copy()
        for r, d in reversed(self.etas):
            y[r] = (y[r] - (d @ y - d[r] * y[r])) / d[r]
        y = self.lu.solve(y, trans="T")
        if self.timed:
            self.btran_s += observe.clock() - t0
        return y

    def price(self, y: np.ndarray) -> np.ndarray:
        """``A^T y`` over every column (reduced costs, pivot rows)."""
        t0 = observe.clock() if self.timed else 0.0
        row = self.problem.columns.t_dot(y)
        if self.timed:
            self.pricing_s += observe.clock() - t0
        return row

    def push_eta(self, row: int, alpha: np.ndarray) -> None:
        self.etas.append((row, alpha.copy()))
        # A basis the simplex itself built should never be singular; if
        # roundoff made it so, the old factor and the eta file stay in
        # force and the next pivot tries again.
        if len(self.etas) >= REFACTOR_EVERY and self.refactor():
            self.compute_xb()


class RevisedProblem:
    """A bounded-variable LP compiled for the revised simplex.

    Construction is per *shape*: branch-and-bound re-solves the same
    problem object with per-node ``bounds`` overrides, and a sweep builds
    one problem per deadline but hands the previous deadline's
    :class:`Basis` to :meth:`solve`.
    """

    def __init__(self, c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                 bounds=None) -> None:
        c = np.asarray(c, dtype=float).ravel()
        n = len(c)
        a_ub = (np.asarray(a_ub, dtype=float).reshape(-1, n)
                if a_ub is not None and np.size(a_ub) else np.empty((0, n)))
        a_eq = (np.asarray(a_eq, dtype=float).reshape(-1, n)
                if a_eq is not None and np.size(a_eq) else np.empty((0, n)))
        b_ub = (np.asarray(b_ub, dtype=float).ravel()
                if b_ub is not None else np.empty(0))
        b_eq = (np.asarray(b_eq, dtype=float).ravel()
                if b_eq is not None else np.empty(0))
        if bounds is None:
            bounds = np.column_stack([np.zeros(n), np.full(n, _INF)])
        bounds = np.asarray(bounds, dtype=float).reshape(n, 2)

        # Load the LU factor's scipy here, outside any solve's time
        # budget; not at module top, so importing the CLI stays light.
        import scipy.sparse.linalg  # noqa: F401

        self.n = n
        self.m_ub = len(b_ub)
        self.m = self.m_ub + len(b_eq)
        self.b = np.concatenate([b_ub, b_eq])
        stacked = np.vstack([a_ub, a_eq]) if self.m else np.empty((0, n))
        # Columns: structural, then one slack per <= row, then one
        # artificial per row.  Slacks and artificials are unit columns.
        self.columns = SparseColumns.from_dense(
            stacked,
            extra_unit_columns=list(range(self.m_ub)) + list(range(self.m)),
        )
        self.ncols = self.columns.ncols
        self.art_start = n + self.m_ub
        self.cost = np.concatenate([c, np.zeros(self.ncols - n)])
        self.base_bounds = bounds
        # Tolerances scale with the data so huge/tiny-coefficient
        # instances (the torture generators) are judged relatively.  The
        # dual tolerance is per-column: a single max|c| scalar would let
        # a 1e4-range cost mask genuinely profitable reduced costs on
        # columns whose own scale is 1e-5 (the wide_range profile).
        self.feas_tol = _TOL * max(1.0, float(np.max(np.abs(self.b)))
                                   if self.m else 1.0)
        colmax = np.concatenate([
            np.max(np.abs(stacked), axis=0) if self.m else np.zeros(n),
            np.ones(self.ncols - n),
        ])
        self.dj_tol = _TOL * np.maximum(
            1e-3, np.maximum(np.abs(self.cost), colmax))

    # -- bound handling ----------------------------------------------------

    def _working_bounds(self, bounds) -> tuple[np.ndarray, np.ndarray]:
        structural = (self.base_bounds if bounds is None
                      else np.asarray(bounds, dtype=float).reshape(self.n, 2))
        lower = np.concatenate([
            structural[:, 0], np.zeros(self.m_ub), np.zeros(self.m)])
        upper = np.concatenate([
            structural[:, 1], np.full(self.m_ub, _INF), np.zeros(self.m)])
        return lower, upper

    def _normalize_statuses(self, status: np.ndarray, lower: np.ndarray,
                            upper: np.ndarray) -> None:
        """Make nonbasic statuses consistent with the current bounds
        (branching may have pinned or tightened since the basis was
        taken; artificials are always locked)."""
        nonbasic = status != BASIC
        fixed = nonbasic & (lower == upper)
        status[fixed] = FIXED
        unfixed = nonbasic & ~fixed
        # AT_LB needs a finite lower bound, AT_UB a finite upper one.
        bad_lb = unfixed & (status == AT_LB) & ~np.isfinite(lower)
        status[bad_lb & np.isfinite(upper)] = AT_UB
        status[bad_lb & ~np.isfinite(upper)] = FREE_NB
        bad_ub = unfixed & (status == AT_UB) & ~np.isfinite(upper)
        status[bad_ub & np.isfinite(lower)] = AT_LB
        status[bad_ub & ~np.isfinite(lower)] = FREE_NB
        was_fixed = unfixed & (status == FIXED)
        status[was_fixed & np.isfinite(lower)] = AT_LB
        status[was_fixed & ~np.isfinite(lower) & np.isfinite(upper)] = AT_UB
        status[was_fixed & ~np.isfinite(lower) & ~np.isfinite(upper)] = FREE_NB

    # -- simplex loops -----------------------------------------------------

    def _ratio_test(self, state: _State, delta: np.ndarray,
                    bland: bool) -> tuple[float, int | None]:
        """Max step before a basic variable hits a bound; (t, row)."""
        lb_b = state.lower[state.order]
        ub_b = state.upper[state.order]
        limits = np.full(self.m, _INF)
        dec = delta > _PIVOT_TOL
        inc = delta < -_PIVOT_TOL
        with np.errstate(invalid="ignore"):
            limits[dec] = (state.x_b[dec] - lb_b[dec]) / delta[dec]
            limits[inc] = (state.x_b[inc] - ub_b[inc]) / delta[inc]
        limits = np.maximum(limits, 0.0)  # roundoff below a bound
        limits[~(dec | inc)] = _INF
        best = float(np.min(limits)) if self.m else _INF
        if not np.isfinite(best):
            return _INF, None
        # Relative tie window: an absolute 1e-9 window misses genuinely
        # tied rows once ratios are large.
        window = best + _TOL * (1.0 + abs(best))
        ties = np.nonzero((limits <= window) & (dec | inc))[0]
        if bland:
            row = ties[np.argmin(state.order[ties])]
        else:
            row = ties[np.argmax(np.abs(delta[ties]))]
        return best, int(row)

    def _primal(self, state: _State, cost: np.ndarray, max_iter: int,
                deadline: float | None, dj_tol: float | np.ndarray,
                pricing: str = "dantzig") -> tuple[SolveStatus, int]:
        """Primal simplex from a primal-feasible basis."""
        columns = self.columns
        weights = np.ones(self.ncols) if pricing == "devex" else None
        iters = 0
        while iters < max_iter:
            if (deadline is not None and iters % _DEADLINE_CHECK_EVERY == 0
                    and observe.clock() > deadline):
                return SolveStatus.LIMIT, iters
            y = state.btran(cost[state.order])
            d = cost - state.price(y)
            status = state.status
            eligible = np.nonzero(
                ((status == AT_LB) & (d < -dj_tol))
                | ((status == AT_UB) & (d > dj_tol))
                | ((status == FREE_NB) & (np.abs(d) > dj_tol))
            )[0]
            if eligible.size == 0:
                return SolveStatus.OPTIMAL, iters
            bland = iters >= BLAND_AFTER
            if bland:
                q = int(eligible[0])
            elif weights is not None:
                score = d[eligible] ** 2 / weights[eligible]
                q = int(eligible[np.argmax(score)])
            else:
                q = int(eligible[np.argmax(np.abs(d[eligible]))])
            direction = (1.0 if status[q] == AT_LB
                         or (status[q] == FREE_NB and d[q] < 0.0) else -1.0)
            alpha = state.ftran(columns.dense_column(q))
            t_rows, row = self._ratio_test(state, direction * alpha, bland)
            own = state.upper[q] - state.lower[q]
            if own <= t_rows and np.isfinite(own):
                # Bound flip: the entering variable crosses its box
                # before any basic variable blocks; no basis change.
                state.x_b -= direction * own * alpha
                state.status[q] = AT_UB if status[q] == AT_LB else AT_LB
                iters += 1
                continue
            if row is None or not np.isfinite(t_rows):
                return SolveStatus.UNBOUNDED, iters
            xq_start = (state.lower[q] if status[q] == AT_LB
                        else state.upper[q] if status[q] == AT_UB else 0.0)
            state.x_b -= direction * t_rows * alpha
            leaving = int(state.order[row])
            if state.lower[leaving] == state.upper[leaving]:
                state.status[leaving] = FIXED
            else:
                state.status[leaving] = (AT_LB if direction * alpha[row] > 0
                                         else AT_UB)
            state.order[row] = q
            state.status[q] = BASIC
            state.x_b[row] = xq_start + direction * t_rows
            if weights is not None and abs(alpha[row]) > _PIVOT_TOL:
                # Devex reference-weight update (Forrest-Goldfarb).
                rho = state.btran(_unit(self.m, row))
                arow = state.price(rho)
                ratio_sq = (arow / alpha[row]) ** 2 * weights[q]
                weights = np.maximum(weights, ratio_sq)
                weights[leaving] = max(weights[q] / alpha[row] ** 2, 1.0)
                if weights.max() > 1e8:
                    weights[:] = 1.0  # reset the reference framework
            state.push_eta(row, alpha)
            iters += 1
        return SolveStatus.LIMIT, iters

    def _dual(self, state: _State, cost: np.ndarray, max_iter: int,
              deadline: float | None) -> tuple[SolveStatus | None, int]:
        """Dual simplex: repair primal feasibility while keeping the
        basis (approximately) dual feasible.  Returns ``None`` status to
        signal the warm start should be abandoned for a cold solve, with
        the reason in ``state.abandoned``.

        Each iteration runs a bound-flipping ratio test: the boxed
        columns whose breakpoints come before the entering one are
        flipped to their other bound in the same iteration, so a row is
        repaired by one pivot, never by a run of lone flips.
        """
        columns = self.columns
        iters = 0
        while iters < max_iter:
            if (deadline is not None and iters % _DEADLINE_CHECK_EVERY == 0
                    and observe.clock() > deadline):
                return SolveStatus.LIMIT, iters
            lb_b = state.lower[state.order]
            ub_b = state.upper[state.order]
            low_viol = lb_b - state.x_b
            up_viol = state.x_b - ub_b
            viol = np.maximum(low_viol, up_viol)
            viol[~np.isfinite(viol)] = -_INF  # free basics never violate
            row = int(np.argmax(viol)) if self.m else 0
            if self.m == 0 or viol[row] <= self.feas_tol:
                return SolveStatus.OPTIMAL, iters
            at_lb = low_viol[row] >= up_viol[row]
            target = lb_b[row] if at_lb else ub_b[row]
            rho = state.btran(_unit(self.m, row))
            arow = state.price(rho)
            y = state.btran(cost[state.order])
            d = cost - state.price(y)
            status = state.status
            if at_lb:  # x_b[row] must increase
                can = (((status == AT_LB) & (arow < -_PIVOT_TOL))
                       | ((status == AT_UB) & (arow > _PIVOT_TOL))
                       | ((status == FREE_NB) & (np.abs(arow) > _PIVOT_TOL)))
            else:  # x_b[row] must decrease
                can = (((status == AT_LB) & (arow > _PIVOT_TOL))
                       | ((status == AT_UB) & (arow < -_PIVOT_TOL))
                       | ((status == FREE_NB) & (np.abs(arow) > _PIVOT_TOL)))
            eligible = np.nonzero(can)[0]
            choice = _bound_flipping_ratio_test(
                viol[row], np.abs(d[eligible]), np.abs(arow[eligible]),
                state.upper[eligible] - state.lower[eligible], self.feas_tol)
            if choice is None:
                # No nonbasic movement, not even every eligible column
                # at its far bound, brings x_b[row] to its bound: the
                # row proves primal infeasibility (valid even from a
                # dual-infeasible start — it is a box argument).
                return SolveStatus.INFEASIBLE, iters
            flip_at, enter_at = choice
            if flip_at.size:
                # Every passed column to its far bound, in one FTRAN.
                flipped = eligible[flip_at]
                rising = status[flipped] == AT_LB
                span = state.upper[flipped] - state.lower[flipped]
                shift = np.zeros(self.ncols)
                shift[flipped] = np.where(rising, span, -span)
                state.x_b -= state.ftran(columns.dot(shift))
                status[flipped] = np.where(rising, AT_UB, AT_LB)
                state.bound_flips += flipped.size
            q = int(eligible[enter_at])
            alpha = state.ftran(columns.dense_column(q))
            if abs(alpha[row]) <= _PIVOT_TOL:
                # FTRAN disagrees with BTRAN on the pivot element.
                state.abandoned = "ftran_mismatch"
                return None, iters
            step = (state.x_b[row] - target) / alpha[row]
            xq_start = (state.lower[q] if status[q] == AT_LB
                        else state.upper[q] if status[q] == AT_UB else 0.0)
            state.x_b -= step * alpha
            leaving = int(state.order[row])
            if state.lower[leaving] == state.upper[leaving]:
                state.status[leaving] = FIXED
            else:
                state.status[leaving] = AT_LB if at_lb else AT_UB
            state.order[row] = q
            state.status[q] = BASIC
            state.x_b[row] = xq_start + step
            state.push_eta(row, alpha)
            iters += 1
        state.abandoned = "dual_cap"  # budget exhausted: go cold
        return None, iters

    # -- solve entry points ------------------------------------------------

    def solve(self, warm: Basis | None = None, bounds=None,
              max_iter: int = 20000, time_limit_s: float | None = None,
              pricing: str = "dantzig") -> RevisedOutcome:
        """Solve, optionally warm-starting from a previous basis.

        Args:
            warm: basis snapshot from a structurally identical problem
                (same column layout; coefficients/bounds/rhs may differ).
                Incompatible or numerically bad bases are ignored.
            bounds: per-solve structural bounds override (branch-and-
                bound nodes); defaults to the constructor's bounds.
            max_iter: per-phase pivot cap.
            time_limit_s: wall-clock budget; exhaustion returns LIMIT.
            pricing: ``"dantzig"`` or ``"devex"``.
        """
        deadline = (observe.clock() + time_limit_s
                    if time_limit_s is not None else None)
        lower, upper = self._working_bounds(bounds)
        observe.add("solver.revised.solves")
        observe.add("solver.lp_solves")

        if self.m == 0:
            return self._solve_unconstrained(lower, upper)

        outcome: RevisedOutcome | None = None
        warm_pivots = 0
        states: list[_State] = []
        if warm is not None and warm.compatible(self.ncols, self.m):
            state = _State(self, warm.status.copy(), warm.order.copy(),
                           lower, upper)
            states.append(state)
            self._normalize_statuses(state.status, lower, upper)
            if warm.factor is not None and warm.factor.fits(self, state.order):
                state.lu = warm.factor.lu
                state.factor_reused = True
            elif not state.refactor(check=True):
                state.abandoned = "refactor_rejected"
            if state.abandoned is None:
                state.compute_xb()
                dual_cap = min(max_iter, 200 + 2 * self.m)
                dstatus, diters = self._dual(
                    state, self.cost, dual_cap, deadline)
                warm_pivots += diters
                if dstatus is SolveStatus.OPTIMAL:
                    pstatus, piters = self._primal(
                        state, self.cost, max_iter, deadline, self.dj_tol,
                        pricing)
                    warm_pivots += piters
                    outcome = self._finalize(state, pstatus, warm_pivots,
                                             warm_used=True)
                elif dstatus in (SolveStatus.INFEASIBLE, SolveStatus.LIMIT):
                    outcome = self._finalize(state, dstatus, warm_pivots,
                                             warm_used=True)
                # dstatus None: abandoned — fall through to the cold path.
        if outcome is None:
            outcome, cold_state = self._solve_cold(
                lower, upper, max_iter, deadline, pricing,
                extra_iters=warm_pivots)
            states.append(cold_state)
        self._flush_counters(states, outcome)
        return outcome

    def _solve_unconstrained(self, lower: np.ndarray,
                             upper: np.ndarray) -> RevisedOutcome:
        """No rows: each variable independently at its cheapest bound."""
        x = np.zeros(self.n)
        for j in range(self.n):
            cj, lo, up = self.cost[j], lower[j], upper[j]
            if cj > self.dj_tol[j]:
                if not np.isfinite(lo):
                    return self._trivial(SolveStatus.UNBOUNDED)
                x[j] = lo
            elif cj < -self.dj_tol[j]:
                if not np.isfinite(up):
                    return self._trivial(SolveStatus.UNBOUNDED)
                x[j] = up
            else:
                x[j] = lo if np.isfinite(lo) else (up if np.isfinite(up)
                                                   else 0.0)
        objective = float(self.cost[:self.n] @ x)
        result = SimplexResult(SolveStatus.OPTIMAL, objective, x, 0)
        return RevisedOutcome(result, self._empty_basis(),
                              reduced_costs=self.cost.copy())

    def _trivial(self, status: SolveStatus) -> RevisedOutcome:
        objective = -_INF if status is SolveStatus.UNBOUNDED else float("nan")
        return RevisedOutcome(SimplexResult(status, objective),
                              self._empty_basis())

    def _empty_basis(self) -> Basis:
        return Basis(np.full(self.ncols, AT_LB, dtype=np.int8),
                     np.empty(0, dtype=np.int64), (self.ncols, self.m))

    def _solve_cold(self, lower: np.ndarray, upper: np.ndarray,
                    max_iter: int, deadline: float | None, pricing: str,
                    extra_iters: int = 0) -> tuple[RevisedOutcome, _State]:
        """Two-phase cold solve from the all-artificial basis."""
        status = np.empty(self.ncols, dtype=np.int8)
        for j in range(self.art_start):
            lo, up = lower[j], upper[j]
            if lo == up:
                status[j] = FIXED
            elif np.isfinite(lo):
                status[j] = AT_LB
            elif np.isfinite(up):
                status[j] = AT_UB
            else:
                status[j] = FREE_NB
        status[self.art_start:] = BASIC
        order = np.arange(self.art_start, self.ncols, dtype=np.int64)
        state = _State(self, status, order, lower, upper)

        # Artificial a_i carries the row residual; its sign decides which
        # one-sided box (and phase-1 cost) makes |a_i| the objective.
        x_n = state.nonbasic_values()
        resid = self.b - self.columns.dot(x_n)
        cost1 = np.zeros(self.ncols)
        for i in range(self.m):
            j = self.art_start + i
            if resid[i] >= 0.0:
                lower[j], upper[j], cost1[j] = 0.0, _INF, 1.0
            else:
                lower[j], upper[j], cost1[j] = -_INF, 0.0, -1.0
        state.lu = _IdentityFactor()  # the all-artificial basis is I
        state.x_b = resid.copy()

        p1_tol = _TOL * max(1.0, float(np.max(np.abs(cost1))))
        status1, iters1 = self._primal(state, cost1, max_iter, deadline,
                                       p1_tol, pricing)
        total = extra_iters + iters1
        if status1 is SolveStatus.LIMIT:
            return self._finalize(state, SolveStatus.LIMIT, total), state
        phase1_obj = float(cost1 @ state.full_x())
        if phase1_obj > 1e-7 * max(1.0, float(np.max(np.abs(self.b)))):
            return self._finalize(state, SolveStatus.INFEASIBLE, total), state

        # Lock every artificial to [0, 0]; still-basic ones ride along at
        # zero level (no row dropping needed — the eta machinery keeps
        # the basis square either way).
        lower[self.art_start:] = 0.0
        upper[self.art_start:] = 0.0
        art_nonbasic = state.status[self.art_start:] != BASIC
        state.status[self.art_start:][art_nonbasic] = FIXED

        status2, iters2 = self._primal(state, self.cost, max_iter, deadline,
                                       self.dj_tol, pricing)
        if status1 is SolveStatus.UNBOUNDED:
            status2 = SolveStatus.LIMIT  # numerically impossible; be safe
        return self._finalize(state, status2, total + iters2), state

    def _finalize(self, state: _State, status: SolveStatus,
                  iterations: int, warm_used: bool = False) -> RevisedOutcome:
        basis = Basis(state.status.copy(), state.order.copy(),
                      (self.ncols, self.m))
        if status is SolveStatus.OPTIMAL:
            # Canonical final evaluation: refactorize and recompute both
            # the point and the duals from the factor alone, so the
            # reported numbers depend only on the final basis — not on
            # the pivot path (warm and cold runs that reach the same
            # basis report bit-identical solutions).
            if state.refactor():
                state.compute_xb()
                basis.factor = _Factor(self, state.order, state.lu)
            x_full = state.full_x()
            objective = float(self.cost @ x_full)
            y = state.btran(self.cost[state.order])
            reduced = self.cost - state.price(y)
            result = SimplexResult(SolveStatus.OPTIMAL, objective,
                                   x_full[:self.n], iterations)
            return RevisedOutcome(result, basis, warm_used, reduced)
        if status is SolveStatus.UNBOUNDED:
            result = SimplexResult(SolveStatus.UNBOUNDED, -_INF,
                                   iterations=iterations)
        else:
            result = SimplexResult(status, iterations=iterations)
        return RevisedOutcome(result, basis, warm_used)

    def _flush_counters(self, states: list[_State],
                        outcome: RevisedOutcome) -> None:
        # An abandoned warm attempt and the cold solve that replaced it
        # both did real FTRAN/BTRAN work, so every state is flushed.
        observe.add("solver.revised.pivots", outcome.result.iterations)
        for state in states:
            observe.add("solver.revised.ftran", state.ftran_count)
            observe.add("solver.revised.btran", state.btran_count)
            observe.add("solver.revised.refactor", state.refactor_count)
            observe.add("solver.revised.bound_flips", state.bound_flips)
            if state.factor_reused:
                observe.add("solver.revised.warm_factor_reused")
            if state.abandoned is not None:
                observe.add(f"solver.revised.warm_abandoned.{state.abandoned}")
            if state.timed:
                observe.add("solver.revised.factor_s", state.factor_s)
                observe.add("solver.revised.ftran_s", state.ftran_s)
                observe.add("solver.revised.btran_s", state.btran_s)
                observe.add("solver.revised.pricing_s", state.pricing_s)
        if outcome.warm_used:
            observe.add("solver.revised.warm_solves")
            observe.add("solver.revised.warm_pivots",
                        outcome.result.iterations)


class _IdentityFactor:
    """The factor of the all-artificial cold-start basis, ``B = I``: a
    solve is a copy, where ``splu(I)`` would cost a refactor per cold
    solve."""

    @staticmethod
    def solve(rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        return rhs.copy()


def _bound_flipping_ratio_test(
        slope: float, reduced: np.ndarray, pivots: np.ndarray,
        spans: np.ndarray, feas_tol: float
) -> tuple[np.ndarray, int] | None:
    """The dual ratio test with bound flips, over one row's eligible
    columns.

    ``slope`` is the row's infeasibility; passing column j's breakpoint
    (``reduced[j] / pivots[j]``) at its far bound takes
    ``spans[j] * pivots[j]`` off it.  In ratio order, every column whose
    flip leaves the row still infeasible is flipped; the entering column
    is the largest pivot of the first tie group that does not.  With no
    flip this is the plain min-ratio test.  Returns (positions to flip,
    entering position) into the arguments, or None when no column can
    repair the row: there is none, or all are boxed and flipping every
    one leaves the row infeasible.
    """
    ratios = reduced / pivots
    by_ratio = np.argsort(ratios, kind="stable")
    remaining = slope - np.cumsum(spans[by_ratio] * pivots[by_ratio])
    repaired = remaining <= feas_tol  # an unboxed column always repairs
    if not repaired.size or not repaired[-1]:
        return None
    first = int(np.argmax(repaired))
    best = ratios[by_ratio[first]]
    rest = by_ratio[first:]
    ties = np.sort(rest[ratios[rest] <= best + _TOL * (1.0 + abs(best))])
    return by_ratio[:first], int(ties[np.argmax(pivots[ties])])


def _condition_estimate(lu, basis_matrix) -> float:
    """``‖B‖₁·‖B⁻¹‖₁`` with ``‖B⁻¹‖₁`` estimated from a few solves.

    Hager's estimator as LAPACK's ``xLACON`` runs it: from the uniform
    vector, alternate a solve with ``B`` and one with ``Bᵀ``, moving to
    the unit vector the transposed solve points at, until it stops
    improving (at most five rounds); then one more solve against an
    alternating ramp that catches the cases the iteration can miss.
    The estimate never exceeds the true norm and is usually within a
    small factor of it.  Deterministic: no random start vectors.
    """
    m = basis_matrix.shape[0]
    x = np.full(m, 1.0 / m)
    estimate = 0.0
    with np.errstate(all="ignore"):
        for rounds in range(5):
            y = lu.solve(x)
            # Every ‖B⁻¹x‖₁ with ‖x‖₁ = 1 is a lower bound: keep the best.
            estimate = max(estimate, _norm1(y))
            z = lu.solve(np.where(y >= 0.0, 1.0, -1.0), trans="T")
            j = int(np.argmax(np.abs(z)))
            if rounds and abs(z[j]) <= z @ x:
                break
            x = _unit(m, j)
        ramp = (1.0 + np.arange(m) / max(m - 1, 1)) * np.where(
            np.arange(m) % 2, -1.0, 1.0)
        estimate = max(estimate, 2.0 * _norm1(lu.solve(ramp)) / (3 * m))
    return float(abs(basis_matrix).sum(axis=0).max()) * estimate


def _norm1(v: np.ndarray) -> float:
    """``‖v‖₁``, or inf when ``v`` holds a NaN or an inf."""
    size = float(np.sum(np.abs(v)))
    return size if np.isfinite(size) else _INF


def _unit(m: int, row: int) -> np.ndarray:
    e = np.zeros(m)
    e[row] = 1.0
    return e


def solve_lp_revised(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                     bounds=None, max_iter: int = 20000,
                     time_limit_s: float | None = None,
                     warm: Basis | None = None,
                     pricing: str = "dantzig"
                     ) -> tuple[SimplexResult, Basis]:
    """One-shot solve; :func:`solve_lp` without the basis.

    Returns the result plus the final :class:`Basis` so callers chaining
    related solves (deadline sweeps) can warm-start the next one.
    """
    problem = RevisedProblem(c, a_ub, b_ub, a_eq, b_eq, bounds)
    outcome = problem.solve(warm=warm, max_iter=max_iter,
                            time_limit_s=time_limit_s, pricing=pricing)
    return outcome.result, outcome.basis


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None,
             max_iter: int = 20000,
             time_limit_s: float | None = None) -> SimplexResult:
    """Solve a bounded-variable LP with the native solver::

        minimize c @ x  s.t.  a_ub @ x <= b_ub,  a_eq @ x == b_eq,
                              bounds[i, 0] <= x[i] <= bounds[i, 1]

    Args:
        c: objective coefficients, length n.
        a_ub, b_ub: inequality system (may be None).
        a_eq, b_eq: equality system (may be None).
        bounds: (n, 2) array of [lb, ub]; defaults to x >= 0.
        max_iter: per-phase pivot limit.
        time_limit_s: optional wall-clock budget; an exhausted budget
            returns ``LIMIT`` mid-phase, so anytime callers never block
            on a single long LP.

    Returns:
        :class:`SimplexResult` with values in the original variable space.
    """
    result, _basis = solve_lp_revised(c, a_ub, b_ub, a_eq, b_eq, bounds,
                                      max_iter=max_iter,
                                      time_limit_s=time_limit_s)
    return result
