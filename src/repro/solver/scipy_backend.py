"""Accelerated solver backend delegating to scipy.optimize (HiGHS).

The native simplex/branch-and-bound in this package is exact but pure
Python; for the larger MILPs produced by the unfiltered DVS formulations
this backend hands the compiled matrices to HiGHS instead.  Results are
interchangeable with the native backend (the test suite asserts agreement),
so formulation code never needs to know which backend ran.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize, sparse

from repro.solver.solution import Solution, SolveStatus

_STATUS_MAP = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.LIMIT,  # iteration/time limit
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.LIMIT,  # numerical trouble; treat as limit
}


def solve_model(
    model, time_limit: float | None = None, relax: bool = False, **_ignored
) -> Solution:
    """Solve a :class:`repro.solver.model.Model` with HiGHS.

    Extra keyword options accepted by the native backend (node limits,
    ``warm_key`` — the warm-start plumbing) are
    ignored so callers can pass one option set to either backend; HiGHS
    manages its own basis reuse internally, so warm-start hints are a
    native-only concern.
    ``relax=True`` drops all integrality restrictions (the LP relaxation),
    which the verification oracles compare across backends.
    """
    c, a_ub, b_ub, a_eq, b_eq, bounds, integrality, c0 = model.to_arrays()
    if relax:
        integrality = np.zeros_like(integrality)
    n = len(c)
    if n == 0:
        return Solution(SolveStatus.OPTIMAL, objective=c0, x=np.empty(0), backend="scipy")

    rows = []
    lowers = []
    uppers = []
    if a_ub.size:
        rows.append(a_ub)
        lowers.append(np.full(len(b_ub), -np.inf))
        uppers.append(b_ub)
    if a_eq.size:
        rows.append(a_eq)
        lowers.append(b_eq)
        uppers.append(b_eq)

    constraints = []
    if rows:
        a_all = sparse.csc_matrix(np.vstack(rows))
        constraints = [optimize.LinearConstraint(a_all, np.concatenate(lowers), np.concatenate(uppers))]

    variable_bounds = optimize.Bounds(bounds[:, 0], bounds[:, 1])
    options = {}
    if time_limit is not None:
        options["time_limit"] = time_limit

    result = optimize.milp(
        c,
        constraints=constraints,
        bounds=variable_bounds,
        integrality=integrality.astype(int),
        options=options,
    )

    status = _STATUS_MAP.get(result.status, SolveStatus.LIMIT)
    x = np.asarray(result.x) if result.x is not None else np.empty(0)
    if x.size and integrality.any():
        x = x.copy()
        idx = np.where(integrality)[0]
        x[idx] = np.round(x[idx])
    objective = float(result.fun) + c0 if result.fun is not None else float("nan")
    dual_bound = getattr(result, "mip_dual_bound", None)
    if dual_bound is not None and np.isfinite(dual_bound):
        best_bound = float(dual_bound) + c0
    elif status is SolveStatus.OPTIMAL:
        best_bound = objective
    else:
        best_bound = None
    return Solution(
        status=status,
        objective=objective,
        x=x,
        backend="scipy",
        iterations=int(getattr(result, "mip_node_count", 0) or 0),
        nodes=int(getattr(result, "mip_node_count", 0) or 0),
        best_bound=best_bound,
    )
