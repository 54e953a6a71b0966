"""Mathematical-programming substrate (the reproduction's CPLEX stand-in).

The paper solves its DVS mode-assignment problem with AMPL + CPLEX.  This
subpackage provides the equivalent functionality:

* :mod:`repro.solver.model` — an AMPL-like modelling layer (variables,
  linear expressions, constraints, objective) that compiles to matrix form.
* :mod:`repro.solver.revised` — a from-scratch sparse revised simplex LP
  solver with bounded variables, dual warm starts and Bland anti-cycling.
* :mod:`repro.solver.branch_bound` — a best-first branch-and-bound MILP
  solver built on the revised simplex.
* :mod:`repro.solver.scipy_backend` — an optional accelerated backend that
  delegates to ``scipy.optimize`` (HiGHS).  The native solver is validated
  against it in the test suite.

Neither backend's floats reach a results row: the schedule optimizer
prices every emitted schedule from its integer assignment alone (see
:meth:`repro.core.milp.formulation.MilpFormulation.price`), so the bytes
do not depend on which backend or pivot path found it.

Typical use::

    from repro.solver import Model

    m = Model("example")
    x = m.add_binary("x")
    y = m.add_var("y", lb=0.0, ub=4.0)
    m.add_constraint(2 * x + y <= 5, name="cap")
    m.minimize(-3 * x - y)
    sol = m.solve()            # scipy backend when available, else native
    sol = m.solve(backend="native")
"""

from repro.solver.model import Constraint, LinExpr, Model, Sense, Variable
from repro.solver.revised import SimplexResult, solve_lp
from repro.solver.branch_bound import BranchBoundOptions, solve_milp
from repro.solver.solution import Solution, SolveStatus

__all__ = [
    "BranchBoundOptions",
    "Constraint",
    "LinExpr",
    "Model",
    "Sense",
    "SimplexResult",
    "Solution",
    "SolveStatus",
    "Variable",
    "solve_lp",
    "solve_milp",
]
