"""An AMPL-like modelling layer for linear and mixed-integer programs.

The paper expresses its DVS formulation in AMPL and solves it with CPLEX.
This module plays AMPL's role: it lets the formulation code build variables,
linear expressions and constraints symbolically, then compiles the model to
matrix form for whichever backend solves it (native simplex/branch-and-bound
or scipy's HiGHS).

Only *linear* models are supported; multiplying two expressions that both
contain variables raises :class:`~repro.errors.ModelError`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro import observe
from repro.errors import ModelError, SolverLimitError
from repro.solver.solution import Solution, SolveStatus

_INF = float("inf")


class Sense(enum.Enum):
    """Constraint sense."""

    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass(frozen=True)
class Variable:
    """A decision variable.

    Variables are created through :meth:`Model.add_var` /
    :meth:`Model.add_binary`; they are hashable and usable directly in
    arithmetic (``2 * x + y <= 5``).
    """

    name: str
    index: int
    lb: float
    ub: float
    is_integer: bool

    def __add__(self, other):
        return LinExpr.from_var(self) + other

    def __radd__(self, other):
        return LinExpr.from_var(self) + other

    def __sub__(self, other):
        return LinExpr.from_var(self) - other

    def __rsub__(self, other):
        return (-LinExpr.from_var(self)) + other

    def __mul__(self, coef):
        return LinExpr.from_var(self) * coef

    def __rmul__(self, coef):
        return LinExpr.from_var(self) * coef

    def __neg__(self):
        return LinExpr.from_var(self) * -1.0

    def __le__(self, other):
        return LinExpr.from_var(self) <= other

    def __ge__(self, other):
        return LinExpr.from_var(self) >= other

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, Variable):
            return self is other
        return LinExpr.from_var(self) == other

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


class LinExpr:
    """A linear expression ``sum(coef_i * var_i) + constant``."""

    __slots__ = ("terms", "constant")

    def __init__(self, terms: Mapping[Variable, float] | None = None, constant: float = 0.0):
        self.terms: dict[Variable, float] = dict(terms) if terms else {}
        self.constant = float(constant)

    @classmethod
    def from_var(cls, var: Variable) -> "LinExpr":
        return cls({var: 1.0})

    @classmethod
    def coerce(cls, value) -> "LinExpr":
        """Convert a number, Variable or LinExpr into a LinExpr."""
        if isinstance(value, LinExpr):
            return value.copy()
        if isinstance(value, Variable):
            return cls.from_var(value)
        if isinstance(value, (int, float, np.integer, np.floating)):
            return cls(constant=float(value))
        raise ModelError(f"cannot use {type(value).__name__} in a linear expression")

    def copy(self) -> "LinExpr":
        return LinExpr(self.terms, self.constant)

    def add_term(self, var: Variable, coef: float) -> None:
        """Accumulate ``coef * var`` in place (fast path for builders)."""
        self.terms[var] = self.terms.get(var, 0.0) + float(coef)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "LinExpr":
        result = self.copy()
        other = LinExpr.coerce(other)
        for var, coef in other.terms.items():
            result.add_term(var, coef)
        result.constant += other.constant
        return result

    def __radd__(self, other) -> "LinExpr":
        return self.__add__(other)

    def __sub__(self, other) -> "LinExpr":
        return self.__add__(LinExpr.coerce(other) * -1.0)

    def __rsub__(self, other) -> "LinExpr":
        return (self * -1.0).__add__(other)

    def __mul__(self, coef) -> "LinExpr":
        if isinstance(coef, (Variable, LinExpr)):
            raise ModelError("model is linear: cannot multiply two variable expressions")
        coef = float(coef)
        return LinExpr({v: c * coef for v, c in self.terms.items()}, self.constant * coef)

    def __rmul__(self, coef) -> "LinExpr":
        return self.__mul__(coef)

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    def __truediv__(self, denom) -> "LinExpr":
        return self * (1.0 / float(denom))

    # -- comparisons build constraints --------------------------------------

    def __le__(self, other) -> "Constraint":
        return Constraint(self - LinExpr.coerce(other), Sense.LE)

    def __ge__(self, other) -> "Constraint":
        return Constraint(self - LinExpr.coerce(other), Sense.GE)

    def __eq__(self, other) -> "Constraint":  # type: ignore[override]
        return Constraint(self - LinExpr.coerce(other), Sense.EQ)

    def __hash__(self) -> int:
        return id(self)

    def value(self, assignment: Sequence[float]) -> float:
        """Evaluate the expression at a variable-value vector."""
        total = self.constant
        for var, coef in self.terms.items():
            total += coef * assignment[var.index]
        return total

    def __repr__(self) -> str:
        parts = [f"{c:+g}*{v.name}" for v, c in self.terms.items()]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts)


def lin_sum(items: Iterable) -> LinExpr:
    """Sum variables/expressions/numbers without quadratic blowup.

    ``sum()`` over LinExprs copies the accumulator at every step; this helper
    accumulates in place and is the recommended way to build big objectives.
    """
    total = LinExpr()
    for item in items:
        item = LinExpr.coerce(item)
        for var, coef in item.terms.items():
            total.add_term(var, coef)
        total.constant += item.constant
    return total


def exact_value(expr: LinExpr, x) -> float:
    """``expr`` at ``x`` as the correctly rounded sum of its terms.

    Terms are taken in variable-index order and summed with
    :func:`math.fsum`, so the value is a function of the point alone, not
    of the order the expression was built in.
    """
    terms = sorted((var.index, coef) for var, coef in expr.terms.items())
    return math.fsum([coef * float(x[index]) for index, coef in terms]
                     + [expr.constant])


@dataclass
class Constraint:
    """A linear constraint ``expr (<=|>=|==) 0`` (rhs folded into expr)."""

    expr: LinExpr
    sense: Sense
    name: str = ""

    @property
    def rhs(self) -> float:
        """Right-hand side when written as ``terms <sense> rhs``."""
        return -self.expr.constant

    def violation(self, assignment: Sequence[float]) -> float:
        """Nonnegative violation magnitude at a candidate point."""
        value = self.expr.value(assignment)
        if self.sense is Sense.LE:
            return max(0.0, value)
        if self.sense is Sense.GE:
            return max(0.0, -value)
        return abs(value)


class Model:
    """A mixed-integer linear program under construction.

    The model is always a *minimization*; call :meth:`maximize` to negate.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self._names: set[str] = set()

    # -- construction --------------------------------------------------------

    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = _INF,
        integer: bool = False,
    ) -> Variable:
        """Add a continuous (default) or general-integer variable."""
        if name in self._names:
            raise ModelError(f"duplicate variable name {name!r}")
        if lb > ub:
            raise ModelError(f"variable {name!r} has lb {lb} > ub {ub}")
        var = Variable(name=name, index=len(self.variables), lb=float(lb), ub=float(ub), is_integer=integer)
        self.variables.append(var)
        self._names.add(name)
        return var

    def add_binary(self, name: str) -> Variable:
        """Add a 0/1 variable."""
        return self.add_var(name, lb=0.0, ub=1.0, integer=True)

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built from expression comparisons."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "add_constraint expects an expression comparison such as "
                "`x + y <= 3` (a trivially true/false bool means both sides "
                "were constants)"
            )
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    def minimize(self, expr) -> None:
        """Set the (minimization) objective."""
        self.objective = LinExpr.coerce(expr)

    def maximize(self, expr) -> None:
        """Set a maximization objective (stored negated)."""
        self.objective = LinExpr.coerce(expr) * -1.0

    @property
    def num_integer(self) -> int:
        return sum(1 for v in self.variables if v.is_integer)

    # -- compilation ---------------------------------------------------------

    def to_arrays(self):
        """Compile to matrix form.

        Returns:
            tuple ``(c, A_ub, b_ub, A_eq, b_eq, bounds, integrality, c0)``
            where ``bounds`` is an ``(n, 2)`` array and ``integrality`` a
            boolean vector; ``c0`` is the objective's constant offset.
        """
        n = len(self.variables)
        c = np.zeros(n)
        for var, coef in self.objective.terms.items():
            c[var.index] += coef

        ub_rows: list[tuple[LinExpr, float]] = []
        eq_rows: list[tuple[LinExpr, float]] = []
        for con in self.constraints:
            if con.sense is Sense.LE:
                ub_rows.append((con.expr, con.rhs))
            elif con.sense is Sense.GE:
                ub_rows.append((con.expr * -1.0, -con.rhs))
            else:
                eq_rows.append((con.expr, con.rhs))

        def build(rows: list[tuple[LinExpr, float]]):
            mat = np.zeros((len(rows), n))
            rhs = np.zeros(len(rows))
            for i, (expr, b) in enumerate(rows):
                for var, coef in expr.terms.items():
                    mat[i, var.index] += coef
                rhs[i] = b
            return mat, rhs

        a_ub, b_ub = build(ub_rows)
        a_eq, b_eq = build(eq_rows)
        bounds = np.array([[v.lb, v.ub] for v in self.variables]) if n else np.empty((0, 2))
        integrality = np.array([v.is_integer for v in self.variables], dtype=bool)
        return c, a_ub, b_ub, a_eq, b_eq, bounds, integrality, self.objective.constant

    # -- solving ---------------------------------------------------------------

    def solve(self, backend: str = "auto", relax: bool = False, **options) -> Solution:
        """Solve the model.

        Args:
            backend: ``"auto"`` (scipy when importable, else native),
                ``"scipy"`` or ``"native"``.
            relax: solve the LP relaxation (integrality dropped) instead of
                the full MILP — the verification oracles use this to
                cross-check backends on the continuous problem.
            **options: forwarded to the backend (e.g. ``time_limit``,
                ``node_limit`` for the native branch-and-bound).

        Returns:
            a :class:`~repro.solver.solution.Solution`; variable values are
            indexed by ``Variable.index`` and readable via :meth:`value_of`.
        """
        if backend not in ("auto", "scipy", "native"):
            raise ModelError(f"unknown backend {backend!r}")
        check_fault_budget()
        # An externally constructed integral incumbent (x0, objective) —
        # the continuous-bound round-up.  Only the native branch-and-bound
        # can consume it; scipy solves from scratch, so it is popped here
        # rather than forwarded.  An execution hint: it never changes the
        # optimum, only how fast the search proves it.
        incumbent = options.pop("incumbent", None)
        with observe.span("solver.solve", backend=backend, relax=relax,
                          variables=len(self.variables),
                          constraints=len(self.constraints)) as sp:
            if backend in ("auto", "scipy"):
                try:
                    from repro.solver import scipy_backend

                    solution = scipy_backend.solve_model(self, relax=relax, **options)
                    solution.wall_time = sp.elapsed_s
                    sp.set(status=solution.status.name, used="scipy")
                    _record_solve_metrics(solution)
                    return solution
                except ImportError:
                    if backend == "scipy":
                        raise
            solution = self._solve_native(relax=relax, incumbent=incumbent,
                                          **options)
            solution.wall_time = sp.elapsed_s
            sp.set(status=solution.status.name, used="native")
            _record_solve_metrics(solution)
        return solution

    def _solve_native(self, relax: bool = False, incumbent=None,
                      **options) -> Solution:
        from repro.solver.branch_bound import BranchBoundOptions, solve_milp
        from repro.solver.revised import solve_lp

        c, a_ub, b_ub, a_eq, b_eq, bounds, integrality, c0 = self.to_arrays()
        lp_time_limit = options.pop("lp_time_limit", None) or options.get("time_limit")
        # Warm-start plumbing: an execution hint, popped before the
        # remaining options become BranchBoundOptions.
        warm_key = options.pop("warm_key", None)
        if relax:
            integrality = np.zeros_like(integrality)
            incumbent = None  # an integral point does not bound the LP search
        if incumbent is not None:
            # The caller's objective includes the model's constant offset;
            # branch and bound works in the raw c·x space.
            x0, obj0 = incumbent
            incumbent = (x0, float(obj0) - c0)
        if integrality.any():
            warm_basis = None
            pseudocosts = None
            if warm_key is not None:
                from repro.solver import warmstart

                reg = warmstart.registry()
                pseudocosts = reg.pseudocosts(warm_key)
                warm_basis = reg.get_basis(warm_key)
            bb_options = BranchBoundOptions(**options)
            result = solve_milp(c, a_ub, b_ub, a_eq, b_eq, bounds, integrality,
                                options=bb_options,
                                warm_start=warm_basis, pseudocosts=pseudocosts,
                                incumbent=incumbent)
            if warm_key is not None and result.root_basis is not None and result.ok:
                warmstart.registry().put_basis(warm_key, result.root_basis)
            return Solution(
                status=result.status,
                objective=result.objective + c0 if np.isfinite(result.objective) else result.objective,
                x=result.x,
                backend="native",
                iterations=result.iterations,
                nodes=result.nodes,
                best_bound=(result.best_bound + c0
                            if np.isfinite(result.best_bound) else None),
            )
        lp = solve_lp(c, a_ub, b_ub, a_eq, b_eq, bounds,
                      time_limit_s=lp_time_limit)
        objective = lp.objective + c0 if np.isfinite(lp.objective) else lp.objective
        return Solution(
            status=lp.status,
            objective=objective,
            x=lp.x,
            backend="native",
            iterations=lp.iterations,
            best_bound=objective if lp.status is SolveStatus.OPTIMAL else None,
        )

    def value_of(self, item, solution: Solution) -> float:
        """Read a variable's or expression's value out of a solution."""
        if not solution.ok and solution.x.size == 0:
            raise ModelError("solution holds no point to evaluate")
        if isinstance(item, Variable):
            return float(solution.x[item.index])
        return LinExpr.coerce(item).value(solution.x)

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={len(self.variables)}, "
            f"int={self.num_integer}, cons={len(self.constraints)})"
        )


def check_fault_budget() -> None:
    """Fault-plane hook: deterministic solver budget exhaustion.

    Called by :meth:`Model.solve` before backend dispatch, so the
    ``solver.limit`` point fires for the scipy and native backends alike.
    Downstream this looks exactly like a real exhausted iteration/node
    budget: the anytime chain falls through to its next tier, and an
    unbudgeted solve fails the task and is retried by the executor (the
    hit count has advanced, so the retry proceeds).
    """
    from repro.resilience import faultplane

    if faultplane.fire("solver.limit"):
        raise SolverLimitError(
            "injected solver budget exhaustion (fault point solver.limit)")


def _record_solve_metrics(solution: Solution) -> None:
    # Backend-agnostic effort counters; the native simplex / B&B add
    # finer-grained ones (solver.revised.*, solver.bnb.*) themselves.
    observe.add("solver.solves")
    if solution.iterations:
        observe.add("solver.iterations", solution.iterations)
    if solution.nodes:
        observe.add("solver.nodes", solution.nodes)
