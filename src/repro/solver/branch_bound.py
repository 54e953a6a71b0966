"""Best-first branch-and-bound MILP solver over the native simplex.

Together with :mod:`repro.solver.revised` this forms the from-scratch
replacement for CPLEX used by the paper's DVS formulation.  The search is
classic LP-based branch and bound:

* each node is an LP relaxation with tightened variable bounds;
* nodes are explored best-bound-first (a heap keyed on the parent
  relaxation value), which keeps the global lower bound tight;
* branching picks the integer variable whose relaxation value is most
  fractional ("maximum infeasibility" rule), or — when the caller hands
  in a shared :class:`~repro.solver.warmstart.PseudocostStore` — the
  variable with the best pseudocost score, so branching history learned
  on one §5.3 multidata category transfers to its siblings;
* a node is pruned when its relaxation is infeasible or its bound cannot
  beat the incumbent.

Each node's LP is warm-started from its parent's optimal basis (a bound
change on one branched variable is a couple of dual pivots), and the root
can be warm-started from a related earlier solve (the previous deadline
in a sweep).

The returned point is the incumbent's node relaxation with its integer
variables snapped to integers; its continuous part carries the pivot
path's last-bit noise.  Callers that need bytes independent of the path
price the integer assignment themselves (the DVS optimizer does).

The solver is exact: when it returns ``OPTIMAL`` the incumbent is a proven
optimum (within ``int_tol``/``gap_tol``).  A ``node_limit``/``time_limit``
exhaustion returns ``LIMIT`` with the best incumbent found, mirroring how
commercial solvers degrade.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import observe
from repro.solver.revised import Basis, RevisedProblem
from repro.solver.solution import SolveStatus

if TYPE_CHECKING:
    from repro.solver.warmstart import PseudocostStore

_INF = float("inf")


@dataclass
class BranchBoundOptions:
    """Tuning knobs for the native MILP search."""

    int_tol: float = 1e-6
    gap_tol: float = 1e-9
    node_limit: int = 100000
    time_limit: float = 600.0
    max_lp_iter: int = 20000


@dataclass
class MilpResult:
    """Outcome of a branch-and-bound run (original variable space)."""

    status: SolveStatus
    objective: float = float("nan")
    x: np.ndarray = field(default_factory=lambda: np.empty(0))
    iterations: int = 0
    nodes: int = 0
    best_bound: float = float("-inf")
    #: Optimal basis of the root relaxation — the warm-start hand-off
    #: for the next related solve in a sweep.
    root_basis: Basis | None = None
    #: Prunes attributable to an injected external incumbent (the
    #: continuous-relaxation upper bound) before the search found any
    #: incumbent of its own.
    continuous_prunes: int = 0
    #: Nodes pushed onto the open heap (root included).  ``nodes`` counts
    #: LP solves, which an external incumbent cannot reduce in a
    #: run-to-optimality best-first search (every child LP must be solved
    #: to know its bound); enqueued nodes — and the final-drain pops they
    #: imply — are the work the incumbent does save.
    nodes_enqueued: int = 0

    @property
    def ok(self) -> bool:
        return self.status.ok


def _most_fractional(x: np.ndarray, integer_idx: np.ndarray, tol: float) -> int | None:
    """Index of the integer variable farthest from integrality, or None."""
    if integer_idx.size == 0:
        return None
    values = x[integer_idx]
    frac = np.abs(values - np.round(values))
    worst = int(np.argmax(frac))
    if frac[worst] <= tol:
        return None
    return int(integer_idx[worst])


def _pseudocost_branch(x: np.ndarray, integer_idx: np.ndarray, tol: float,
                       store: "PseudocostStore") -> int | None:
    """Fractional variable with the best pseudocost score, or None."""
    if integer_idx.size == 0:
        return None
    values = x[integer_idx]
    frac = values - np.floor(values)
    dist = np.minimum(frac, 1.0 - frac)
    candidates = np.nonzero(dist > tol)[0]
    if candidates.size == 0:
        return None
    scores = [store.score(int(integer_idx[k]), float(frac[k]))
              for k in candidates]
    return int(integer_idx[candidates[int(np.argmax(scores))]])


def solve_milp(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
    bounds=None,
    integrality=None,
    options: BranchBoundOptions | None = None,
    warm_start: Basis | None = None,
    pseudocosts: "PseudocostStore | None" = None,
    incumbent: "tuple[np.ndarray, float] | None" = None,
) -> MilpResult:
    """Solve a mixed-integer LP by branch and bound on the native simplex.

    Arguments mirror :func:`repro.solver.revised.solve_lp`, plus
    ``integrality``: a boolean mask marking the integer variables.

    Args:
        warm_start: basis to warm-start the *root* relaxation from
            (ignored when its shape does not match).  The returned
            ``root_basis`` closes the loop for the next solve.
        pseudocosts: shared branching-history store; when given, branch
            variables are chosen by pseudocost score instead of maximum
            fractionality, and the store is updated in place.
        incumbent: an externally constructed feasible integral point
            ``(x0, objective)`` — here, the schedule rounded up from the
            exact continuous-voltage optimum.  The search starts with it
            as the incumbent, so subtrees that cannot beat it are pruned
            immediately (counted in ``continuous_prunes`` and the
            ``solver.bnb.continuous_prunes`` observe counter until the
            search finds an incumbent of its own).  Soundness: a subtree
            is pruned only when its bound is ``>= objective - gap_tol``,
            so the returned point is always within ``gap_tol`` of the
            true optimum — the solver's existing exactness contract.

    Returns:
        :class:`MilpResult`.  ``status == LIMIT`` means a limit was hit;
        the incumbent (if any) is still returned in ``x``/``objective``.
    """
    options = options or BranchBoundOptions()
    c = np.asarray(c, dtype=float).ravel()
    n = len(c)
    if bounds is None:
        bounds = np.column_stack([np.zeros(n), np.full(n, _INF)])
    bounds = np.asarray(bounds, dtype=float).reshape(n, 2)
    integrality = (
        np.zeros(n, dtype=bool) if integrality is None else np.asarray(integrality, dtype=bool)
    )
    integer_idx = np.where(integrality)[0]

    start = observe.clock()
    total_lp_iters = 0
    nodes_explored = 0
    nodes_pruned = 0
    continuous_prunes = 0
    nodes_enqueued = 0

    def lp_budget() -> float:
        """Wall-clock left for the next LP solve (floored so a nearly
        exhausted budget still lets the LP fail fast rather than hang)."""
        return max(1e-3, options.time_limit - (observe.clock() - start))

    def flush_counters() -> None:
        observe.add("solver.bnb.nodes_explored", nodes_explored)
        if nodes_pruned:
            observe.add("solver.bnb.nodes_pruned", nodes_pruned)
        if continuous_prunes:
            observe.add("solver.bnb.continuous_prunes", continuous_prunes)
        if nodes_enqueued:
            observe.add("solver.bnb.nodes_enqueued", nodes_enqueued)

    # One compiled problem for the whole tree: nodes only override
    # bounds, so the sparse columns and cost vector are shared.
    problem = RevisedProblem(c, a_ub, b_ub, a_eq, b_eq, bounds)

    def node_solve(node_bounds, warm_basis):
        outcome = problem.solve(
            warm=warm_basis, bounds=node_bounds,
            max_iter=options.max_lp_iter, time_limit_s=lp_budget())
        return outcome.result, outcome.basis

    def pick_branch(x: np.ndarray) -> int | None:
        if pseudocosts is not None:
            return _pseudocost_branch(x, integer_idx, options.int_tol,
                                      pseudocosts)
        return _most_fractional(x, integer_idx, options.int_tol)

    root, root_basis = node_solve(bounds, warm_start)
    total_lp_iters += root.iterations
    nodes_explored += 1
    if root.status is SolveStatus.INFEASIBLE:
        flush_counters()
        return MilpResult(SolveStatus.INFEASIBLE, nodes=1, iterations=total_lp_iters)
    if root.status is SolveStatus.UNBOUNDED:
        flush_counters()
        return MilpResult(SolveStatus.UNBOUNDED, nodes=1, iterations=total_lp_iters)
    if root.status is SolveStatus.LIMIT:
        flush_counters()
        return MilpResult(SolveStatus.LIMIT, nodes=1, iterations=total_lp_iters)

    incumbent_x: np.ndarray | None = None
    incumbent_obj = _INF
    # An injected incumbent primes the pruning threshold before the
    # search has found any integral point of its own; once the search
    # improves on it, further prunes are ordinary ones.
    injected = False
    if incumbent is not None:
        x0, obj0 = incumbent
        x0 = np.asarray(x0, dtype=float).ravel()
        if x0.size == n and np.isfinite(obj0):
            incumbent_x = x0.copy()
            incumbent_obj = float(obj0)
            injected = True

    counter = itertools.count()  # heap tie-breaker
    # Heap entries: (relaxation bound, seq, bounds array, relaxation
    # solution, relaxation objective, optimal basis for warm-starting
    # the children).
    heap: list[tuple] = []
    heapq.heappush(heap, (root.objective, next(counter), bounds.copy(),
                          root.x, root.objective, root_basis))
    nodes_enqueued += 1

    limit_hit = False
    while heap:
        bound, _, node_bounds, node_x, node_obj, node_basis = heapq.heappop(heap)
        if bound >= incumbent_obj - options.gap_tol:
            nodes_pruned += 1
            if injected:
                continuous_prunes += 1
            continue  # cannot improve on incumbent
        if nodes_explored >= options.node_limit or observe.clock() - start > options.time_limit:
            limit_hit = True
            # Reinstate the popped node so the final best-bound report
            # still covers its (unexplored) subtree.
            heapq.heappush(heap, (bound, next(counter), node_bounds,
                                  node_x, node_obj, node_basis))
            break

        branch_var = pick_branch(node_x)
        if branch_var is None:
            # Integral relaxation: new incumbent.
            if node_obj < incumbent_obj - options.gap_tol:
                incumbent_obj = node_obj
                incumbent_x = node_x.copy()
                injected = False
                observe.add("solver.bnb.incumbents")
                # Best-first pop order makes this node's bound the global
                # lower bound, so the event carries the gap over time.
                observe.event("bnb.incumbent", objective=incumbent_obj,
                              lower_bound=bound, nodes=nodes_explored)
            continue

        value = node_x[branch_var]
        floor_val = np.floor(value)
        frac_down = float(value - floor_val)
        for is_down in (True, False):
            child_bounds = node_bounds.copy()
            if is_down:
                child_bounds[branch_var, 1] = min(child_bounds[branch_var, 1], floor_val)
            else:
                child_bounds[branch_var, 0] = max(child_bounds[branch_var, 0], floor_val + 1.0)
            if child_bounds[branch_var, 0] > child_bounds[branch_var, 1]:
                continue
            child, child_basis = node_solve(child_bounds, node_basis)
            total_lp_iters += child.iterations
            nodes_explored += 1
            if child.status is SolveStatus.LIMIT:
                # An unsolved child cannot be pruned soundly: its subtree
                # may hold the optimum.  Degrade the whole run to LIMIT.
                limit_hit = True
                continue
            if child.status is not SolveStatus.OPTIMAL:
                nodes_pruned += 1
                continue  # infeasible child is pruned
            if pseudocosts is not None:
                pseudocosts.update(
                    branch_var, 0 if is_down else 1,
                    child.objective - node_obj,
                    frac_down if is_down else 1.0 - frac_down)
            if child.objective >= incumbent_obj - options.gap_tol:
                nodes_pruned += 1
                if injected:
                    continuous_prunes += 1
                continue
            frac = pick_branch(child.x)
            if frac is None:
                if child.objective < incumbent_obj - options.gap_tol:
                    incumbent_obj = child.objective
                    incumbent_x = child.x.copy()
                    injected = False
                    observe.add("solver.bnb.incumbents")
                    observe.event("bnb.incumbent", objective=incumbent_obj,
                                  lower_bound=bound, nodes=nodes_explored)
            else:
                heapq.heappush(
                    heap,
                    (child.objective, next(counter), child_bounds, child.x,
                     child.objective, child_basis),
                )
                nodes_enqueued += 1

    flush_counters()
    if incumbent_x is None:
        status = SolveStatus.LIMIT if limit_hit else SolveStatus.INFEASIBLE
        bound = min([b for b, *_ in heap], default=root.objective)
        return MilpResult(
            status, nodes=nodes_explored, iterations=total_lp_iters,
            best_bound=bound, root_basis=root_basis,
            continuous_prunes=continuous_prunes,
            nodes_enqueued=nodes_enqueued,
        )

    # Snap near-integer values exactly to integers for downstream consumers.
    snapped = incumbent_x.copy()
    snapped[integer_idx] = np.round(snapped[integer_idx])
    status = SolveStatus.LIMIT if limit_hit else SolveStatus.OPTIMAL
    best_bound = min([bound for bound, *_ in heap], default=incumbent_obj)
    return MilpResult(
        status,
        objective=incumbent_obj,
        x=snapped,
        iterations=total_lp_iters,
        nodes=nodes_explored,
        best_bound=best_bound,
        root_basis=root_basis,
        continuous_prunes=continuous_prunes,
        nodes_enqueued=nodes_enqueued,
    )
