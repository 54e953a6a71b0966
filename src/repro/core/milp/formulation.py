"""The edge-based MILP of Section 4.2.

For every independent edge (i, j) and mode m there is a binary ``k_ijm``
with ``sum_m k_ijm == 1``.  For every profiled local path (h, i, j) two
auxiliary continuous variables ``e_hij``, ``t_hij`` bound the absolute
voltage(-squared) difference between the mode chosen on (h, i) and on
(i, j), linearizing the transition costs.

Objective (minimize, nanojoules)::

    sum_{i,j} G_ij * sum_m k_ijm * E_jm  +  sum_{h,i,j} D_hij * CE * e_hij

Deadline constraint (seconds)::

    sum_{i,j} G_ij * sum_m k_ijm * T_jm  +  sum_{h,i,j} D_hij * CT * t_hij
        <= deadline

Filtered edges reuse their representative's ``k`` variables, so they still
contribute their time and energy terms — deadlines remain exact, only
optimality can be affected (the paper's Table 3 result).

Canonical pricing: a schedule's predicted energy and time are evaluated
from its integer assignment alone (:meth:`MilpFormulation.price`), never
read off the solver, so every backend and pivot path that picks the same
modes emits the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro import observe
from repro.errors import ModelError, ScheduleError
from repro.ir.cfg import Edge
from repro.core.milp.filtering import FilterResult, no_filtering
from repro.core.milp.schedule import DVSSchedule
from repro.core.milp.transition import TransitionCosts
from repro.profiling.profile_data import ProfileData
from repro.simulator.dvs import ModeTable, TransitionCostModel, ZERO_TRANSITION
from repro.solver.model import LinExpr, Model, Variable, lin_sum
from repro.solver.solution import Solution


@dataclass(frozen=True)
class FormulationOptions:
    """Knobs for building the MILP."""

    transition_model: TransitionCostModel = ZERO_TRANSITION
    # When None, no filtering is applied (all edges independent).
    filter_result: FilterResult | None = None


@dataclass
class MilpFormulation:
    """A built model plus the bookkeeping to decode its solution."""

    model: Model
    mode_table: ModeTable
    # edge -> its representative's mode variables (one per mode).
    edge_vars: dict[Edge, list[Variable]]
    independent_edges: list[Edge]
    deadline_expr: LinExpr
    deadline_s: float = 0.0
    num_paths: int = 0
    build_time_s: float = 0.0
    # Per-path transition auxiliaries (in_vars, out_vars, e_var, t_var) —
    # kept so an external integral point can be lifted into the model's
    # variable space (see incumbent_vector).
    aux_paths: list = field(default_factory=list)

    def solve(self, backend: str = "auto", **options) -> Solution:
        """Solve and return the raw solver solution."""
        return self.model.solve(backend=backend, **options)

    def extract_schedule(
        self, solution: Solution, allow_incumbent: bool = False
    ) -> DVSSchedule:
        """Decode the chosen mode per edge from a solved model.

        Args:
            solution: the backend's solution.
            allow_incumbent: also accept a feasible-but-unproven point
                (a ``LIMIT`` incumbent from an anytime solve) instead of
                requiring proven optimality.
        """
        usable = solution.ok or (allow_incumbent and solution.has_incumbent)
        if not usable:
            raise ScheduleError(f"cannot extract a schedule from status {solution.status}")
        assignment: dict[Edge, int] = {}
        for edge, variables in self.edge_vars.items():
            chosen = [m for m, var in enumerate(variables) if solution.x[var.index] > 0.5]
            if len(chosen) != 1:
                raise ScheduleError(f"edge {edge} selected {len(chosen)} modes")
            assignment[edge] = chosen[0]
        return DVSSchedule(assignment=assignment, num_modes=len(self.mode_table))

    def predicted_time(self, solution: Solution) -> float:
        """Deadline-constraint LHS at the solution (seconds)."""
        return self.deadline_expr.value(solution.x)

    def incumbent_vector(self, rep_modes: dict[Edge, int]):
        """Lift a per-representative mode choice into model space.

        Returns ``(x, objective, time_s)`` — the full variable vector
        (binaries set, transition auxiliaries at their implied absolute
        values), the model objective at that point, and the deadline-row
        value, both summed exactly (:func:`exact_value`).  The point is
        feasible by construction whenever ``time_s <= deadline_s``, which
        makes it a sound warm incumbent for branch and bound over this
        exact model.
        """
        import numpy as np

        x = np.zeros(len(self.model.variables))
        for rep in self.independent_edges:
            x[self.edge_vars[rep][rep_modes[rep]].index] = 1.0
        voltages = self.mode_table.voltages()
        v_squared = [v * v for v in voltages]
        for in_vars, out_vars, e_var, t_var in self.aux_paths:
            m_in = next(m for m, var in enumerate(in_vars) if x[var.index] > 0.5)
            m_out = next(m for m, var in enumerate(out_vars) if x[var.index] > 0.5)
            x[e_var.index] = abs(v_squared[m_in] - v_squared[m_out])
            x[t_var.index] = abs(voltages[m_in] - voltages[m_out])
        return (x, exact_value(self.model.objective, x),
                exact_value(self.deadline_expr, x))

    def price(self, schedule: DVSSchedule) -> tuple[float, float]:
        """Canonical ``(energy_nj, time_s)`` of an extracted schedule.

        The schedule's representative modes are lifted with
        :meth:`incumbent_vector`, so the price depends on the integer
        assignment alone: HiGHS, the native simplex, warm or cold, all
        price one assignment to the same bits.  Pass the schedule as
        :meth:`extract_schedule` returns it, before hoisting.
        """
        rep_modes = {rep: schedule.assignment[rep]
                     for rep in self.independent_edges}
        _x, energy, time_s = self.incumbent_vector(rep_modes)
        return energy, time_s


def exact_value(expr: LinExpr, x) -> float:
    """``expr`` at ``x`` as the correctly rounded sum of its terms.

    Terms are taken in variable-index order and summed with
    :func:`math.fsum`, so the value is a function of the point alone, not
    of the order the expression was built in.
    """
    terms = sorted((var.index, coef) for var, coef in expr.terms.items())
    return math.fsum([coef * float(x[index]) for index, coef in terms]
                     + [expr.constant])


def build_formulation(
    profile: ProfileData,
    mode_table: ModeTable,
    deadline_s: float,
    options: FormulationOptions | None = None,
) -> MilpFormulation:
    """Build the Section 4.2 MILP for one profiled program.

    Args:
        profile: profiled counts and per-mode block time/energy.  Must
            cover every mode in ``mode_table``.
        mode_table: available operating points.
        deadline_s: execution-time budget.
        options: transition model and optional filtering.

    Raises:
        ModelError: when the profile does not cover all modes.
    """
    options = options or FormulationOptions()
    build_span = observe.start_span("milp.build", program=profile.name)
    num_modes = len(mode_table)
    for m in range(num_modes):
        if m not in profile.per_mode:
            raise ModelError(f"profile lacks mode {m}; profile all modes first")

    filter_result = options.filter_result or no_filtering(profile)
    costs = TransitionCosts.from_model(options.transition_model)
    voltages = mode_table.voltages()
    v_squared = [v * v for v in voltages]

    model = Model(f"dvs-{profile.name}")

    # Mode variables for independent (representative) edges only.
    rep_vars: dict[Edge, list[Variable]] = {}
    independent: list[Edge] = []
    for edge in profile.edge_counts:
        rep = filter_result.resolve(edge)
        if rep not in rep_vars:
            if rep not in profile.edge_counts:
                raise ModelError(f"representative edge {rep} was never profiled")
            variables = [
                model.add_binary(f"k[{rep[0]}->{rep[1]}][{m}]") for m in range(num_modes)
            ]
            model.add_constraint(lin_sum(variables) == 1, name=f"onemode[{rep[0]}->{rep[1]}]")
            rep_vars[rep] = variables
            independent.append(rep)
    edge_vars = {
        edge: rep_vars[filter_result.resolve(edge)] for edge in profile.edge_counts
    }

    energy_terms = LinExpr()
    time_terms = LinExpr()
    for edge, count in profile.edge_counts.items():
        variables = edge_vars[edge]
        dst = edge[1]
        for m in range(num_modes):
            energy_terms.add_term(variables[m], count * profile.energy(dst, m))
            time_terms.add_term(variables[m], count * profile.time(dst, m))

    # Transition auxiliaries over profiled local paths.
    num_paths = 0
    aux_paths: list = []
    if not costs.is_free:
        for (h, i, j), count in profile.path_counts.items():
            in_vars = edge_vars.get((h, i))
            out_vars = edge_vars.get((i, j))
            if in_vars is None or out_vars is None:
                continue  # path through an unprofiled edge cannot occur
            if in_vars is out_vars:
                continue  # tied edges can never switch: zero cost
            num_paths += 1
            delta_v2 = LinExpr()
            delta_v = LinExpr()
            for m in range(num_modes):
                delta_v2.add_term(in_vars[m], v_squared[m])
                delta_v2.add_term(out_vars[m], -v_squared[m])
                delta_v.add_term(in_vars[m], voltages[m])
                delta_v.add_term(out_vars[m], -voltages[m])
            e_var = model.add_var(f"e[{h}->{i}->{j}]", lb=0.0)
            t_var = model.add_var(f"t[{h}->{i}->{j}]", lb=0.0)
            model.add_constraint(delta_v2 <= e_var, name=f"abs_e+[{h}->{i}->{j}]")
            model.add_constraint(-1.0 * e_var <= delta_v2, name=f"abs_e-[{h}->{i}->{j}]")
            model.add_constraint(delta_v <= t_var, name=f"abs_t+[{h}->{i}->{j}]")
            model.add_constraint(-1.0 * t_var <= delta_v, name=f"abs_t-[{h}->{i}->{j}]")
            energy_terms.add_term(e_var, count * costs.ce_nj_per_v2)
            time_terms.add_term(t_var, count * costs.ct_s_per_v)
            aux_paths.append((in_vars, out_vars, e_var, t_var))

    # Emit the deadline row in deadline-relative units (rhs = 1).  Raw
    # per-edge times are ~1e-9..1e-5 s, far below solver feasibility
    # tolerances; an absolute 1e-6 slip on a seconds row is a multi-percent
    # deadline miss, while on the scaled row it is a 1e-6 relative one.
    scale = 1.0 / deadline_s if deadline_s > 0 else 1.0
    model.add_constraint(time_terms * scale <= deadline_s * scale, name="deadline")
    model.minimize(energy_terms)

    return MilpFormulation(
        model=model,
        mode_table=mode_table,
        edge_vars=edge_vars,
        independent_edges=independent,
        deadline_expr=time_terms,
        deadline_s=deadline_s,
        num_paths=num_paths,
        build_time_s=observe.end_span(build_span).elapsed_s,
        aux_paths=aux_paths,
    )
