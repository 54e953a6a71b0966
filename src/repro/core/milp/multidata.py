"""Multi-input-category optimization (paper Section 4.3).

Different input data sets exercise different paths; the paper sorts inputs
into categories (e.g. mpeg streams with and without B-frames), profiles a
representative of each, and minimizes the *weighted average* energy while
meeting the deadline **for every category** (or per-category deadlines).

The mode variables are shared across categories — there is one schedule —
but counts (G_ijg, D_hijg) and per-visit costs (E_jmg, T_jmg) are
per-category.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import observe
from repro.errors import ModelError
from repro.ir.cfg import Edge
from repro.core.milp.filtering import FilterResult
from repro.core.milp.formulation import MilpFormulation
from repro.core.milp.transition import TransitionCosts
from repro.profiling.profile_data import ProfileData
from repro.simulator.dvs import ModeTable, TransitionCostModel, ZERO_TRANSITION
from repro.solver.model import LinExpr, Model, Variable, lin_sum


@dataclass(frozen=True)
class CategoryProfile:
    """One input category: its profile, probability weight and deadline."""

    profile: ProfileData
    weight: float
    deadline_s: float


def build_multidata_formulation(
    categories: list[CategoryProfile],
    mode_table: ModeTable,
    transition_model: TransitionCostModel = ZERO_TRANSITION,
    filter_result: FilterResult | None = None,
) -> MilpFormulation:
    """Build the weighted multi-category MILP.

    Args:
        categories: profiled categories; weights are normalized to sum 1.
        mode_table: shared operating points.
        transition_model: regulator model.
        filter_result: optional edge filtering (computed on whichever
            profile it was derived from; ties apply to the union edge set).

    Returns:
        a :class:`~repro.core.milp.formulation.MilpFormulation` whose
        ``deadline_expr`` is the *first* category's time expression (each
        category has its own deadline constraint inside the model).
    """
    if not categories:
        raise ModelError("need at least one input category")
    build_span = observe.start_span("milp.build_multidata",
                                    categories=len(categories))
    total_weight = sum(c.weight for c in categories)
    if total_weight <= 0:
        raise ModelError("category weights must sum to a positive value")

    num_modes = len(mode_table)
    voltages = mode_table.voltages()
    v_squared = [v * v for v in voltages]
    costs = TransitionCosts.from_model(transition_model)

    # Union of profiled edges across categories.
    all_edges: dict[Edge, None] = {}
    for category in categories:
        for m in range(num_modes):
            if m not in category.profile.per_mode:
                raise ModelError(
                    f"category {category.profile.name!r} lacks mode {m} in its profile"
                )
        for edge in category.profile.edge_counts:
            all_edges.setdefault(edge)

    def resolve(edge: Edge) -> Edge:
        if filter_result is None:
            return edge
        rep = filter_result.resolve(edge)
        return rep if rep in all_edges else edge

    model = Model("dvs-multidata")
    rep_vars: dict[Edge, list[Variable]] = {}
    independent: list[Edge] = []
    for edge in all_edges:
        rep = resolve(edge)
        if rep not in rep_vars:
            variables = [
                model.add_binary(f"k[{rep[0]}->{rep[1]}][{m}]") for m in range(num_modes)
            ]
            model.add_constraint(
                lin_sum(variables) == 1, name=f"onemode[{rep[0]}->{rep[1]}]"
            )
            rep_vars[rep] = variables
            independent.append(rep)
    edge_vars = {edge: rep_vars[resolve(edge)] for edge in all_edges}

    # Shared transition auxiliaries per local path (they depend only on the
    # mode variables, not the category).
    aux: dict[tuple[str, str, str], tuple[Variable, Variable]] = {}
    aux_paths: list = []

    def get_aux(h: str, i: str, j: str) -> tuple[Variable, Variable] | None:
        key = (h, i, j)
        if key in aux:
            return aux[key]
        in_vars = edge_vars.get((h, i))
        out_vars = edge_vars.get((i, j))
        if in_vars is None or out_vars is None or in_vars is out_vars:
            return None
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
        aux[key] = (e_var, t_var)
        aux_paths.append((in_vars, out_vars, e_var, t_var))
        return aux[key]

    objective = LinExpr()
    first_time_expr: LinExpr | None = None
    num_paths = 0
    for category in categories:
        weight = category.weight / total_weight
        profile = category.profile
        time_terms = LinExpr()
        for edge, count in profile.edge_counts.items():
            variables = edge_vars[edge]
            dst = edge[1]
            for m in range(num_modes):
                objective.add_term(variables[m], weight * count * profile.energy(dst, m))
                time_terms.add_term(variables[m], count * profile.time(dst, m))
        if not costs.is_free:
            for (h, i, j), count in profile.path_counts.items():
                pair = get_aux(h, i, j)
                if pair is None:
                    continue
                num_paths += 1
                e_var, t_var = pair
                objective.add_term(e_var, weight * count * costs.ce_nj_per_v2)
                time_terms.add_term(t_var, count * costs.ct_s_per_v)
        # Deadline-relative units (rhs = 1): see the same scaling in
        # formulation.py — seconds-scale rows sit below solver tolerances.
        scale = 1.0 / category.deadline_s if category.deadline_s > 0 else 1.0
        model.add_constraint(
            time_terms * scale <= category.deadline_s * scale,
            name=f"deadline[{profile.name}]",
        )
        if first_time_expr is None:
            first_time_expr = time_terms

    model.minimize(objective)
    assert first_time_expr is not None
    return MilpFormulation(
        model=model,
        mode_table=mode_table,
        edge_vars=edge_vars,
        independent_edges=independent,
        deadline_expr=first_time_expr,
        deadline_s=categories[0].deadline_s,
        num_paths=num_paths,
        build_time_s=observe.end_span(build_span).elapsed_s,
        aux_paths=aux_paths,
    )
