"""The taskgraph MILP against its replay oracle and the greedy bound."""

import math

import pytest

from repro import observe
from repro.errors import ScheduleError
from repro.simulator.dvs import XSCALE_3, ZERO_TRANSITION
from repro.taskgraph import build_graph, synthetic_tables
from repro.taskgraph.heuristic import deadline_for, greedy_taskgraph
from repro.taskgraph.milp import build_taskgraph_milp
from repro.taskgraph.simulate import replay, validate_schedule
from repro.taskgraph.solve import solve_taskgraph

REL_TOL = 1e-6


def close(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


class TestFormulation:
    @pytest.fixture(scope="class")
    def solved(self, small_graph, small_tables, transition):
        deadline = deadline_for(small_graph, small_tables, 2, 0.5, transition)
        formulation = build_taskgraph_milp(small_graph, small_tables, 2,
                                           deadline, transition)
        solution = formulation.solve()
        return formulation, solution, deadline

    def test_solves_to_optimality(self, solved):
        _, solution, _ = solved
        assert solution.ok

    def test_objective_equals_replayed_energy(self, solved, small_graph,
                                              small_tables, transition):
        formulation, solution, _ = solved
        schedule = formulation.extract_schedule(solution)
        run = replay(small_graph, small_tables, schedule, transition)
        assert close(solution.objective, run["energy_nj"])

    def test_schedule_meets_deadline(self, solved, small_graph,
                                     small_tables, transition):
        formulation, solution, deadline = solved
        schedule = formulation.extract_schedule(solution)
        validate_schedule(small_graph, small_tables, schedule)
        run = replay(small_graph, small_tables, schedule, transition)
        assert run["makespan_s"] <= deadline * (1 + 1e-9)

    def test_never_loses_to_greedy(self, solved, small_graph, small_tables,
                                   transition):
        formulation, solution, deadline = solved
        schedule = formulation.extract_schedule(solution)
        milp = replay(small_graph, small_tables, schedule, transition)
        greedy = greedy_taskgraph(small_graph, small_tables, 2, deadline,
                                  transition)
        assert (milp["energy_nj"]
                <= greedy["replayed"]["energy_nj"] * (1 + REL_TOL))

    def test_emits_size_counters(self, small_graph, small_tables,
                                 transition):
        was_enabled = observe.enabled()
        observe.enable()
        try:
            before = observe.counter_value("taskgraph.milp.vars")
            deadline = deadline_for(small_graph, small_tables, 1, 0.5,
                                    transition)
            build_taskgraph_milp(small_graph, small_tables, 1, deadline,
                                 transition)
            assert observe.counter_value("taskgraph.milp.vars") > before
            assert observe.counter_value("taskgraph.milp.rows") > 0
        finally:
            if not was_enabled:
                observe.disable()

    def test_extract_requires_a_solution(self, small_graph, small_tables,
                                         transition):
        deadline = deadline_for(small_graph, small_tables, 1, 0.0, transition)
        formulation = build_taskgraph_milp(small_graph, small_tables, 1,
                                           deadline, transition)

        from repro.solver.solution import SolveStatus

        class Unsolved:
            ok = False
            has_incumbent = False
            status = SolveStatus.INFEASIBLE

        with pytest.raises(ScheduleError, match="no usable solution"):
            formulation.extract_schedule(Unsolved())


class TestTransitionPricing:
    def test_zero_transition_relaxation_is_cheaper_or_equal(
            self, small_graph, small_tables, transition):
        """Charging SE/ST can only raise the optimum."""
        deadline = deadline_for(small_graph, small_tables, 2, 0.5, transition)
        priced = solve_taskgraph(small_graph, small_tables, 2, deadline,
                                 transition)
        free = solve_taskgraph(small_graph, small_tables, 2, deadline,
                               ZERO_TRANSITION)
        assert priced["method"] == free["method"] == "milp"
        assert (free["replayed"]["energy_nj"]
                <= priced["replayed"]["energy_nj"] * (1 + REL_TOL))

    def test_replay_charges_what_the_objective_prices(self, transition):
        spec = build_graph("layered", 6, 1)
        tables = synthetic_tables(spec, XSCALE_3)
        deadline = deadline_for(spec, tables, 2, 0.6, transition)
        result = solve_taskgraph(spec, tables, 2, deadline, transition)
        assert result["method"] == "milp"
        assert close(result["objective"], result["replayed"]["energy_nj"])


class TestCanonicalPrice:
    def test_backends_price_one_schedule_to_the_same_bits(self, transition):
        # Both backends decode the same schedule here, but their raw
        # objectives differ in the last bits (373368.30000000005 native
        # vs 373368.3 HiGHS); the reported price may not.
        spec = build_graph("fork-join", 3, 0)
        tables = synthetic_tables(spec, XSCALE_3)
        deadline = deadline_for(spec, tables, 1, 0.0, transition)
        native = solve_taskgraph(spec, tables, 1, deadline, transition,
                                 backend="native")
        highs = solve_taskgraph(spec, tables, 1, deadline, transition,
                                backend="scipy")
        assert native["method"] == highs["method"] == "milp"
        assert native["schedule"] == highs["schedule"]
        assert native["objective"] == highs["objective"]
        assert close(native["solver_objective"], native["objective"])

    def test_price_is_the_exact_sum_of_task_and_switch_energy(
            self, small_graph, small_tables, transition):
        deadline = deadline_for(small_graph, small_tables, 2, 0.5, transition)
        formulation = build_taskgraph_milp(small_graph, small_tables, 2,
                                           deadline, transition)
        schedule = formulation.extract_schedule(formulation.solve())
        modes = schedule["modes"]
        volts = small_tables.voltages()
        terms = [small_tables.energy(t, m) for t, m in modes.items()]
        for lane in schedule["order"]:
            for prev, task in zip(lane, lane[1:]):
                v_prev, v_task = volts[modes[prev]], volts[modes[task]]
                terms.append(transition.ce_nj_per_v2
                             * abs(v_prev * v_prev - v_task * v_task))
        assert formulation.price(schedule) == math.fsum(terms)


class TestSolveFallback:
    def test_tiny_budget_still_returns_a_feasible_schedule(
            self, small_graph, small_tables, transition):
        deadline = deadline_for(small_graph, small_tables, 2, 0.5, transition)
        result = solve_taskgraph(small_graph, small_tables, 2, deadline,
                                 transition, budget_s=1e-3)
        assert result["method"] in ("milp", "milp-incumbent", "greedy")
        assert (result["replayed"]["makespan_s"] <= deadline * (1 + 1e-9))
        if result["method"] != "milp":
            assert result["degraded"]

    def test_single_core_single_mode_is_exactly_greedy(self, transition):
        """With one mode there is nothing to optimize; both agree."""
        spec = build_graph("fork-join", 4, 0)
        tables = synthetic_tables(spec, XSCALE_3)
        deadline = deadline_for(spec, tables, 1, 1.0, transition)
        result = solve_taskgraph(spec, tables, 1, deadline, transition)
        greedy = greedy_taskgraph(spec, tables, 1, deadline, transition)
        assert (result["replayed"]["energy_nj"]
                <= greedy["replayed"]["energy_nj"] * (1 + REL_TOL))
