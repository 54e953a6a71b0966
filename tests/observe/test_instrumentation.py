"""Counter correctness: instrumented subsystems report their real stats.

The simulator's cache counters must equal the ``RunResult.cache_stats``
the simulator itself computed; the native solver must report nonzero
pivot/node effort for a problem that genuinely branches.
"""

from __future__ import annotations

import pytest

from repro import observe
from repro.solver.model import LinExpr, Model, lin_sum


class TestSimulatorCounters:
    @pytest.fixture
    def result(self, tracing, machine3, small_cfg, small_inputs,
               small_registers):
        return machine3.run(small_cfg, inputs=small_inputs,
                            registers=small_registers, mode=1)

    def test_cache_counters_match_run_result(self, result):
        assert result.cache_stats  # the fixture program touches memory
        for key, value in result.cache_stats.items():
            assert observe.counter_value(f"simulator.cache.{key}") == value

    def test_instruction_and_cycle_counters(self, result):
        assert observe.counter_value("simulator.runs") == 1
        assert (observe.counter_value("simulator.instructions")
                == result.instructions)
        assert observe.counter_value("simulator.mem_misses") == result.mem_misses
        assert observe.counter_value("simulator.cycles") > 0

    def test_run_span_recorded(self, result):
        spans = [s for s in observe.snapshot()["spans"]
                 if s["name"] == "simulator.run"]
        assert len(spans) == 1
        assert spans[0]["attrs"]["instructions"] == result.instructions

    def test_untraced_run_matches_traced(self, machine3, small_cfg,
                                         small_inputs, small_registers,
                                         clean_collector):
        dark = machine3.run(small_cfg, inputs=small_inputs,
                            registers=small_registers, mode=1)
        observe.enable(reset=True)
        try:
            lit = machine3.run(small_cfg, inputs=small_inputs,
                               registers=small_registers, mode=1)
        finally:
            observe.disable()
        assert dark.return_value == lit.return_value
        assert dark.instructions == lit.instructions
        assert dark.cache_stats == lit.cache_stats


def knapsack_model():
    """A tiny MILP the native branch-and-bound actually has to branch on."""
    model = Model("observe-knapsack")
    weights = (3.0, 5.0, 7.0, 11.0, 13.0)
    values = (4.0, 7.0, 9.0, 14.0, 16.0)
    xs = [model.add_binary(f"x{i}") for i in range(len(weights))]
    weight = LinExpr()
    gain = LinExpr()
    for x, w, v in zip(xs, weights, values):
        weight.add_term(x, w)
        gain.add_term(x, -v)  # minimize the negated value
    model.add_constraint(weight <= 17.0)
    model.minimize(gain)
    return model


class TestSolverCounters:
    def test_native_milp_reports_pivots_and_nodes(self, tracing):
        solution = knapsack_model().solve(backend="native")
        assert solution.ok
        assert observe.counter_value("solver.solves") == 1
        assert observe.counter_value("solver.lp_solves") >= 1
        assert observe.counter_value("solver.revised.pivots") > 0
        assert observe.counter_value("solver.bnb.nodes_explored") >= 1
        # Backend-agnostic mirrors come from the Solution itself.
        assert (observe.counter_value("solver.iterations")
                == solution.iterations)

    def test_native_lp_relaxation_counts_pivots_only(self, tracing):
        solution = knapsack_model().solve(backend="native", relax=True)
        assert solution.ok
        # The default (revised) engine reports its own pivot counter.
        assert observe.counter_value("solver.revised.pivots") > 0
        assert observe.counter_value("solver.bnb.nodes_explored") == 0

    def test_native_lp_sections_are_timed_when_traced(self, tracing):
        assert knapsack_model().solve(backend="native").ok
        for part in ("factor", "ftran", "btran", "pricing"):
            assert observe.counter_value(f"solver.revised.{part}_s") > 0.0

    def test_dense_engine_counts_tableau_pivots(self, tracing):
        # HiGHS reports its iterations through the backend-agnostic
        # mirror only; no native pivot counter may move.
        solution = knapsack_model().solve(backend="scipy", relax=True)
        assert solution.ok
        assert (observe.counter_value("solver.iterations")
                == solution.iterations)
        assert observe.counter_value("solver.revised.pivots") == 0
        assert observe.counter_value("solver.lp_solves") == 0

    def test_any_backend_records_a_solve_span(self, tracing):
        knapsack_model().solve()
        spans = [s for s in observe.snapshot()["spans"]
                 if s["name"] == "solver.solve"]
        assert len(spans) == 1
        assert spans[0]["attrs"]["used"] in ("scipy", "native")
        assert observe.counter_value("solver.solves") == 1

    def test_solver_untouched_when_disabled(self, clean_collector):
        solution = knapsack_model().solve(backend="native")
        assert solution.ok
        assert observe.snapshot()["counters"] == {}


class TestOptimizerSpans:
    def test_optimize_emits_the_span_chain(self, tracing, optimizer,
                                           small_cfg, small_profile):
        wall = small_profile.wall_time_s
        deadline = wall[2] + 0.5 * (wall[0] - wall[2])
        outcome = optimizer.optimize(small_cfg, deadline,
                                     profile=small_profile)
        assert outcome.schedule is not None
        names = {s["name"] for s in observe.snapshot()["spans"]}
        assert {"optimizer.optimize", "milp.build", "solver.solve"} <= names
