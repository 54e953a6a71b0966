"""``repro stats`` solver section: it renders the native core's own
counters and every anytime tier."""

from __future__ import annotations

from repro.observe.render import render_stats


def _solver_lines(counters: dict) -> dict[str, str]:
    text = render_stats({"counters": counters})
    section = text.split("solver\n------\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in section.splitlines():
        label, _, value = line.strip().rpartition("  ")
        rows[label.strip()] = value.strip()
    return rows


class TestSolverSection:
    def test_native_pivots_come_from_the_revised_core(self):
        rows = _solver_lines({
            "solver.solves": 3,
            "solver.lp_solves": 40,
            "solver.revised.pivots": 30123,
            "solver.revised.warm_pivots": 2100,
            "solver.revised.refactor": 512,
            "solver.bnb.nodes_explored": 39,
        })
        assert rows["native simplex pivots"] == "30,123"
        assert rows["native warm-started pivots"] == "2,100"
        assert rows["native refactorizations"] == "512"

    def test_every_anytime_tier_has_a_row(self):
        rows = _solver_lines({
            "solver.solves": 4,
            "anytime.tier.milp-scipy": 1,
            "anytime.tier.milp-native": 1,
            "anytime.tier.continuous": 2,
            "anytime.tier.greedy": 1,
        })
        assert rows["anytime tier used: continuous"] == "2"
        for tier in ("milp-scipy", "milp-native", "greedy"):
            assert rows[f"anytime tier used: {tier}"] == "1"
