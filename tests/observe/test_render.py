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

    def test_bound_flips_and_abandon_reasons_render(self):
        rows = _solver_lines({
            "solver.solves": 1,
            "solver.revised.pivots": 900,
            "solver.revised.bound_flips": 57,
            "solver.revised.warm_abandoned.dual_cap": 2,
            "solver.revised.warm_abandoned.refactor_rejected": 1,
        })
        assert rows["native dual bound flips"] == "57"
        assert (rows["warm starts abandoned (why)"]
                == "dual_cap 2, refactor_rejected 1")
        clean = _solver_lines({"solver.solves": 1,
                               "solver.revised.pivots": 10})
        assert clean["warm starts abandoned (why)"] == "none"

    def test_parent_factor_reuse_renders_beside_abandons(self):
        rows = _solver_lines({
            "solver.solves": 3,
            "solver.revised.pivots": 2796,
            "solver.revised.refactor": 201,
            "solver.revised.warm_factor_reused": 48,
        })
        labels = list(rows)
        reused = labels.index("warm starts on parent's factor")
        assert labels[reused - 1] == "warm starts abandoned (why)"
        assert rows["warm starts on parent's factor"] == "48"
        clean = _solver_lines({"solver.solves": 1,
                               "solver.revised.pivots": 10})
        assert clean["warm starts on parent's factor"] == "0"

    def test_lp_section_timings_render_per_pivot(self):
        rows = _solver_lines({
            "solver.solves": 1,
            "solver.revised.pivots": 20000,
            "solver.revised.factor_s": 1.0,
            "solver.revised.ftran_s": 2.5,
            "solver.revised.btran_s": 0.5,
            "solver.revised.pricing_s": 0.25,
        })
        assert rows["native LP factor time"] == "1.000s (50.0 µs/pivot)"
        assert rows["native LP ftran time"] == "2.500s (125.0 µs/pivot)"
        assert rows["native LP btran time"] == "0.500s (25.0 µs/pivot)"
        assert rows["native LP pricing time"] == "0.250s (12.5 µs/pivot)"

    def test_untimed_solves_render_no_timing_rows(self):
        rows = _solver_lines({"solver.solves": 1,
                              "solver.revised.pivots": 10})
        assert not [label for label in rows if label.endswith(" time")]

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


def _section(counters: dict, title: str) -> dict[str, str]:
    text = render_stats({"counters": counters})
    section = text.split(f"{title}\n{'-' * len(title)}\n", 1)[1]
    rows = {}
    for line in section.split("\n\n", 1)[0].splitlines():
        label, _, value = line.strip().rpartition("  ")
        rows[label.strip()] = value.strip()
    return rows


class TestServedCounters:
    def test_lru_and_bound_memo_counters_render(self):
        counters = {"cache.artifact.hits": 30, "cache.artifact.misses": 10,
                    "cache.artifact.lru_hits": 25,
                    "cache.artifact.lru_evictions": 2,
                    "verify.bound_memo_hits": 11}
        cache = _section(counters, "artifact cache")
        assert cache["hits served from the LRU"] == "25"
        assert cache["LRU evictions"] == "2"
        assert _section(counters, "verify")["bound memo hits"] == "11"
        assert "other metrics" not in render_stats({"counters": counters})
