"""Metamorphic oracles: monotonicity in cores and deadline slack."""

from repro.cli import main
from repro.simulator.dvs import XSCALE_3
from repro.taskgraph import build_graph, synthetic_tables
from repro.taskgraph.heuristic import deadline_for
from repro.taskgraph.oracles import (
    fuzz_taskgraph,
    verify_cores_monotonic,
    verify_deadline_monotonic,
    verify_instance,
)
from repro.taskgraph.solve import solve_taskgraph


def _broken_greedy(spec, tables, cores, deadline_s, transition):
    return {"replayed": {"energy_nj": 0.0, "makespan_s": 0.0}}


class TestInstanceOracle:
    def test_passing_instance_reports_energies(self, small_graph,
                                               small_tables, transition):
        results = verify_instance(small_graph, small_tables, 2, 0.5,
                                  transition)
        assert all(r.ok for r in results), [str(r) for r in results]
        assert [r.name for r in results] == [
            "deadline-met", "replay-exact", "milp-beats-greedy"]
        assert "] milp " in results[2].detail
        assert "greedy" in results[2].detail
        # The instance is solved to proven optimality, not degraded to an
        # incumbent or the greedy tier.
        solved = solve_taskgraph(small_graph, small_tables, 2,
                                 deadline_for(small_graph, small_tables, 2,
                                              0.5, transition),
                                 transition)
        assert solved["method"] == "milp" and not solved["degraded"]

    def test_failure_raises_with_instance_label(self, small_graph,
                                                small_tables, transition,
                                                monkeypatch):
        import repro.taskgraph.oracles as oracles

        monkeypatch.setattr(oracles, "greedy_taskgraph", _broken_greedy)
        results = verify_instance(small_graph, small_tables, 2, 0.5,
                                  transition)
        failed = [r for r in results if not r.ok]
        assert [r.name for r in failed] == ["milp-beats-greedy"]
        assert "fork-join-5" in failed[0].detail

    def test_replay_deadline_miss_is_reported(self, small_graph,
                                              small_tables, transition,
                                              monkeypatch):
        """A makespan 1 us over a ~5 ms deadline is a miss: the replay is
        exact, so the oracle allows only the row's 1e-9 relative slack."""
        import repro.taskgraph.oracles as oracles

        real_solve = oracles.solve_taskgraph

        def late_solve(spec, tables, cores, deadline_s, transition, **kw):
            result = real_solve(spec, tables, cores, deadline_s, transition,
                                **kw)
            result["replayed"] = {**result["replayed"],
                                  "makespan_s": deadline_s + 1e-6}
            return result

        monkeypatch.setattr(oracles, "solve_taskgraph", late_solve)
        results = verify_instance(small_graph, small_tables, 1, 0.0,
                                  transition)
        by_name = {r.name: r for r in results}
        assert not by_name["deadline-met"].ok
        assert "fork-join-5" in by_name["deadline-met"].detail
        assert by_name["replay-exact"].ok and by_name["milp-beats-greedy"].ok


class TestMonotonicity:
    def test_cores_never_hurt_at_fixed_deadline(self, small_graph,
                                                small_tables, transition):
        result = verify_cores_monotonic(small_graph, small_tables, [1, 2],
                                        0.5, transition)
        assert result.name == "cores-monotonic"
        assert result.ok, result.detail
        assert "p1=" in result.detail and "p2=" in result.detail

    def test_slack_never_hurts_at_fixed_cores(self, transition):
        spec = build_graph("layered", 5, 0)
        tables = synthetic_tables(spec, XSCALE_3)
        result = verify_deadline_monotonic(spec, tables, 2, [1.0, 0.0],
                                           transition)
        assert result.name == "deadline-monotonic"
        assert result.ok, result.detail
        assert result.detail.index("d0=") < result.detail.index("d1=")


class TestFuzz:
    def test_seeded_battery_is_reproducible(self, monkeypatch):
        import repro.taskgraph.oracles as oracles

        report = fuzz_taskgraph(2, seed=7)
        assert report.ok and report.runs == 2 and report.checks == 6
        assert report.summary.startswith(
            "taskgraph-fuzz: 2 instances, 6 oracle")
        # With greedy broken every instance fails, and each failure names
        # its instance (shape, cores, deadline) and energies, so equal
        # failure text means the seed chose the same instances.
        monkeypatch.setattr(oracles, "greedy_taskgraph", _broken_greedy)
        a = fuzz_taskgraph(2, seed=7)
        b = fuzz_taskgraph(2, seed=7)
        assert len(a.failures) == 2
        assert [str(f) for f in a.failures] == [str(f) for f in b.failures]
        assert [str(f) for f in a.failures] != [
            str(f) for f in fuzz_taskgraph(2, seed=8).failures]

    def test_violation_is_counted_and_later_campaigns_still_run(
            self, capsys, monkeypatch):
        import repro.taskgraph.oracles as oracles

        monkeypatch.setattr(oracles, "greedy_taskgraph", _broken_greedy)
        assert main(["fuzz", "--runs", "1", "--seed", "0",
                     "--no-backends", "--no-metamorphic",
                     "--taskgraph-runs", "2"]) == 1
        captured = capsys.readouterr()
        assert "taskgraph-fuzz: 2 instances, 6 oracle checks, 2 FAILURES" \
            in captured.out
        assert "FAIL milp-beats-greedy" in captured.err
        assert "error:" not in captured.err
        # The program campaign after it ran to completion.
        assert "1/1 programs" in captured.out
        assert "fuzz: 1 programs" in captured.out
