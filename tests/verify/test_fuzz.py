"""Fuzz-driver tests: the oracle battery and the campaign loop.

The real acceptance run (``repro fuzz --runs 50``) lives in CI; here the
battery runs on a couple of seeds with the expensive oracles switched
off, plus unit coverage of the report/minimizer plumbing.
"""

from __future__ import annotations

import pytest

from repro.verify.fuzz import (
    FuzzFailure,
    FuzzReport,
    fuzz,
    verify_program,
)
from repro.verify.generators import generate_program
from repro.verify.oracles import OracleResult

EXPECTED_CHECKS = {
    "compiles",
    "simulator-matches-interpreter",
    "passes-preserve-semantics",
    "profile-conservation",
    "certificate",
    "schedule-check",
    "simulation-matches-prediction",
    "schedule-replay-matches-objective",
    "never-worse-than-single-mode",
    "analytical-bound-dominates",
}


class TestVerifyProgram:
    def test_full_battery_passes_on_seed_zero(self):
        program = generate_program(0)
        results = verify_program(
            program.source, program.inputs,
            check_backends=False, check_metamorphic=False,
        )
        assert results and all(r.ok for r in results), [str(r) for r in results]
        assert EXPECTED_CHECKS <= {r.name for r in results}

    def test_uncompilable_source_is_one_failed_check(self):
        results = verify_program("func main( {", None)
        assert len(results) == 1
        assert results[0].name == "compiles" and not results[0].ok

    def test_only_oracle_filters_passing_checks(self):
        program = generate_program(1)
        results = verify_program(
            program.source, program.inputs,
            check_backends=False, check_metamorphic=False,
            only_oracle="certificate",
        )
        assert results
        assert {r.name for r in results} == {"certificate"}


class TestFuzzCampaign:
    def test_two_clean_runs(self):
        report = fuzz(
            runs=2, seed=0, check_backends=False, check_metamorphic=False
        )
        assert report.ok
        assert report.runs == 2
        assert report.checks > 0
        assert "all oracles passed" in report.summary

    def test_progress_callback_fires_per_program(self):
        seen = []
        fuzz(
            runs=2, seed=0, check_backends=False, check_metamorphic=False,
            on_progress=lambda done, total, failures: seen.append(
                (done, total, failures)
            ),
        )
        assert seen == [(1, 2, 0), (2, 2, 0)]


class TestReporting:
    def test_check_result_renders_verdict(self):
        assert str(OracleResult("certificate", True, "fine")).startswith("ok")
        assert str(OracleResult("certificate", False, "bad")).startswith("FAIL")

    def test_failure_report_carries_reproducer(self):
        failure = FuzzFailure(
            run_index=3, seed=12, oracle="backends-agree",
            detail="objectives differ", source="src", minimized_source="min",
        )
        report = FuzzReport(runs=4, checks=40, failures=[failure])
        assert not report.ok
        assert "1 FAILURES" in report.summary
        rendered = str(failure)
        assert "seed 12" in rendered and "min" in rendered

    def test_one_report_counts_every_campaign_alike(self):
        report = FuzzReport(campaign="taskgraph-fuzz", cases="instances")
        report.record(OracleResult("deadline-met", True, "fine"))
        report.record(OracleResult("milp-beats-greedy", False, "lost"))
        report.runs = 1
        assert report.checks == 2 and not report.ok
        assert [str(f) for f in report.failures] == [
            "FAIL milp-beats-greedy: lost"]
        assert report.summary.startswith(
            "taskgraph-fuzz: 1 instances, 2 oracle checks, 1 FAILURES")

    def test_lp_campaign_counts_each_check_it_makes(self, monkeypatch):
        from repro.verify import tolerances
        from repro.verify.fuzz import fuzz_lps

        clean = fuzz_lps(6, seed=0)
        assert clean.ok and clean.runs == 6 and clean.checks > 6
        # Every canonical-price check fails: each is counted once, as a
        # check and as a failure, so failures never outnumber checks.
        monkeypatch.setattr(tolerances, "objective_matches",
                            lambda *args, **kwargs: False)
        broken = fuzz_lps(6, seed=0)
        assert broken.checks == clean.checks
        assert 6 <= len(broken.failures) < broken.checks
        assert {f.name for f in broken.failures} == {
            "canonical-price-matches-solver"}
