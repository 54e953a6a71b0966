"""Chaos-harness tests: report mechanics, the torn-journal leg, and
end-to-end runs of the campaign and serve scenarios against real
subprocess servers (the sweep scenario lives in test_chaos.py)."""

from __future__ import annotations

import json

import pytest

from repro.resilience import EXIT_DEGRADED, EXIT_FAILURE, EXIT_OK, faultplane
from repro.resilience.campaign import (
    CampaignConfig,
    CampaignReport,
    SeedResult,
    _torn_journal_check,
    reference_rows,
    run_campaign,
    run_serve_scenario,
    write_report,
)
from repro.resilience.faultplane import CATALOG


@pytest.fixture(autouse=True)
def _clean_plane():
    faultplane.uninstall()
    yield
    faultplane.uninstall()


def _report(**seed_kwargs) -> CampaignReport:
    report = CampaignReport(config=CampaignConfig(seeds=1))
    report.seeds.append(SeedResult(seed=0, **seed_kwargs))
    return report


class TestReport:
    def test_exit_ladder(self):
        assert _report().exit_code == EXIT_OK  # nothing fired: suspicious
        assert _report(fired={"io.slow": 2}).exit_code == EXIT_DEGRADED
        assert _report(fired={"io.slow": 2},
                       violations=["boom"]).exit_code == EXIT_FAILURE

    def test_points_merge_across_seeds(self):
        report = CampaignReport(config=CampaignConfig(seeds=2))
        report.seeds.append(SeedResult(seed=0, fired={"io.slow": 1}))
        report.seeds.append(SeedResult(seed=1, fired={"io.slow": 2,
                                                      "worker.crash": 1}))
        assert report.points_exercised == {"io.slow": 3, "worker.crash": 1}
        assert report.total_fires == 4

    def test_violations_carry_their_seed(self):
        report = _report(violations=["lost a job"])
        assert report.violations == ["seed 0: lost a job"]

    def test_document_is_machine_readable(self, tmp_path):
        report = _report(fired={"io.slow": 1}, requests=3, retries=2)
        path = write_report(report, tmp_path / "campaign.json")
        document = json.loads(path.read_text())
        assert document["exit_code"] == EXIT_DEGRADED
        assert document["points_total"] == len(CATALOG)
        assert document["seeds"][0]["fired"] == {"io.slow": 1}
        assert document["summary"].startswith("chaos campaign")


class TestTornJournalLeg:
    def test_detects_clean_recovery(self, tmp_path):
        result = SeedResult(seed=0)
        _torn_journal_check(0, tmp_path / "torn", result)
        assert result.violations == []
        assert result.fired.get("journal.torn") == 1
        # And the harness plan did not leak into this process.
        assert faultplane.active_plan() is None

    def test_unfired_tear_is_not_counted(self, tmp_path):
        result = SeedResult(seed=0)
        _torn_journal_check(0, tmp_path / "torn", result, hit=99)
        assert "journal.torn" not in result.fired
        assert result.violations == [
            "torn-journal check: the scheduled tear never fired"]
        assert faultplane.active_plan() is None

    def test_reference_rows_are_deterministic(self):
        once = reference_rows("adpcm", (0.5,))
        twice = reference_rows("adpcm", (0.5,))
        assert once == twice
        assert once[0.5]  # non-empty, canonical JSON strings
        assert all(isinstance(row, str) for row in once[0.5])


@pytest.mark.slow
def test_single_seed_campaign_end_to_end(tmp_path):
    """One full seed: faulted server, SIGKILL, resume, zero violations."""
    config = CampaignConfig(
        seeds=1,
        traffic_fracs=(0.5,),
        kill_fracs=(0.62, 0.81),
        duplicates=1,
        output_dir=tmp_path / "campaign",
    )
    report = run_campaign(config)
    assert report.violations == []
    assert report.exit_code == EXIT_DEGRADED  # faults fired and were absorbed
    seed = report.seeds[0]
    assert seed.requests >= 4
    assert seed.replayed >= 1
    assert seed.recovered >= 1
    assert seed.resume_drain_exit == EXIT_OK
    assert len(report.points_exercised) >= 5
    path = write_report(report, tmp_path / "campaign" / "campaign.json")
    assert json.loads(path.read_text())["violations"] == []


@pytest.mark.slow
def test_serve_kill_scenario_end_to_end(tmp_path):
    """Warm workers SIGKILLed mid-request: absorbed, reported, exit 3."""
    report = run_serve_scenario(workload="adpcm", deadline_frac=0.5,
                                jobs=1, output_dir=tmp_path)
    assert report.violations == []
    assert report.exit_code == EXIT_DEGRADED
    details = report.seeds[0].details
    assert details["killed_pids"]
    assert details["respawns"] >= 1 or details["worker_crashes"] >= 1
    assert details["victim_state"] in ("done", "failed")
