"""``repro chaos`` sweep scenario: injected corruption, crashed task
attempts and starved solvers must be absorbed — and the harness must
prove it."""

import random

import pytest

from repro.resilience import EXIT_DEGRADED, EXIT_FAILURE, EXIT_OK
from repro.resilience.campaign import (
    CampaignReport,
    SeedResult,
    corrupt_entries,
    run_sweep_scenario,
)
from repro.runtime.cache import ArtifactStore

KEY_A = "a" * 64
KEY_B = "b" * 64


class TestCorruptEntries:
    def test_damages_exactly_the_requested_count(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(KEY_A, {"v": 1})
        store.put(KEY_B, {"v": 2})
        keys = corrupt_entries(store, 1, random.Random(0))
        assert len(keys) == 1
        intact = {KEY_A, KEY_B} - set(keys)
        fresh = ArtifactStore(tmp_path / "store")
        assert fresh.get(intact.pop()) is not None
        assert fresh.get(keys[0]) is None  # detected, quarantined
        assert fresh.stats.quarantined == 1

    def test_is_deterministic_per_seed(self, tmp_path):
        for trial in ("one", "two"):
            store = ArtifactStore(tmp_path / trial)
            store.put(KEY_A, {"v": 1})
            store.put(KEY_B, {"v": 2})
        first = corrupt_entries(ArtifactStore(tmp_path / "one"), 1,
                                random.Random(7))
        second = corrupt_entries(ArtifactStore(tmp_path / "two"), 1,
                                 random.Random(7))
        assert first == second
        # Same seed, same damage: the bytes left behind match too.
        damaged = [dict(ArtifactStore(tmp_path / trial).iter_entries())[first[0]]
                   for trial in ("one", "two")]
        assert damaged[0].read_bytes() == damaged[1].read_bytes()

    def test_count_capped_at_store_size(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(KEY_A, {"v": 1})
        assert corrupt_entries(store, 99, random.Random(0)) == [KEY_A]


def _sweep_report(**seed_kwargs) -> CampaignReport:
    return CampaignReport(seeds=[SeedResult(seed=0, **seed_kwargs)],
                          scenario="sweep")


class TestExitCodes:
    def test_clean_report_exits_ok(self):
        report = _sweep_report()
        assert report.ok
        assert report.exit_code == EXIT_OK

    def test_absorbed_faults_exit_degraded(self):
        report = _sweep_report(fired={"cache.read.corrupt": 2})
        assert report.ok
        assert report.exit_code == EXIT_DEGRADED

    def test_violations_exit_failure(self):
        report = _sweep_report(fired={"cache.read.corrupt": 2},
                               violations=["row drifted"])
        assert not report.ok
        assert report.exit_code == EXIT_FAILURE
        assert "FAILED" in report.summary


@pytest.mark.slow
class TestEndToEnd:
    def test_invariants_hold_under_injected_faults(self, tmp_path):
        report = run_sweep_scenario(
            workloads=("adpcm",), deadline_fracs=(0.5,),
            output_dir=tmp_path, jobs=1, solver_budget_s=0.05,
            corrupt=2, inject_fault="simulate:*@1", chaos_seed=0,
        )
        assert report.ok, report.violations
        details = report.seeds[0].details
        # Corruption was injected and every damaged entry was caught.
        assert len(details["corrupted_keys"]) == 2
        assert details["quarantined"] >= 2
        assert details["identical_rows"] == details["experiments"] == 1
        # The run absorbed real faults, so it must say so.
        assert report.exit_code == EXIT_DEGRADED
        assert (tmp_path / "chaos" / "results.jsonl").exists()
