"""Unit tests for the unified fault-injection plane."""

from __future__ import annotations

import json

import pytest

from repro import observe
from repro.errors import OrchestrationError
from repro.resilience import faultplane
from repro.resilience.faultplane import CATALOG, FaultPlan


@pytest.fixture(autouse=True)
def _clean_plane(monkeypatch):
    monkeypatch.delenv(faultplane.PLAN_ENV, raising=False)
    faultplane.uninstall()
    yield
    faultplane.uninstall()


def test_catalog_names_are_dotted_and_documented():
    assert len(CATALOG) >= 8
    for point, description in CATALOG.items():
        assert "." in point
        assert description


def test_no_plan_never_fires():
    assert faultplane.active_plan() is None
    for point in CATALOG:
        assert not faultplane.fire(point)


def test_unknown_point_is_a_programming_error_even_without_a_plan():
    with pytest.raises(OrchestrationError):
        faultplane.fire("no.such.point")


def test_fire_matches_scheduled_hits_exactly():
    faultplane.install(FaultPlan(seed=0,
                                 schedule={"io.slow": (2, 3)}))
    assert [faultplane.fire("io.slow") for _ in range(5)] == [
        False, True, True, False, False]
    # Other points have no schedule and never fire.
    assert not faultplane.fire("worker.crash")


def test_fire_bumps_the_injected_counter():
    observe.enable()
    try:
        before = observe.counter_value("faultplane.injected.io.slow")
        faultplane.install(FaultPlan(seed=0, schedule={"io.slow": (1,)}))
        assert faultplane.fire("io.slow")
        assert (observe.counter_value("faultplane.injected.io.slow")
                == before + 1)
    finally:
        observe.disable()


def test_plan_json_roundtrip():
    plan = FaultPlan.from_seed(7)
    clone = FaultPlan.from_json(plan.to_json())
    assert clone == plan
    assert json.loads(plan.to_json())["seed"] == 7


def test_from_seed_is_deterministic_and_covers_requested_points():
    a = FaultPlan.from_seed(3, points=["io.slow", "worker.crash"])
    b = FaultPlan.from_seed(3, points=["worker.crash", "io.slow"])
    assert a == b  # point order does not matter
    assert set(a.schedule) == {"io.slow", "worker.crash"}
    assert all(hits for hits in a.schedule.values())
    assert a != FaultPlan.from_seed(4, points=["io.slow", "worker.crash"])


def test_install_env_propagates_to_lazy_loads(monkeypatch):
    plan = FaultPlan(seed=1, schedule={"io.slow": (1,)})
    faultplane.install(plan, env=True)
    assert json.loads(__import__("os").environ[faultplane.PLAN_ENV])
    # A "fresh process" (uninstall + lazy env load) sees the same plan.
    faultplane._runtime = None
    faultplane._env_loaded = False
    assert faultplane.fire("io.slow")


def test_schedule_validation_rejects_garbage():
    with pytest.raises(OrchestrationError):
        FaultPlan(seed=0, schedule={"bogus.point": (1,)})
    with pytest.raises(OrchestrationError):
        FaultPlan(seed=0, schedule={"io.slow": (0,)})  # hits are 1-based


def test_torn_text_halves_and_respects_schedule():
    assert faultplane.torn_text("x" * 10) is None  # no plan
    faultplane.install(FaultPlan(seed=0, schedule={"journal.torn": (1,)}))
    torn = faultplane.torn_text("x" * 10)
    assert torn == "x" * 5
    assert faultplane.torn_text("x" * 10) is None  # hit 2: not scheduled


def test_damage_file_truncates_to_half(tmp_path):
    victim = tmp_path / "artifact.json"
    victim.write_bytes(b"a" * 100)
    faultplane.damage_file(victim)
    assert victim.stat().st_size == 50


def test_stall_uses_slow_budget_for_io(monkeypatch):
    naps = []
    monkeypatch.setattr(faultplane.time, "sleep", naps.append)
    faultplane.install(FaultPlan(seed=0,
                                 schedule={"io.slow": (1,),
                                           "worker.hang": (1,)},
                                 hang_s=9.0, slow_s=0.25))
    faultplane.stall("io.slow")
    faultplane.stall("worker.hang")
    assert naps == [0.25, 9.0]


def test_damage_file_with_rng_tears_or_flips_one_byte(tmp_path):
    import random

    seen = set()
    for seed in range(8):
        victim = tmp_path / f"artifact-{seed}.json"
        victim.write_bytes(b"a" * 100)
        assert faultplane.damage_file(victim, random.Random(seed))
        data = victim.read_bytes()
        if len(data) == 100:
            assert sum(byte != ord("a") for byte in data) == 1
            seen.add("bit rot")
        else:
            assert len(data) == 50
            seen.add("torn write")
    assert seen == {"bit rot", "torn write"}
    assert not faultplane.damage_file(tmp_path / "missing.json")


def test_installed_scopes_a_plan_to_its_block():
    plan = FaultPlan.for_tasks("optimize:*@1", attempts=2)
    with faultplane.installed(plan):
        assert faultplane.active_plan() == plan
    assert faultplane.active_plan() is None
    with faultplane.installed(None):
        assert faultplane.active_plan() is None
