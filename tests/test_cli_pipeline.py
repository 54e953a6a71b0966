"""The single-program commands run the sweep's task graph.

``repro optimize`` and ``repro sweep`` share one store: what either
writes under a key is the same payload, so the other reuses it, and a
warm ``optimize`` neither simulates nor solves.
"""

from __future__ import annotations

import json

from repro import observe
from repro.cli import main


def _optimize(cache) -> list[str]:
    return ["optimize", "adpcm", "--deadline-frac", "0.5",
            "--cache-dir", str(cache)]


def test_optimize_then_sweep_reuse_the_same_artifacts(tmp_path, capsys):
    cache, out = tmp_path / "cache", tmp_path / "sweep"
    assert main(_optimize(cache)) == 0
    assert main(["sweep", "--workloads", "adpcm", "--deadline-fracs", "0.5",
                 "--cache-dir", str(cache), "--output-dir", str(out),
                 "--trace", "--quiet"]) == 0
    records = [json.loads(line)
               for line in (out / "manifest.jsonl").read_text().splitlines()]
    tasks = {r["kind"]: r for r in records if r["type"] == "task"}
    assert {kind: r["cache"] for kind, r in tasks.items()} == {
        "profile": "hit", "optimize": "hit", "simulate": "hit",
        "verify": "off"}
    assert {"fallback_tier", "optimality_gap", "degraded"} <= set(
        tasks["optimize"])
    counters = observe.read_metrics(out / "metrics.json")["counters"]
    assert not [k for k in counters if k.startswith("verify.full_run.")]


def test_warm_optimize_neither_simulates_nor_solves(tmp_path, capsys):
    assert main(_optimize(tmp_path)) == 0
    cold = capsys.readouterr().out
    was_enabled = observe.enabled()
    observe.enable(reset=True)
    try:
        assert main(_optimize(tmp_path)) == 0
        counts = {name: observe.counter_value(name)
                  for name in ("simulator.runs", "simulator.replays",
                               "solver.solves")}
    finally:
        observe.reset()
        if not was_enabled:
            observe.disable()
    assert counts == {"simulator.runs": 0, "simulator.replays": 0,
                      "solver.solves": 0}
    warm = capsys.readouterr().out
    assert warm == "  (schedule from artifact cache)\n" + cold


def test_a_foreign_profile_caches_nothing(tmp_path, capsys):
    profile = tmp_path / "adpcm-profile.json"
    assert main(["profile", "adpcm", "--no-cache", "-o", str(profile)]) == 0
    cache = tmp_path / "cache"
    assert main(_optimize(cache) + ["--profile", str(profile)]) == 0
    assert not cache.exists()
