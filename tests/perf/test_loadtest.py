"""Loadtest harness units: the seeded mix, percentiles, url parsing."""

import json

import pytest

from repro.errors import ServeError
from repro.observe import percentile as _percentile
from repro.perf.loadtest import (
    LoadtestConfig,
    _parse_base_url,
    build_mix,
    render_loadtest,
)


def identity(entry):
    return json.dumps({k: v for k, v in entry["body"].items()
                       if k not in ("tenant", "wait")}, sort_keys=True)


class TestMix:
    def test_deterministic_for_a_seed(self):
        config = LoadtestConfig(requests=100, seed=7)
        assert build_mix(config) == build_mix(config)
        different = LoadtestConfig(requests=100, seed=8)
        assert build_mix(different) != build_mix(config)

    def test_unique_points_bounded_by_grid(self):
        config = LoadtestConfig(requests=200,
                                workloads=("adpcm",),
                                deadline_fracs=(0.35, 0.7))
        plan = build_mix(config)
        assert len(plan) == 200
        assert len({identity(e) for e in plan}) <= 2

    def test_duplicate_ratio_drives_repeats(self):
        config = LoadtestConfig(requests=400, duplicate_ratio=0.9,
                                workloads=("adpcm", "gsm", "mpeg"),
                                deadline_fracs=(0.2, 0.5, 0.8))
        plan = build_mix(config)
        repeats = len(plan) - len({identity(e) for e in plan})
        assert repeats / len(plan) > 0.5

    def test_zero_ratio_exhausts_unique_points_first(self):
        config = LoadtestConfig(requests=4, duplicate_ratio=0.0,
                                workloads=("adpcm", "gsm"),
                                deadline_fracs=(0.35, 0.7))
        plan = build_mix(config)
        assert len({identity(e) for e in plan}) == 4

    def test_every_entry_waits(self):
        for entry in build_mix(LoadtestConfig(requests=20)):
            assert entry["body"]["wait"] is True
            assert entry["body"]["tenant"].startswith("tenant-")


class TestPercentile:
    def test_nearest_rank(self):
        ordered = [float(v) for v in range(1, 101)]
        assert _percentile(ordered, 50) == 50.0
        assert _percentile(ordered, 99) == 99.0
        assert _percentile(ordered, 100) == 100.0

    def test_empty_is_zero(self):
        assert _percentile([], 50) == 0.0


class TestUrlParsing:
    def test_accepts_http_host_port(self):
        assert _parse_base_url("http://127.0.0.1:8787") == ("127.0.0.1", 8787)
        assert _parse_base_url("localhost:80/") == ("localhost", 80)

    def test_rejects_portless(self):
        with pytest.raises(ServeError):
            _parse_base_url("http://localhost")


class TestRender:
    def test_summary_mentions_the_gates(self):
        document = {
            "format": 1,
            "config": {"unique_requests": 2, "concurrency": 8},
            "requests": {"total": 10, "ok": 10, "errors": 0,
                         "statuses": {"200": 10}},
            "latency_s": {"p50": 0.01, "p90": 0.02, "p99": 0.05,
                          "mean": 0.02, "max": 0.06},
            "throughput_rps": 100.0,
            "wall_s": 0.1,
            "coalescing_ratio": 0.8,
            "cache_hit_rate": 0.5,
            "dag_runs": 2,
            "cold_baseline": {"mean_s": 2.0, "runs": 2},
            "warm_speedup": 200.0,
            "drain": {"signal": "SIGTERM", "exit_code": 0},
        }
        text = render_loadtest(document)
        assert "coalescing ratio 0.800" in text
        assert "200.0x" in text
        assert "exit 0" in text
