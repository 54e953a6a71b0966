"""BENCHMARK.json must name exactly the metrics run.py prints."""

import json
import re
from pathlib import Path

import run
import workloads

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class _Refs:
    def same(self, name, value):
        pass


class _Run:
    refs, seed, seconds = _Refs(), 0, 10


def _measured():
    return workloads.Measured(
        wall_s=1.0, cpu_s=1.0, peak_rss_mb=1.0, setup_s=1.0, attempted=2,
        failed=0, rows=[{"savings_vs_single_mode": 0.1}], basis_s=1.0)


def _emitted_per_layer():
    merged = {"self_s": {}, "counts": {}, "returns": {}, "processes": 1,
              "workers": 0, "restored": True}
    return run.per_layer("suite-cold", _measured(), merged, _Run(), 1.0)


def test_metric_names_and_units_match_what_run_prints():
    e2e = run.end_to_end(_measured())
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        [(k, v["unit"]) for k, v in e2e.items()]
    layers = _emitted_per_layer()
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        [(k, v["unit"]) for k, v in layers.items()]


def test_spec_shape():
    assert sorted(SPEC) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer")
               for m in SPEC[key])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
