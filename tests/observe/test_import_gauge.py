"""The start-up layer: ``python -m repro`` times ``import repro.cli`` and
every trace it writes carries that time as the ``process.import_s`` gauge."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro import observe
from repro.observe import core
from repro.observe.render import render_stats

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def test_process_gauge_survives_reset_and_late_enable(clean_collector, monkeypatch):
    monkeypatch.setattr(core, "_PROCESS_GAUGES", {})
    observe.process_gauge("process.import_s", 0.25)  # before tracing starts
    observe.enable(reset=True)
    try:
        observe.gauge("other", 1.0)
        assert observe.snapshot()["gauges"] == {"process.import_s": 0.25,
                                                "other": 1.0}
        observe.reset()
        assert observe.snapshot()["gauges"] == {"process.import_s": 0.25}
    finally:
        observe.disable()


def test_stats_renders_the_import_time():
    out = render_stats({"counters": {}, "gauges": {"process.import_s": 0.1234},
                        "histograms": {}})
    assert "import repro.cli" in out
    assert "0.123s" in out
    assert "other metrics" not in out  # rendered once, in its own section


def test_traced_sweep_records_its_import_time(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = tmp_path / "out"

    def repro(*args: str) -> str:
        proc = subprocess.run([sys.executable, "-m", "repro", *args], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return proc.stdout

    repro("sweep", "--workloads", "dijkstra", "--deadline-fracs", "0.5",
          "--jobs", "1", "--quiet", "--trace", "--no-cache",
          "--output-dir", str(out))
    gauges = json.loads((out / "metrics.json").read_text())["gauges"]
    assert 0.0 < gauges["process.import_s"] < 60.0
    assert "import repro.cli" in repro("stats", str(out))
