"""``repro sweep`` must emit byte-identical results.jsonl fast on/off.

The sweep pipeline (profile -> MILP -> scheduled simulation -> verify)
is the consumer the fast path must never perturb: its results.jsonl is
the scientific record that resumed, cached and re-run sweeps are
byte-compared against.  The fast side runs on a fresh store, so its
``simulate`` times the schedule by replaying the profiling run's
recording; the slow side simulates every run on the reference
interpreter.
"""

from __future__ import annotations

from repro import observe
from repro.runtime.sweep import SweepConfig, run_sweep


def _sweep(tmp_path, tag: str, fastpath: bool):
    config = SweepConfig(
        workloads=("adpcm",),
        deadline_fracs=(0.5,),
        jobs=1,
        cache_dir=str(tmp_path / f"cache-{tag}") if fastpath else None,
        output_dir=str(tmp_path / f"out-{tag}"),
        trace=True,
        fastpath=fastpath,
    )
    report = run_sweep(config)
    assert report.ok, report.failures
    assert report.results_path is not None
    counters = observe.read_metrics(report.metrics_path)["counters"]
    return report.results_path.read_bytes(), counters


def test_results_jsonl_byte_identical_fast_on_off(tmp_path):
    fast_bytes, fast = _sweep(tmp_path, "fast", fastpath=True)
    slow_bytes, slow = _sweep(tmp_path, "slow", fastpath=False)
    assert fast_bytes == slow_bytes
    assert fast["simulator.scheduled_replays"] == 1
    assert not [k for k in fast if k.startswith("verify.full_run.")]
    assert slow["verify.full_run.fastpath_off"] == 1
