"""Fast-path speedup floor, replay floor and bit-identity (`repro bench`).

The acceptance bars for the accelerated simulator: at least 3x wall-clock
over the reference interpreter on the loop-heavy benchmark, and on every
paper-suite program a timing replay of a recorded run at least 2x
cheaper than a full fast-path run at the same mode — all with
bit-identical results.  The measured document is persisted as
``benchmarks/results/BENCH_simulator.json`` so CI can archive a
per-commit baseline.
"""

from __future__ import annotations

import json

import pytest
from conftest import RESULTS_DIR, write_artifact

from repro.perf.bench import run_bench
from repro.perf.harness import write_document

#: The tentpole acceptance floor: loop-heavy steady state, >= 3x.
SPEEDUP_FLOOR = 3.0

#: A replay must cost at most half a full fast-path run, per program.
REPLAY_FLOOR = 2.0


@pytest.fixture(scope="module")
def document():
    return run_bench(suite=True, repeats=2)


def test_fastpath_speedup_floor_and_identity(document):
    RESULTS_DIR.mkdir(exist_ok=True)
    path = write_document(document, RESULTS_DIR / "BENCH_simulator.json")

    case = document["cases"][0]
    lines = [
        "Fast-path benchmark (loop-heavy FIR kernel)",
        f"  reference {case['reference_s']:.3f}s  fast {case['fast_s']:.3f}s  "
        f"speedup {case['speedup']:.2f}x  identical {case['identical']}",
        f"  fastpath counters: {case['fastpath']}",
        "Paper suite: full fast-path run vs timing replay, 3-mode profile",
    ]
    for suite_case in document["cases"][1:]:
        lines.append(
            f"  {suite_case['name']:<12s} full {suite_case['full_s']:.3f}s  "
            f"replay {suite_case['replay_s']:.3f}s "
            f"({suite_case['replay_speedup']:.1f}x)  "
            f"profile {suite_case['profile_s']:.3f}s  "
            f"identical {suite_case['identical']}")
    lines.append(f"  [json baseline: {path.relative_to(RESULTS_DIR.parent)}]")
    write_artifact("perf_simulator", "\n".join(lines))

    assert document["all_identical"], "fast path diverged from reference"
    assert case["speedup"] >= SPEEDUP_FLOOR, (
        f"loop-heavy speedup {case['speedup']:.2f}x fell below the "
        f"{SPEEDUP_FLOOR}x floor"
    )
    # the JSON must round-trip for CI consumers
    parsed = json.loads(path.read_text())
    assert parsed["headline_speedup"] == document["headline_speedup"]
    assert parsed["format"] == 1


def test_replay_floor_over_the_suite(document):
    suite = document["cases"][1:]
    assert len(suite) >= 6
    for case in suite:
        assert case["identical"], f"{case['name']}: replay diverged"
        assert case["replay_speedup"] >= REPLAY_FLOOR, (
            f"{case['name']}: replay only {case['replay_speedup']:.2f}x "
            f"cheaper than a full run (floor {REPLAY_FLOOR}x)")
    assert document["min_replay_speedup"] >= REPLAY_FLOOR


def test_fastpath_engages_on_loop_heavy():
    document = run_bench(repeats=1)
    stats = document["cases"][0]["fastpath"]
    assert stats["enabled"] == 1
    assert stats["loop_iterations"] > 0
    assert stats["fast_blocks"] > stats["slow_blocks"]
