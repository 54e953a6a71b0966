"""The bench registry behind ``repro bench KIND``.

Every gate can fail: each is fed the tracked baseline document with one
field flipped, through the real command but without running the
expensive bench.  The tracked baselines pass every gate, and the
summary covers every tracked document.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro import cli
from repro.perf import harness

TRACKED = Path(__file__).parents[2] / "benchmarks" / "results"

#: One flip per registry gate: (kind, gate, field, flipped value).
FLIPS = [
    ("simulator", "all_identical", "all_identical", lambda d: False),
    ("solver", "all_identical", "all_identical", lambda d: False),
    ("solver", "warm_pivots_le_0.9_cold", "warm_pivots",
     lambda d: d["cold_pivots"]),
    ("solver", "no_warm_abandoned", "warm_abandoned", lambda d: 1),
    ("taskgraph", "all_optimal", "all_optimal", lambda d: False),
    ("taskgraph", "all_verified", "all_verified", lambda d: False),
    ("taskgraph", "headline_gap_gt_0.05", "headline_gap", lambda d: 0.05),
    ("taskgraph", "headline_gap_matches_baseline", "headline_gap",
     lambda d: d["headline_gap"] + 1e-6),
    ("continuous", "all_identical", "all_identical", lambda d: False),
    ("continuous", "pruner_effective", "pruner_effective", lambda d: False),
    ("continuous", "headline_gap_matches_baseline", "headline_gap",
     lambda d: d["headline_gap"] - 1e-6),
    ("continuous", "continuous_prunes_ge_baseline", "continuous_prunes",
     lambda d: d["continuous_prunes"] - 1),
    ("continuous", "nodes_enqueued_on_le_off", "nodes_enqueued_on",
     lambda d: d["nodes_enqueued_off"] + 1),
]

GATED = [kind for kind, bench in harness.BENCHES.items() if bench.gates]


def _tracked(kind):
    return json.loads((TRACKED / harness.BENCHES[kind].filename).read_text())


def _bench(monkeypatch, tmp_path, kind, document, baseline_dir=TRACKED,
           argv=()):
    """``repro bench KIND [ARGV]`` with the run replaced by ``document``."""
    bench = harness.BENCHES[kind]
    monkeypatch.setitem(harness.BENCHES, kind, dataclasses.replace(
        bench, run=lambda args: document))
    return cli.main(["bench", kind, *argv, "-o", str(tmp_path / bench.filename),
                     "--baseline-dir", str(baseline_dir)])


def test_every_gate_has_a_flip():
    registered = {(kind, gate.name)
                  for kind, bench in harness.BENCHES.items()
                  for gate in bench.gates}
    assert {(kind, gate) for kind, gate, _, _ in FLIPS} == registered


@pytest.mark.parametrize("kind", GATED)
def test_tracked_baselines_pass_every_gate(monkeypatch, tmp_path, capsys,
                                           kind):
    document = _tracked(kind)
    assert _bench(monkeypatch, tmp_path, kind, document) == 0
    assert "failed" not in capsys.readouterr().err
    written = tmp_path / harness.BENCHES[kind].filename
    assert json.loads(written.read_text()) == document


@pytest.mark.parametrize("kind,gate,field,flip", FLIPS,
                         ids=[f"{k}-{g}" for k, g, _, _ in FLIPS])
def test_one_flipped_field_fails_its_gate(monkeypatch, tmp_path, capsys,
                                          kind, gate, field, flip):
    document = _tracked(kind)
    document[field] = flip(document)
    assert _bench(monkeypatch, tmp_path, kind, document) == 1
    assert f"bench: gate {gate} failed" in capsys.readouterr().err


def test_header_records_the_numeric_library_versions():
    document = harness.header("x", 1)
    assert set(harness.LIBRARIES) <= set(document)
    assert all(document[name] for name in harness.LIBRARIES)


def test_a_failed_baseline_gate_names_both_library_versions(
        monkeypatch, tmp_path, capsys):
    document = _tracked("continuous")
    document["continuous_prunes"] -= 1
    document.update(numpy="0.0.1", scipy="0.0.2")
    baseline = dict(_tracked("continuous"))
    for name in harness.LIBRARIES:
        baseline.pop(name, None)  # a baseline older than the fields
    (tmp_path / "base").mkdir()
    (tmp_path / "base" / "BENCH_continuous.json").write_text(
        json.dumps(baseline))
    assert _bench(monkeypatch, tmp_path, "continuous", document,
                  baseline_dir=tmp_path / "base") == 1
    err = capsys.readouterr().err
    assert ("bench: gate continuous_prunes_ge_baseline failed (numpy 0.0.1, "
            "scipy 0.0.2 here; numpy unknown, scipy unknown in the baseline)"
            in err)
    # A gate that reads no baseline names no versions.
    document["pruner_effective"] = False
    assert _bench(monkeypatch, tmp_path, "continuous", document,
                  baseline_dir=tmp_path / "base") == 1
    assert "bench: gate pruner_effective failed\n" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["taskgraph", "continuous"])
def test_missing_baseline_fails_the_baseline_gates(monkeypatch, tmp_path,
                                                   capsys, kind):
    code = _bench(monkeypatch, tmp_path, kind, _tracked(kind),
                  baseline_dir=tmp_path / "nothing-here")
    err = capsys.readouterr().err
    assert code == 1
    for gate in harness.BENCHES[kind].gates:
        assert (f"gate {gate.name} failed" in err) == gate.baseline
    assert "no baseline at" in err


def _regridded(kind):
    """The tracked document as a smaller grid writes it, with every
    headline number unchanged."""
    document = _tracked(kind)
    if kind == "taskgraph":
        document["graph_tasks"] = 4
        document["cases"] = [c for c in document["cases"] if c["cores"] <= 2]
    else:
        document["cases"] = document["cases"][:1]
    return document


@pytest.mark.parametrize("kind,argv,ours,theirs", [
    ("taskgraph", ["--tg-tasks", "4", "--tg-cores", "1,2"],
     "tasks 4, cores 1,2", "tasks 7, cores 1,2,4"),
    ("continuous", ["--workloads", "adpcm"], "adpcm@0.2,0.4,0.6,0.8",
     "adpcm@0.2,0.4,0.6,0.8 gsm@0.2,0.4,0.6,0.8"),
])
def test_a_baseline_of_another_grid_fails_its_gates_unchecked(
        monkeypatch, tmp_path, capsys, kind, argv, ours, theirs):
    checked = []
    bench = harness.BENCHES[kind]
    gates = tuple(
        dataclasses.replace(gate, check=lambda d, b, gate=gate: (
            checked.append(gate.name) or gate.check(d, b)))
        for gate in bench.gates)
    monkeypatch.setitem(harness.BENCHES, kind,
                        dataclasses.replace(bench, gates=gates))
    code = _bench(monkeypatch, tmp_path, kind, _regridded(kind), argv=argv)
    err = capsys.readouterr().err
    assert code == 1
    for gate in bench.gates:
        assert (f"gate {gate.name} failed" in err) == gate.baseline
        # A baseline gate never compares numbers across grids.
        assert (gate.name in checked) != gate.baseline
    assert f"measured on {ours}, the baseline on {theirs}" in err


def test_summary_covers_every_tracked_document():
    summary = harness.run_summary(TRACKED, TRACKED)
    assert {"simulator", "solver", "taskgraph", "continuous"} <= set(
        summary["benches"])
    for key in ("simulator", "solver", "taskgraph", "continuous"):
        entry = summary["benches"][key]
        assert entry["deltas"], key
        for delta in entry["deltas"].values():
            assert delta["delta"] == 0, (key, delta)


def test_summary_command_prints_and_writes(tmp_path, capsys):
    out = tmp_path / "BENCH_summary.json"
    code = cli.main(["bench", "summary", "--bench-dir", str(TRACKED),
                     "--baseline-dir", str(TRACKED), "-o", str(out)])
    assert code == 0
    assert "continuous" in capsys.readouterr().out
    document = json.loads(out.read_text())
    assert (document["format"], document["benchmark"]) == (1, "summary")


def test_kind_is_one_positional():
    parser = cli.build_parser()
    runnable = [kind for kind, bench in harness.BENCHES.items() if bench.run]
    for kind in runnable:
        assert parser.parse_args(["bench", kind]).kind == kind
    assert parser.parse_args(["bench"]).kind == "simulator"
    for argv in (["bench", "serve"], ["bench", "--solver"],
                 ["bench", "solver", "taskgraph"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
