"""The CLI sweeps and the served endpoints accept and refuse the same grids.

Each case breaks (or leans on) one grid rule, spelled once as a request
body and once as ``repro sweep`` / ``repro taskgraph sweep`` options
over the same axes.  Both must accept it with the same experiment ids,
or both must refuse it, before any task runs, with the same message.
"""

import pytest

from repro.cli import main
from repro.errors import ProtocolError
from repro.runtime import sweep
from repro.serve.protocol import parse_request

SWEEP = ["sweep", "--workloads"]
TASKGRAPH = ["taskgraph", "sweep", "--shapes"]

#: (endpoint, body, command-line) per rule.
CASES = {
    "duplicate-fractions": (
        "sweep", {"workloads": ["adpcm"], "deadline_fracs": [0.5, 0.5]},
        SWEEP + ["adpcm", "--deadline-fracs", "0.5,0.5"]),
    "duplicate-workloads": (
        "sweep", {"workloads": ["adpcm", "adpcm"], "deadline_fracs": [0.5]},
        SWEEP + ["adpcm,adpcm", "--deadline-fracs", "0.5"]),
    "one-level-table": (
        "sweep", {"workloads": ["adpcm"], "deadline_fracs": [0.5],
                  "levels": [1]},
        SWEEP + ["adpcm", "--deadline-fracs", "0.5", "--levels", "1"]),
    "fraction-above-one": (
        "sweep", {"workloads": ["adpcm"], "deadline_fracs": [1.5]},
        SWEEP + ["adpcm", "--deadline-fracs", "1.5"]),
    "unknown-workload": (
        "sweep", {"workloads": ["doom"], "deadline_fracs": [0.5]},
        SWEEP + ["doom", "--deadline-fracs", "0.5"]),
    "unknown-shape": (
        "taskgraph", {"shapes": ["mesh"], "tasks": 5, "cores": [1],
                      "deadline_fracs": [0.5]},
        TASKGRAPH + ["mesh", "--tasks", "5", "--cores", "1",
                     "--deadline-fracs", "0.5"]),
    "two-tasks": (
        "taskgraph", {"shapes": ["fork-join"], "tasks": 2, "cores": [1],
                      "deadline_fracs": [0.5]},
        TASKGRAPH + ["fork-join", "--tasks", "2", "--cores", "1",
                     "--deadline-fracs", "0.5"]),
    "zero-cores": (
        "taskgraph", {"shapes": ["fork-join"], "tasks": 5, "cores": [0],
                      "deadline_fracs": [0.5]},
        TASKGRAPH + ["fork-join", "--tasks", "5", "--cores", "0",
                     "--deadline-fracs", "0.5"]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_and_server_agree(case, capsys, monkeypatch, tmp_path):
    endpoint, body, argv = CASES[case]
    try:
        served, refusal = parse_request(body, endpoint=endpoint), None
    except ProtocolError as error:
        served, refusal = None, str(error)

    # The CLI's grid reaches the executor only if it was accepted; the
    # stand-in runs nothing and records which experiments it was given.
    ran = []
    monkeypatch.setattr(sweep, "run_graph", lambda graph, **_: ran.append(
        [e.experiment_id for e in graph.experiments]) or {})
    code = main(argv + ["--no-cache", "--quiet",
                        "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err

    if refusal is not None:
        assert (code, ran) == (1, []), err
        assert err == f"error: {refusal}\n"
    else:
        assert ran == [[e.experiment_id for e in served.experiments]], err
