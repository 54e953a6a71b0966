"""Extended-suite pipeline bench: the two beyond-the-paper workloads.

``dijkstra`` (irregular data-dependent memory) and ``jpeg`` (encoder-side
block pipeline) run the same Table-4-style deadline sweep as the paper's
six, verifying that the reproduction's pipeline is not tuned to the
original suite's shapes: every deadline is met, predictions hold, and
the timing-model fit stays tight on access patterns the paper never
exercised.
"""

import pytest

from repro.analysis import Table, timing_model_fit
from repro.core import DVSOptimizer
from repro.simulator import Machine, SCALE_CONFIG, TransitionCostModel, XSCALE_3
from repro.workloads import compile_workload, derive_deadlines, get_workload

from conftest import single_run, write_artifact

EXTENSIONS = ("dijkstra", "jpeg")


def run_workload(name: str):
    spec = get_workload(name)
    cfg = compile_workload(name)
    machine = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())
    optimizer = DVSOptimizer(machine)
    profile = optimizer.profile(cfg, inputs=spec.inputs(), registers=spec.registers())
    fit = timing_model_fit(profile.params, profile, XSCALE_3)
    deadlines = derive_deadlines(
        profile.wall_time_s[0], profile.wall_time_s[1], profile.wall_time_s[2]
    )
    rows = []
    for deadline in deadlines:
        outcome = optimizer.optimize(cfg, deadline, profile=profile)
        run = optimizer.verify(
            cfg, outcome.schedule, inputs=spec.inputs(), registers=spec.registers()
        )
        assert run.wall_time_s <= deadline * (1 + 1e-6)
        assert run.cpu_energy_nj == pytest.approx(
            outcome.predicted_energy_nj, rel=1e-3
        )
        _, baseline = optimizer.best_single_mode(profile, deadline)
        rows.append((deadline, run.cpu_energy_nj, baseline, run.mode_transitions))
    return {"rows": rows, "fit": fit}


def test_ext_suite_pipeline(benchmark):
    data = single_run(benchmark, lambda: {name: run_workload(name) for name in EXTENSIONS})

    table = Table(
        "Extended suite: Table-4-style sweep on dijkstra and jpeg",
        ["Benchmark", "Deadline", "DVS uJ", "single uJ", "savings", "transitions"],
        float_format="{:.3g}",
    )
    for name in EXTENSIONS:
        rows = data[name]["rows"]
        fit = data[name]["fit"]
        for i, (deadline, energy, baseline, transitions) in enumerate(rows, 1):
            table.add_row([
                name, f"D{i}", energy / 1e3, baseline / 1e3,
                f"{1 - energy / baseline:.1%}", transitions,
            ])
        # The pipeline's guarantees generalize to unseen access patterns:
        energies = [r[1] for r in rows]
        assert all(b >= a * (1 - 1e-9) for a, b in zip(energies[::-1], energies[::-1][1:]))
        assert energies[0] / energies[-1] > 1.5, name
        # timing model still calibrated on irregular memory behaviour
        assert fit.max_abs_error < 0.10, (name, fit.render(name))

    write_artifact("ext_suite_pipeline", table.render())
