"""Native and HiGHS rows are byte-equal: the optimizer prices every
schedule from its mode assignment, so the backend leaves no trace in
``predicted_energy_nj`` or ``predicted_time_s``."""

from __future__ import annotations

import pytest

from repro.core import DVSOptimizer
from repro.lang import compile_program
from repro.simulator import Machine, SCALE_CONFIG, TransitionCostModel, XSCALE_3
from repro.workloads import derive_deadlines, get_workload


@pytest.fixture(scope="module")
def dijkstra():
    spec = get_workload("dijkstra")
    cfg = compile_program(spec.source, name="dijkstra")
    machine = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())
    profile = DVSOptimizer(machine).profile(
        cfg, inputs=spec.inputs(), registers=spec.registers())
    times = profile.wall_time_s
    return machine, cfg, profile, derive_deadlines(times[0], times[1], times[2])


class TestBackendIdentity:
    @pytest.mark.parametrize("index", range(5))
    def test_native_and_highs_rows_are_byte_equal(self, dijkstra, index):
        # Regression: rows used to carry each backend's own floats, and
        # the native branch and bound left cost-free transition-time
        # auxiliaries slack, so predicted_time_s overstated the schedule
        # (dijkstra D4: 2.60 ms native vs 1.42 ms HiGHS) and the last
        # bits of predicted_energy_nj differed (D4, D5).
        machine, cfg, profile, deadlines = dijkstra
        rows = []
        for backend in ("native", "scipy"):
            outcome = DVSOptimizer(machine, backend=backend).optimize(
                cfg, deadlines[index], profile=profile)
            # float(): results rows strip numpy scalars the same way.
            rows.append((float(outcome.predicted_energy_nj),
                         float(outcome.predicted_time_s)))
        assert rows[0] == rows[1]
