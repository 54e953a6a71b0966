"""Fast-path differential suite: bit-identity against the reference.

Every test here runs the same (program, inputs, mode-or-schedule) point
twice — accelerated and reference — and requires *byte-equal* observable
results: the full RunResult fingerprint (dict iteration order included)
and the canonical serialized run summary that sweeps persist.
"""

from __future__ import annotations

import pytest

from repro.core import DVSOptimizer
from repro.lang import compile_program
from repro.perf.bench import result_fingerprint
from repro.profiling.serialize import run_summary_to_dict
from repro.runtime.hashing import canonical_json
from repro.simulator import Machine, SCALE_CONFIG, TransitionCostModel, XSCALE_3
from repro.simulator.machine import ExecutionStream
from repro.workloads import all_workloads, compile_workload, get_workload

WORKLOADS = [spec.name for spec in all_workloads()]


def _machines():
    fast = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())
    slow = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel(),
                   fastpath=False)
    return fast, slow


def _assert_identical(fast_result, slow_result, context: str):
    assert (canonical_json(run_summary_to_dict(fast_result))
            == canonical_json(run_summary_to_dict(slow_result))), context
    assert result_fingerprint(fast_result) == result_fingerprint(slow_result), context


@pytest.mark.parametrize("name", WORKLOADS)
def test_suite_differential_every_mode(name):
    """All suite workloads x all XScale-3 modes, byte-identical; and the
    timing replay of the first mode's recording at every mode, too."""
    spec = get_workload(name)
    cfg = compile_workload(name)
    fast_machine, slow_machine = _machines()
    stream = ExecutionStream()
    for mode in range(len(XSCALE_3)):
        inputs, registers = spec.make_inputs(), spec.make_registers()
        fast = fast_machine.run(cfg, inputs=dict(inputs),
                                registers=dict(registers), mode=mode,
                                record=stream if mode == 0 else None)
        slow = slow_machine.run(cfg, inputs=dict(inputs),
                                registers=dict(registers), mode=mode)
        _assert_identical(fast, slow, f"{name} mode {mode}")
        _assert_identical(fast_machine.replay(stream, mode), slow,
                          f"{name} replay at mode {mode}")
    # the fast path must actually have engaged, or this suite tests nothing
    assert fast_machine.last_fastpath_stats["fast_blocks"] > 0
    assert fast_machine.last_replay_stats["folded"] > 0


@pytest.mark.parametrize("name", ["adpcm", "gsm", "dijkstra"])
def test_scheduled_differential_deadline_sweep(name):
    """MILP-scheduled runs (mode transitions on edges), byte-identical."""
    spec = get_workload(name)
    cfg = compile_workload(name)
    fast_machine, slow_machine = _machines()
    optimizer = DVSOptimizer(fast_machine)
    profile = optimizer.profile(cfg, inputs=spec.make_inputs(),
                                registers=spec.make_registers())
    modes = sorted(profile.wall_time_s)
    t_fast, t_slow = profile.wall_time_s[modes[-1]], profile.wall_time_s[modes[0]]
    for frac in (0.35, 0.7):
        deadline = t_fast + frac * (t_slow - t_fast)
        outcome = optimizer.optimize(cfg, deadline, profile=profile)
        schedule = outcome.schedule.assignment
        fast = fast_machine.run(cfg, inputs=spec.make_inputs(),
                                registers=spec.make_registers(),
                                schedule=schedule)
        slow = slow_machine.run(cfg, inputs=spec.make_inputs(),
                                registers=spec.make_registers(),
                                schedule=schedule)
        _assert_identical(fast, slow, f"{name} deadline frac {frac}")


def test_differential_with_trace_and_max_steps():
    """Tracing disables loop fast-forwarding but must stay identical,
    and max_steps violations must raise identically on both paths."""
    from repro.errors import SimulationError

    source = """
    func main() -> int {
        var acc: int = 0;
        for (var i: int = 0; i < 5000; i = i + 1) {
            acc = (acc + i * 3 + 1) % 65521;
        }
        return acc;
    }
    """
    cfg = compile_program(source, "trace-diff")
    fast_machine, slow_machine = _machines()
    fast_trace: list = []
    slow_trace: list = []
    fast = fast_machine.run(cfg, mode=1, trace=fast_trace)
    slow = slow_machine.run(cfg, mode=1, trace=slow_trace)
    _assert_identical(fast, slow, "traced run")
    assert fast_trace == slow_trace

    with pytest.raises(SimulationError) as fast_err:
        fast_machine.run(cfg, mode=1, max_steps=1000)
    with pytest.raises(SimulationError) as slow_err:
        slow_machine.run(cfg, mode=1, max_steps=1000)
    assert str(fast_err.value) == str(slow_err.value)


def test_differential_on_simulation_errors():
    """Runtime faults (division by zero) surface identically: the fast
    path bails and lets the interpreter reproduce the real error."""
    from repro.errors import SimulationError

    source = """
    func main(n: int) -> int {
        var acc: int = 100;
        for (var i: int = 0; i < 10; i = i + 1) {
            acc = acc / (n - i);   # faults when i reaches n
        }
        return acc;
    }
    """
    cfg = compile_program(source, "fault-diff")
    fast_machine, slow_machine = _machines()
    with pytest.raises(SimulationError) as fast_err:
        fast_machine.run(cfg, registers={"main.n": 5}, mode=0)
    with pytest.raises(SimulationError) as slow_err:
        slow_machine.run(cfg, registers={"main.n": 5}, mode=0)
    assert str(fast_err.value) == str(slow_err.value)
