"""Timing replays of a recorded execution stream (``Machine.replay``)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import observe
from repro.errors import ProfileError, ScheduleError, SimulationError
from repro.ir import FunctionBuilder
from repro.ir.cfg import ENTRY_EDGE_SOURCE
from repro.ir.instructions import Const
from repro.perf.bench import result_fingerprint
from repro.profiling.profiler import profile_program
from repro.simulator import Machine, SCALE_CONFIG, TransitionCostModel, XSCALE_3
from repro.simulator.machine import ExecutionStream


def miss_shadow_program():
    """A loop whose third iteration takes a cold load, then keeps busy.

    Block ``miss`` loads a cold line into ``x``, overwrites ``x`` without
    reading it (so nothing stays pending) and spends 48 cycles on
    divisions.  At 200 MHz that outlasts the 150 ns memory latency, so the
    following block ``next`` — I-cache warm, no data accesses — starts
    with the miss serviced and runs on the fast path.  At 800 MHz the
    same 48 cycles are 60 ns: ``next`` starts under the outstanding miss,
    so a replay must time it with the timing model, not its folded delta.
    """
    fb = FunctionBuilder("miss-shadow")
    base = fb.add_array("a", 64)
    fb.block("entry")
    fb.const(base, "b")
    fb.const(0, "i")
    fb.const(3, "n")
    fb.const(2, "k")
    fb.const(1, "one")
    fb.const(0, "s")
    fb.const(7, "d")
    fb.const(1000, "w")
    head = fb.new_block("head")
    work = fb.new_block("work")
    miss = fb.new_block("miss")
    nxt = fb.new_block("next")
    done = fb.new_block("done")
    fb.jump(head)
    fb.set_current(head)
    fb.branch(fb.binop("lt", "i", "n"), work, done)
    fb.set_current(work)
    fb.branch(fb.binop("eq", "i", "k"), miss, nxt)
    fb.set_current(miss)
    fb.load("b", 0, dst="x")
    for _ in range(4):
        fb.binop("div", "w", "d", dst="w")
    fb.const(0, dst="x")
    fb.jump(nxt)
    fb.set_current(nxt)
    fb.binop("add", "s", "one", dst="s")
    fb.binop("add", "i", "one", dst="i")
    fb.jump(head)
    fb.set_current(done)
    fb.ret("s")
    return fb.finish()


def _machines():
    return (Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel()),
            Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel(),
                    fastpath=False))


def test_all_l1_block_under_a_pending_miss_is_timed_not_folded():
    cfg = miss_shadow_program()
    fast, slow = _machines()
    stream = ExecutionStream()
    recorded = fast.run(cfg, mode=0, record=stream)
    assert result_fingerprint(recorded) == result_fingerprint(slow.run(cfg, mode=0))
    for mode in range(len(XSCALE_3)):
        replayed = fast.replay(stream, mode)
        assert (result_fingerprint(replayed)
                == result_fingerprint(slow.run(cfg, mode=mode))), mode
        if mode == 0:
            # the recording's own mode meets the state the recording did
            assert fast.last_replay_stats["all_l1_timed"] == 0
    # at 800 MHz `next` was all-L1 in the recording yet met the miss
    assert fast.last_replay_stats["all_l1_timed"] >= 1
    assert fast.last_replay_stats["folded"] > 0


@pytest.mark.parametrize("traced", [False, True])
def test_replay_needs_a_recording(traced):
    fast, _ = _machines()
    if traced:
        observe.enable(reset=True)
    try:
        with pytest.raises(SimulationError, match="never recorded"):
            fast.replay(ExecutionStream(), 0)
    finally:
        if traced:
            observe.disable()
            observe.reset()


def test_stream_is_bound_to_its_cache_configuration():
    cfg = miss_shadow_program()
    fast, _ = _machines()
    stream = ExecutionStream()
    fast.run(cfg, mode=0, record=stream)
    with pytest.raises(SimulationError, match="empty"):
        fast.run(cfg, mode=0, record=stream)
    other = Machine(SCALE_CONFIG.with_memory_latency(300e-9), XSCALE_3,
                    TransitionCostModel())
    with pytest.raises(SimulationError, match="configuration differs"):
        other.replay(stream, 0)


def test_corrupt_stream_is_refused():
    cfg = miss_shadow_program()
    fast, _ = _machines()
    stream = ExecutionStream()
    fast.run(cfg, mode=0, record=stream)
    assert 2 in stream.outcomes  # the cold accesses went to memory
    stream.outcomes[list(stream.outcomes).index(2)] = 1
    with pytest.raises(SimulationError, match="diverged"):
        fast.replay(stream, 1)


def test_profile_simulates_once_and_replays_the_rest(monkeypatch):
    cfg = miss_shadow_program()
    fast, slow = _machines()
    observe.enable(reset=True)
    try:
        replayed = profile_program(fast, cfg)
        assert observe.counter_value("simulator.runs") == 1
        assert observe.counter_value("simulator.replays") == len(XSCALE_3) - 1
        observe.reset()
        full = profile_program(slow, cfg)
        assert observe.counter_value("simulator.runs") == len(XSCALE_3)
        assert observe.counter_value("simulator.replays") == 0
        observe.reset()
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
        profile_program(fast, cfg)
        assert observe.counter_value("simulator.runs") == len(XSCALE_3)
        assert observe.counter_value("simulator.replays") == 0
    finally:
        observe.disable()
        observe.reset()
    assert replayed == full


class _DriftingMachine(Machine):
    """Reports a different return value at every mode but the first."""

    def run(self, cfg, *args, mode=None, **kwargs):
        result = super().run(cfg, *args, mode=mode, **kwargs)
        return result if mode == 0 else replace(result, return_value=-1)


def test_cross_mode_checks_run_on_the_full_simulation_path():
    machine = _DriftingMachine(SCALE_CONFIG, XSCALE_3, TransitionCostModel(),
                               fastpath=False)
    with pytest.raises(ProfileError, match="result changed across modes"):
        profile_program(machine, miss_shadow_program())


def _scheduled_pair(schedule, initial_mode, capacitance_f=10e-6):
    cfg = miss_shadow_program()
    fast = Machine(SCALE_CONFIG, XSCALE_3,
                   TransitionCostModel(capacitance_f=capacitance_f))
    slow = Machine(SCALE_CONFIG, XSCALE_3,
                   TransitionCostModel(capacitance_f=capacitance_f),
                   fastpath=False)
    stream = ExecutionStream()
    fast.run(cfg, mode=1, record=stream)
    replayed = fast.replay(stream, schedule=schedule, initial_mode=initial_mode)
    reference = slow.run(cfg, schedule=schedule, initial_mode=initial_mode)
    return replayed, reference


@pytest.mark.parametrize("initial_mode", [0, 2])
def test_scheduled_replay_switches_under_an_outstanding_miss(initial_mode):
    # At 800 MHz `miss` ends with its load still in flight, so the
    # mode-set on miss->next executes under the outstanding miss; the
    # loop's back-edge switches back on every iteration.
    schedule = {("miss", "next"): 0, ("next", "head"): 2, ("work", "next"): 1}
    replayed, reference = _scheduled_pair(schedule, initial_mode)
    assert result_fingerprint(replayed) == result_fingerprint(reference)
    assert reference.mode_transitions >= 3
    assert replayed.transition_energy_nj > 0 and replayed.transition_time_s > 0
    assert replayed.modeset_executions == reference.modeset_executions


def test_scheduled_replay_applies_the_entry_edge_mode_for_free():
    schedule = {(ENTRY_EDGE_SOURCE, "entry"): 0, ("head", "done"): 2}
    replayed, reference = _scheduled_pair(schedule, initial_mode=2)
    assert result_fingerprint(replayed) == result_fingerprint(reference)
    assert replayed.mode_transitions == 1  # only head->done switches
    assert replayed.final_mode == 2


def test_scheduled_replay_validates_like_run():
    cfg = miss_shadow_program()
    fast, _ = _machines()
    stream = ExecutionStream()
    fast.run(cfg, mode=0, record=stream)
    with pytest.raises(ScheduleError, match="invalid mode"):
        fast.replay(stream, schedule={("head", "work"): 7})
    with pytest.raises(ScheduleError, match="not both"):
        fast.replay(stream, 0, schedule={})


def test_replay_generates_no_code():
    # A fresh program: the fold tables are pure timing, so replaying a
    # recording compiles nothing beyond what the recording run did.
    cfg = miss_shadow_program()
    cfg.name = "miss-shadow-codegen"
    cfg.blocks["done"].instructions.insert(0, Const("pad", 1.0))
    fast, slow = _machines()
    stream = ExecutionStream()
    slow.run(cfg, mode=0, record=stream)
    observe.enable(reset=True)
    try:
        fast.replay(stream, 2)
        fast.replay(stream, schedule={("head", "work"): 0})
        assert observe.counter_value("perf.codegen.blocks") == 0
    finally:
        observe.disable()
        observe.reset()
