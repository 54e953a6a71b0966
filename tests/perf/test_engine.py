"""Fast-path engine behaviors: switches, caching, staleness, counters."""

from __future__ import annotations

import pytest

from repro.lang import compile_program
from repro.perf.bench import result_fingerprint
from repro.perf.engine import ProgramFast, fastpath_disabled_env, program_fast
from repro.simulator import Machine, SCALE_CONFIG, TransitionCostModel, XSCALE_3

SOURCE = """
func main() -> int {
    var acc: int = 0;
    for (var i: int = 0; i < 600; i = i + 1) {
        acc = (acc + i * 7 + 3) % 9973;
    }
    return acc;
}
"""


@pytest.fixture()
def cfg():
    return compile_program(SOURCE, "engine-test")


def test_env_kill_switch(cfg, monkeypatch):
    monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    assert fastpath_disabled_env()
    machine = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())
    machine.run(cfg, mode=0)
    assert machine.last_fastpath_stats["enabled"] == 0
    monkeypatch.setenv("REPRO_NO_FASTPATH", "0")
    assert not fastpath_disabled_env()


def test_machine_flag_switches_the_fast_path(cfg):
    machine = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel(),
                      fastpath=False)
    machine.run(cfg, mode=0)
    assert machine.last_fastpath_stats["enabled"] == 0

    default_on = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())
    default_on.run(cfg, mode=0)
    assert default_on.last_fastpath_stats["enabled"] == 1
    assert default_on.last_fastpath_stats["fast_blocks"] > 0


def test_program_cache_is_reused_and_invalidated(cfg):
    machine = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())
    pf1 = program_fast(machine, cfg)
    assert program_fast(machine, cfg) is pf1
    # the cache is per process and keyed by values: another machine, an
    # equal mode table under another name, and a recompiled program all
    # share the compilation
    other = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())
    other.mode_table = XSCALE_3.__class__(list(XSCALE_3.points),
                                          name="xscale-3-copy")
    assert program_fast(other, compile_program(SOURCE, "engine-test")) is pf1
    # a different mode table changes folded constants: must rebuild
    from repro.simulator.dvs import make_mode_table

    machine.mode_table = make_mode_table(7)
    pf2 = program_fast(machine, cfg)
    assert pf2 is not pf1
    # so does a different program
    changed = compile_program(SOURCE.replace("9973", "9967"), "engine-test")
    assert program_fast(machine, changed) is not pf2


def test_consts_are_per_mode_and_cached(cfg):
    machine = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())
    pf = ProgramFast(machine, cfg)
    table0 = pf.consts(0)
    assert pf.consts(0) is table0
    table2 = pf.consts(2)
    assert table2 is not table0
    label = next(iter(table0))
    # higher voltage -> strictly more energy per execution of any block
    assert table2[label][1] > table0[label][1]


def test_counters_consistent_with_run(cfg):
    machine = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())
    result = machine.run(cfg, mode=1)
    stats = machine.last_fastpath_stats
    executed_blocks = sum(s.count for s in result.block_stats.values())
    assert (stats["fast_blocks"] + stats["slow_blocks"]) == executed_blocks
    assert stats["loop_iterations"] > 0  # the kernel is one tight loop


def test_fastpath_identical_across_levels(cfg):
    """Folded constants depend on the mode table; a 7-level alpha table
    must be just as bit-exact as XScale-3."""
    from repro.simulator.dvs import make_mode_table

    table = make_mode_table(7)
    fast = Machine(SCALE_CONFIG, table, TransitionCostModel())
    slow = Machine(SCALE_CONFIG, table, TransitionCostModel(), fastpath=False)
    for mode in (0, 3, 6):
        assert (result_fingerprint(fast.run(cfg, mode=mode))
                == result_fingerprint(slow.run(cfg, mode=mode)))
