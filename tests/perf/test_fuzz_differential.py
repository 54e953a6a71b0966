"""200 generated programs, fast vs reference, byte-identical each time.

Programs come from :mod:`repro.verify.generators` — nested loops,
branches, array traffic, register mixing — so this sweeps program shapes
the hand-written suite never reaches (degenerate loops, single-block
bodies, store-heavy blocks, immediate faults).  Each program's fast run
also records its execution stream, and the timing replay of it at every
mode must match the reference run at that mode
(:func:`repro.verify.oracles.fastpath_matches_reference`); under a random
schedule, so must the replay of the recording under that schedule.
"""

from __future__ import annotations

import random

from repro import observe
from repro.ir.cfg import ENTRY_EDGE_SOURCE
from repro.ir.loops import find_natural_loops
from repro.lang import compile_program
from repro.simulator import Machine, SCALE_CONFIG, TransitionCostModel, XSCALE_3
from repro.verify.generators import generate_program, random_schedule
from repro.verify.oracles import fastpath_matches_reference

NUM_PROGRAMS = 200


def test_fuzzed_programs_bit_identical():
    machine = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())
    observe.enable(reset=True)  # the fast path's own counters show engagement
    try:
        for seed in range(NUM_PROGRAMS):
            program = generate_program(seed)
            cfg = compile_program(program.source, f"fuzz-{seed}")
            # rotate the recorded mode through the table so every mode's
            # folded constants get coverage, not just the default
            mode = seed % len(XSCALE_3)
            oracle = fastpath_matches_reference(machine, cfg,
                                                inputs=program.inputs, mode=mode)
            assert oracle.ok, (f"seed {seed} diverged: {oracle.detail}\n"
                               f"{program.source}")
        engaged = observe.counter_value("perf.blocks.fast")
        replays = observe.counter_value("simulator.replays")
    finally:
        observe.disable()
        observe.reset()
    assert engaged > 0, "fast path never engaged across 200 programs"
    assert replays == NUM_PROGRAMS * len(XSCALE_3)


def test_fuzzed_programs_scheduled_replay_bit_identical():
    """Random schedules over the same 200 programs: mode-sets on any edge
    (loop back-edges and loop bodies included) and on the entry edge; the
    fast run, and the replay of its recording under the schedule, must
    both match the reference scheduled run."""
    machine = Machine(SCALE_CONFIG, XSCALE_3,
                      TransitionCostModel(capacitance_f=10e-6))
    in_loops = entry_modes = 0
    observe.enable(reset=True)
    try:
        for seed in range(NUM_PROGRAMS):
            program = generate_program(seed)
            cfg = compile_program(program.source, f"fuzz-{seed}")
            schedule, initial = random_schedule(cfg, len(XSCALE_3),
                                                random.Random(seed))
            loop_edges = {(src, dst) for loop in find_natural_loops(cfg)
                          for src in loop.blocks for dst in cfg.successors(src)
                          if dst in loop.blocks}
            in_loops += len(loop_edges & set(schedule))
            entry_modes += (ENTRY_EDGE_SOURCE, cfg.entry) in schedule
            oracle = fastpath_matches_reference(
                machine, cfg, inputs=program.inputs, schedule=schedule,
                initial_mode=initial)
            assert oracle.ok, (f"seed {seed} diverged: {oracle.detail}\n"
                               f"{program.source}")
        scheduled = observe.counter_value("simulator.scheduled_replays")
        transitions = observe.counter_value("simulator.replay_transitions")
    finally:
        observe.disable()
        observe.reset()
    assert scheduled == NUM_PROGRAMS
    assert transitions > NUM_PROGRAMS, "schedules hardly ever switched"
    assert in_loops > NUM_PROGRAMS and entry_modes > NUM_PROGRAMS // 4
