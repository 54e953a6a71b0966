"""200 generated programs, fast vs reference, byte-identical each time.

Programs come from :mod:`repro.verify.generators` — nested loops,
branches, array traffic, register mixing — so this sweeps program shapes
the hand-written suite never reaches (degenerate loops, single-block
bodies, store-heavy blocks, immediate faults).  Each program's fast run
also records its execution stream, and the timing replay of it at every
mode must match the reference run at that mode
(:func:`repro.verify.oracles.fastpath_matches_reference`).
"""

from __future__ import annotations

from repro import observe
from repro.lang import compile_program
from repro.simulator import Machine, SCALE_CONFIG, TransitionCostModel, XSCALE_3
from repro.verify.generators import generate_program
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
