"""Simulator fast-path bench behind ``repro bench`` (``simulator``).

Measures the accelerated simulator against the reference interpreter on
the same (program, inputs, mode) points, checks bit-identity while it is
at it, and returns the ``BENCH_simulator.json`` document that
:mod:`repro.perf.harness` writes, prints and gates.

Two benchmark tiers:

* ``loop-heavy`` — a synthetic L1-resident FIR + reduction kernel whose
  steady-state loops are exactly what :mod:`repro.perf.loopc`
  fast-forwards.  This is the headline number the acceptance floor
  (>= 3x) is checked against.
* the paper-suite workloads (``--suite``) — branchy codecs with cache
  misses and bails; fast-path speedups here are honest but smaller.
  Each suite case also times the timing replay of a recorded run
  (``Machine.replay``) against the full fast-path run at the same mode,
  and the whole 3-mode ``profile_program`` (one recorded run plus two
  replays), and requires the replay to be bit-identical too.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.lang import compile_program
from repro.perf.harness import best_of, header
from repro.simulator.config import SCALE_CONFIG
from repro.simulator.dvs import TransitionCostModel, XSCALE_3
from repro.simulator.machine import ExecutionStream, Machine

#: Schema tag for BENCH_simulator.json consumers.
BENCH_FORMAT = 1

#: Tight, L1-resident loop nest: a 16-tap integer FIR over a 1 KB signal
#: plus a modular reduction sweep, repeated to amortize warmup.  The
#: whole working set (signal + out + coeff) fits in the 4 KB L1 D-cache,
#: so the steady state has no misses and the loop fast-forwarder stays
#: engaged.
LOOP_HEAVY_SOURCE = """
func main(n: int, taps: int) -> int {
    extern signal: int[256];
    extern coeff: int[16];
    array out: int[256];

    var acc: int = 0;
    for (var r: int = 0; r < 30; r = r + 1) {
        for (var i: int = 0; i < n - taps; i = i + 1) {
            var s: int = 0;
            for (var k: int = 0; k < taps; k = k + 1) {
                s = s + signal[i + k] * coeff[k];
            }
            out[i] = s / 64;
        }
        for (var i: int = 0; i < n; i = i + 1) {
            acc = (acc + out[i]) % 999983;
        }
    }
    return acc;
}
"""


def loop_heavy_case() -> tuple[Any, dict[str, list], dict[str, float]]:
    """(cfg, inputs, registers) for the headline loop-heavy benchmark."""
    cfg = compile_program(LOOP_HEAVY_SOURCE)
    inputs = {
        "signal": [((i * 37 + 11) % 201) - 100 for i in range(256)],
        "coeff": [((i * 13 + 5) % 31) - 15 for i in range(16)],
    }
    registers = {"main.n": 256, "main.taps": 16}
    return cfg, inputs, registers


def result_fingerprint(result) -> str:
    """A total fingerprint of one run's observable output.

    Every ``RunResult`` field participates, including dict iteration
    order (profile serialization preserves it) and the final memory
    image, so "identical" here means byte-identical artifacts.
    """
    doc = dataclasses.asdict(result)
    memory = doc.pop("memory", None)
    cells = repr(memory.cells) if memory is not None else "None"
    return repr(list(doc.items())) + "|" + cells


def _time_run(machine: Machine, cfg, inputs, registers, mode: int,
              repeats: int) -> tuple[float, Any]:
    return best_of(lambda: machine.run(cfg, inputs=dict(inputs),
                                       registers=dict(registers), mode=mode),
                   repeats)


def bench_case(name: str, cfg, inputs, registers, mode: int = 2,
               repeats: int = 1) -> dict[str, Any]:
    """Benchmark one (program, inputs, mode) point fast vs reference."""
    fast_machine = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())
    slow_machine = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel(),
                           fastpath=False)
    fast_s, fast_result = _time_run(fast_machine, cfg, inputs, registers,
                                    mode, repeats)
    slow_s, slow_result = _time_run(slow_machine, cfg, inputs, registers,
                                    mode, repeats)
    identical = (result_fingerprint(fast_result)
                 == result_fingerprint(slow_result))
    return {
        "name": name,
        "mode": mode,
        "repeats": repeats,
        "reference_s": slow_s,
        "fast_s": fast_s,
        "speedup": slow_s / fast_s if fast_s > 0 else float("inf"),
        "identical": identical,
        "instructions": fast_result.instructions,
        "fastpath": dict(fast_machine.last_fastpath_stats),
    }


def suite_case(name: str, cfg, inputs, registers, mode: int = 2,
               repeats: int = 1) -> dict[str, Any]:
    """One paper-suite program: fast vs reference, replay, 3-mode profile.

    An untimed run at mode 0 compiles the program and records the stream
    the replays use, so every timed call sees a warm compilation.
    """
    from repro.profiling.profiler import profile_program

    case = bench_case(name, cfg, inputs, registers, mode=mode, repeats=repeats)
    machine = Machine(SCALE_CONFIG, XSCALE_3, TransitionCostModel())
    stream = ExecutionStream()
    recorded = machine.run(cfg, inputs=dict(inputs), registers=dict(registers),
                           mode=0, record=stream)
    full_s, full = _time_run(machine, cfg, inputs, registers, mode, repeats)
    replay_s, replayed = best_of(lambda: machine.replay(stream, mode), repeats)
    replay_stats = dict(machine.last_replay_stats)
    profile_s, _ = best_of(lambda: profile_program(
        machine, cfg, inputs=dict(inputs), registers=dict(registers)), repeats)
    replay_identical = (result_fingerprint(replayed) == result_fingerprint(full)
                        and result_fingerprint(machine.replay(stream, 0))
                        == result_fingerprint(recorded))
    case.update({
        "identical": case["identical"] and replay_identical,
        "full_s": full_s,
        "replay_s": replay_s,
        "replay_speedup": full_s / replay_s if replay_s > 0 else float("inf"),
        "profile_s": profile_s,
        "replay": replay_stats,
    })
    return case


def run_bench(suite: bool = False, repeats: int = 1,
              mode: int = 2) -> dict[str, Any]:
    """The full benchmark document (the BENCH_simulator.json payload)."""
    cases = []
    cfg, inputs, registers = loop_heavy_case()
    cases.append(bench_case("loop-heavy", cfg, inputs, registers,
                            mode=mode, repeats=repeats))
    if suite:
        from repro.workloads import all_workloads, compile_workload
        for spec in all_workloads():
            cases.append(suite_case(
                spec.name, compile_workload(spec.name), spec.make_inputs(),
                spec.make_registers(), mode=mode, repeats=repeats,
            ))
    headline = cases[0]
    replays = [c["replay_speedup"] for c in cases if "replay_speedup" in c]
    return {
        **header("simulator-fastpath", BENCH_FORMAT),
        "headline_speedup": headline["speedup"],
        "min_replay_speedup": min(replays) if replays else None,
        "all_identical": all(c["identical"] for c in cases),
        "cases": cases,
    }
