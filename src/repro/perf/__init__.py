"""Hot-path acceleration for the simulator (bit-exact by construction).

The :class:`~repro.simulator.machine.Machine` bottoms out every experiment
in a per-instruction Python loop; this package removes that bottleneck for
the structurally repetitive executions profiled DVS workloads are made of:

* :mod:`repro.perf.accum` — compensated (Neumaier) summation used by the
  machine's run-level accounting;
* :mod:`repro.perf.blockc` — block-delta memoization: generated per-block
  functions that validate cache residency, re-execute the data arithmetic
  and let the dispatcher replay the block's folded (Δt, Δe, Δstats) delta;
* :mod:`repro.perf.loopc` — steady-state loop fast-forwarding: whole
  natural loops compiled into one function with registers as locals;
* :mod:`repro.perf.engine` — the compiled-program cache and per-mode
  delta tables;
* :mod:`repro.perf.harness` — the one harness behind ``repro bench
  KIND``: a registry of bench documents sharing one header, writer,
  table printer, gate check and summary;
* :mod:`repro.perf.bench`, :mod:`~repro.perf.bench_solver`,
  :mod:`~repro.perf.bench_continuous`, :mod:`~repro.perf.bench_taskgraph`
  — the measurements behind the simulator, solver, continuous and
  taskgraph entries (the first also behind
  ``benchmarks/test_perf_simulator.py``);
* :mod:`repro.perf.loadtest` — ``repro loadtest`` against a live
  ``repro serve``.

The fast path produces bit-identical ``RunResult``s to the reference
interpreter (see ``docs/performance.md`` for the exactness argument); it
can be disabled per machine (``Machine(fastpath=False)``, what the
differential oracles compare against) or per process
(``$REPRO_NO_FASTPATH=1``; a command's ``--no-fastpath`` sets it while the
command runs).
"""

from repro.perf.accum import NeumaierSum, neumaier_sum

__all__ = ["NeumaierSum", "neumaier_sum"]
