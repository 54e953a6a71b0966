"""Command-line interface: the reproduction as a usable tool.

::

    python -m repro list
    python -m repro run adpcm --mode 2
    python -m repro params mpeg
    python -m repro profile gsm -o gsm-profile.json
    python -m repro optimize gsm --deadline-frac 0.5 \\
        --profile gsm-profile.json -o gsm-schedule.json --compare
    python -m repro bound epic --levels 7 --deadline-frac 0.5
    python -m repro verify gsm --deadline-frac 0.5
    python -m repro fuzz --runs 50 --seed 0
    python -m repro sweep --workloads adpcm,epic,gsm,mpeg --jobs 4
    python -m repro sweep --workloads adpcm --resume --solver-budget 5
    python -m repro sweep --workloads adpcm --trace
    python -m repro taskgraph sweep --shapes fork-join --cores 1,2,4
    python -m repro taskgraph verify
    python -m repro fuzz --runs 0 --taskgraph-runs 10
    python -m repro bench taskgraph
    python -m repro bench summary
    python -m repro stats sweep-results
    python -m repro trace summarize sweep-results
    python -m repro cache verify
    python -m repro chaos --workloads adpcm --corrupt 2
    python -m repro chaos --serve
    python -m repro chaos --campaign --seeds 3
    python -m repro serve --port 8787 --jobs 4
    python -m repro serve --port 8787 --store-dir jobs --resume
    python -m repro loadtest --requests 500 --concurrency 64

``--trace`` (or ``$REPRO_TRACE=1``) makes a sweep collect spans and
metrics through :mod:`repro.observe` and write ``trace.jsonl`` +
``metrics.json`` next to the manifest; ``repro trace show|summarize``
and ``repro stats`` render them.  ``--log-level`` (or ``$REPRO_LOG``)
controls diagnostic logging; ``repro --version`` prints the package
version.

Exit codes follow :mod:`repro.resilience`: 0 ok, 1 failure (including a
schedule that fails verification), 2 usage/unreadable input, 3 degraded
(the run completed but absorbed faults: failed tasks, fallback solver
tiers, quarantined cache entries), 130 interrupted after a clean drain.
The new verbs keep the same ladder: ``serve`` drains gracefully and
exits 0 on SIGTERM / 130 on SIGINT; ``loadtest`` exits 1 when any
request errored after client retries or a spawned server failed to
drain cleanly; ``chaos --serve`` exits 3 when the kill was absorbed and
1 on any violated invariant; ``chaos --campaign`` exits 3 when its
seeded fault matrix injected faults that were all absorbed (the
expected outcome), 1 on any invariant violation, and 0 only if nothing
fired (a suspiciously quiet campaign).  Every error is one line on
stderr, never a traceback.

``--deadline-frac f`` places the deadline a fraction ``f`` of the way
from the all-fast to the all-slow runtime (0 = flat out, 1 = everything
at the slowest mode).

``verify`` runs the full independent-verification battery (solution
certificate, schedule check, differential and metamorphic oracles) over
one workload; ``fuzz`` runs it over seeded random programs.  Both exit
non-zero on any oracle failure, as does ``optimize`` when its verified
run misses the deadline or diverges from the predicted energy.

``sweep`` drives whole experiment grids (suite x deadline fraction x
mode-table level count) through :mod:`repro.runtime`: a process pool
executes independent grid points concurrently and every expensive
artifact is memoized in the content-addressed store.  ``profile`` and
``optimize`` consult the same store when one is configured (via
``--cache-dir`` or ``$REPRO_CACHE_DIR``), so a profile captured by a
sweep is reused by a later interactive ``optimize`` and vice versa.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro import observe
from repro.core import DVSOptimizer
from repro.core.analytical import savings_ratio_discrete
from repro.errors import ReproError
from repro.profiling import extract_params
from repro.profiling.serialize import (
    load_profile,
    profile_from_dict,
    profile_to_dict,
    save_profile,
    save_schedule,
)
from repro.resilience import (
    EXIT_DEGRADED,
    EXIT_FAILURE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_USAGE,
)
from repro.runtime import hashing
from repro.runtime.cache import ArtifactStore, CACHE_DIR_ENV, DEFAULT_CACHE_DIR
from repro.simulator import Machine, SCALE_CONFIG, TransitionCostModel, XSCALE_3
from repro.simulator.dvs import make_mode_table
from repro.verify import tolerances
from repro.workloads import all_workloads, compile_workload, get_workload


def _machine(levels: int | None, capacitance_uf: float,
             fastpath: bool = True) -> Machine:
    table = XSCALE_3 if levels is None else make_mode_table(levels)
    return Machine(SCALE_CONFIG, table,
                   TransitionCostModel(capacitance_f=capacitance_uf * 1e-6),
                   fastpath=fastpath)


def _workload_context(name: str, category: str | None, seed: int):
    spec = get_workload(name)
    cfg = compile_workload(name)
    inputs = spec.inputs(category=category, seed=seed)
    return spec, cfg, inputs, spec.registers()


def _store_from_args(args) -> ArtifactStore | None:
    """The artifact store a command should use, or None.

    Caching engages when ``--cache-dir`` is given or ``$REPRO_CACHE_DIR``
    is set; ``--no-cache`` always wins.  Commands that cache share keys
    with :mod:`repro.runtime`, so the CLI and sweeps reuse each other's
    artifacts.
    """
    if getattr(args, "no_cache", False):
        return None
    root = getattr(args, "cache_dir", None) or os.environ.get(CACHE_DIR_ENV)
    return ArtifactStore(root) if root else None


def _cached_profile(store, optimizer, spec, cfg, category, seed, inputs, registers):
    """Profile via the artifact store when one is configured."""
    key = None
    if store is not None:
        key = hashing.profile_key(spec.source, category, seed, optimizer.machine)
        payload = store.get(key)
        if payload is not None:
            return profile_from_dict(payload["profile"]), "cache hit"
    profile = optimizer.profile(cfg, inputs=inputs, registers=registers)
    if store is not None:
        store.put(key, {"profile": profile_to_dict(profile)})
        return profile, "profiled, cached"
    return profile, "profiled"


def cmd_list(_args) -> int:
    print(f"{'workload':<14s} {'categories':<18s} description")
    for spec in all_workloads():
        print(f"{spec.name:<14s} {','.join(spec.categories):<18s} {spec.description}")
    return 0


def cmd_run(args) -> int:
    spec, cfg, inputs, registers = _workload_context(args.workload, args.category, args.seed)
    machine = _machine(args.levels, args.capacitance_uf,
                       not getattr(args, "no_fastpath", False))
    mode = args.mode if args.mode is not None else len(machine.mode_table) - 1
    result = machine.run(cfg, inputs=inputs, registers=registers, mode=mode)
    point = machine.mode_table[mode]
    print(f"{args.workload} @ {point}: "
          f"{result.wall_time_s * 1e3:.3f} ms, "
          f"{result.cpu_energy_nj / 1e3:.1f} uJ cpu "
          f"(+{result.memory_energy_nj / 1e3:.1f} uJ dram), "
          f"{result.instructions} instructions, "
          f"{result.mem_misses} memory misses, "
          f"result={result.return_value}")
    return 0


def cmd_params(args) -> int:
    spec, cfg, inputs, registers = _workload_context(args.workload, args.category, args.seed)
    machine = _machine(args.levels, args.capacitance_uf,
                       not getattr(args, "no_fastpath", False))
    params = extract_params(machine, cfg, inputs=inputs, registers=registers)
    print(f"{args.workload} analytical parameters (Section 3.2):")
    print(f"  N_overlap    {params.n_overlap / 1e3:12.1f} Kcycles")
    print(f"  N_dependent  {params.n_dependent / 1e3:12.1f} Kcycles")
    print(f"  N_cache      {params.n_cache / 1e3:12.1f} Kcycles")
    print(f"  t_invariant  {params.t_invariant_s * 1e6:12.1f} us")
    print(f"  f_invariant  {params.f_invariant() / 1e6:12.1f} MHz")
    return 0


def cmd_profile(args) -> int:
    spec, cfg, inputs, registers = _workload_context(args.workload, args.category, args.seed)
    machine = _machine(args.levels, args.capacitance_uf,
                       not getattr(args, "no_fastpath", False))
    optimizer = DVSOptimizer(machine)
    category = args.category or spec.categories[0]
    store = _store_from_args(args)
    profile, how = _cached_profile(
        store, optimizer, spec, cfg, category, args.seed, inputs, registers
    )
    if store is not None:
        print(f"profile for {args.workload} ({how})")
    for mode in sorted(profile.wall_time_s):
        print(f"  mode {mode} ({machine.mode_table[mode]}): "
              f"{profile.wall_time_s[mode] * 1e3:.3f} ms, "
              f"{profile.cpu_energy_nj[mode] / 1e3:.1f} uJ")
    if args.output:
        save_profile(profile, args.output)
        print(f"profile written to {args.output}")
    return 0


def _resolve_deadline(profile, frac: float) -> float:
    # Delegates to the profile, which rejects single-mode profiles (a
    # degenerate fast->slow range would silently yield zero slack).
    return profile.deadline_at(frac)


def cmd_optimize(args) -> int:
    spec, cfg, inputs, registers = _workload_context(args.workload, args.category, args.seed)
    machine = _machine(args.levels, args.capacitance_uf,
                       not getattr(args, "no_fastpath", False))
    optimizer = DVSOptimizer(machine)
    category = args.category or spec.categories[0]
    store = _store_from_args(args)
    if args.profile:
        profile = load_profile(args.profile)
    else:
        profile, _ = _cached_profile(
            store, optimizer, spec, cfg, category, args.seed, inputs, registers
        )
    deadline = _resolve_deadline(profile, args.deadline_frac)

    # The schedule artifact round-trips through the same store keys a
    # sweep uses, so `repro sweep` and `repro optimize` reuse each
    # other's MILP solves.  Certificates only exist on fresh solves; a
    # cached schedule is still verified by re-simulation below.
    sched_key = (
        hashing.schedule_key(spec.source, category, args.seed, machine,
                             args.deadline_frac)
        if store is not None and not args.profile
        else None
    )
    cached = store.get(sched_key) if sched_key is not None else None
    degraded = False
    if cached is not None:
        from repro.profiling.serialize import schedule_from_dict

        schedule = schedule_from_dict(cached["schedule"])
        predicted_energy_nj = cached["predicted_energy_nj"]
        certificate = None
        print("  (schedule from artifact cache)")
    else:
        outcome = optimizer.optimize(cfg, deadline, profile=profile,
                                     budget_s=args.solver_budget)
        schedule = outcome.schedule
        predicted_energy_nj = outcome.predicted_energy_nj
        certificate = outcome.certificate
        degraded = not outcome.solution.ok
        if degraded or args.solver_budget is not None:
            gap = outcome.optimality_gap
            gap_text = f"{gap:.1%}" if gap is not None else "unknown"
            print(f"  solver tier {outcome.fallback_tier}, "
                  f"optimality gap {gap_text}, "
                  f"solved in {outcome.solve_time_s:.3f}s"
                  + (" [degraded]" if degraded else ""))
        # Only proven-optimal solves are memoized: a budget-starved
        # fallback must not poison the cache for future exact runs.
        if sched_key is not None and not degraded:
            from repro.profiling.serialize import schedule_to_dict

            store.put(sched_key, {
                "schedule": schedule_to_dict(schedule),
                "deadline_s": deadline,
                "predicted_energy_nj": outcome.predicted_energy_nj,
                "predicted_time_s": outcome.predicted_time_s,
                "solver": {
                    "status": outcome.solution.status.value,
                    "solve_time_s": outcome.solve_time_s,
                    "num_independent_edges": outcome.num_independent_edges,
                    "num_assignments": len(schedule.assignment),
                },
            })
    run = optimizer.verify(cfg, schedule, inputs=inputs, registers=registers)
    mode, baseline = optimizer.best_single_mode(profile, deadline)
    print(f"deadline {deadline * 1e3:.3f} ms "
          f"(fraction {args.deadline_frac:.2f} of the fast->slow range)")
    print(f"  MILP edge schedule : {run.cpu_energy_nj / 1e3:9.1f} uJ in "
          f"{run.wall_time_s * 1e3:.3f} ms, {run.mode_transitions} transitions "
          f"({1 - run.cpu_energy_nj / baseline:+.1%} vs single mode {mode})")
    # Verification gates the exit code: a deadline miss or a prediction
    # mismatch is a pipeline failure, not a log line.
    status = 0
    if run.wall_time_s > deadline * (1 + tolerances.DEADLINE_REL_SLACK):
        print(f"error: verified run missed the deadline "
              f"({run.wall_time_s * 1e3:.3f} ms > {deadline * 1e3:.3f} ms)",
              file=sys.stderr)
        status = 1
    energy_err = (abs(run.cpu_energy_nj - predicted_energy_nj)
                  / max(1.0, predicted_energy_nj))
    if energy_err > tolerances.ENERGY_PREDICTION_REL_TOL:
        print(f"error: simulated energy diverged from the MILP prediction "
              f"(rel err {energy_err:.2e} > "
              f"{tolerances.ENERGY_PREDICTION_REL_TOL:.0e})", file=sys.stderr)
        status = 1
    if certificate is not None and not certificate.ok:
        print(f"error: {certificate.summary}", file=sys.stderr)
        status = 1
    if args.compare:
        from repro.core.baselines import build_block_formulation, greedy_schedule

        greedy = greedy_schedule(
            profile, machine.mode_table, deadline,
            transition_model=machine.transition_model,
        )
        greedy_run = optimizer.verify(
            cfg, greedy.schedule, inputs=inputs, registers=registers
        )
        print(f"  greedy heuristic   : {greedy_run.cpu_energy_nj / 1e3:9.1f} uJ in "
              f"{greedy_run.wall_time_s * 1e3:.3f} ms")
        block_form = build_block_formulation(
            profile, machine.mode_table, deadline,
            transition_model=machine.transition_model, include_transitions=True,
        )
        block = block_form.extract_schedule(block_form.solve(), profile)
        block_run = optimizer.verify(cfg, block, inputs=inputs, registers=registers)
        print(f"  block-grain MILP   : {block_run.cpu_energy_nj / 1e3:9.1f} uJ in "
              f"{block_run.wall_time_s * 1e3:.3f} ms")
        print(f"  best single mode   : {baseline / 1e3:9.1f} uJ")
    if args.output:
        save_schedule(schedule, args.output)
        print(f"schedule written to {args.output}")
    if status == 0 and degraded:
        return EXIT_DEGRADED  # verified, but not a proven optimum
    return status


def cmd_bound(args) -> int:
    spec, cfg, inputs, registers = _workload_context(args.workload, args.category, args.seed)
    machine = _machine(args.levels, args.capacitance_uf,
                       not getattr(args, "no_fastpath", False))
    optimizer = DVSOptimizer(machine)
    profile = optimizer.profile(cfg, inputs=inputs, registers=registers)
    deadline = _resolve_deadline(profile, args.deadline_frac)
    bound = savings_ratio_discrete(profile.params, deadline, machine.mode_table)
    print(f"{args.workload}: analytical savings bound at deadline "
          f"{deadline * 1e3:.3f} ms with {len(machine.mode_table)} levels: {bound:.1%}")
    return 0


def cmd_verify(args) -> int:
    from repro.verify.fuzz import verify_program

    spec, cfg, inputs, registers = _workload_context(args.workload, args.category, args.seed)
    machine = _machine(args.levels, args.capacitance_uf,
                       not getattr(args, "no_fastpath", False))
    results = verify_program(
        spec.source,
        inputs,
        machine=machine,
        registers=registers,
        deadline_fracs=tuple(args.deadline_frac),
        check_backends=not args.no_backends,
        check_metamorphic=not args.no_metamorphic,
    )
    failures = [r for r in results if not r.ok]
    for result in results:
        print(f"  {result}")
    print(f"{args.workload}: {len(results)} checks, {len(failures)} failures")
    return 1 if failures else 0


def cmd_fuzz(args) -> int:
    from repro.verify.fuzz import fuzz, fuzz_lps

    exit_code = 0
    if args.lp_runs:
        def lp_progress(done: int, total: int, failures: int) -> None:
            if done % 50 == 0 or done == total or failures:
                print(f"  {done}/{total} LP instances, {failures} "
                      f"disagreements", flush=True)

        lp_report = fuzz_lps(runs=args.lp_runs, seed=args.seed,
                             on_progress=lp_progress)
        print(lp_report.summary)
        for failure in lp_report.failures:
            print(f"\n{failure}", file=sys.stderr)
        if not lp_report.ok:
            exit_code = 1

    if args.continuous_runs:
        from repro.verify.fuzz import fuzz_continuous

        def cont_progress(done: int, total: int, failures: int) -> None:
            if done % 10 == 0 or done == total or failures:
                print(f"  {done}/{total} continuous programs, {failures} "
                      f"violations", flush=True)

        cont_report = fuzz_continuous(runs=args.continuous_runs,
                                      seed=args.seed,
                                      on_progress=cont_progress)
        print(cont_report.summary)
        for failure in cont_report.failures:
            print(f"\n{failure}", file=sys.stderr)
        if not cont_report.ok:
            exit_code = 1

    if args.taskgraph_runs:
        from repro.taskgraph.oracles import fuzz_taskgraph

        tg_report = fuzz_taskgraph(args.taskgraph_runs, seed=args.seed)
        print(f"taskgraph fuzz: {tg_report['runs']} seeded instances, "
              f"0 oracle violations")

    if args.runs <= 0:
        return exit_code

    machine = _machine(args.levels, args.capacitance_uf,
                       not getattr(args, "no_fastpath", False))

    def progress(done: int, total: int, failures: int) -> None:
        if done % 10 == 0 or done == total or failures:
            print(f"  {done}/{total} programs, {failures} failures", flush=True)

    report = fuzz(
        runs=args.runs,
        seed=args.seed,
        machine=machine,
        check_backends=not args.no_backends,
        check_metamorphic=not args.no_metamorphic,
        stop_on_failure=not args.keep_going,
        on_progress=progress,
    )
    print(report.summary)
    for failure in report.failures:
        print(f"\n{failure}", file=sys.stderr)
    return exit_code or (0 if report.ok else 1)


def _parse_levels(text: str) -> tuple[int | None, ...]:
    """``"xscale"`` or comma-joined level counts (``"xscale,7,13"``)."""
    out: list[int | None] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part in ("xscale", "xscale-3"):
            out.append(None)
        else:
            try:
                out.append(int(part))
            except ValueError:
                raise ReproError(
                    f"bad --levels entry {part!r} (want 'xscale' or an integer)"
                ) from None
    if not out:
        raise ReproError("--levels selected no mode tables")
    return tuple(out)


def _fault_alias(args):
    """Install the fault plan ``--inject-fault PATTERN[@N]`` stands for.

    A bare PATTERN crashes every attempt the executor will make
    (``--retries`` + 1); ``@N`` crashes the first N.
    """
    from repro.resilience import faultplane

    plan = None
    if args.inject_fault:
        plan = faultplane.FaultPlan.for_tasks(args.inject_fault,
                                              attempts=args.retries + 1)
    return faultplane.installed(plan)


def _run_sweep(args, config, **kwargs):
    """``run_sweep`` for ``sweep``/``taskgraph sweep``: per-task progress
    lines, under the ``--inject-fault`` plan."""
    from repro.runtime.sweep import run_sweep

    def progress(result) -> None:
        if args.quiet:
            return
        mark = {"ok": " ", "failed": "!", "skipped": "-"}[result.status]
        cache = f" [{result.cache}]" if result.cache != "off" else ""
        retries = f" (attempt {result.attempts})" if result.attempts > 1 else ""
        print(f"  {mark} {result.task_id}{cache}{retries}"
              + (f": {result.error}" if result.error else ""),
              flush=True)

    with _fault_alias(args):
        return run_sweep(config, on_task=progress, **kwargs)


def _sweep_exit(report) -> int:
    """Print a sweep's degraded tasks and output paths; its exit code."""
    for task_id in report.degraded_tasks:
        print(f"  {task_id:<44s} DEGRADED: fallback tier schedule "
              f"(verified, not proven optimal)", file=sys.stderr)
    print(f"manifest: {report.manifest_path}")
    if report.results_path is not None:
        print(f"results : {report.results_path}")
    if report.trace_path is not None:
        print(f"trace   : {report.trace_path}")
        print(f"metrics : {report.metrics_path}")

    if report.interrupted:
        print(f"interrupted: {len(report.results)}/{len(report.graph.tasks)} "
              f"tasks journaled; rerun with --resume to finish",
              file=sys.stderr)
        return EXIT_INTERRUPTED
    if report.verify_failures:
        # The one unforgivable outcome: an emitted schedule that failed
        # its independent verification.
        return EXIT_FAILURE
    degraded = (
        [r for r in report.experiment_records if r["status"] == "failed"]
        or report.degraded_tasks
        or report.cache_stats.get("quarantined", 0)
    )
    return EXIT_DEGRADED if degraded else EXIT_OK


def cmd_sweep(args) -> int:
    from repro.runtime.sweep import SweepConfig

    workloads = tuple(w.strip() for w in args.workloads.split(",") if w.strip())
    fracs = tuple(float(f) for f in args.deadline_fracs.split(","))
    cache_dir = None if args.no_cache else (
        args.cache_dir or os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
    )
    config = SweepConfig(
        workloads=workloads,
        deadline_fracs=fracs,
        levels=_parse_levels(args.levels),
        seed=args.seed,
        capacitance_uf=args.capacitance_uf,
        jobs=args.jobs,
        task_timeout_s=args.timeout if args.timeout > 0 else None,
        retries=args.retries,
        cache_dir=cache_dir,
        output_dir=args.output_dir,
        solver_budget_s=args.solver_budget,
        solver_backend=args.solver_backend,
        continuous_prune=args.continuous_prune,
        resume=args.resume,
        trace=args.trace,
        fastpath=not args.no_fastpath,
    )

    report = _run_sweep(args, config)

    records = report.experiment_records
    ok = [r for r in records if r["status"] == "ok"]
    print(f"\nsweep: {len(ok)}/{len(records)} experiments ok, "
          f"{len(report.results)} tasks in {report.wall_time_s:.2f}s "
          f"(jobs={config.jobs})")
    if report.resumed_tasks:
        print(f"resume: {report.resumed_tasks} tasks replayed from the journal")
    if report.cache_stats:
        stats = report.cache_stats
        quarantined = (f", {stats['quarantined']} quarantined"
                       if stats.get("quarantined") else "")
        print(f"cache: {stats['hits']} hits, {stats['misses']} misses"
              f"{quarantined} ({cache_dir})")
    for record in ok:
        savings = record["savings_vs_single_mode"]
        bound = record["savings_bound"]
        savings_text = f"{savings:+.1%}" if savings is not None else "n/a"
        bound_text = f" (bound {bound:.1%})" if bound is not None else ""
        print(f"  {record['experiment']:<44s} savings {savings_text}{bound_text}")
    for record in report.failures:
        failed = ", ".join(sorted(record.get("failures", {"verify": None})))
        print(f"  {record['experiment']:<44s} {record['status'].upper()}: {failed}",
              file=sys.stderr)
    return _sweep_exit(report)


def cmd_taskgraph(args) -> int:
    if args.tg_command == "verify":
        return _cmd_taskgraph_verify(args)
    return _cmd_taskgraph_sweep(args)


def _cmd_taskgraph_verify(args) -> int:
    from repro.taskgraph.oracles import run_oracle_suite

    suite = run_oracle_suite(budget_s=args.solver_budget,
                             backend=args.solver_backend)
    for check in suite["checks"]:
        if check["check"] == "instance":
            print(f"  ok {check['instance']:<28s} {check['method']:<6s} "
                  f"{check['energy_nj']:>14.1f} nJ "
                  f"(greedy {check['greedy_energy_nj']:.1f})")
        else:
            print(f"  ok {check['instance']:<28s} {check['check']}")
    print(f"taskgraph verify: {len(suite['checks'])} checks passed")
    return EXIT_OK


def _cmd_taskgraph_sweep(args) -> int:
    from repro.runtime.sweep import SweepConfig
    from repro.taskgraph.pipeline import build_tg_grid

    shapes = tuple(s.strip() for s in args.shapes.split(",") if s.strip())
    cores = tuple(int(c) for c in args.cores.split(",") if c.strip())
    fracs = tuple(float(f) for f in args.deadline_fracs.split(","))
    levels = _parse_levels(args.levels)
    grid = build_tg_grid(shapes=shapes, tasks=args.tasks, cores=cores,
                         deadline_fracs=fracs, seed=args.seed,
                         levels=levels,
                         capacitance_uf=args.capacitance_uf)
    cache_dir = None if args.no_cache else (
        args.cache_dir or os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
    )
    config = SweepConfig(
        workloads=(),
        deadline_fracs=fracs,
        levels=levels,
        seed=args.seed,
        capacitance_uf=args.capacitance_uf,
        jobs=args.jobs,
        task_timeout_s=args.timeout if args.timeout > 0 else None,
        retries=args.retries,
        cache_dir=cache_dir,
        output_dir=args.output_dir,
        solver_budget_s=args.solver_budget,
        solver_backend=args.solver_backend,
        resume=args.resume,
        trace=args.trace,
    )

    report = _run_sweep(args, config, experiments=grid, run_info_extra={
        "family": "taskgraph",
        "shapes": list(shapes),
        "graph_tasks": args.tasks,
        "cores": list(cores),
    })

    records = report.experiment_records
    ok = [r for r in records if r["status"] == "ok"]
    print(f"\ntaskgraph sweep: {len(ok)}/{len(records)} experiments ok, "
          f"{len(report.results)} tasks in {report.wall_time_s:.2f}s "
          f"(jobs={config.jobs})")
    if report.resumed_tasks:
        print(f"resume: {report.resumed_tasks} tasks replayed from the journal")
    if report.cache_stats:
        stats = report.cache_stats
        print(f"cache: {stats['hits']} hits, {stats['misses']} misses "
              f"({cache_dir})")
    for record in ok:
        savings = record["savings_vs_greedy"]
        savings_text = f"{savings:+.1%}" if savings is not None else "n/a"
        print(f"  {record['experiment']:<44s} vs greedy {savings_text} "
              f"({record['mode_switches']} switches)")
    for record in report.failures:
        failed = ", ".join(sorted(record.get("failures", {"tg-verify": None})))
        print(f"  {record['experiment']:<44s} {record['status'].upper()}: "
              f"{failed}", file=sys.stderr)
    return _sweep_exit(report)


def cmd_trace(args) -> int:
    from repro.observe import render

    path = Path(args.dir) / observe.TRACE_NAME
    try:
        _header, spans = observe.read_trace(path)
    except ValueError as error:
        raise ReproError(str(error)) from None
    if args.trace_command == "summarize":
        print(render.render_trace_summary(spans))
    else:
        print(render.render_trace_tree(spans, max_spans=args.limit))
    return EXIT_OK


def cmd_stats(args) -> int:
    from repro.observe import render

    path = Path(args.dir) / observe.METRICS_NAME
    try:
        metrics = observe.read_metrics(path)
    except ValueError as error:
        raise ReproError(str(error)) from None
    if args.json:
        print(json.dumps(metrics, indent=2, sort_keys=True))
    else:
        print(render.render_stats(metrics))
    return EXIT_OK


def cmd_cache(args) -> int:
    from repro.runtime.cache import verify_store

    root = args.cache_dir or os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
    store = ArtifactStore(root)
    if args.cache_command == "clear":
        removed = store.clear()
        print(f"removed {removed} artifacts from {store.root}")
        return EXIT_OK
    audit = verify_store(store, quarantine=not args.no_quarantine)
    print(audit.summary)
    for key, problem in audit.problems:
        print(f"  {key[:16]}...: {problem}", file=sys.stderr)
    return EXIT_OK if audit.ok else EXIT_DEGRADED


def cmd_chaos(args) -> int:
    from repro.resilience import campaign

    workloads = tuple(w.strip() for w in args.workloads.split(",") if w.strip())
    fracs = tuple(float(f) for f in args.deadline_fracs.split(","))

    def progress(message: str) -> None:
        if not args.quiet:
            print(f"  {message}", flush=True)

    def task_progress(result) -> None:
        mark = {"ok": " ", "failed": "!", "skipped": "-"}[result.status]
        progress(f"{mark} {result.task_id} [{result.cache}]")

    if args.campaign:
        report = campaign.run_campaign(campaign.CampaignConfig(
            seeds=args.seeds,
            workload=workloads[0],
            traffic_fracs=fracs if len(fracs) >= 2 else (fracs[0], 0.5),
            output_dir=args.output_dir,
        ), on_progress=progress)
    elif args.serve:
        report = campaign.run_serve_scenario(
            workload=workloads[0], deadline_frac=fracs[0], seed=args.seed,
            jobs=args.jobs, output_dir=args.output_dir,
            on_progress=progress)
    else:
        report = campaign.run_sweep_scenario(
            workloads=workloads, deadline_fracs=fracs, seed=args.seed,
            output_dir=args.output_dir, jobs=args.jobs,
            solver_budget_s=args.solver_budget, corrupt=args.corrupt,
            inject_fault=args.inject_fault or None,
            chaos_seed=args.chaos_seed, on_task=task_progress)
    path = campaign.write_report(
        report, os.path.join(args.output_dir, "campaign.json"))
    print(report.summary)
    for violation in report.violations:
        print(f"  VIOLATION: {violation}", file=sys.stderr)
    print(f"report written to {path}")
    return report.exit_code


def cmd_serve(args) -> int:
    from repro.serve.server import ServeConfig, run_server

    weights = {}
    for spec in args.tenant_weight or []:
        name, _, value = spec.partition("=")
        try:
            weights[name] = float(value)
        except ValueError:
            raise ReproError(
                f"--tenant-weight wants NAME=WEIGHT, got {spec!r}") from None
    cache_dir = None
    if not args.no_cache:
        cache_dir = (args.cache_dir or os.environ.get(CACHE_DIR_ENV)
                     or DEFAULT_CACHE_DIR)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        runs=args.runs,
        max_queue=args.max_queue,
        max_grid=args.max_grid,
        cache_dir=cache_dir,
        task_timeout_s=args.timeout or None,
        retries=args.retries,
        solver_backend=args.solver_backend,
        tenant_weights=weights,
        store_dir=args.store_dir,
        resume=args.resume,
    )
    with _fault_alias(args):
        return run_server(config)


def cmd_loadtest(args) -> int:
    from repro.perf.harness import write_document
    from repro.perf.loadtest import LoadtestConfig, render_loadtest, run_loadtest

    config = LoadtestConfig(
        base_url=args.url,
        spawn_args=args.spawn_args,
        requests=args.requests,
        concurrency=args.concurrency,
        duplicate_ratio=args.duplicate_ratio,
        seed=args.seed,
        workloads=tuple(w.strip() for w in args.workloads.split(",")
                        if w.strip()),
        deadline_fracs=tuple(float(f)
                             for f in args.deadline_fracs.split(",")),
        tenants=args.tenants,
        timeout_s=args.timeout,
        cold_runs=args.cold_runs,
        cache_dir=args.cache_dir,
        max_attempts=args.max_attempts,
    )
    document = run_loadtest(config)
    print(render_loadtest(document))
    path = write_document(document, args.output or "BENCH_serve.json")
    print(f"written to {path}")
    if document["requests"]["errors"]:
        return EXIT_FAILURE
    if document.get("drain", {}).get("exit_code", 0) != 0:
        print(f"loadtest: spawned server exited "
              f"{document['drain']['exit_code']} on SIGTERM",
              file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_bench(args) -> int:
    from repro.perf.harness import run_kind

    return run_kind(args.kind, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compile-time DVS reproduction (Xie/Martonosi/Malik, PLDI'03)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {observe.repro_version()}")
    parser.add_argument("--log-level", default=None,
                        choices=("debug", "info", "warning", "error", "critical"),
                        help="diagnostic log level (default: $REPRO_LOG or warning)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("workload", help="workload name (see `repro list`)")
        p.add_argument("--category", default=None, help="input category")
        p.add_argument("--seed", type=int, default=0, help="input seed")
        p.add_argument("--levels", type=int, default=None,
                       help="use an n-level alpha-power table instead of XScale-3")
        p.add_argument("--no-fastpath", action="store_true",
                       help="force the reference interpreter (the accelerated "
                            "path is bit-exact; this exists for A/B checks)")
        p.add_argument("--capacitance-uf", type=float, default=10.0,
                       help="regulator capacitance in uF (default 10)")

    sub.add_parser("list", help="list available workloads").set_defaults(fn=cmd_list)

    p_run = sub.add_parser("run", help="simulate a workload at a fixed mode")
    add_common(p_run)
    p_run.add_argument("--mode", type=int, default=None, help="mode index (default fastest)")
    p_run.set_defaults(fn=cmd_run)

    p_params = sub.add_parser("params", help="extract Section 3.2 program parameters")
    add_common(p_params)
    p_params.set_defaults(fn=cmd_params)

    def add_cache(p):
        p.add_argument("--cache-dir", default=None,
                       help="artifact-store directory (default: $REPRO_CACHE_DIR; "
                            "caching off when neither is set)")
        p.add_argument("--no-cache", action="store_true",
                       help="ignore the artifact store entirely")

    p_profile = sub.add_parser("profile", help="profile a workload at every mode")
    add_common(p_profile)
    add_cache(p_profile)
    p_profile.add_argument("-o", "--output", default=None, help="write profile JSON")
    p_profile.set_defaults(fn=cmd_profile)

    p_opt = sub.add_parser("optimize", help="MILP-optimize DVS mode placement")
    add_common(p_opt)
    add_cache(p_opt)
    p_opt.add_argument("--deadline-frac", type=float, default=0.5,
                       help="deadline position in the fast->slow range (default 0.5)")
    p_opt.add_argument("--profile", default=None, help="reuse a profile JSON")
    p_opt.add_argument("-o", "--output", default=None, help="write schedule JSON")
    p_opt.add_argument("--compare", action="store_true",
                       help="also run the greedy and block-grain baselines")
    p_opt.add_argument("--solver-budget", type=float, default=None,
                       metavar="SECONDS",
                       help="anytime solve: fall back through solver tiers "
                            "to always return a verified schedule within "
                            "this wall-clock budget (exit 3 when degraded)")
    p_opt.set_defaults(fn=cmd_optimize)

    p_bound = sub.add_parser("bound", help="analytical savings bound (Section 3)")
    add_common(p_bound)
    p_bound.add_argument("--deadline-frac", type=float, default=0.5)
    p_bound.set_defaults(fn=cmd_bound)

    p_verify = sub.add_parser(
        "verify", help="run the independent verification battery on a workload"
    )
    add_common(p_verify)
    p_verify.add_argument("--deadline-frac", type=float, nargs="+",
                          default=[0.35, 0.7],
                          help="deadline positions to verify at (default 0.35 0.7)")
    p_verify.add_argument("--no-backends", action="store_true",
                          help="skip the solver-differential oracle")
    p_verify.add_argument("--no-metamorphic", action="store_true",
                          help="skip the metamorphic battery")
    p_verify.set_defaults(fn=cmd_verify)

    p_fuzz = sub.add_parser(
        "fuzz", help="fuzz the full pipeline with seeded random programs"
    )
    p_fuzz.add_argument("--runs", type=int, default=50,
                        help="programs to generate (0 with --lp-runs to "
                             "fuzz only the LP core)")
    p_fuzz.add_argument("--lp-runs", type=int, default=0, metavar="N",
                        help="also differential-fuzz the native LP core "
                             "against HiGHS with N pathological instances")
    p_fuzz.add_argument("--continuous-runs", type=int, default=0,
                        metavar="N",
                        help="also fuzz the continuous engine against the "
                             "MILP: dominance chain, YDS invariants and "
                             "pruner injection invariance over N seeded "
                             "programs (default 0 = skip)")
    p_fuzz.add_argument("--taskgraph-runs", type=int, default=0, metavar="N",
                        help="also fuzz the taskgraph family with N seeded "
                             "(graph, cores, deadline) instances against "
                             "the differential oracles")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="base seed (program i uses seed+i)")
    p_fuzz.add_argument("--levels", type=int, default=None,
                        help="use an n-level alpha-power table instead of XScale-3")
    p_fuzz.add_argument("--capacitance-uf", type=float, default=10.0,
                        help="regulator capacitance in uF (default 10)")
    p_fuzz.add_argument("--no-backends", action="store_true",
                        help="skip the solver-differential oracle")
    p_fuzz.add_argument("--no-metamorphic", action="store_true",
                        help="skip the metamorphic battery")
    p_fuzz.add_argument("--keep-going", action="store_true",
                        help="collect all failures instead of stopping at the first")
    p_fuzz.set_defaults(fn=cmd_fuzz)

    p_sweep = sub.add_parser(
        "sweep",
        help="run an experiment grid in parallel with artifact caching",
    )
    p_sweep.add_argument("--workloads", default="adpcm,epic,gsm,mpeg,mpg123,ghostscript",
                         help="comma-joined workload names (default: the paper suite)")
    p_sweep.add_argument("--deadline-fracs", default="0.35,0.7",
                         help="comma-joined deadline fractions (default 0.35,0.7)")
    p_sweep.add_argument("--levels", default="xscale",
                         help="comma-joined mode tables: 'xscale' and/or level "
                              "counts, e.g. 'xscale,7,13' (default xscale)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes (default 1)")
    p_sweep.add_argument("--seed", type=int, default=0, help="input seed")
    p_sweep.add_argument("--capacitance-uf", type=float, default=10.0,
                         help="regulator capacitance in uF (default 10)")
    p_sweep.add_argument("--timeout", type=float, default=600.0,
                         help="per-task wall-clock budget in seconds "
                              "(default 600; 0 disables)")
    p_sweep.add_argument("--retries", type=int, default=1,
                         help="retry budget per task (default 1)")
    p_sweep.add_argument("--no-fastpath", action="store_true",
                         help="simulate on the reference interpreter only "
                              "(results.jsonl is byte-identical either way)")
    p_sweep.add_argument("--inject-fault", default=None, metavar="PATTERN[@N]",
                         help="crash task ids matching a glob (testing; "
                              "a worker.crash fault plan); @N crashes "
                              "only the first N attempts")
    p_sweep.add_argument("--cache-dir", default=None,
                         help="artifact-store directory (default: "
                              "$REPRO_CACHE_DIR or .repro-cache)")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="run without the artifact store")
    p_sweep.add_argument("--output-dir", default="sweep-results",
                         help="manifest/results directory (default sweep-results)")
    p_sweep.add_argument("--quiet", action="store_true",
                         help="suppress per-task progress lines")
    p_sweep.add_argument("--resume", action="store_true",
                         help="replay completed tasks from the output "
                              "directory's crash-safe journal")
    p_sweep.add_argument("--solver-budget", type=float, default=None,
                         metavar="SECONDS",
                         help="anytime wall-clock budget per optimize task "
                              "(falls back through solver tiers; exit 3 "
                              "when any solve degrades)")
    p_sweep.add_argument("--solver-backend", default="auto",
                         choices=("auto", "scipy", "native", "continuous"),
                         help="optimize backend (default auto; native "
                              "enables warm-started deadline chains; "
                              "continuous solves the exact relaxation and "
                              "rounds up — deterministic, never times out)")
    p_sweep.add_argument("--continuous-prune", action="store_true",
                         help="warm-start the native branch and bound with "
                              "the continuous round-up incumbent (pure "
                              "accelerator: results are byte-identical)")
    p_sweep.add_argument("--trace", action="store_true",
                         help="collect spans/metrics and write trace.jsonl "
                              "+ metrics.json next to the manifest "
                              "(also enabled by $REPRO_TRACE=1)")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_tg = sub.add_parser(
        "taskgraph",
        help="multi-core task-graph DVS: sweep (cores x deadlines x "
             "shapes) or verify (oracle battery)",
    )
    tg_sub = p_tg.add_subparsers(dest="tg_command", required=True)
    p_tg_sweep = tg_sub.add_parser(
        "sweep",
        help="run a taskgraph grid through the cached parallel runtime",
    )
    p_tg_sweep.add_argument("--shapes", default="fork-join",
                            help="comma-joined graph shapes: fork-join, "
                                 "layered, random, kernels (default "
                                 "fork-join)")
    p_tg_sweep.add_argument("--tasks", type=int, default=6,
                            help="tasks per generated graph (default 6)")
    p_tg_sweep.add_argument("--cores", default="1,2",
                            help="comma-joined core counts (default 1,2)")
    p_tg_sweep.add_argument("--deadline-fracs", default="0.35,0.7",
                            help="comma-joined deadline fractions "
                                 "(default 0.35,0.7)")
    p_tg_sweep.add_argument("--levels", default="xscale",
                            help="comma-joined mode tables (default xscale)")
    p_tg_sweep.add_argument("--seed", type=int, default=0,
                            help="graph/input seed (default 0)")
    p_tg_sweep.add_argument("--capacitance-uf", type=float, default=10.0,
                            help="regulator capacitance in uF (default 10)")
    p_tg_sweep.add_argument("--jobs", type=int, default=1,
                            help="worker processes (default 1)")
    p_tg_sweep.add_argument("--timeout", type=float, default=600.0,
                            help="per-task wall-clock budget in seconds "
                                 "(default 600; 0 disables)")
    p_tg_sweep.add_argument("--retries", type=int, default=1,
                            help="retry budget per task (default 1)")
    p_tg_sweep.add_argument("--inject-fault", default=None,
                            metavar="PATTERN[@N]",
                            help="kill task ids matching a glob (testing)")
    p_tg_sweep.add_argument("--cache-dir", default=None,
                            help="artifact-store directory (default: "
                                 "$REPRO_CACHE_DIR or .repro-cache)")
    p_tg_sweep.add_argument("--no-cache", action="store_true",
                            help="run without the artifact store")
    p_tg_sweep.add_argument("--output-dir", default="taskgraph-results",
                            help="manifest/results directory (default "
                                 "taskgraph-results)")
    p_tg_sweep.add_argument("--quiet", action="store_true",
                            help="suppress per-task progress lines")
    p_tg_sweep.add_argument("--resume", action="store_true",
                            help="replay completed tasks from the output "
                                 "directory's crash-safe journal")
    p_tg_sweep.add_argument("--solver-budget", type=float, default=None,
                            metavar="SECONDS",
                            help="anytime wall-clock budget per tg-solve "
                                 "task (falls back through MILP incumbent "
                                 "then greedy; exit 3 when degraded)")
    p_tg_sweep.add_argument("--solver-backend", default="auto",
                            choices=("auto", "scipy", "native"),
                            help="MILP backend for tg-solve tasks")
    p_tg_sweep.add_argument("--trace", action="store_true",
                            help="collect spans/metrics and write "
                                 "trace.jsonl + metrics.json")
    p_tg_sweep.set_defaults(fn=cmd_taskgraph)
    p_tg_verify = tg_sub.add_parser(
        "verify",
        help="run the taskgraph oracle battery (replay-exact, "
             "milp-vs-greedy, core/deadline monotonicity)",
    )
    p_tg_verify.add_argument("--solver-budget", type=float, default=None,
                             metavar="SECONDS",
                             help="optional per-solve time limit")
    p_tg_verify.add_argument("--solver-backend", default="auto",
                             choices=("auto", "scipy", "native"),
                             help="MILP backend (default auto)")
    p_tg_verify.set_defaults(fn=cmd_taskgraph)

    p_bench = sub.add_parser(
        "bench",
        help="run one bench, print its table, write BENCH_<kind>.json and "
             "exit 1 if any of its gates fails",
    )
    p_bench.add_argument("kind", nargs="?", default="simulator",
                         choices=("simulator", "solver", "continuous",
                                  "taskgraph", "summary"),
                         help="simulator: fast path vs reference "
                              "interpreter; solver: warm vs cold native "
                              "solves and HiGHS over the Fig. 17/18 "
                              "deadlines; continuous: opportunity gap and "
                              "pruner A/B; taskgraph: the taskgraph MILP "
                              "across core counts; summary: every "
                              "BENCH_*.json headline with deltas vs the "
                              "baselines (default simulator)")
    p_bench.add_argument("--suite", action="store_true",
                         help="simulator: also bench every suite workload: "
                              "fast vs reference, timing replay vs full "
                              "run, and the 3-mode profile")
    p_bench.add_argument("--repeats", type=int, default=1,
                         help="timing repeats per case, best-of (default 1)")
    p_bench.add_argument("--mode", type=int, default=2,
                         help="simulator: mode index to simulate at "
                              "(default 2)")
    p_bench.add_argument("--tg-tasks", type=int, default=7,
                         help="taskgraph: graph size (default 7)")
    p_bench.add_argument("--tg-cores", default="1,2,4",
                         help="taskgraph: comma-joined core counts "
                              "(default 1,2,4)")
    p_bench.add_argument("--bench-dir", default=".",
                         help="summary: directory holding BENCH_*.json "
                              "(default .)")
    p_bench.add_argument("--baseline-dir", default="benchmarks/results",
                         help="tracked baselines, for the summary's deltas "
                              "and the baseline gates; a missing baseline "
                              "fails those gates (default benchmarks/results)")
    p_bench.add_argument("--workloads", default="adpcm,gsm",
                         help="solver, continuous: comma-joined workloads "
                              "(default adpcm,gsm)")
    p_bench.add_argument("-o", "--output", default=None,
                         help="output JSON path (default BENCH_<kind>.json)")
    p_bench.set_defaults(fn=cmd_bench)

    p_trace = sub.add_parser(
        "trace", help="inspect a sweep's trace.jsonl"
    )
    p_trace.add_argument("trace_command", choices=("show", "summarize"),
                         help="show: span tree; summarize: per-name table")
    p_trace.add_argument("dir", nargs="?", default="sweep-results",
                         help="sweep output directory (default sweep-results)")
    p_trace.add_argument("--limit", type=int, default=200,
                         help="max spans for `show` (default 200; 0 = all)")
    p_trace.set_defaults(fn=cmd_trace)

    p_stats = sub.add_parser(
        "stats", help="render a sweep's metrics.json (solver pivots/nodes, "
                      "cache hit rates, executor timings)"
    )
    p_stats.add_argument("dir", nargs="?", default="sweep-results",
                         help="sweep output directory (default sweep-results)")
    p_stats.add_argument("--json", action="store_true",
                         help="emit the raw metrics document as JSON")
    p_stats.set_defaults(fn=cmd_stats)

    p_cache = sub.add_parser(
        "cache", help="audit or clear the content-addressed artifact store"
    )
    p_cache.add_argument("cache_command", choices=("verify", "clear"),
                         help="verify: audit every document, quarantining "
                              "corruption; clear: delete all artifacts")
    p_cache.add_argument("--cache-dir", default=None,
                         help="store directory (default: $REPRO_CACHE_DIR "
                              "or .repro-cache)")
    p_cache.add_argument("--no-quarantine", action="store_true",
                         help="report corruption without moving files")
    p_cache.set_defaults(fn=cmd_cache)

    p_chaos = sub.add_parser(
        "chaos",
        help="inject faults (corrupt cache, killed workers, starved "
             "solver) and assert the resilience invariants",
    )
    p_chaos.add_argument("--workloads", default="adpcm",
                         help="comma-joined workload names (default adpcm)")
    p_chaos.add_argument("--deadline-fracs", default="0.5",
                         help="comma-joined deadline fractions (default 0.5)")
    p_chaos.add_argument("--seed", type=int, default=0, help="input seed")
    p_chaos.add_argument("--jobs", type=int, default=2,
                         help="worker processes (default 2)")
    p_chaos.add_argument("--solver-budget", type=float, default=0.05,
                         metavar="SECONDS",
                         help="starvation-level anytime budget for the "
                              "chaos sweep (default 0.05)")
    p_chaos.add_argument("--corrupt", type=int, default=2,
                         help="cache entries to corrupt between the "
                              "baseline and chaos sweeps (default 2)")
    p_chaos.add_argument("--inject-fault", default="simulate:*@1",
                         metavar="PATTERN[@N]",
                         help="task glob the chaos sweep crashes "
                              "(default simulate:*@1; empty disables)")
    p_chaos.add_argument("--chaos-seed", type=int, default=0,
                         help="seed for the corruption RNG (default 0)")
    p_chaos.add_argument("--output-dir", default="chaos-results",
                         help="holds baseline/, chaos/ and cache/ "
                              "(default chaos-results)")
    p_chaos.add_argument("--quiet", action="store_true",
                         help="suppress per-task progress lines")
    p_chaos.add_argument("--serve", action="store_true",
                         help="serve-mode chaos: spawn repro serve, "
                              "SIGKILL its warm workers mid-request and "
                              "audit the invariants "
                              "(uses the first workload/deadline only)")
    p_chaos.add_argument("--campaign", action="store_true",
                         help="seeded fault-matrix campaign: spawn real "
                              "servers under exported fault plans, drive "
                              "traffic through the resilient client, "
                              "SIGKILL and --resume them, and write a "
                              "machine-readable campaign.json "
                              "(uses the first workload only)")
    p_chaos.add_argument("--seeds", type=int, default=3,
                         help="fault-plan seeds for --campaign (default 3)")
    p_chaos.set_defaults(fn=cmd_chaos)

    p_serve = sub.add_parser(
        "serve",
        help="run the optimization pipeline as a JSON-over-HTTP service "
             "(warm worker pool, request coalescing, fair queueing)",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8787,
                         help="TCP port (default 8787; 0 = ephemeral, "
                              "printed on the listening line)")
    p_serve.add_argument("--jobs", type=int, default=2,
                         help="warm worker processes (default 2)")
    p_serve.add_argument("--runs", type=int, default=2,
                         help="DAG runs in flight at once (default 2)")
    p_serve.add_argument("--max-queue", type=int, default=64,
                         help="admission bound; a full queue answers "
                              "429 (default 64)")
    p_serve.add_argument("--max-grid", type=int, default=64,
                         help="max experiments per request (default 64)")
    p_serve.add_argument("--cache-dir", default=None,
                         help="artifact-store directory (default: "
                              "$REPRO_CACHE_DIR or .repro-cache)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="serve without the artifact store")
    p_serve.add_argument("--timeout", type=float, default=600.0,
                         help="per-task wall-clock budget in seconds "
                              "(default 600; 0 disables)")
    p_serve.add_argument("--retries", type=int, default=1,
                         help="retry budget per task (default 1)")
    p_serve.add_argument("--solver-backend", default="auto",
                         choices=("auto", "scipy", "native"),
                         help="default MILP backend for requests that "
                              "do not choose one (default auto)")
    p_serve.add_argument("--tenant-weight", action="append", default=[],
                         metavar="NAME=WEIGHT",
                         help="fair-queueing weight override "
                              "(repeatable; default weight 1)")
    p_serve.add_argument("--inject-fault", default=None,
                         metavar="PATTERN[@N]",
                         help="kill matching executor tasks (testing)")
    p_serve.add_argument("--store-dir", default=None,
                         help="job-store directory; admissions and "
                              "completions are journaled there "
                              "(fsync'd) so a crashed server can be "
                              "restarted with --resume")
    p_serve.add_argument("--resume", action="store_true",
                         help="recover the job store in --store-dir: "
                              "replay finished jobs byte-identically "
                              "and re-admit interrupted/queued ones")
    p_serve.set_defaults(fn=cmd_serve)

    p_load = sub.add_parser(
        "loadtest",
        help="replay concurrent mixed traffic against repro serve and "
             "write BENCH_serve.json (latency percentiles, throughput, "
             "coalescing ratio, warm-pool speedup)",
    )
    p_load.add_argument("--url", default=None,
                        help="target server base url (default: spawn a "
                             "fresh `repro serve --port 0` and drain it "
                             "with SIGTERM afterwards)")
    p_load.add_argument("--spawn-args", default="",
                        help="extra `repro serve` flags when spawning "
                             "(quoted, e.g. '--jobs 4 --runs 2')")
    p_load.add_argument("--requests", type=int, default=200,
                        help="total submissions to fire (default 200)")
    p_load.add_argument("--concurrency", type=int, default=32,
                        help="in-flight request cap (default 32)")
    p_load.add_argument("--duplicate-ratio", type=float, default=0.75,
                        help="fraction of submissions repeating an "
                             "earlier one (default 0.75)")
    p_load.add_argument("--seed", type=int, default=0,
                        help="request-mix seed (default 0)")
    p_load.add_argument("--workloads", default="adpcm,gsm",
                        help="comma-joined workloads in the mix "
                             "(default adpcm,gsm)")
    p_load.add_argument("--deadline-fracs", default="0.35,0.7",
                        help="comma-joined deadline fractions in the "
                             "mix (default 0.35,0.7)")
    p_load.add_argument("--tenants", type=int, default=3,
                        help="distinct tenants in the mix (default 3)")
    p_load.add_argument("--timeout", type=float, default=120.0,
                        help="per-request client timeout (default 120)")
    p_load.add_argument("--cold-runs", type=int, default=2,
                        help="cold process-per-request baseline repeats "
                             "for the warm-speedup figure (default 2; "
                             "0 disables)")
    p_load.add_argument("--cache-dir", default=None,
                        help="cache directory for a spawned server "
                             "(default: the server's own default)")
    p_load.add_argument("--max-attempts", type=int, default=6,
                        help="client attempts per request before a 429/"
                             "503/transport error counts as failed "
                             "(default 6; 1 disables retries)")
    p_load.add_argument("-o", "--output", default=None,
                        help="output JSON path (default BENCH_serve.json)")
    p_load.set_defaults(fn=cmd_loadtest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    observe.configure_logging(args.log_level)
    try:
        return args.fn(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as error:
        # Missing/unreadable input or unwritable output: a usage problem
        # reported in one line, never a traceback.
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
