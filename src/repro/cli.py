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
run fails a check (deadline, predicted energy, program result).

``sweep`` drives whole experiment grids (suite x deadline fraction x
mode-table level count) through :mod:`repro.runtime`: a process pool
executes independent grid points concurrently and every expensive
artifact is memoized in the content-addressed store.  ``profile``,
``params``, ``bound`` and ``optimize`` are one-experiment sweeps: each
builds the task graph of its grid point and runs it inline (the first
three only its ``profile`` task), then prints from the task outputs.
They use the store when one is configured (``--cache-dir`` or
``$REPRO_CACHE_DIR``) under the sweep's keys and payloads, so a sweep
and a later ``optimize`` reuse each other's profiles, schedules and
runs.  ``optimize --profile FILE`` caches nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro import observe
from repro.errors import ReproError
from repro.resilience import (
    EXIT_DEGRADED,
    EXIT_FAILURE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_USAGE,
)
from repro.runtime.cache import ArtifactStore, CACHE_DIR_ENV, DEFAULT_CACHE_DIR


def _workload_context(name: str, category: str | None, seed: int):
    from repro.workloads import compile_workload, get_workload

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


def _experiment(args, deadline_frac: float = 0.5):
    """The command's grid point, as ``repro sweep`` would name it."""
    from repro.runtime.dag import ExperimentSpec, MachineSpec

    return ExperimentSpec(
        workload=args.workload, deadline_frac=deadline_frac,
        category=args.category, seed=args.seed,
        machine=MachineSpec(args.levels, args.capacitance_uf,
                            not args.no_fastpath))


def _pipeline(experiment, store: ArtifactStore | None,
              kinds: tuple[str, ...] | None = None,
              solver_budget_s: float | None = None,
              profile: dict | None = None) -> dict:
    """Run one experiment through the sweep's task graph, inline.

    ``kinds`` keeps only those tasks (all four by default); ``profile``
    is a profile task output to use instead of profiling.  Returns the
    :class:`~repro.runtime.executor.TaskResult` of each kind; a failed
    task raises its error.
    """
    from repro.runtime.dag import TaskGraph, build_task_graph
    from repro.runtime.executor import ExecutorConfig, run_graph

    graph = build_task_graph([experiment], solver_budget_s=solver_budget_s)
    if kinds is not None:
        graph = TaskGraph({tid: task for tid, task in graph.tasks.items()
                           if task.kind in kinds}, graph.experiments)
    completed = None if profile is None else {
        tid: profile for tid, task in graph.tasks.items()
        if task.kind == "profile"}
    results = run_graph(graph, store, ExecutorConfig(jobs=1, retries=0),
                        completed=completed)
    by_kind = {}
    for tid in graph.topo_order():
        result = by_kind[results[tid].kind] = results[tid]
        if result.status == "failed":
            if result.error_type == "KeyboardInterrupt":
                raise KeyboardInterrupt
            raise ReproError(result.error)
    return by_kind


def _profiled(args):
    """(profile, mode table, profile TaskResult) of the command's workload."""
    from repro.profiling.serialize import profile_from_dict

    experiment = _experiment(args)
    result = _pipeline(experiment, _store_from_args(args),
                       kinds=("profile",))["profile"]
    return (profile_from_dict(result.output["profile"]),
            experiment.machine.build().mode_table, result)


def cmd_list(_args) -> int:
    from repro.workloads import all_workloads

    print(f"{'workload':<14s} {'categories':<18s} description")
    for spec in all_workloads():
        print(f"{spec.name:<14s} {','.join(spec.categories):<18s} {spec.description}")
    return 0


def cmd_run(args) -> int:
    spec, cfg, inputs, registers = _workload_context(args.workload, args.category, args.seed)
    machine = _experiment(args).machine.build()
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
    params = _profiled(args)[0].params
    print(f"{args.workload} analytical parameters (Section 3.2):")
    print(f"  N_overlap    {params.n_overlap / 1e3:12.1f} Kcycles")
    print(f"  N_dependent  {params.n_dependent / 1e3:12.1f} Kcycles")
    print(f"  N_cache      {params.n_cache / 1e3:12.1f} Kcycles")
    print(f"  t_invariant  {params.t_invariant_s * 1e6:12.1f} us")
    print(f"  f_invariant  {params.f_invariant() / 1e6:12.1f} MHz")
    return 0


def cmd_profile(args) -> int:
    from repro.profiling.serialize import save_profile

    profile, mode_table, result = _profiled(args)
    if result.cache != "off":
        how = "cache hit" if result.cache == "hit" else "profiled, cached"
        print(f"profile for {args.workload} ({how})")
    for mode in sorted(profile.wall_time_s):
        print(f"  mode {mode} ({mode_table[mode]}): "
              f"{profile.wall_time_s[mode] * 1e3:.3f} ms, "
              f"{profile.cpu_energy_nj[mode] / 1e3:.1f} uJ")
    if args.output:
        save_profile(profile, args.output)
        print(f"profile written to {args.output}")
    return 0


#: What a failed ``verify`` check means, for the ``optimize`` error line.
_CHECK_ERRORS = {
    "deadline_met": "verified run missed the deadline "
                    "({measured_ms:.3f} ms > {deadline_ms:.3f} ms)",
    "energy_predicted": "simulated energy diverged from the MILP "
                        "prediction (rel err {rel_err:.2e})",
    "result_preserved": "verified run changed the program's result",
}


def cmd_optimize(args) -> int:
    from repro.profiling.serialize import (
        load_profile,
        profile_from_dict,
        profile_to_dict,
        save_schedule,
        schedule_from_dict,
    )

    experiment = _experiment(args, args.deadline_frac)
    store, profile = _store_from_args(args), None
    if args.profile:
        # Nothing derived from a foreign profile may be cached under the
        # workload's keys.
        store, profile = None, {
            "profile": profile_to_dict(load_profile(args.profile))}
    results = _pipeline(experiment, store, solver_budget_s=args.solver_budget,
                        profile=profile)
    optimize = results["optimize"].output
    solver = optimize["solver"]
    degraded = solver.get("degraded", False)
    run = results["simulate"].output["run"]
    verify = results["verify"].output
    deadline = optimize["deadline_s"]
    if results["optimize"].cache == "hit":
        print("  (schedule from artifact cache)")
    elif degraded or args.solver_budget is not None:
        gap = solver["optimality_gap"]
        gap_text = f"{gap:.1%}" if gap is not None else "unknown"
        print(f"  solver tier {solver['fallback_tier']}, "
              f"optimality gap {gap_text}, "
              f"solved in {solver['solve_time_s']:.3f}s"
              + (" [degraded]" if degraded else ""))
    savings = verify["savings_vs_single_mode"]
    print(f"deadline {deadline * 1e3:.3f} ms "
          f"(fraction {args.deadline_frac:.2f} of the fast->slow range)")
    print(f"  MILP edge schedule : {run['cpu_energy_nj'] / 1e3:9.1f} uJ in "
          f"{run['wall_time_s'] * 1e3:.3f} ms, {run['mode_transitions']} "
          f"transitions ("
          + (f"{savings:+.1%}" if savings is not None else "n/a")
          + f" vs single mode {verify['baseline_mode']})")
    # Verification gates the exit code: a failed check is a pipeline
    # failure, not a log line.
    failed = [check for check, ok in verify["checks"].items() if not ok]
    for check in failed:
        print("error: " + _CHECK_ERRORS[check].format(
            measured_ms=run["wall_time_s"] * 1e3, deadline_ms=deadline * 1e3,
            rel_err=verify["energy_prediction_rel_err"]), file=sys.stderr)
    if args.compare:
        _compare_baselines(
            args, profile_from_dict(results["profile"].output["profile"]),
            deadline, verify["baseline_energy_nj"])
    if args.output:
        save_schedule(schedule_from_dict(optimize["schedule"]), args.output)
        print(f"schedule written to {args.output}")
    if failed:
        return EXIT_FAILURE
    # Verified, but not a proven optimum.
    return EXIT_DEGRADED if degraded else EXIT_OK


def _compare_baselines(args, profile, deadline: float,
                       baseline_energy_nj: float) -> None:
    """``optimize --compare``: simulate the greedy and block-grain
    schedules next to the MILP's."""
    from repro.core import DVSOptimizer
    from repro.core.baselines import build_block_formulation, greedy_schedule

    _, cfg, inputs, registers = _workload_context(args.workload, args.category,
                                                  args.seed)
    optimizer = DVSOptimizer(_experiment(args).machine.build())
    machine = optimizer.machine
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
    print(f"  best single mode   : {baseline_energy_nj / 1e3:9.1f} uJ")


def cmd_bound(args) -> int:
    from repro.core.analytical import savings_ratio_discrete

    profile, mode_table, _ = _profiled(args)
    deadline = profile.deadline_at(args.deadline_frac)
    bound = savings_ratio_discrete(profile.params, deadline, mode_table)
    print(f"{args.workload}: analytical savings bound at deadline "
          f"{deadline * 1e3:.3f} ms with {len(mode_table)} levels: {bound:.1%}")
    return 0


def cmd_verify(args) -> int:
    from repro.verify.fuzz import verify_program

    spec, cfg, inputs, registers = _workload_context(args.workload, args.category, args.seed)
    machine = _experiment(args).machine.build()
    results = verify_program(
        spec.source,
        inputs,
        machine=machine,
        registers=registers,
        deadline_fracs=tuple(args.deadline_frac),
        check_backends=not args.no_backends,
        check_metamorphic=not args.no_metamorphic,
    )
    return _print_results(args.workload, results)


def _print_results(title: str, results) -> int:
    """One ``ok/FAIL`` line per oracle result, then a count; exit 1 on
    any failure."""
    failures = [r for r in results if not r.ok]
    for result in results:
        print(f"  {result}")
    print(f"{title}: {len(results)} checks, {len(failures)} failures")
    return EXIT_FAILURE if failures else EXIT_OK


def _fuzz_progress(every: int, things: str):
    """A fuzz progress callback: a line every ``every`` cases, at the
    end, and whenever something has failed."""
    def progress(done: int, total: int, failed: int) -> None:
        if done % every == 0 or done == total or failed:
            print(f"  {done}/{total} {things}, {failed} failures", flush=True)
    return progress


def cmd_fuzz(args) -> int:
    from repro.runtime.dag import MachineSpec
    from repro.taskgraph.oracles import fuzz_taskgraph
    from repro.verify.fuzz import fuzz, fuzz_continuous, fuzz_lps

    def programs(**kwargs):
        return fuzz(machine=MachineSpec(args.levels, args.capacitance_uf).build(),
                    check_backends=not args.no_backends,
                    check_metamorphic=not args.no_metamorphic,
                    stop_on_failure=not args.keep_going, **kwargs)

    exit_code = EXIT_OK
    for runs, campaign, every, things in (
            (args.lp_runs, fuzz_lps, 50, "LP instances"),
            (args.continuous_runs, fuzz_continuous, 10, "continuous programs"),
            (args.taskgraph_runs, fuzz_taskgraph, 10, "taskgraph instances"),
            (args.runs, programs, 10, "programs")):
        if runs <= 0:
            continue
        report = campaign(runs=runs, seed=args.seed,
                          on_progress=_fuzz_progress(every, things))
        print(report.summary)
        for failure in report.failures:
            print(f"\n{failure}", file=sys.stderr)
        if not report.ok:
            exit_code = EXIT_FAILURE
    return exit_code


def _parse_levels(text: str) -> tuple[int | None, ...]:
    """``"xscale"`` or comma-joined level counts (``"xscale,7,13"``)."""
    out: list[int | None] = []
    for part in _csv(text):
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


def _csv(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _fracs(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in _csv(text))


def _cache_root(args) -> str | None:
    """``--cache-dir``, else ``$REPRO_CACHE_DIR``, else the default
    store; None under ``--no-cache``."""
    if getattr(args, "no_cache", False):
        return None
    return args.cache_dir or os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


def _run_sweep(args, label: str, experiments=None, run_info_extra=None,
               **fields):
    """``sweep``/``taskgraph sweep``: run the grid under the
    ``--inject-fault`` plan with per-task progress lines, print the
    summary lines, and return the report and its ok records."""
    from repro.runtime.sweep import SweepConfig, run_sweep

    config = SweepConfig(
        deadline_fracs=_fracs(args.deadline_fracs),
        levels=_parse_levels(args.levels),
        seed=args.seed,
        capacitance_uf=args.capacitance_uf,
        jobs=args.jobs,
        task_timeout_s=args.timeout if args.timeout > 0 else None,
        retries=args.retries,
        cache_dir=_cache_root(args),
        output_dir=args.output_dir,
        solver_budget_s=args.solver_budget,
        solver_backend=args.solver_backend,
        resume=args.resume,
        trace=args.trace,
        **fields,
    )

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
        report = run_sweep(config, on_task=progress, experiments=experiments,
                           run_info_extra=run_info_extra)
    records = report.experiment_records
    ok = [r for r in records if r["status"] == "ok"]
    print(f"\n{label}: {len(ok)}/{len(records)} experiments ok, "
          f"{len(report.results)} tasks in {report.wall_time_s:.2f}s "
          f"(jobs={config.jobs})")
    if report.resumed_tasks:
        print(f"resume: {report.resumed_tasks} tasks replayed from the journal")
    if report.cache_stats:
        stats = report.cache_stats
        quarantined = (f", {stats['quarantined']} quarantined"
                       if stats.get("quarantined") else "")
        print(f"cache: {stats['hits']} hits, {stats['misses']} misses"
              f"{quarantined} ({config.cache_dir})")
    return report, ok


def _sweep_exit(report) -> int:
    """Print a sweep's failed experiments (the failed tasks, or the
    failed checks), degraded tasks and output paths; its exit code."""
    for record in report.failures:
        failed = ", ".join(sorted(record.get("failures") or [
            name for name, ok in record["checks"].items() if not ok]))
        print(f"  {record['experiment']:<44s} {record['status'].upper()}: "
              f"{failed}", file=sys.stderr)
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
    report, ok = _run_sweep(args, "sweep", workloads=_csv(args.workloads),
                            continuous_prune=args.continuous_prune,
                            fastpath=not args.no_fastpath)
    for record in ok:
        savings = record["savings_vs_single_mode"]
        bound = record["savings_bound"]
        savings_text = f"{savings:+.1%}" if savings is not None else "n/a"
        bound_text = f" (bound {bound:.1%})" if bound is not None else ""
        print(f"  {record['experiment']:<44s} savings {savings_text}{bound_text}")
    return _sweep_exit(report)


def cmd_taskgraph(args) -> int:
    if args.tg_command == "verify":
        return _cmd_taskgraph_verify(args)
    return _cmd_taskgraph_sweep(args)


def _cmd_taskgraph_verify(args) -> int:
    from repro.taskgraph.oracles import run_oracle_suite

    return _print_results("taskgraph verify", run_oracle_suite(
        budget_s=args.solver_budget, backend=args.solver_backend))


def _cmd_taskgraph_sweep(args) -> int:
    from repro.taskgraph.pipeline import build_tg_grid

    shapes = _csv(args.shapes)
    cores = tuple(int(c) for c in _csv(args.cores))
    grid = build_tg_grid(shapes=shapes, tasks=args.tasks, cores=cores,
                         deadline_fracs=_fracs(args.deadline_fracs),
                         seed=args.seed, levels=_parse_levels(args.levels),
                         capacitance_uf=args.capacitance_uf)
    report, ok = _run_sweep(args, "taskgraph sweep", workloads=(),
                            experiments=grid, run_info_extra={
                                "family": "taskgraph",
                                "shapes": list(shapes),
                                "graph_tasks": args.tasks,
                                "cores": list(cores),
                            })
    for record in ok:
        savings = record["savings_vs_greedy"]
        savings_text = f"{savings:+.1%}" if savings is not None else "n/a"
        print(f"  {record['experiment']:<44s} vs greedy {savings_text} "
              f"({record['mode_switches']} switches)")
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

    store = ArtifactStore(_cache_root(args))
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

    workloads, fracs = _csv(args.workloads), _fracs(args.deadline_fracs)

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
    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        runs=args.runs,
        max_queue=args.max_queue,
        max_grid=args.max_grid,
        cache_dir=_cache_root(args),
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
        workloads=_csv(args.workloads),
        deadline_fracs=_fracs(args.deadline_fracs),
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


class _VersionAction(argparse.Action):
    """``--version``: looks the installed version up (``importlib.metadata``,
    tens of milliseconds) only when the option is given."""

    def __init__(self, option_strings, dest=argparse.SUPPRESS, **kwargs):
        super().__init__(option_strings, dest, nargs=0,
                         default=argparse.SUPPRESS, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"repro {observe.repro_version()}")
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compile-time DVS reproduction (Xie/Martonosi/Malik, PLDI'03)",
    )
    parser.add_argument("--version", action=_VersionAction,
                        help="show program's version number and exit")
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

    def add_grid_run(p, output_dir: str):
        """The options ``sweep`` and ``taskgraph sweep`` share."""
        p.add_argument("--deadline-fracs", default="0.35,0.7",
                       help="comma-joined deadline fractions (default 0.35,0.7)")
        p.add_argument("--capacitance-uf", type=float, default=10.0,
                       help="regulator capacitance in uF (default 10)")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1)")
        p.add_argument("--timeout", type=float, default=600.0,
                       help="per-task wall-clock budget in seconds "
                            "(default 600; 0 disables)")
        p.add_argument("--retries", type=int, default=1,
                       help="retry budget per task (default 1)")
        p.add_argument("--inject-fault", default=None, metavar="PATTERN[@N]",
                       help="crash task ids matching a glob (testing; "
                            "a worker.crash fault plan); @N crashes "
                            "only the first N attempts")
        p.add_argument("--cache-dir", default=None,
                       help="artifact-store directory (default: "
                            "$REPRO_CACHE_DIR or .repro-cache)")
        p.add_argument("--no-cache", action="store_true",
                       help="run without the artifact store")
        p.add_argument("--output-dir", default=output_dir,
                       help=f"manifest/results directory (default {output_dir})")
        p.add_argument("--quiet", action="store_true",
                       help="suppress per-task progress lines")
        p.add_argument("--resume", action="store_true",
                       help="replay completed tasks from the output "
                            "directory's crash-safe journal")
        p.add_argument("--trace", action="store_true",
                       help="collect spans/metrics and write trace.jsonl "
                            "+ metrics.json next to the manifest "
                            "(also enabled by $REPRO_TRACE=1)")

    p_sweep = sub.add_parser(
        "sweep",
        help="run an experiment grid in parallel with artifact caching",
    )
    p_sweep.add_argument("--workloads", default="adpcm,epic,gsm,mpeg,mpg123,ghostscript",
                         help="comma-joined workload names (default: the paper suite)")
    p_sweep.add_argument("--levels", default="xscale",
                         help="comma-joined mode tables: 'xscale' and/or level "
                              "counts, e.g. 'xscale,7,13' (default xscale)")
    p_sweep.add_argument("--seed", type=int, default=0, help="input seed")
    p_sweep.add_argument("--no-fastpath", action="store_true",
                         help="simulate on the reference interpreter only "
                              "(results.jsonl is byte-identical either way)")
    add_grid_run(p_sweep, "sweep-results")
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
    p_tg_sweep.add_argument("--levels", default="xscale",
                            help="comma-joined mode tables (default xscale)")
    p_tg_sweep.add_argument("--seed", type=int, default=0,
                            help="graph/input seed (default 0)")
    add_grid_run(p_tg_sweep, "taskgraph-results")
    p_tg_sweep.add_argument("--solver-budget", type=float, default=None,
                            metavar="SECONDS",
                            help="anytime wall-clock budget per tg-solve "
                                 "task (falls back through MILP incumbent "
                                 "then greedy; exit 3 when degraded)")
    p_tg_sweep.add_argument("--solver-backend", default="auto",
                            choices=("auto", "scipy", "native"),
                            help="MILP backend for tg-solve tasks")
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
