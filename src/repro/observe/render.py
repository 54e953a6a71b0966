"""Text rendering for ``repro trace show|summarize`` and ``repro stats``."""

from __future__ import annotations

from typing import Any


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s "
    if seconds >= 1e-3:
        return f"{seconds * 1e3:8.2f}ms"
    return f"{seconds * 1e6:8.1f}us"


def _fmt_attrs(attrs: dict[str, Any]) -> str:
    parts = []
    for key, value in attrs.items():
        if isinstance(value, float):
            value = f"{value:.6g}"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def render_trace_tree(spans: list[dict[str, Any]], max_spans: int = 0) -> str:
    """The span forest as an indented tree, children under parents.

    Spans whose parent is missing from the file (e.g. a worker span
    whose executor-side parent was dropped) render as roots rather than
    being hidden.
    """
    by_parent: dict[str | None, list[dict[str, Any]]] = {}
    ids = {span["id"] for span in spans}
    for span in spans:
        parent = span.get("parent")
        if parent is not None and parent not in ids:
            parent = None
        by_parent.setdefault(parent, []).append(span)
    for children in by_parent.values():
        children.sort(key=lambda s: s.get("t0", 0.0))

    lines: list[str] = []

    def walk(parent: str | None, depth: int) -> None:
        for span in by_parent.get(parent, ()):  # noqa: B023 - read-only closure
            if max_spans and len(lines) >= max_spans:
                return
            indent = "  " * depth
            attrs = span.get("attrs", {})
            suffix = f"  [{_fmt_attrs(attrs)}]" if attrs else ""
            lines.append(f"{_fmt_seconds(span.get('wall_s', 0.0))}  "
                         f"{indent}{span['name']}"
                         f"  (pid {span.get('pid', '?')}){suffix}")
            for event in span.get("events", ()):
                if max_spans and len(lines) >= max_spans:
                    return
                ev_attrs = event.get("attrs", {})
                ev_suffix = f"  [{_fmt_attrs(ev_attrs)}]" if ev_attrs else ""
                lines.append(f"{'':10}  {'  ' * (depth + 1)}"
                             f"* {event['name']}{ev_suffix}")
            walk(span["id"], depth + 1)

    walk(None, 0)
    total = len(spans)
    if max_spans and total > max_spans:
        lines.append(f"... ({total - max_spans} more spans; "
                     f"use --limit 0 for all)")
    if not lines:
        return "(no spans recorded)"
    return "\n".join(lines)


def summarize_spans(spans: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Aggregate spans by name: count, total/mean/max wall, total CPU."""
    groups: dict[str, dict[str, Any]] = {}
    for span in spans:
        group = groups.setdefault(span["name"], {
            "name": span["name"], "count": 0,
            "wall_s": 0.0, "max_wall_s": 0.0, "cpu_s": 0.0,
        })
        group["count"] += 1
        wall = float(span.get("wall_s", 0.0))
        group["wall_s"] += wall
        group["max_wall_s"] = max(group["max_wall_s"], wall)
        group["cpu_s"] += float(span.get("cpu_s", 0.0))
    return sorted(groups.values(), key=lambda g: -g["wall_s"])


def render_trace_summary(spans: list[dict[str, Any]]) -> str:
    """Per-span-name aggregate table."""
    rows = summarize_spans(spans)
    if not rows:
        return "(no spans recorded)"
    name_width = max(len(row["name"]) for row in rows)
    name_width = max(name_width, len("span"))
    header = (f"{'span':<{name_width}}  {'count':>7}  {'total':>10}  "
              f"{'mean':>10}  {'max':>10}  {'cpu':>10}")
    lines = [header, "-" * len(header)]
    for row in rows:
        mean = row["wall_s"] / row["count"]
        lines.append(
            f"{row['name']:<{name_width}}  {row['count']:>7}  "
            f"{_fmt_seconds(row['wall_s'])}  {_fmt_seconds(mean)}  "
            f"{_fmt_seconds(row['max_wall_s'])}  {_fmt_seconds(row['cpu_s'])}")
    return "\n".join(lines)


def _rate(hits: float, misses: float) -> str:
    lookups = hits + misses
    if not lookups:
        return "n/a"
    return f"{hits / lookups:.1%} ({int(hits)}/{int(lookups)})"


def render_stats(metrics: dict[str, Any]) -> str:
    """Human-oriented digest of ``metrics.json``.

    Leads with the quantities the paper's reproduction cares about
    (solver effort, cache behaviour, simulator throughput), then lists
    every remaining metric so nothing recorded is invisible.
    """
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    histograms = metrics.get("histograms", {})
    header = metrics.get("header", {})
    lines: list[str] = []

    version = header.get("repro_version")
    host = header.get("host", {})
    if version:
        lines.append(f"repro {version} on {host.get('platform', 'unknown host')}")
        lines.append("")

    def section(title: str) -> None:
        if lines and lines[-1] != "":
            lines.append("")
        lines.append(title)
        lines.append("-" * len(title))

    def row(label: str, value: Any) -> None:
        if isinstance(value, float):
            value = f"{value:,.6g}"
        elif isinstance(value, int):
            value = f"{value:,}"
        lines.append(f"  {label:<34} {value}")

    consumed: set[str] = set()

    if "process.import_s" in gauges:
        section("process")
        row("import repro.cli", f"{gauges['process.import_s']:.3f}s")
        consumed.add("gauge:process.import_s")

    def take(name: str, default: float = 0.0) -> float:
        consumed.add(name)
        return float(counters.get(name, default))

    solves = take("solver.solves")
    iterations = take("solver.iterations")
    nodes_all = take("solver.nodes")
    lp_solves = take("solver.lp_solves")
    pivots = take("solver.revised.pivots")
    warm_pivots = take("solver.revised.warm_pivots")
    refactors = take("solver.revised.refactor")
    nodes = take("solver.bnb.nodes_explored")
    pruned = take("solver.bnb.nodes_pruned")
    incumbents = take("solver.bnb.incumbents")
    if solves or pivots or nodes:
        section("solver")
        row("model solves (any backend)", int(solves))
        row("simplex iterations / pivots", int(iterations))
        row("B&B nodes", int(nodes_all))
        if lp_solves or pivots or nodes:
            row("native LP solves", int(lp_solves))
            row("native simplex pivots", int(pivots))
            row("native warm-started pivots", int(warm_pivots))
            row("native refactorizations", int(refactors))
            row("native dual bound flips",
                int(take("solver.revised.bound_flips")))
            why = "solver.revised.warm_abandoned."
            abandoned = [f"{name[len(why):]} {int(take(name))}"
                         for name in sorted(counters) if name.startswith(why)]
            row("warm starts abandoned (why)", ", ".join(abandoned) or "none")
            for part in ("factor", "ftran", "btran", "pricing"):
                seconds = take(f"solver.revised.{part}_s")
                if seconds:
                    per_pivot = seconds / pivots * 1e6 if pivots else 0.0
                    row(f"native LP {part} time",
                        f"{seconds:.3f}s ({per_pivot:.1f} µs/pivot)")
            row("native B&B nodes explored", int(nodes))
            row("native B&B nodes pruned", int(pruned))
            row("native B&B incumbents found", int(incumbents))
        for tier in ("milp-scipy", "milp-native", "continuous", "greedy"):
            name = f"anytime.tier.{tier}"
            if name in counters:
                row(f"anytime tier used: {tier}", int(take(name)))

    runs = take("simulator.runs")
    replays = take("simulator.replays")
    if runs or replays:
        section("simulator")
        row("runs", int(runs))
        row("timing replays", int(replays))
        row("  of which scheduled", int(take("simulator.scheduled_replays")))
        row("  mode transitions replayed",
            int(take("simulator.replay_transitions")))
        take("simulator.replay_blocks")
        full = {why: int(take(f"verify.full_run.{why}"))
                for why in ("no_store", "miss", "refused", "fastpath_off")}
        row("scheduled full runs (why)",
            ", ".join(f"{why} {n}" for why, n in full.items() if n) or "none")
        row("profiling replay time", f"{take('profiling.replay_s'):.3f}s")
        row("codegen: blocks / loops",
            f"{int(take('perf.codegen.blocks'))} / "
            f"{int(take('perf.codegen.loops'))}")
        row("codegen time", f"{take('perf.codegen_s'):.3f}s")
        row("instructions retired", int(take("simulator.instructions")))
        row("cycles simulated", int(take("simulator.cycles")))
        row("memory misses", int(take("simulator.mem_misses")))
        row("mode transitions", int(take("simulator.mode_transitions")))
        if "simulator.cycles_per_sec" in gauges:
            row("cycles/sec (last run)", gauges["simulator.cycles_per_sec"])
            consumed.add("gauge:simulator.cycles_per_sec")
        row("L1 D-cache hit rate",
            _rate(take("simulator.cache.l1_hits"),
                  take("simulator.cache.l1_misses")))
        row("L1 I-cache hit rate",
            _rate(take("simulator.cache.i_l1_hits"),
                  take("simulator.cache.i_l1_misses")))
        row("L2 hit rate (D side)",
            _rate(take("simulator.cache.l2_hits"),
                  take("simulator.cache.l2_misses")))
        take("simulator.cache.i_l2_hits")
        take("simulator.cache.i_l2_misses")

    art_hits = take("cache.artifact.hits")
    art_misses = take("cache.artifact.misses")
    if art_hits or art_misses:
        section("artifact cache")
        row("hit rate", _rate(art_hits, art_misses))
        row("hits served from the LRU", int(take("cache.artifact.lru_hits")))
        row("LRU evictions", int(take("cache.artifact.lru_evictions")))
        row("writes", int(take("cache.artifact.writes")))
        row("quarantined", int(take("cache.artifact.quarantined")))

    if "verify.bound_memo_hits" in counters:
        section("verify")
        row("bound memo hits", int(take("verify.bound_memo_hits")))

    tasks_done = take("executor.tasks.ok")
    if tasks_done or "executor.queue_wait_s" in histograms:
        section("executor")
        row("tasks ok", int(tasks_done))
        row("tasks failed", int(take("executor.tasks.failed")))
        row("tasks skipped", int(take("executor.tasks.skipped")))
        row("retries", int(take("executor.retries")))
        row("timeouts", int(take("executor.timeouts")))
        wait = histograms.get("executor.queue_wait_s")
        if wait and wait.get("count"):
            row("queue wait mean", f"{wait['sum'] / wait['count']:.4f}s")
            if "p99" in wait:
                row("queue wait p50/p90/p99",
                    f"{wait['p50']:.4f}s / {wait['p90']:.4f}s / "
                    f"{wait['p99']:.4f}s")
            row("queue wait max", f"{wait['max']:.4f}s")
            consumed.add("hist:executor.queue_wait_s")

    other_counters = {k: v for k, v in counters.items() if k not in consumed}
    other_gauges = {k: v for k, v in gauges.items()
                    if f"gauge:{k}" not in consumed}
    other_hists = {k: v for k, v in histograms.items()
                   if f"hist:{k}" not in consumed}
    if other_counters or other_gauges or other_hists:
        section("other metrics")
        for name, value in sorted(other_counters.items()):
            row(name, int(value) if float(value).is_integer() else value)
        for name, value in sorted(other_gauges.items()):
            row(name, value)
        for name, hist in sorted(other_hists.items()):
            if hist.get("count"):
                quantiles = (f" p50={hist['p50']:.4g} p99={hist['p99']:.4g}"
                             if "p99" in hist else "")
                row(name, f"n={hist['count']} mean={hist['sum'] / hist['count']:.4g}"
                          f"{quantiles} max={hist['max']:.4g}")

    if len(lines) <= 2:
        return "(no metrics recorded)"
    return "\n".join(lines)
