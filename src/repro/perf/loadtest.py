"""``repro loadtest`` — replay concurrent traffic against ``repro serve``.

The harness answers the serving subsystem's two load-bearing claims with
numbers instead of adjectives:

* **Coalescing works**: a seeded generator emits thousands of mixed
  ``/v1/optimize`` / ``/v1/sweep`` submissions with a configurable
  duplicate ratio, fired through a bounded-concurrency async client.
  The server's own counters (``/v1/metrics``) then tell us how many
  submissions were absorbed by the single-flight map or the finished-job
  LRU versus how many DAGs actually ran.

* **The warm pool pays for itself**: the same experiment run as a cold
  one-shot CLI sweep (fresh interpreter, fresh process pool, no cache)
  is timed as a baseline, and the served p50 must land well below it.

Everything lands in ``BENCH_serve.json`` (schema below), which CI gates
on: coalescing ratio > 0, warm speedup > 1, p99 under a budget, and —
in ``--spawn`` mode, where the harness forks its own server — a clean
SIGTERM drain with exit code 0.

Traffic goes through :class:`repro.serve.client.AsyncReproClient`, the
resilient stdlib client (timeouts, capped exponential backoff with
jitter, ``Retry-After`` honoring, circuit breaker).  A 429 admission
rejection is therefore *not* a hard error: the client backs off and
resubmits — idempotent, because the server keys jobs by the canonical
content hash — and the report counts it under
``rejected_then_completed`` instead.  Only requests that stay failed
after the retry budget count as ``errors``.
"""

from __future__ import annotations

import asyncio
import json
import random
import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ServeError
from repro.observe import percentile
from repro.perf.harness import header
from repro.serve.client import AsyncReproClient, RetryPolicy, http_request
from repro.serve.spawn import ServerProc, spawn_server

#: Schema tag for BENCH_serve.json consumers.
LOADTEST_FORMAT = 1


@dataclass(frozen=True)
class LoadtestConfig:
    """One loadtest campaign."""

    base_url: str | None = None  # target server; None -> spawn one
    spawn_args: str = ""  # extra `repro serve` flags in --spawn mode
    requests: int = 200
    concurrency: int = 32
    duplicate_ratio: float = 0.75  # fraction of submissions that repeat
    seed: int = 0
    workloads: tuple[str, ...] = ("adpcm", "gsm")
    deadline_fracs: tuple[float, ...] = (0.35, 0.7)
    tenants: int = 3
    timeout_s: float = 120.0  # per-request client timeout
    cold_runs: int = 2  # cold-spinup baseline repeats (0 disables)
    cache_dir: str | None = None  # cache for a spawned server
    max_attempts: int = 6  # client retry budget per request (1 = none)


@dataclass
class _Outcome:
    status: int
    latency_s: float
    disposition: str | None = None  # new | coalesced | replayed (202 path)
    ok: bool = False
    retries: int = 0  # backoff retries this request consumed
    rejected: int = 0  # 429/503 answers absorbed before the final one


def build_mix(config: LoadtestConfig) -> list[dict[str, Any]]:
    """The seeded request plan: a deterministic duplicate-heavy mix.

    Unique grid points are drawn from ``workloads x deadline_fracs``;
    each submission is either a *repeat* of an already-issued point
    (probability ``duplicate_ratio`` — these are the submissions that
    must coalesce or replay) or the next unseen point.  Repeats favour
    the most recent point so duplicates land while their twin is still
    in flight, exercising the single-flight map and not just the LRU.
    """
    rng = random.Random(config.seed)
    points = [{"workload": w, "deadline_frac": f}
              for w in config.workloads for f in config.deadline_fracs]
    rng.shuffle(points)
    plan: list[dict[str, Any]] = []
    issued: list[dict[str, Any]] = []
    fresh = iter(points)
    for index in range(config.requests):
        point = None
        if issued and rng.random() < config.duplicate_ratio:
            # 70% of repeats hit one of the last few submissions.
            if rng.random() < 0.7:
                point = issued[-1 - rng.randrange(min(4, len(issued)))]
            else:
                point = issued[rng.randrange(len(issued))]
        if point is None:
            point = next(fresh, None)
            if point is None:  # plan exhausted every unique point
                point = issued[rng.randrange(len(issued))]
        issued.append(point)
        body = dict(point)
        body["tenant"] = f"tenant-{rng.randrange(config.tenants)}"
        body["wait"] = True
        endpoint = "/v1/optimize"
        plan.append({"endpoint": endpoint, "body": body, "index": index})
    return plan


def _parse_base_url(base_url: str) -> tuple[str, int]:
    trimmed = base_url.strip().rstrip("/")
    for prefix in ("http://", "https://"):
        if trimmed.startswith(prefix):
            trimmed = trimmed[len(prefix):]
    host, _, port = trimmed.partition(":")
    if not host or not port.isdigit():
        raise ServeError(
            f"cannot parse server url {base_url!r} (want host:port)")
    return host, int(port)


async def _fire(host: str, port: int, plan: list[dict[str, Any]],
                config: LoadtestConfig,
                progress=None) -> list[_Outcome]:
    semaphore = asyncio.Semaphore(config.concurrency)
    outcomes: list[_Outcome | None] = [None] * len(plan)
    # One shared client: the circuit breaker sees the whole campaign, so
    # a dead server opens it once instead of 32 tasks timing out forever.
    client = AsyncReproClient(
        host, port,
        policy=RetryPolicy(max_attempts=max(1, config.max_attempts),
                           timeout_s=config.timeout_s),
        seed=config.seed)

    async def one(entry: dict[str, Any]) -> None:
        endpoint = entry["endpoint"].rsplit("/", 1)[1]
        async with semaphore:
            result = await client.submit(entry["body"], endpoint=endpoint)
        ok = False
        disposition = None
        if result.status == 0:
            disposition = f"error:{(result.error or 'transport').split(':')[0]}"
        elif result.status == 200 and result.document is not None:
            disposition = result.document.get("disposition")
            ok = "results" in result.document or disposition == "replayed"
        outcomes[entry["index"]] = _Outcome(
            result.status, result.latency_s, disposition, ok,
            retries=result.retries, rejected=result.rejected)
        if progress is not None:
            progress(entry["index"])

    await asyncio.gather(*(one(entry) for entry in plan))
    return [o for o in outcomes if o is not None]


async def _get_json(host: str, port: int, path: str,
                    timeout_s: float) -> dict[str, Any]:
    status, _, payload = await http_request(host, port, "GET", path, b"",
                                            timeout_s)
    if status != 200:
        raise ServeError(f"GET {path} returned {status}")
    return json.loads(payload)


def _cold_baseline(config: LoadtestConfig) -> dict[str, Any] | None:
    """Time the same experiment as cold one-shot CLI runs.

    Every run pays the full per-request cost a process-per-request
    deployment would: interpreter start, imports, pool fork, cold solver
    and simulator state, no artifact cache.  This is the denominator of
    the warm-pool speedup claim.
    """
    if config.cold_runs < 1:
        return None
    workload = config.workloads[0]
    frac = config.deadline_fracs[0]
    durations = []
    with tempfile.TemporaryDirectory(prefix="repro-loadtest-cold-") as tmp:
        for run in range(config.cold_runs):
            command = [
                sys.executable, "-m", "repro", "sweep",
                "--workloads", workload,
                "--deadline-fracs", str(frac),
                "--jobs", "1", "--no-cache", "--quiet",
                "--output-dir", str(Path(tmp) / f"run{run}"),
            ]
            t0 = time.monotonic()
            proc = subprocess.run(command, capture_output=True, text=True)
            elapsed = time.monotonic() - t0
            if proc.returncode != 0:
                raise ServeError(
                    f"cold baseline sweep failed (exit {proc.returncode}): "
                    f"{proc.stderr.strip().splitlines()[-1:] or '?'}")
            durations.append(elapsed)
    return {
        "runs": config.cold_runs,
        "command": "repro sweep --jobs 1 --no-cache (fresh process)",
        "workload": workload,
        "deadline_frac": frac,
        "mean_s": sum(durations) / len(durations),
        "min_s": min(durations),
        "per_run_s": durations,
    }


def run_loadtest(config: LoadtestConfig,
                 progress=None) -> dict[str, Any]:
    """Run one campaign; returns the BENCH_serve.json document."""
    with tempfile.TemporaryDirectory(prefix="repro-loadtest-") as scratch:
        server: ServerProc | None = None
        if config.base_url is None:
            flags = ["--cache-dir", config.cache_dir] if config.cache_dir else []
            server = spawn_server(flags + shlex.split(config.spawn_args),
                                  Path(scratch) / "serve.log", timeout_s=60.0)
        return _campaign(config, server, progress)


def _campaign(config: LoadtestConfig, server: ServerProc | None,
              progress=None) -> dict[str, Any]:
    base_url = server.url if server is not None else config.base_url
    drain: dict[str, Any] | None = None
    host, port = _parse_base_url(base_url)
    try:
        plan = build_mix(config)
        unique = len({json.dumps(
            {k: v for k, v in entry["body"].items()
             if k not in ("tenant", "wait")}, sort_keys=True)
            for entry in plan})
        t0 = time.monotonic()
        outcomes = asyncio.run(_fire(host, port, plan, config, progress))
        wall_s = time.monotonic() - t0
        # A server that died mid-campaign is a *finding*, not a crash:
        # report zeroed counters and let the error totals fail the run.
        try:
            metrics = asyncio.run(_get_json(host, port, "/v1/metrics",
                                            config.timeout_s))
            health = asyncio.run(_get_json(host, port, "/healthz",
                                           config.timeout_s))
        except (ServeError, OSError, asyncio.TimeoutError, ValueError):
            metrics, health = {}, {}
    finally:
        if server is not None:
            drain = {"signal": "SIGTERM", "exit_code": server.drain(60.0)}

    latencies = sorted(o.latency_s for o in outcomes)
    statuses: dict[str, int] = {}
    for outcome in outcomes:
        key = str(outcome.status)
        statuses[key] = statuses.get(key, 0) + 1
    derived = metrics.get("derived", {})
    ok_count = sum(1 for o in outcomes if o.ok)
    cold = _cold_baseline(config)
    p50 = percentile(latencies, 50)
    document: dict[str, Any] = {
        **header("serve-loadtest", LOADTEST_FORMAT),
        "config": {
            "requests": config.requests,
            "concurrency": config.concurrency,
            "duplicate_ratio": config.duplicate_ratio,
            "seed": config.seed,
            "workloads": list(config.workloads),
            "deadline_fracs": list(config.deadline_fracs),
            "tenants": config.tenants,
            "max_attempts": config.max_attempts,
            "unique_requests": unique,
            "base_url": base_url,
            "spawned": server is not None,
        },
        "requests": {
            "total": len(outcomes),
            "ok": ok_count,
            "errors": len(outcomes) - ok_count,
            "statuses": dict(sorted(statuses.items())),
            "retries": sum(o.retries for o in outcomes),
            "rejected_then_completed": sum(
                1 for o in outcomes if o.ok and o.rejected > 0),
        },
        "latency_s": {
            "p50": p50,
            "p90": percentile(latencies, 90),
            "p99": percentile(latencies, 99),
            "mean": (sum(latencies) / len(latencies)) if latencies else 0.0,
            "max": latencies[-1] if latencies else 0.0,
        },
        "throughput_rps": (len(outcomes) / wall_s) if wall_s > 0 else 0.0,
        "wall_s": wall_s,
        "coalescing_ratio": derived.get("coalescing_ratio", 0.0),
        "cache_hit_rate": derived.get("cache_hit_rate"),
        "dag_runs": derived.get("dag_runs", 0),
        "serve_counters": metrics.get("counters", {}),
        "pool": health.get("pool", {}),
    }
    if cold is not None:
        document["cold_baseline"] = cold
        document["warm_speedup"] = (cold["mean_s"] / p50) if p50 > 0 else None
    if drain is not None:
        document["drain"] = drain
    return document


def render_loadtest(document: dict[str, Any]) -> str:
    """Human-readable one-screen summary of a campaign."""
    latency = document["latency_s"]
    requests = document["requests"]
    lines = [
        f"loadtest: {requests['total']} requests "
        f"({document['config']['unique_requests']} unique, "
        f"concurrency {document['config']['concurrency']}) "
        f"in {document['wall_s']:.2f}s "
        f"({document['throughput_rps']:.1f} req/s)",
        f"  ok {requests['ok']}  errors {requests['errors']}  "
        f"statuses {requests['statuses']}",
        f"  client retries {requests.get('retries', 0)}  "
        f"rejected-then-completed "
        f"{requests.get('rejected_then_completed', 0)}",
        f"  latency p50 {latency['p50'] * 1000:.1f}ms  "
        f"p90 {latency['p90'] * 1000:.1f}ms  "
        f"p99 {latency['p99'] * 1000:.1f}ms  "
        f"max {latency['max'] * 1000:.1f}ms",
        f"  coalescing ratio {document['coalescing_ratio']:.3f}  "
        f"dag runs {document['dag_runs']}  "
        f"cache hit rate "
        f"{document['cache_hit_rate'] if document['cache_hit_rate'] is not None else 'n/a'}",
    ]
    if "cold_baseline" in document:
        cold = document["cold_baseline"]
        lines.append(
            f"  cold spinup {cold['mean_s']:.2f}s mean "
            f"({cold['runs']} runs) -> warm speedup "
            f"{document['warm_speedup']:.1f}x at p50")
    if "drain" in document:
        lines.append(f"  drain: {document['drain']['signal']} -> "
                     f"exit {document['drain']['exit_code']}")
    return "\n".join(lines)
