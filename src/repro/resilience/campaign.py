"""``repro chaos`` — the one chaos harness, with three scenarios.

Each scenario injects faults into the real pipeline and checks every
emitted row with one comparator against one fault-free reference
(:func:`reference_rows`): the row must be verified ``ok``, and unless
its solve degraded it must be byte-identical to the reference.

* **sweep** (``repro chaos``): the reference run fills an artifact
  store, seeded damage hits some entries, and a sweep re-runs on that
  store under a ``worker.crash`` plan and a starved solver budget.  It
  must complete, quarantine every damaged entry and audit clean.
* **serve** (``repro chaos --serve``): the warm workers of a spawned
  ``repro serve --no-cache`` (pids from ``/healthz``) are SIGKILLed
  while a victim job runs.  The kill must show in ``pool.respawns`` or
  ``executor.worker_crashes``; the victim must finish with reference
  rows or fail closed; a probe on the respawned pool must match; the
  server must drain cleanly.
* **campaign** (``repro chaos --campaign``): per seed, a
  :meth:`FaultPlan.from_seed` plan over the catalog is exported to a
  spawned ``repro serve --store-dir``; traffic goes through the
  resilient client, then the server is SIGKILLed with finished, running
  and queued jobs on the books and restarted with ``--resume``: every
  admitted job must finish, finished jobs must *replay*, and the
  resumed server must drain cleanly.  ``journal.torn`` is left out of
  the server plans (a torn admission legitimately loses its job); an
  in-process check tears a scratch job store instead and asserts that
  every record before the tear survives.

All three produce one :class:`CampaignReport` (``campaign.json``) with
one exit ladder: 1 on any violation, 3 when faults fired and were all
absorbed, 0 when nothing fired (suspicious for a chaos run).
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import signal
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Collection

from repro.errors import ServeError
from repro.resilience import EXIT_DEGRADED, EXIT_FAILURE, EXIT_OK, faultplane
from repro.resilience.faultplane import CATALOG, FaultPlan
from repro.runtime import manifest as manifest_mod
from repro.runtime.cache import ArtifactStore, verify_store
from repro.runtime.dag import StreamGrid, build_task_graph
from repro.runtime.executor import ExecutorConfig, TaskResult, run_graph
from repro.runtime.sweep import SweepConfig, run_sweep
from repro.serve import protocol
from repro.serve.client import ClientOutcome, ReproClient, RetryPolicy
from repro.serve.jobstore import JobStore
from repro.serve.spawn import spawn_server

#: Schema tag for campaign.json consumers.
CAMPAIGN_FORMAT = 1


@dataclass(frozen=True)
class CampaignConfig:
    """One chaos campaign."""

    seeds: int = 3
    workload: str = "adpcm"
    traffic_fracs: tuple[float, ...] = (0.35, 0.5)
    kill_fracs: tuple[float, ...] = (0.62, 0.81)  # fresh points for the kill
    duplicates: int = 2  # extra submissions per traffic point
    output_dir: str | Path = "chaos-campaign"
    horizon: int = 6  # fault hits land within the first N per point
    poll_timeout_s: float = 240.0
    spawn_timeout_s: float = 90.0


@dataclass
class SeedResult:
    """What one fault plan (one seed) did to the system under test."""

    seed: int
    plan: dict[str, Any] = field(default_factory=dict)
    fired: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    requests: int = 0
    retries: int = 0
    rejected: int = 0
    recovered: int = 0
    replayed: int = 0
    resume_drain_exit: int | None = None
    details: dict[str, Any] = field(default_factory=dict)  # scenario facts


@dataclass
class CampaignReport:
    """Aggregated outcome of one scenario (serialized to campaign.json)."""

    config: CampaignConfig | None = None  # the campaign scenario's grid
    seeds: list[SeedResult] = field(default_factory=list)
    scenario: str = "campaign"

    @property
    def points_exercised(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for seed in self.seeds:
            _merge_fired(merged, seed.fired)
        return dict(sorted(merged.items()))

    @property
    def violations(self) -> list[str]:
        return [f"seed {seed.seed}: {violation}"
                for seed in self.seeds for violation in seed.violations]

    @property
    def total_fires(self) -> int:
        return sum(self.points_exercised.values())

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def exit_code(self) -> int:
        if self.violations:
            return EXIT_FAILURE
        return EXIT_DEGRADED if self.total_fires else EXIT_OK

    @property
    def summary(self) -> str:
        points = self.points_exercised
        status = ("FAILED" if self.violations
                  else "ok (faults absorbed)" if self.total_fires else "ok")
        return (f"chaos {self.scenario} {status}: {len(self.seeds)} seed(s), "
                f"{self.total_fires} faults injected across "
                f"{len(points)}/{len(CATALOG)} points "
                f"({', '.join(points) or 'none'}), "
                f"{len(self.violations)} violation(s)")

    def to_document(self) -> dict[str, Any]:
        document: dict[str, Any] = {"format": CAMPAIGN_FORMAT,
                                    "scenario": self.scenario}
        if self.config is not None:
            document.update(workload=self.config.workload,
                            traffic_fracs=list(self.config.traffic_fracs),
                            kill_fracs=list(self.config.kill_fracs))
        document.update(
            seeds=[dict(asdict(seed), fired=dict(sorted(seed.fired.items())))
                   for seed in self.seeds],
            points_exercised=self.points_exercised,
            points_total=len(CATALOG),
            total_fires=self.total_fires,
            violations=self.violations,
            exit_code=self.exit_code,
            summary=self.summary,
        )
        return document


def write_report(report: CampaignReport, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report.to_document(), indent=2) + "\n")
    return path


# -- fault-free reference and the row comparator ---------------------------------


def _canon(row: dict[str, Any]) -> str:
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def reference_rows(workload: str, fracs: tuple[float, ...], seed: int = 0,
                   store: ArtifactStore | None = None,
                   ) -> dict[float, list[str]]:
    """Fault-free rows per deadline fraction, as canonical JSON strings.

    Built the way the server builds a response (canonical request →
    experiment grid → inline DAG run → ``results.jsonl`` records), this
    is the byte-identity baseline for every swept, served and replayed
    row.  With ``store`` the run also fills that artifact store.
    """
    reference: dict[float, list[str]] = {}
    for frac in fracs:
        parsed = protocol.parse_request(
            {"workload": workload, "deadline_frac": frac, "seed": seed})
        graph = build_task_graph(list(parsed.experiments),
                                 solver_budget_s=None, solver_backend="auto")
        results = run_graph(graph, store=store, config=ExecutorConfig(jobs=1))
        rows = manifest_mod.experiment_records(graph, results)
        reference[frac] = [_canon(row) for row in rows]
    return reference


def _check_rows(rows: Any, reference: list[str], label: str,
                violations: list[str], skip: Collection[str] = ()) -> int:
    """Hold emitted rows to the contract; returns how many matched.

    Every row must be verified ``ok``, none may be missing, and each row
    not in ``skip`` must be byte-identical to its reference row.
    ``skip`` names degraded experiments, whose fallback schedules are
    verified but not byte-comparable to an optimal run.
    """
    if not isinstance(rows, list) or not rows:
        violations.append(f"{label}: no result rows")
        return 0
    expected = {json.loads(text)["experiment"]: text for text in reference}
    seen: set[str] = set()
    identical = 0
    for row in rows:
        experiment = row.get("experiment")
        seen.add(experiment)
        if row.get("status") != "ok":
            violations.append(f"{label}: {experiment}: unverified row "
                              f"escaped (status {row.get('status')!r})")
        elif experiment in skip:
            continue
        elif _canon(row) == expected.get(experiment):
            identical += 1
        else:
            violations.append(f"{label}: {experiment}: row drifted from "
                              f"the fault-free reference")
    missing = sorted(set(expected) - seen)
    if missing:
        violations.append(f"{label}: rows missing for {missing}")
    return identical


def _check_served(document: dict[str, Any] | None, reference: list[str],
                  label: str, violations: list[str]) -> None:
    """:func:`_check_rows` over a served job document; a degraded
    answer is held to the verified rule only."""
    rows = (document or {}).get("results") or []
    degraded = (document or {}).get("degraded")
    _check_rows(rows, reference, label, violations,
                [row.get("experiment") for row in rows] if degraded else ())


def _merge_fired(into: dict[str, int], fired: dict[str, int]) -> None:
    for point, count in fired.items():
        into[point] = into.get(point, 0) + count


# -- sweep scenario --------------------------------------------------------------


def corrupt_entries(store: ArtifactStore, count: int,
                    rng: random.Random) -> list[str]:
    """Damage up to ``count`` stored documents in place; returns keys.

    Each chosen entry gets :func:`~repro.resilience.faultplane.damage_file`'s
    seeded torn write or bit flip — either breaks the JSON parse, the
    envelope, or the embedded payload digest, and the store must catch
    all three.
    """
    entries = list(store.iter_entries())
    chosen = rng.sample(entries, min(count, len(entries)))
    for _, path in chosen:
        faultplane.damage_file(path, rng)
    return sorted(key for key, _ in chosen)


def run_sweep_scenario(
    workloads: tuple[str, ...] = ("adpcm",),
    deadline_fracs: tuple[float, ...] = (0.5,),
    seed: int = 0,
    output_dir: str | Path = "chaos-results",
    jobs: int = 2,
    solver_budget_s: float = 0.05,
    corrupt: int = 2,
    inject_fault: str | None = "simulate:*@1",
    chaos_seed: int = 0,
    on_task: Callable[[TaskResult], None] | None = None,
) -> CampaignReport:
    """Reference run, seeded corruption, faulted and starved re-run.

    ``output_dir`` holds the shared ``cache/`` and the faulted sweep's
    ``chaos/`` outputs.  The re-run uses ``jobs`` workers, the
    ``solver_budget_s`` anytime budget and the ``inject_fault``
    ``PATTERN[@N]`` crash plan, with retries that out-last ``@N``;
    ``corrupt`` entries are damaged first, seeded by ``chaos_seed``.
    """
    output_dir = Path(output_dir)
    cache_dir = output_dir / "cache"
    result = SeedResult(seed=chaos_seed)
    report = CampaignReport(seeds=[result], scenario="sweep")
    faultplane.uninstall()
    plan, retries = None, 1
    if inject_fault:
        plan = FaultPlan.for_tasks(inject_fault, attempts=retries + 1)
        result.plan = json.loads(plan.to_json())
        if "@" in inject_fault:
            # Out-last a bounded fault, or it becomes a hard failure.
            retries = len(plan.schedule.get("worker.crash", ())) + 1
    store = ArtifactStore(cache_dir)
    reference = [row for workload in workloads
                 for rows in reference_rows(workload, tuple(deadline_fracs),
                                            seed, store).values()
                 for row in rows]
    if any(json.loads(row)["status"] != "ok" for row in reference):
        result.violations.append(
            "reference run failed before any fault was injected")
        return report

    corrupted = corrupt_entries(store, corrupt, random.Random(chaos_seed))
    with faultplane.installed(plan):
        chaos = run_sweep(SweepConfig(
            StreamGrid(workloads=workloads, deadline_fracs=deadline_fracs,
                       seed=seed),
            jobs=jobs, cache_dir=str(cache_dir),
            output_dir=str(output_dir / "chaos"),
            solver_budget_s=solver_budget_s, retries=retries,
        ), on_task=on_task)

    if chaos.interrupted or len(chaos.results) < len(chaos.graph.tasks):
        result.violations.append(
            f"chaos sweep did not complete: {len(chaos.results)}/"
            f"{len(chaos.graph.tasks)} tasks resolved")
    recovered = sorted(r.task_id for r in chaos.results.values()
                       if r.ok and r.attempts > 1)
    degraded = {eid for tid in chaos.degraded_tasks
                for eid in chaos.graph.tasks[tid].experiments}
    identical = _check_rows(chaos.experiment_records, reference,
                            "chaos sweep", result.violations, degraded)
    quarantined = chaos.cache_stats.get("quarantined", 0)
    if quarantined < len(corrupted):
        result.violations.append(
            f"only {quarantined} of {len(corrupted)} corrupted cache "
            f"entries were quarantined")
    audit = verify_store(store, quarantine=False)
    if not audit.ok:
        result.violations.append(
            f"store still corrupt after the chaos run: {audit.summary}")
    fired = {"cache.read.corrupt": len(corrupted),
             "worker.crash": len(recovered),
             "solver.limit": len(chaos.degraded_tasks)}
    result.fired = {point: count for point, count in fired.items() if count}
    result.details = {
        "experiments": len(chaos.graph.experiments),
        "corrupted_keys": corrupted,
        "quarantined": quarantined,
        "recovered_tasks": recovered,
        "degraded_tasks": list(chaos.degraded_tasks),
        "identical_rows": identical,
    }
    return report


# -- spawned servers -------------------------------------------------------------


def _server_env(plan: FaultPlan | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env.pop(faultplane.PLAN_ENV, None)
    if plan is not None:
        env[faultplane.PLAN_ENV] = plan.to_json()
    return env


def _fault_counters(metrics: dict[str, Any] | None) -> dict[str, int]:
    if not metrics:
        return {}
    counters = metrics.get("counters", {})
    prefix = "faultplane.injected."
    return {name[len(prefix):]: int(count)
            for name, count in counters.items() if name.startswith(prefix)}


def _job_id_for(workload: str, frac: float) -> str:
    return protocol.parse_request(
        {"workload": workload, "deadline_frac": frac}).job_id


def _poll_job(client: ReproClient, job_id: str, states: tuple[str, ...],
              timeout_s: float, interval_s: float = 0.2,
              ) -> dict[str, Any] | None:
    """Poll ``/v1/jobs/<id>`` until its state lands in ``states``."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        outcome = client.get_json(f"/v1/jobs/{job_id}")
        if outcome.ok and outcome.document is not None:
            state = outcome.document.get("job", {}).get("state")
            if state in states:
                return outcome.document
        time.sleep(interval_s)
    return None


# -- serve scenario --------------------------------------------------------------


def run_serve_scenario(
    workload: str = "adpcm",
    deadline_frac: float = 0.5,
    seed: int = 0,
    jobs: int = 2,
    output_dir: str | Path = "chaos-results",
    timeout_s: float = 120.0,
    on_progress: Callable[[str], None] | None = None,
) -> CampaignReport:
    """Kill a spawned server's warm workers mid-request, audit the rules.

    ``workload``/``deadline_frac``/``seed`` make the control request;
    the victim and the probe use neighbouring deadline fractions, so each
    is a genuine run.  ``jobs`` sizes the server's warm pool; the server
    log goes to ``output_dir``; ``timeout_s`` bounds every request and
    job poll.
    """
    log = on_progress or (lambda message: None)
    result = SeedResult(seed=seed)
    violations = result.violations
    fracs = {"control": deadline_frac,
             "victim": round(min(1.0, deadline_frac + 0.1), 6),
             "probe": round(max(0.0, deadline_frac - 0.1), 6)}
    faultplane.uninstall()
    log(f"computing fault-free reference rows for {workload}")
    reference = reference_rows(workload, tuple(fracs.values()), seed)
    server = spawn_server(
        ["--jobs", str(jobs), "--runs", "1", "--no-cache"],
        Path(output_dir) / "serve.log", _server_env(), timeout_s)
    client = ReproClient(server.host, server.port,
                         policy=RetryPolicy(timeout_s=timeout_s), seed=seed)

    def body(name: str, **extra: Any) -> dict[str, Any]:
        return {"workload": workload, "deadline_frac": fracs[name],
                "seed": seed, **extra}

    def served(name: str) -> bool:
        outcome = client.submit(body(name, wait=True))
        if outcome.ok:
            _check_served(outcome.document, reference[fracs[name]], name,
                          violations)
        else:
            violations.append(f"{name} request failed: HTTP "
                              f"{outcome.status} {outcome.error or ''}")
        return outcome.ok

    def pool() -> dict[str, Any]:
        return (client.get_json("/healthz").document or {}).get("pool", {})

    try:
        if not served("control"):
            return CampaignReport(seeds=[result], scenario="serve")
        respawns_before = pool().get("respawns", 0)
        log(f"server up on port {server.port}, control verified")
        victim = client.submit(body("victim"))
        if victim.status not in (200, 202) or victim.document is None:
            violations.append(f"victim rejected: HTTP {victim.status}")
            return CampaignReport(seeds=[result], scenario="serve")
        job_id = victim.document["job"]["id"]
        _poll_job(client, job_id, ("running", "done", "failed"), timeout_s,
                  interval_s=0.01)
        killed = result.details["killed_pids"] = pool().get("pids", [])
        for pid in killed:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        log(f"killed workers {killed} while the victim was running")

        job = _poll_job(client, job_id, ("done", "failed", "cancelled"),
                        timeout_s, interval_s=0.05) or {}
        state = result.details["victim_state"] = (
            job.get("job", {}).get("state", "stuck"))
        if state == "done":
            _check_served(job, reference[fracs["victim"]], "victim",
                          violations)
        elif state != "failed":
            violations.append(f"victim never reached a terminal state "
                              f"({state!r})")
        elif not job["job"].get("error"):
            violations.append("victim failed without a structured error")

        # The probe must not see poisoned warm state.  It also forces
        # the respawn of a pool whose idle workers died, so the crash is
        # judged after it.
        served("probe")
        respawns = pool().get("respawns", 0) - respawns_before
        crashes = (client.get_json("/v1/metrics").document or {}).get(
            "counters", {}).get("executor.worker_crashes", 0)
        result.details.update(respawns=respawns, worker_crashes=crashes)
        if killed and (respawns or crashes):
            result.fired["worker.crash"] = len(killed)
        else:
            violations.append("killed the warm workers but no crash or "
                              "respawn was recorded")
        drain_exit = server.drain()
        if drain_exit != EXIT_OK:
            violations.append(f"server drain exited {drain_exit}, "
                              f"want {EXIT_OK}")
    finally:
        server.ensure_dead()
    return CampaignReport(seeds=[result], scenario="serve")


# -- campaign scenario -----------------------------------------------------------


def _torn_journal_check(seed: int, scratch: Path, result: SeedResult,
                        hit: int = 4) -> None:
    """The journal.torn leg: tear an append, prove recovery stays clean.

    The default ``hit`` 4 is the admit of the second job: header(1),
    admit A(2), finish A(3), admit B(4) — so everything recorded before
    the tear must survive and nothing after it may turn to garbage.
    """
    faultplane.install(FaultPlan(seed=seed, schedule={"journal.torn": (hit,)}))
    try:
        store = JobStore(scratch)
        store.start()
        parsed_a = protocol.parse_request({"workload": "adpcm",
                                           "deadline_frac": 0.5})
        parsed_b = protocol.parse_request({"workload": "adpcm",
                                           "deadline_frac": 0.7})
        store.admit(parsed_a.request_key, parsed_a.job_id, "anon",
                    parsed_a.canonical)
        store.finished(parsed_a.request_key, "done",
                       result={"request": parsed_a.canonical, "results": []})
        store.admit(parsed_b.request_key, parsed_b.job_id, "anon",
                    parsed_b.canonical)  # torn mid-record
        store.finished(parsed_b.request_key, "done", result={})  # no-op: broken
        store.close()
    finally:
        faultplane.uninstall()
    if not store.broken:
        result.violations.append(
            "torn-journal check: the scheduled tear never fired")
        return
    _merge_fired(result.fired, {"journal.torn": 1})
    recovered = JobStore(scratch).load()
    job_a = recovered.get(parsed_a.request_key)
    if job_a is None or job_a.state != "done" or job_a.result is None:
        result.violations.append(
            "torn-journal check: a completed entry recorded before "
            "the tear was lost")
    job_b = recovered.get(parsed_b.request_key)
    if job_b is not None and job_b.state != "queued":
        result.violations.append(
            "torn-journal check: the torn record resurfaced with state "
            f"{job_b.state!r}")


def _run_seed(seed: int, config: CampaignConfig, out_dir: Path,
              reference: dict[float, list[str]],
              log: Callable[[str], None]) -> SeedResult:
    result = SeedResult(seed=seed)
    plan = FaultPlan.from_seed(
        seed, points=[p for p in CATALOG if p != "journal.torn"],
        horizon=config.horizon)
    result.plan = json.loads(plan.to_json())
    seed_dir = out_dir / f"seed-{seed}"
    flags = ["--jobs", "1", "--runs", "1", "--retries", "3",
             "--cache-dir", str(seed_dir / "cache"),
             "--store-dir", str(seed_dir / "jobs")]
    env = _server_env(plan)
    policy = RetryPolicy(max_attempts=8, timeout_s=config.poll_timeout_s)

    def record(outcome: ClientOutcome) -> None:
        result.requests += 1
        result.retries += outcome.retries
        result.rejected += outcome.rejected

    server = spawn_server(flags, seed_dir / "serve.log", env,
                           config.spawn_timeout_s)
    metrics_a: dict[str, Any] | None = None
    try:
        client = ReproClient(server.host, server.port, policy=policy,
                             seed=seed)
        # Phase 1: wait-mode traffic (with duplicates) under faults.
        for frac in config.traffic_fracs:
            for repeat in range(1 + config.duplicates):
                outcome = client.submit({"workload": config.workload,
                                         "deadline_frac": frac,
                                         "wait": True})
                record(outcome)
                label = f"traffic frac={frac} repeat={repeat}"
                if not outcome.ok or outcome.document is None:
                    result.violations.append(
                        f"{label}: final status {outcome.status} "
                        f"({outcome.error or 'no body'})")
                    continue
                _check_served(outcome.document, reference[frac], label,
                              result.violations)
        log(f"seed {seed}: traffic done "
            f"({result.requests} requests, {result.retries} retries)")

        # Phase 2: put fresh jobs on the books, then SIGKILL.
        kill_running, kill_queued = config.kill_fracs[0], config.kill_fracs[1]
        for frac in (kill_running, kill_queued):
            outcome = client.submit({"workload": config.workload,
                                     "deadline_frac": frac})
            record(outcome)
            if outcome.status not in (200, 202):
                result.violations.append(
                    f"kill-phase submit frac={frac}: status {outcome.status}")
        running_id = _job_id_for(config.workload, kill_running)
        if _poll_job(client, running_id, ("running", "done"),
                     config.poll_timeout_s) is None:
            result.violations.append(
                "kill-phase job never reached running before the SIGKILL")
        metrics_a = (client.get_json("/v1/metrics").document or None)
        server.sigkill()
        log(f"seed {seed}: server SIGKILLed with jobs in flight")
    finally:
        server.ensure_dead()
    _merge_fired(result.fired, _fault_counters(metrics_a))

    # Phase 3: resume and hold the durability contract to account.
    resumed = spawn_server(flags + ["--resume"], seed_dir / "resume.log",
                            env, config.spawn_timeout_s)
    metrics_b: dict[str, Any] | None = None
    try:
        client = ReproClient(resumed.host, resumed.port, policy=policy,
                             seed=seed + 1)
        # Finished jobs must replay byte-identically, without a re-run.
        for frac in config.traffic_fracs:
            job_id = _job_id_for(config.workload, frac)
            document = _poll_job(client, job_id, ("done",), 10.0)
            if document is None:
                result.violations.append(
                    f"replayed job for frac={frac} not terminal after resume")
                continue
            _check_served(document, reference[frac], f"replay frac={frac}",
                          result.violations)
        # Interrupted and queued jobs must re-run to a terminal state.
        for frac in config.kill_fracs:
            job_id = _job_id_for(config.workload, frac)
            document = _poll_job(client, job_id, ("done", "failed"),
                                 config.poll_timeout_s)
            if document is None:
                result.violations.append(
                    f"admitted job frac={frac} lost across kill->resume")
                continue
            if document.get("job", {}).get("state") != "done":
                result.violations.append(
                    f"recovered job frac={frac} finished as "
                    f"{document.get('job', {}).get('state')!r}")
                continue
            _check_served(document, reference[frac], f"recovered frac={frac}",
                          result.violations)
        metrics_b = (client.get_json("/v1/metrics").document or None)
        counters = (metrics_b or {}).get("counters", {})
        result.recovered = int(counters.get("serve.jobs.recovered", 0))
        result.replayed = int(counters.get("serve.jobs.replayed", 0))
        if result.replayed < 1:
            result.violations.append(
                "resume replayed no finished jobs (serve.jobs.replayed == 0)")
        if result.recovered < 1:
            result.violations.append(
                "resume recovered no pending jobs (serve.jobs.recovered == 0)")
        result.resume_drain_exit = resumed.drain()
        if result.resume_drain_exit != EXIT_OK:
            result.violations.append(
                f"resumed server drain exited "
                f"{result.resume_drain_exit}, want {EXIT_OK}")
        log(f"seed {seed}: resume verified (recovered {result.recovered}, "
            f"replayed {result.replayed})")
    finally:
        resumed.ensure_dead()
    _merge_fired(result.fired, _fault_counters(metrics_b))

    # Phase 4: the journal.torn leg, in-process on a scratch store.
    _torn_journal_check(seed, seed_dir / "torn-check", result)
    return result


def run_campaign(config: CampaignConfig | None = None,
                 on_progress: Callable[[str], None] | None = None,
                 ) -> CampaignReport:
    """Run the full campaign; returns the report (not yet written)."""
    config = config or CampaignConfig()
    if len(config.kill_fracs) < 2:
        raise ServeError("campaign needs two kill_fracs "
                         "(one running, one queued at SIGKILL time)")
    log = on_progress or (lambda message: None)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # The reference (and the torn-check) must run fault-free in-process.
    faultplane.uninstall()
    log(f"computing fault-free reference rows for {config.workload} "
        f"x {len(set(config.traffic_fracs + config.kill_fracs))} deadlines")
    reference = reference_rows(
        config.workload,
        tuple(dict.fromkeys(config.traffic_fracs + config.kill_fracs)))
    report = CampaignReport(config=config)
    for seed in range(config.seeds):
        log(f"seed {seed}: plan installed, spawning server")
        report.seeds.append(
            _run_seed(seed, config, out_dir, reference, log))
    return report


__all__ = [
    "CAMPAIGN_FORMAT",
    "CampaignConfig",
    "CampaignReport",
    "SeedResult",
    "corrupt_entries",
    "reference_rows",
    "run_campaign",
    "run_serve_scenario",
    "run_sweep_scenario",
    "write_report",
]
