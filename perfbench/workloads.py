"""The four workloads: set-up, the timed run, and the output checks.

Every workload drives the program the way a user does — ``python3 -m
repro sweep`` or ``repro serve`` over HTTP — and measures it from
outside.  A traced run starts the same commands through ``traced.py``
instead, and adds the per-layer ledger, the interpreter oracle and the
count checks.  See README.md for why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import proc
import serveplan
import stats

SUITE = serveplan.SUITE
TIMEOUT_S = 170.0  # any single program process
CHAIN_FRACS = "0.2,0.35,0.5"


class CheckFailed(Exception):
    """An output check failed: the run is reported as incorrect."""


@dataclass
class Measured:
    """What one workload's timed run produced."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float
    attempted: int
    failed: int
    rows: list[dict]          # distinct verified experiment rows seen
    basis_s: float            # time the traced ledger must add up to
    started_outside_basis: bool = False  # a server imported before timing
    extra: dict[str, float] = field(default_factory=dict)  # per-layer extras
    reference: dict[str, Any] | None = None  # interpreter return values


class Refs:
    """Facts that must repeat across runs in one checkout.

    The first run to see an experiment row, a results file of a grid, or
    the counts of a traced (workload, seed, seconds) records it; every
    later run — of any workload — must reproduce it exactly.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)

    def same(self, name: str, value: Any) -> None:
        path = self.directory / (hashlib.sha256(name.encode()).hexdigest()[:32]
                                 + ".json")
        text = json.dumps({"name": name, "value": value}, sort_keys=True)
        if path.exists():
            stored = path.read_text()
            if stored != text:
                earlier = json.loads(stored)["value"]
                if isinstance(value, dict) and isinstance(earlier, dict):
                    earlier, value = _differing(earlier, value)
                raise CheckFailed(f"{name} differs from an earlier run: "
                                  f"{str(earlier)[:400]} != {str(value)[:400]}")
            return
        tmp = path.with_suffix(".tmp")
        tmp.write_text(text)
        tmp.replace(path)


def _differing(a: dict, b: dict) -> tuple[dict, dict]:
    keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return {k: a.get(k) for k in keys}, {k: b.get(k) for k in keys}


class Run:
    """One benchmark invocation: paths, environment and shared checks."""

    def __init__(self, root: Path, work: Path, seed: int, seconds: int,
                 traced: bool) -> None:
        self.root, self.work = root, work
        self.seed, self.seconds, self.traced = seed, seconds, traced
        self.env = proc.user_env(root)
        self.ledger_dir = work / "ledger" if traced else None
        if self.ledger_dir is not None:
            self.ledger_dir.mkdir(parents=True)
        self.refs = Refs(root / "perfbench" / ".work" / "refs")
        self._logs = 0

    # -- program processes ------------------------------------------------------

    def repro(self, args: list[str], traced: bool = False) -> proc.Finished:
        """Run ``repro ARGS`` to completion; a nonzero exit fails the run."""
        self._logs += 1
        log = self.work / f"repro-{self._logs}.log"
        argv = proc.repro_argv(self.root, args,
                               self.ledger_dir if traced else None)
        done = proc.run(argv, self.env, self.root, log, TIMEOUT_S)
        if done.exit_code != 0:
            raise CheckFailed(f"repro {' '.join(args[:3])} exited "
                              f"{done.exit_code}:\n{done.output[-2000:]}")
        return done

    def compile_bytecode(self) -> None:
        """Byte-compile the sources, as installing the package would."""
        log = self.work / "compileall.log"
        argv = [sys.executable, "-m", "compileall", "-q", str(self.root / "src")]
        done = proc.run(argv, self.env, self.root, log, TIMEOUT_S)
        if done.exit_code != 0:
            raise CheckFailed(f"byte-compiling src/ failed:\n{done.output[-2000:]}")

    def fresh(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        return path

    # -- checks -----------------------------------------------------------------

    def check_rows(self, rows: list[dict], backend: str = "auto") -> int:
        """Rows must repeat across runs and across workloads that solve
        with the same backend; returns the rows that did not verify.

        (The native solver and HiGHS agree on every schedule but not on
        the last bit of ``predicted_energy_nj``, so rows are compared
        per backend.)
        """
        from repro.runtime.manifest import scrub_timings

        for row in rows:
            self.refs.same(f"row {row['experiment']} {backend}",
                           scrub_timings(row))
        return sum(1 for row in rows
                   if row.get("status") != "ok" or row.get("verified") is not True)

    def check_results_file(self, grid: str, path: Path) -> list[dict]:
        """A grid's results.jsonl is byte-identical on every run, traced
        or not; returns its rows."""
        data = path.read_bytes()
        self.refs.same(f"results.jsonl of {grid}", hashlib.sha256(data).hexdigest())
        return [json.loads(line) for line in data.splitlines() if line.strip()]

    def oracle(self, programs: list[str]) -> dict[str, Any]:
        """Reference return values from the IR interpreter (traced runs)."""
        log = self.work / "oracle.log"
        argv = [sys.executable, str(self.root / "perfbench" / "oracle.py"),
                ",".join(programs)]
        done = proc.run(argv, self.env, self.root, log, TIMEOUT_S)
        if done.exit_code != 0:
            raise CheckFailed(f"oracle exited {done.exit_code}:\n{done.output[-2000:]}")
        return json.loads(done.output.strip().splitlines()[-1])


def _sweep_args(cache: Path, fracs: str, workloads: str | None = None,
                backend: str = "auto", jobs: int = 1,
                out: Path | None = None) -> list[str]:
    """``repro sweep`` arguments; the paper suite unless ``workloads``."""
    args = ["sweep", "--deadline-fracs", fracs, "--jobs", str(jobs),
            "--solver-backend", backend, "--cache-dir", str(cache), "--quiet"]
    if workloads is not None:
        args += ["--workloads", workloads]
    if out is not None:
        args += ["--output-dir", str(out)]
    return args


def _timed_setup(body: Callable[[], Any], repeats: int = 1) -> tuple[float, Any]:
    """Median wall time of ``repeats`` set-ups; returns (seconds, last value)."""
    times, value = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        value = body()
        times.append(time.perf_counter() - start)
    return stats.median(times), value


def oracle_check(run: Run, measured: Measured) -> None:
    """Every row's return value must equal the interpreter's; keeps the
    reference so the ledger's simulated return values are checked too."""
    programs = sorted({row["workload"] for row in measured.rows})
    measured.reference = run.oracle(programs)
    for row in measured.rows:
        if row["return_value"] != measured.reference[row["workload"]]:
            raise CheckFailed(f"{row['experiment']}: return value "
                              f"{row['return_value']} != interpreter "
                              f"{measured.reference[row['workload']]}")


# -- sweep workloads ---------------------------------------------------------------


def _sweeps(run: Run, args: list[str], count: int, grid: str,
            expected: list[dict] | None = None) -> tuple[list[proc.Finished], list[dict]]:
    """Run ``repro ARGS`` ``count`` times, each into a fresh output dir."""
    finished, rows = [], []
    for i in range(count):
        out = run.fresh(f"out-{i}")
        done = run.repro(args + ["--output-dir", str(out)], traced=run.traced)
        finished.append(done)
        rows = run.check_results_file(grid, out / "results.jsonl")
        if expected is not None and rows != expected:
            raise CheckFailed(f"rerun {i} rows differ from the set-up sweep")
    return finished, rows


def _sweep_measured(finished: list[proc.Finished], rows: list[dict],
                    setup_s: float, run: Run, backend: str = "auto") -> Measured:
    failed = run.check_rows(rows, backend)
    return Measured(
        wall_s=sum(f.wall_s for f in finished),
        cpu_s=sum(f.cpu_s for f in finished),
        peak_rss_mb=max(f.peak_rss_mb for f in finished),
        setup_s=setup_s, attempted=len(rows), failed=failed, rows=rows,
        basis_s=sum(f.wall_s for f in finished))


def suite_cold(run: Run) -> Measured:
    cache = run.work / "cache"

    def setup() -> None:
        run.compile_bytecode()
        run.fresh("cache")

    setup_s, _ = _timed_setup(setup, repeats=5)
    finished, rows = _sweeps(run, _sweep_args(cache, "0.35,0.7"), 1,
                             "suite x 0.35,0.7")
    return _sweep_measured(finished, rows, setup_s, run)


def native_chain(run: Run) -> Measured:
    cache = run.work / "cache"

    def setup() -> None:
        run.compile_bytecode()
        run.fresh("cache")
        run.repro(_sweep_args(cache, "0.9", "adpcm", out=run.fresh("fill")))

    setup_s, _ = _timed_setup(setup, repeats=3)
    args = _sweep_args(cache, CHAIN_FRACS, "adpcm", backend="native")
    finished, rows = _sweeps(run, args, 1, f"adpcm x {CHAIN_FRACS} native")
    return _sweep_measured(finished, rows, setup_s, run, backend="native")


def suite_warm(run: Run) -> Measured:
    cache = run.work / "cache"
    grid = "suite x 0.35,0.7"

    def setup() -> list[dict]:
        run.compile_bytecode()
        fill = run.fresh("fill")
        run.repro(_sweep_args(cache, "0.35,0.7", jobs=2, out=fill))
        return run.check_results_file(grid, fill / "results.jsonl")

    setup_s, expected = _timed_setup(setup)
    finished, rows = _sweeps(run, _sweep_args(cache, "0.35,0.7"),
                             max(1, run.seconds), grid, expected)
    measured = _sweep_measured(finished, rows, setup_s, run)
    measured.attempted = len(rows) * len(finished)
    measured.failed *= len(finished)
    return measured


# -- serve-warm ------------------------------------------------------------------


def _http(port: int) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)


def _get_json(port: int, path: str) -> dict:
    conn = _http(port)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise CheckFailed(f"GET {path} answered {response.status}")
        return json.loads(body)
    finally:
        conn.close()


def _post(conn: http.client.HTTPConnection, grid: dict) -> tuple[int, bytes]:
    body = json.dumps({"workloads": grid["workloads"],
                       "deadline_fracs": grid["deadline_fracs"], "wait": True})
    conn.request("POST", "/v1/sweep", body, {"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


@dataclass
class _Reply:
    grid: dict
    status: int | None
    body: bytes
    latency_s: float


def _client(port: int, plan: list[dict], replies: list[_Reply]) -> None:
    """One closed-loop client: send the next request when the last returns."""
    conn = _http(port)
    try:
        for grid in plan:
            start = time.perf_counter()
            try:
                status, body = _post(conn, grid)
            except (OSError, http.client.HTTPException) as error:
                status, body = None, repr(error).encode()
                conn.close()
                conn = _http(port)
            replies.append(_Reply(grid, status, body,
                                  time.perf_counter() - start))
    finally:
        conn.close()


def _check_reply(run: Run, reply: _Reply, first: dict[str, bytes],
                 rows_by_id: dict[str, dict]) -> bool:
    """A reply is good when it is a 200 whose rows are exactly the grid's
    verified rows, equal to the sweep's rows (and to an earlier reply of
    the same grid, byte for byte)."""
    if reply.status != 200:
        return False
    key = json.dumps([reply.grid["workloads"], reply.grid["deadline_fracs"]])
    if key in first:
        return first[key] == reply.body
    first[key] = reply.body
    rows = json.loads(reply.body)["results"]
    wanted = {(w, f) for w in reply.grid["workloads"]
              for f in reply.grid["deadline_fracs"]}
    if {(r["workload"], r["deadline_frac"]) for r in rows} != wanted \
            or len(rows) != len(wanted) or run.check_rows(rows):
        return False
    for row in rows:
        rows_by_id[row["experiment"]] = row
    return True


def _delta(after: dict, before: dict, name: str) -> int:
    return int(after["counters"].get(name, 0) - before["counters"].get(name, 0))


def serve_warm(run: Run) -> Measured:
    cache = run.work / "cache"
    fracs = ",".join(str(f) for f in serveplan.FRACS)
    plans = serveplan.build_plan(run.seed, serveplan.plan_size(run.seconds))
    server: subprocess.Popen | None = None

    def setup() -> tuple[int, float]:
        nonlocal server
        run.compile_bytecode()
        fill = run.fresh("fill")
        run.repro(_sweep_args(cache, fracs, jobs=2, out=fill))
        run.check_rows(run.check_results_file(f"suite x {fracs}",
                                              fill / "results.jsonl"))
        log = run.work / "serve.log"
        argv = proc.repro_argv(run.root, ["serve", "--port", "0",
                                          "--cache-dir", str(cache)],
                               run.ledger_dir)
        with open(log, "wb") as out:
            server = subprocess.Popen(argv, env=run.env, cwd=run.root,
                                      stdout=out, stderr=subprocess.STDOUT)
        port = _await_port(server, log)
        start = time.perf_counter()
        conn = _http(port)
        try:
            status, body = _post(conn, serveplan.WARMUP)
        finally:
            conn.close()
        if status != 200:
            raise CheckFailed(f"warm-up request answered {status}: {body[:300]!r}")
        return port, time.perf_counter() - start

    try:
        setup_s, (port, warmup_s) = _timed_setup(setup)
        pids = proc.tree_pids(server.pid)
        before = _get_json(port, "/v1/metrics")
        cpu0 = proc.tree_cpu_s(pids)
        replies: list[list[_Reply]] = [[] for _ in plans]
        threads = [threading.Thread(target=_client, args=(port, plan, out),
                                    daemon=True)
                   for plan, out in zip(plans, replies)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(max(0.0, start + TIMEOUT_S - time.perf_counter()))
        wall_s = time.perf_counter() - start
        if any(thread.is_alive() for thread in threads):
            raise CheckFailed("a load-generator client did not finish")
        cpu_s = proc.tree_cpu_s(pids) - cpu0
        peak_rss_mb = proc.tree_peak_rss_mb(pids)
        after = _get_json(port, "/v1/metrics")
    finally:
        code = proc.stop(server, 60.0) if server is not None else 0
    if code != 0:
        raise CheckFailed(f"repro serve exited {code} on SIGTERM")

    rows_by_id: dict[str, dict] = {}
    attempted = failed = 0
    latencies = []
    for client_replies in replies:
        first: dict[str, bytes] = {}
        for reply in client_replies:
            attempted += 1
            latencies.append(reply.latency_s * 1000.0)
            if not _check_reply(run, reply, first, rows_by_id):
                failed += 1
    if attempted != sum(len(plan) for plan in plans):
        raise CheckFailed(f"{attempted} replies for "
                          f"{sum(len(p) for p in plans)} requests")

    hist = after["histograms"]
    # The server's latency histogram holds DAG runs only (replays never
    # reach it), so the HTTP overhead compares it with distinct requests.
    server_p50 = hist["serve.request_latency_s"]["p50"] * 1000.0
    distinct_p50 = stats.percentile(
        [r.latency_s * 1000.0 for replies_ in replies for r in replies_
         if not r.grid["repeat"]], 50)
    extra = {
        "serve.client_p50_ms": stats.checked_percentile(latencies, 50),
        # 0 when the plan is too short for ten samples beyond the p90.
        "serve.client_p90_ms": (stats.percentile(latencies, 90)
                                if stats.reportable(len(latencies), 90) else 0.0),
        "serve.server_p50_ms": server_p50,
        "serve.http_overhead_ms": distinct_p50 - server_p50,
        "serve.queue_wait_ms": hist["serve.queue_wait_s"]["p50"] * 1000.0,
        "serve.executor_wait_ms":
            hist.get("executor.queue_wait_s", {}).get("p50", 0.0) * 1000.0,
        "serve.dag_runs": _delta(after, before, "serve.dag.runs"),
        "serve.replayed": _delta(after, before, "serve.requests.replayed"),
        "serve.coalesced": _delta(after, before, "serve.requests.coalesced"),
    }
    rows = sorted(rows_by_id.values(), key=lambda r: r["experiment"])
    return Measured(wall_s=wall_s, cpu_s=cpu_s, peak_rss_mb=peak_rss_mb,
                    setup_s=setup_s, attempted=attempted, failed=failed,
                    rows=rows, basis_s=warmup_s + sum(latencies) / 1000.0,
                    started_outside_basis=True, extra=extra)


def _await_port(server: subprocess.Popen, log: Path) -> int:
    """The port from the server's ``listening on http://host:PORT`` line."""
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        for line in log.read_text(errors="replace").splitlines():
            if "listening on http://" in line:
                return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        if server.poll() is not None:
            raise CheckFailed(f"repro serve exited {server.returncode}:\n"
                              f"{log.read_text(errors='replace')[-2000:]}")
        time.sleep(0.02)
    raise CheckFailed("repro serve did not start listening within 60 s")


#: Workload name -> its set-up and timed run (README.md says why each).
WORKLOADS: dict[str, Callable[[Run], Measured]] = {
    "suite-cold": suite_cold,
    "native-chain": native_chain,
    "suite-warm": suite_warm,
    "serve-warm": serve_warm,
}
