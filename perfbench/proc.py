"""Program processes as a user shell would start them, measured from outside."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: Variables that pin BLAS/OpenMP thread pools.  The program must choose
#: its own threading, so the benchmark neither sets nor passes them.
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "BLIS_NUM_THREADS")

CLK_TCK = os.sysconf("SC_CLK_TCK")


def user_env(root: Path) -> dict[str, str]:
    """The caller's environment without ``REPRO_*`` knobs or BLAS pins,
    with the source tree importable (the package is not installed)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k not in BLAS_PINS}
    env["PYTHONPATH"] = str(root / "src")
    return env


def repro_argv(root: Path, args: list[str], ledger_dir: Path | None) -> list[str]:
    """``python3 -m repro ARGS``, or the traced bootstrap when tracing."""
    if ledger_dir is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(root / "perfbench" / "traced.py"),
            str(ledger_dir), *args]


@dataclass
class Finished:
    """One program process, measured by ``wait4`` (children included)."""

    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    output: str


def run(argv: list[str], env: dict[str, str], cwd: Path, log: Path,
        timeout_s: float) -> Finished:
    """Run to completion; stdout and stderr go to ``log``."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: never leave the child running
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(exit_code=proc.returncode, wall_s=wall,
                    cpu_s=usage.ru_utime + usage.ru_stime,
                    peak_rss_mb=usage.ru_maxrss / 1024.0,
                    output=log.read_text(errors="replace"))


def _stat(pid: int) -> list[str]:
    with open(f"/proc/{pid}/stat") as handle:
        text = handle.read()
    return text[text.rindex(")") + 2:].split()  # fields from "state" on


def tree_pids(root_pid: int) -> list[int]:
    """``root_pid`` and its direct children (a server and its workers)."""
    pids = [root_pid]
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if int(_stat(int(entry))[1]) == root_pid:
                    pids.append(int(entry))
            except (OSError, ValueError, IndexError):
                continue  # exited while scanning
    return pids


def tree_cpu_s(pids: list[int]) -> float:
    """User+system CPU seconds consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        fields = _stat(pid)
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / CLK_TCK


def tree_peak_rss_mb(pids: list[int]) -> float:
    """Largest resident-set high-water mark among ``pids``."""
    peak = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]))
    return peak / 1024.0


def stop(proc: subprocess.Popen, timeout_s: float) -> int:
    """SIGTERM (graceful drain), then SIGKILL; always reaps the process."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


def reference_loop_ms(iterations: int = 2_000_000) -> float:
    """Time a fixed pure-Python loop: a host-speed diagnostic only."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i & 7
    return (time.perf_counter() - start) * 1000.0
