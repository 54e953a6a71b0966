"""Crash-safe sweeps: journal semantics, SIGKILL resume with
byte-identical results, and SIGINT drain with the documented exit code."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import JournalError
from repro.resilience.journal import JOURNAL_FORMAT, SweepJournal, run_fingerprint
from repro.runtime import hashing
from repro.runtime.cache import payload_digest
from repro.runtime.sweep import SweepConfig, run_sweep

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


class TestJournalUnit:
    def test_roundtrip(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl", "fp")
        journal.start()
        journal.record("task:a", {"v": 1})
        journal.record("task:b", {"v": 2})
        journal.close()
        again = SweepJournal(tmp_path / "j.jsonl", "fp")
        assert again.load_completed() == {"task:a": {"v": 1},
                                          "task:b": {"v": 2}}

    def test_fingerprint_mismatch_raises(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl", "fp-one")
        journal.start()
        journal.close()
        with pytest.raises(JournalError):
            SweepJournal(tmp_path / "j.jsonl", "fp-two").load_completed()

    def test_torn_tail_tolerated(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl", "fp")
        journal.start()
        journal.record("task:a", {"v": 1})
        journal.close()
        with open(tmp_path / "j.jsonl", "a") as handle:
            handle.write('{"type":"task","task":"task:b","out')  # crash here
        loaded = SweepJournal(tmp_path / "j.jsonl", "fp").load_completed()
        assert loaded == {"task:a": {"v": 1}}

    def test_truncation_at_every_byte_offset_of_the_final_record(
            self, tmp_path):
        """Property: a crash mid-append never loses *earlier* entries.

        Truncate the journal at every byte offset inside its final
        record; each prefix must load cleanly with the completed entry
        before the tear fully intact.
        """
        journal = SweepJournal(tmp_path / "j.jsonl", "fp")
        journal.start()
        journal.record("task:a", {"v": 1})
        journal.record("task:b", {"v": 2})
        journal.close()
        full = (tmp_path / "j.jsonl").read_bytes()
        final_start = full.rstrip(b"\n").rfind(b"\n") + 1
        for cut in range(final_start, len(full)):
            (tmp_path / "j.jsonl").write_bytes(full[:cut])
            loaded = SweepJournal(tmp_path / "j.jsonl",
                                  "fp").load_completed()
            assert loaded.get("task:a") == {"v": 1}
            assert loaded.get("task:b") in (None, {"v": 2})

    def test_injected_torn_write_fails_safe(self, tmp_path):
        from repro.resilience import faultplane
        from repro.resilience.faultplane import FaultPlan

        faultplane.install(FaultPlan(seed=0,
                                     schedule={"journal.torn": (3,)}))
        try:
            journal = SweepJournal(tmp_path / "j.jsonl", "fp")
            journal.start()  # hit 1: header
            journal.record("task:a", {"v": 1})  # hit 2
            journal.record("task:b", {"v": 2})  # hit 3: torn mid-line
            assert journal.broken
            journal.record("task:c", {"v": 3})  # fail-safe: dropped
            journal.close()
        finally:
            faultplane.uninstall()
        loaded = SweepJournal(tmp_path / "j.jsonl", "fp").load_completed()
        assert loaded == {"task:a": {"v": 1}}

    def test_digest_mismatch_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = [
            {"type": "header", "format": JOURNAL_FORMAT, "fingerprint": "fp"},
            {"type": "task", "task": "task:a",
             "digest": payload_digest({"v": 1}), "output": {"v": 1}},
            {"type": "task", "task": "task:b",
             "digest": "0" * 64, "output": {"v": 2}},  # rotted
        ]
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        loaded = SweepJournal(path, "fp").load_completed()
        assert loaded == {"task:a": {"v": 1}}

    def test_missing_or_headerless_file_is_empty(self, tmp_path):
        assert SweepJournal(tmp_path / "absent.jsonl", "fp").load_completed() == {}
        (tmp_path / "torn.jsonl").write_text('{"ty')
        assert SweepJournal(tmp_path / "torn.jsonl", "fp").load_completed() == {}

    def test_fingerprint_is_stable_and_grid_sensitive(self):
        a = run_fingerprint({"experiments": ["x", "y"], "seed": 0})
        assert a == run_fingerprint({"seed": 0, "experiments": ["x", "y"]})
        assert a != run_fingerprint({"experiments": ["x"], "seed": 0})


class TestInProcessResume:
    def test_resume_replays_journal_and_is_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        first = run_sweep(SweepConfig(
            workloads=("adpcm",), deadline_fracs=(0.5,),
            cache_dir=None, output_dir=str(out),
        ))
        assert first.ok
        reference = first.results_path.read_bytes()

        resumed = run_sweep(SweepConfig(
            workloads=("adpcm",), deadline_fracs=(0.5,),
            cache_dir=None, output_dir=str(out), resume=True,
        ))
        assert resumed.ok
        assert resumed.resumed_tasks == len(first.results)
        assert all(r.cache == "journal" for r in resumed.results.values())
        assert resumed.results_path.read_bytes() == reference

    def test_resume_against_different_grid_raises(self, tmp_path):
        out = tmp_path / "out"
        run_sweep(SweepConfig(workloads=("adpcm",), deadline_fracs=(0.5,),
                              output_dir=str(out)))
        with pytest.raises(JournalError):
            run_sweep(SweepConfig(workloads=("adpcm",), deadline_fracs=(0.7,),
                                  output_dir=str(out), resume=True))

    def test_resume_under_another_key_version_raises(self, tmp_path,
                                                     monkeypatch):
        # Outputs journaled under other artifact semantics (say, verify
        # outputs without the bound fields) must never be replayed.
        out = tmp_path / "out"
        config = dict(workloads=("adpcm",), deadline_fracs=(0.5,),
                      cache_dir=None, output_dir=str(out))
        with monkeypatch.context() as patch:
            patch.setattr(hashing, "KEY_VERSION", hashing.KEY_VERSION - 1)
            assert run_sweep(SweepConfig(**config)).ok
        with pytest.raises(JournalError):
            run_sweep(SweepConfig(**config, resume=True))


def _sweep_cmd(out, cache, *extra):
    return [
        sys.executable, "-m", "repro", "sweep",
        "--workloads", "adpcm", "--deadline-fracs", "0.5", "--jobs", "1",
        "--quiet", "--cache-dir", str(cache), "--output-dir", str(out),
        *extra,
    ]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _wait_for_journal(journal: Path, lines: int, proc, timeout_s: float = 120.0):
    """Block until the journal holds ``lines`` lines (or the run ends)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            return
        if journal.exists() and len(journal.read_text().splitlines()) >= lines:
            return
        time.sleep(0.05)
    raise TimeoutError(f"journal never reached {lines} lines")


class TestCrashResume:
    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        out, cache = tmp_path / "out", tmp_path / "cache"
        proc = subprocess.Popen(
            _sweep_cmd(out, cache), env=_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # Kill as soon as the first task is durably journaled —
            # SIGKILL, so no handler gets a chance to tidy up.
            _wait_for_journal(out / "journal.jsonl", 2, proc)
        finally:
            proc.kill()
            proc.wait(timeout=60)

        resumed = subprocess.run(
            _sweep_cmd(out, cache, "--resume"), env=_env(),
            capture_output=True, text=True, timeout=600,
        )
        assert resumed.returncode == 0, resumed.stderr
        results = (out / "results.jsonl").read_bytes()

        reference = subprocess.run(
            _sweep_cmd(tmp_path / "ref", tmp_path / "cache2"), env=_env(),
            capture_output=True, text=True, timeout=600,
        )
        assert reference.returncode == 0, reference.stderr
        assert (tmp_path / "ref" / "results.jsonl").read_bytes() == results

    def test_sigint_drains_and_exits_documented_code(self, tmp_path):
        out, cache = tmp_path / "out", tmp_path / "cache"
        proc = subprocess.Popen(
            _sweep_cmd(out, cache), env=_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        _wait_for_journal(out / "journal.jsonl", 2, proc)
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=600)
        if proc.returncode == 0:
            pytest.skip("sweep finished before SIGINT landed")
        assert proc.returncode == 130, stderr
        assert "--resume" in stderr
        # The journal survived the drain and is loadable ...
        journal = SweepJournal(out / "journal.jsonl", "ignored")
        header = journal._header()
        assert header is not None and header["format"] == JOURNAL_FORMAT
        # ... results.jsonl was withheld (partial science is no science),
        # but the operational manifest exists.
        assert not (out / "results.jsonl").exists()
        assert (out / "manifest.jsonl").exists()

        finish = subprocess.run(
            _sweep_cmd(out, cache, "--resume"), env=_env(),
            capture_output=True, text=True, timeout=600,
        )
        assert finish.returncode == 0, finish.stderr
        assert (out / "results.jsonl").exists()
