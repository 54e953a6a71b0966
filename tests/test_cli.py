"""CLI tests: every subcommand drives the real pipeline."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.observe import repro_version


class TestList:
    def test_lists_all_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("adpcm", "epic", "gsm", "mpeg", "mpg123", "ghostscript"):
            assert name in out


class TestRun:
    def test_run_default_mode(self, capsys):
        assert main(["run", "adpcm"]) == 0
        out = capsys.readouterr().out
        assert "800 MHz" in out
        assert "result=" in out

    def test_run_explicit_mode(self, capsys):
        assert main(["run", "adpcm", "--mode", "0"]) == 0
        assert "200 MHz" in capsys.readouterr().out

    def test_unknown_workload_errors(self, capsys):
        assert main(["run", "doom"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_mpeg_category(self, capsys):
        assert main(["run", "mpeg", "--category", "with_b"]) == 0

    def test_bad_category_errors(self, capsys):
        assert main(["run", "mpeg", "--category", "interlaced"]) == 1


class TestParams:
    def test_params_output(self, capsys):
        assert main(["params", "adpcm"]) == 0
        out = capsys.readouterr().out
        assert "N_overlap" in out
        assert "t_invariant" in out


class TestProfileCommand:
    def test_profile_prints_modes(self, capsys):
        assert main(["profile", "ghostscript"]) == 0
        out = capsys.readouterr().out
        assert "mode 0" in out and "mode 2" in out

    def test_profile_writes_json(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        assert main(["profile", "ghostscript", "-o", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["kind"] == "profile"
        assert data["name"] == "ghostscript"


class TestOptimizeCommand:
    def test_optimize_end_to_end(self, capsys, tmp_path):
        sched_path = tmp_path / "s.json"
        assert main([
            "optimize", "ghostscript", "--deadline-frac", "0.5",
            "-o", str(sched_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "MILP edge schedule" in out
        assert json.loads(sched_path.read_text())["kind"] == "schedule"

    def test_optimize_reuses_profile(self, capsys, tmp_path):
        prof_path = tmp_path / "p.json"
        main(["profile", "ghostscript", "-o", str(prof_path)])
        capsys.readouterr()
        assert main([
            "optimize", "ghostscript", "--profile", str(prof_path),
            "--deadline-frac", "0.7",
        ]) == 0
        assert "deadline" in capsys.readouterr().out

    def test_optimize_with_comparison(self, capsys):
        assert main([
            "optimize", "ghostscript", "--deadline-frac", "0.6", "--compare",
        ]) == 0
        out = capsys.readouterr().out
        assert "greedy heuristic" in out
        assert "block-grain MILP" in out
        assert "best single mode" in out


class TestBoundCommand:
    def test_bound_with_levels(self, capsys):
        assert main(["bound", "ghostscript", "--levels", "7",
                     "--deadline-frac", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "7 levels" in out
        assert "%" in out


class TestOptimizeVerificationGate:
    def test_prediction_mismatch_fails_the_command(self, capsys, monkeypatch):
        """The exit code is gated on verification, not just on solving:
        an impossible tolerance must turn a clean run into a failure."""
        from repro.verify import tolerances

        monkeypatch.setattr(tolerances, "ENERGY_PREDICTION_REL_TOL", -1.0)
        assert main(["optimize", "ghostscript", "--deadline-frac", "0.5"]) == 1
        err = capsys.readouterr().err
        assert "diverged from the MILP prediction" in err

    def test_deadline_slack_gate(self, capsys, monkeypatch):
        from repro.verify import tolerances

        monkeypatch.setattr(tolerances, "DEADLINE_REL_SLACK", -1.0)
        assert main(["optimize", "ghostscript", "--deadline-frac", "0.5"]) == 1
        assert "missed the deadline" in capsys.readouterr().err


class TestVerifyCommand:
    def test_verify_passes_on_real_workload(self, capsys):
        assert main([
            "verify", "adpcm", "--deadline-frac", "0.5",
            "--no-backends", "--no-metamorphic",
        ]) == 0
        out = capsys.readouterr().out
        assert "ok   certificate" in out
        assert "0 failures" in out

    def test_verify_unknown_workload_errors(self, capsys):
        assert main(["verify", "doom"]) == 1
        assert "error:" in capsys.readouterr().err


class TestCacheFlags:
    def test_profile_cache_round_trip(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main(["profile", "ghostscript", "--cache-dir", str(cache)]) == 0
        assert "cached" in capsys.readouterr().out
        assert main(["profile", "ghostscript", "--cache-dir", str(cache)]) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_optimize_reuses_cached_schedule(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = ["optimize", "ghostscript", "--deadline-frac", "0.5",
                "--cache-dir", str(cache)]
        assert main(args) == 0
        assert "artifact cache" not in capsys.readouterr().out
        assert main(args) == 0
        assert "schedule from artifact cache" in capsys.readouterr().out

    def test_no_cache_disables_env_store(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["profile", "ghostscript", "--no-cache"]) == 0
        assert "cache" not in capsys.readouterr().out
        assert not (tmp_path / "cache").exists()

    def test_single_mode_deadline_frac_is_a_clear_error(self, capsys):
        assert main(["optimize", "adpcm", "--levels", "1",
                     "--deadline-frac", "0.5"]) == 1
        err = capsys.readouterr().err
        assert "at least two" in err


class TestSweepCommand:
    def test_sweep_smoke_and_warm_rerun(self, capsys, tmp_path):
        args = [
            "sweep", "--workloads", "adpcm", "--deadline-fracs", "0.5",
            "--cache-dir", str(tmp_path / "cache"),
            "--output-dir", str(tmp_path / "out"),
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "1/1 experiments ok" in cold
        assert (tmp_path / "out" / "results.jsonl").exists()
        record = json.loads(
            (tmp_path / "out" / "results.jsonl").read_text().strip())
        assert record["status"] == "ok" and record["verified"] is True

        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "cache: 3 hits" in warm  # profile, optimize, simulate

    def test_sweep_fault_injection_fails_but_completes(self, capsys, tmp_path):
        # The sweep completes and absorbs the failure, so it exits with
        # the documented *degraded* code, not a hard failure.
        assert main([
            "sweep", "--workloads", "adpcm", "--deadline-fracs", "0.5",
            "--no-cache", "--retries", "0",
            "--inject-fault", "optimize:*",
            "--output-dir", str(tmp_path / "out"),
        ]) == 3
        captured = capsys.readouterr()
        assert "FAILED" in captured.err
        record = json.loads(
            (tmp_path / "out" / "results.jsonl").read_text().strip())
        assert record["status"] == "failed"
        assert record["failures"]["optimize"]["error_type"] == "InjectedFault"

    def test_taskgraph_sweep_fault_injection_fails_but_completes(
            self, capsys, tmp_path):
        assert main([
            "taskgraph", "sweep", "--shapes", "fork-join", "--tasks", "3",
            "--cores", "1", "--deadline-fracs", "0.5", "--no-cache",
            "--retries", "0", "--inject-fault", "tg-solve:*",
            "--output-dir", str(tmp_path / "out"),
        ]) == 3
        assert "FAILED" in capsys.readouterr().err
        record = json.loads(
            (tmp_path / "out" / "results.jsonl").read_text().strip())
        assert record["failures"]["tg-solve"]["error_type"] == "InjectedFault"

    def test_sweep_rejects_bad_fraction(self, capsys, tmp_path):
        assert main([
            "sweep", "--workloads", "adpcm", "--deadline-fracs", "1.5",
            "--no-cache", "--output-dir", str(tmp_path / "out"),
        ]) == 1
        assert "error:" in capsys.readouterr().err


class TestFuzzCommand:
    def test_fuzz_smoke(self, capsys):
        assert main([
            "fuzz", "--runs", "2", "--seed", "0",
            "--no-backends", "--no-metamorphic",
        ]) == 0
        out = capsys.readouterr().out
        assert "all oracles passed" in out
        assert "2/2 programs" in out

    def test_one_level_table_is_refused_before_any_program(
            self, capsys, monkeypatch):
        import repro.verify.fuzz as fuzz_module

        generated = []
        monkeypatch.setattr(fuzz_module, "fuzz",
                            lambda **kwargs: generated.append(kwargs))
        assert main(["fuzz", "--levels", "1", "--runs", "1",
                     "--no-backends", "--no-metamorphic"]) == 1
        captured = capsys.readouterr()
        assert generated == [] and captured.out == ""
        assert captured.err == ("error: mode tables need at least two "
                                "levels, got 1\n")


class TestNoFastpathFlag:
    """``--no-fastpath`` is ``$REPRO_NO_FASTPATH=1`` for one command."""

    @pytest.mark.parametrize("before", [None, "0"])
    def test_sets_the_variable_only_while_the_command_runs(
            self, monkeypatch, before):
        import repro.cli as cli

        if before is None:
            monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
        else:
            monkeypatch.setenv("REPRO_NO_FASTPATH", before)
        seen = []
        monkeypatch.setattr(cli, "cmd_run", lambda args: seen.append(
            os.environ.get("REPRO_NO_FASTPATH")) or 0)
        assert main(["run", "adpcm", "--no-fastpath"]) == 0
        assert main(["run", "adpcm"]) == 0
        assert seen == ["1", before]
        assert os.environ.get("REPRO_NO_FASTPATH") == before


class TestInputValidation:
    """Satellite: missing/unreadable/malformed input files exit with a
    one-line error — never a traceback."""

    def _one_line_error(self, captured):
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_optimize_missing_profile_file(self, capsys):
        rc = main(["optimize", "adpcm", "--profile", "/no/such/profile.json"])
        assert rc == 2
        self._one_line_error(capsys.readouterr())

    def test_optimize_malformed_profile_file(self, capsys, tmp_path):
        bad = tmp_path / "profile.json"
        bad.write_text('{"kind": "profile", "format')  # torn JSON
        rc = main(["optimize", "adpcm", "--profile", str(bad)])
        assert rc == 1
        self._one_line_error(capsys.readouterr())

    def test_optimize_wrong_document_kind(self, capsys, tmp_path):
        bad = tmp_path / "profile.json"
        bad.write_text('{"kind": "schedule", "format": 1}')
        rc = main(["optimize", "adpcm", "--profile", str(bad)])
        assert rc == 1
        self._one_line_error(capsys.readouterr())

    def test_profile_unwritable_output(self, capsys):
        rc = main(["profile", "ghostscript", "-o", "/no/such/dir/out.json"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.err

    def test_sweep_resume_against_foreign_journal(self, capsys, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "journal.jsonl").write_text(
            '{"type":"header","format":1,"fingerprint":"deadbeef"}\n')
        rc = main([
            "sweep", "--workloads", "adpcm", "--deadline-fracs", "0.5",
            "--no-cache", "--output-dir", str(out), "--resume",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "different sweep grid" in err
        assert "Traceback" not in err


class TestAnytimeOptimizeCommand:
    def test_starved_budget_degrades_with_exit_3(self, capsys):
        rc = main(["optimize", "ghostscript", "--deadline-frac", "0.9",
                   "--solver-budget", "0.0001"])
        assert rc == 3
        out = capsys.readouterr().out
        # The continuous tier needs no search, so it absorbs starved
        # budgets before greedy runs (docs/continuous.md).
        assert "solver tier continuous" in out
        assert "[degraded]" in out

    def test_generous_budget_stays_exit_0(self, capsys):
        rc = main(["optimize", "ghostscript", "--deadline-frac", "0.9",
                   "--solver-budget", "60"])
        assert rc == 0
        assert "solver tier milp-" in capsys.readouterr().out

    def test_degraded_schedule_is_not_cached(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        rc = main(["optimize", "ghostscript", "--deadline-frac", "0.9",
                   "--solver-budget", "0.0001", "--cache-dir", str(cache)])
        assert rc == 3
        # A following exact run must not see a cached fallback schedule.
        rc = main(["optimize", "ghostscript", "--deadline-frac", "0.9",
                   "--cache-dir", str(cache)])
        assert rc == 0
        assert "(schedule from artifact cache)" not in capsys.readouterr().out


class TestCacheCommand:
    def test_verify_clean_then_corrupt_then_healed(self, capsys, tmp_path):
        from repro.runtime.cache import ArtifactStore

        root = tmp_path / "store"
        store = ArtifactStore(root)
        path = store.put("a" * 64, {"v": 1})
        assert main(["cache", "verify", "--cache-dir", str(root)]) == 0
        assert "cache ok" in capsys.readouterr().out

        path.write_text(path.read_text()[:20])
        assert main(["cache", "verify", "--cache-dir", str(root)]) == 3
        captured = capsys.readouterr()
        assert "DEGRADED" in captured.out
        assert (root / "quarantine").is_dir()
        # The audit quarantined the damage, so the store is clean again.
        assert main(["cache", "verify", "--cache-dir", str(root)]) == 0

    def test_clear(self, capsys, tmp_path):
        from repro.runtime.cache import ArtifactStore

        root = tmp_path / "store"
        ArtifactStore(root).put("b" * 64, {"v": 2})
        assert main(["cache", "clear", "--cache-dir", str(root)]) == 0
        assert "removed 1 artifacts" in capsys.readouterr().out


class TestVersionOption:
    def test_module_prints_version_on_stdout_and_exits_0(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-m", "repro", "--version"],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"repro {repro_version()}\n"
        assert proc.stderr == ""

    def test_help_still_lists_the_option(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "--version" in capsys.readouterr().out
