"""Logging configuration: level resolution and idempotent handler setup."""

from __future__ import annotations

import logging

from repro import observe


class TestResolveLevel:
    def test_flag_wins(self, monkeypatch):
        monkeypatch.setenv(observe.LOG_ENV, "error")
        assert observe.resolve_level("debug") == logging.DEBUG

    def test_env_when_no_flag(self, monkeypatch):
        monkeypatch.setenv(observe.LOG_ENV, "info")
        assert observe.resolve_level(None) == logging.INFO

    def test_default_is_warning(self, monkeypatch):
        monkeypatch.delenv(observe.LOG_ENV, raising=False)
        assert observe.resolve_level(None) == logging.WARNING

    def test_garbage_never_raises(self, monkeypatch):
        monkeypatch.setenv(observe.LOG_ENV, "shouty")
        assert observe.resolve_level(None) == logging.WARNING
        assert observe.resolve_level("LOUD") == logging.WARNING


class TestConfigureLogging:
    def test_installs_exactly_one_handler(self):
        logger = observe.configure_logging("info")
        observe.configure_logging("debug")
        marked = [h for h in logger.handlers
                  if getattr(h, "_repro_handler", False)]
        assert len(marked) == 1
        assert logger.level == logging.DEBUG
        assert logger.propagate is False

    def test_root_logger_untouched(self):
        before = list(logging.getLogger().handlers)
        observe.configure_logging("info")
        assert logging.getLogger().handlers == before

    def test_library_loggers_inherit(self):
        logger = observe.configure_logging("info")
        records = []
        capture = logging.Handler()
        capture.emit = records.append
        logger.addHandler(capture)
        try:
            assert logging.getLogger("repro.sweep").isEnabledFor(logging.INFO)
            logging.getLogger("repro.sweep").info("resuming from journal")
        finally:
            logger.removeHandler(capture)
        assert any("resuming" in r.getMessage() for r in records)

    def test_handler_follows_a_swapped_stderr(self, monkeypatch):
        """The handler writes to the stderr current at emit time, not the
        one current at configure time (which may be closed by then)."""
        import io
        import sys

        observe.configure_logging("warning")
        swapped = io.StringIO()
        monkeypatch.setattr(sys, "stderr", swapped)
        logging.getLogger("repro.sweep").warning("journal fingerprint moved")
        written = swapped.getvalue()
        assert written.endswith("repro.sweep: journal fingerprint moved\n")
        assert "Logging error" not in written
