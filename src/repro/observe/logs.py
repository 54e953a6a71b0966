"""One logging setup for the whole package.

Library modules obtain loggers with ``logging.getLogger("repro.<area>")``
and never configure handlers themselves; the CLI (or an embedding
application) calls :func:`configure_logging` exactly once.  Level
resolution order: explicit ``--log-level`` flag, then ``$REPRO_LOG``,
then WARNING.
"""

from __future__ import annotations

import logging
import os
import sys

#: Environment variable consulted when no --log-level flag is given.
LOG_ENV = "REPRO_LOG"

#: Single consistent line format for all repro diagnostics.
LOG_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"

_VALID = ("debug", "info", "warning", "error", "critical")


def resolve_level(flag: str | None = None) -> int:
    """Turn a flag/env level name into a logging constant.

    Unknown names fall back to WARNING rather than erroring: a bad
    ``$REPRO_LOG`` should never take the tool down.
    """
    name = (flag or os.environ.get(LOG_ENV) or "warning").lower()
    if name not in _VALID:
        name = "warning"
    return getattr(logging, name.upper())


class _StderrHandler(logging.StreamHandler):
    """Writes to the ``sys.stderr`` of the moment a record is emitted, not
    the one it was built under (a caller may swap and close that one)."""

    stream = property(lambda self: sys.stderr, lambda self, value: None)


def configure_logging(level: str | None = None) -> logging.Logger:
    """Install the package handler on the ``repro`` logger (idempotent).

    Only the ``repro`` hierarchy is touched — the root logger and any
    application logging around us stay untouched.
    """
    logger = logging.getLogger("repro")
    logger.setLevel(resolve_level(level))
    if not any(getattr(h, "_repro_handler", False) for h in logger.handlers):
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter(LOG_FORMAT, datefmt="%H:%M:%S"))
        handler._repro_handler = True
        logger.addHandler(handler)
        logger.propagate = False
    return logger
