"""Run the ``repro`` CLI with the per-layer ledger installed.

Usage: python3 perfbench/traced.py LEDGER_DIR <repro arguments...>

Times ``import repro.cli`` in this fresh interpreter, wraps every layer
(see ``ledger.py``), runs the command, restores every wrapped function
and writes this process's ledger into LEDGER_DIR.  Pool workers forked
by the command write their own ledgers there when they exit.
"""

import sys
import time

start = time.perf_counter()
import repro.cli  # noqa: E402  (timed: the import is a layer)

import_s = time.perf_counter() - start

import ledger  # noqa: E402


def main() -> int:
    led = ledger.Ledger(sys.argv[1])
    led.charge("process.import", import_s, import_s)
    start = time.perf_counter()
    installation = ledger.install(led)
    install_s = time.perf_counter() - start  # tracing overhead, reported
    led.charge("trace.install", install_s, install_s)
    try:
        return repro.cli.main(sys.argv[2:])
    finally:
        not_restored = installation.uninstall()
        led.dump(restored=not not_restored, not_restored=not_restored)


if __name__ == "__main__":
    raise SystemExit(main())
