"""``python -m repro`` entry point."""

import os
import time

# One BLAS thread per process, set before numpy loads its BLAS: the
# native simplex does small sparse solves that threads only slow down,
# and pool workers (forked) and ``repro serve`` inherit the pin.  A
# caller's explicit value wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_start = time.perf_counter()
from repro.cli import main  # noqa: E402
from repro import observe  # noqa: E402

# The start-up layer of the time ledger: a gauge in every trace this
# process writes (``repro stats`` shows it).
observe.process_gauge("process.import_s", time.perf_counter() - _start)

if __name__ == "__main__":
    raise SystemExit(main())
