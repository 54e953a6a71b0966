"""The seeded request plan of the ``serve-warm`` workload.

Every request is a ``POST /v1/sweep`` over a *grid*: a non-empty subset
of the paper suite times a non-empty subset of the cached deadline
fractions.  Each closed-loop client walks its own share of distinct grids
in a seeded order, and every fourth request of a client repeats one of
that client's last few grids.  A client's earlier requests have all been
answered (closed loop), so a repeat is always served from the server's
finished-job memory — never coalesced with a run in flight — and the
counts of DAG runs and replays are the same on every run of one seed.
"""

from __future__ import annotations

import itertools
import random

SUITE = ("adpcm", "epic", "ghostscript", "gsm", "mpeg", "mpg123")
FRACS = (0.35, 0.5, 0.7)
REPEAT_EVERY = 4   # one request in four is a repeat
RECENT = 4         # a repeat picks one of the client's last RECENT grids
REQUESTS_PER_SECOND = 25  # plan size per nominal measured second

#: The whole cached grid, sent once before timing to warm the workers.
WARMUP = {"workloads": list(SUITE), "deadline_fracs": list(FRACS)}


def _subsets(items: tuple) -> list[tuple]:
    return [combo for size in range(1, len(items) + 1)
            for combo in itertools.combinations(items, size)]


def distinct_grids() -> list[dict]:
    """Every grid of the plan space except the warm-up grid (440)."""
    grids = [{"workloads": list(w), "deadline_fracs": list(f)}
             for w in _subsets(SUITE) for f in _subsets(FRACS)]
    return [g for g in grids if g != WARMUP]


def plan_size(seconds: int) -> int:
    """Requests in the plan for a nominal measurement of ``seconds``.

    Capped so the distinct share never exceeds the grid space.
    """
    cap = len(distinct_grids()) * REPEAT_EVERY // (REPEAT_EVERY - 1)
    return min(REQUESTS_PER_SECOND * seconds, cap)


def build_plan(seed: int, requests: int, clients: int = 2) -> list[list[dict]]:
    """Per-client request sequences; each entry is a grid plus ``repeat``."""
    rng = random.Random(seed)
    grids = distinct_grids()
    rng.shuffle(grids)
    fresh = iter(grids)
    plans: list[list[dict]] = []
    for client in range(clients):
        count = requests // clients + (client < requests % clients)
        sequence: list[dict] = []
        seen: list[dict] = []
        for i in range(count):
            if (i + 1) % REPEAT_EVERY == 0:
                grid = rng.choice(seen[-RECENT:])
                sequence.append({**grid, "repeat": True})
                continue
            try:
                grid = next(fresh)
            except StopIteration:
                raise ValueError(
                    f"{requests} requests need more distinct grids than the "
                    f"{len(grids)} in the plan space") from None
            seen.append(grid)
            sequence.append({**grid, "repeat": False})
        plans.append(sequence)
    return plans
