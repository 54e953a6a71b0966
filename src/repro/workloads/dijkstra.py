"""Dijkstra workload: single-source shortest paths (MiBench-style).

Beyond the paper's MediaBench set, the suite carries this MiBench
network kernel because it exercises the access pattern the codecs don't:
*data-dependent* row jumps over an adjacency matrix bigger than L2.  The
next row scanned depends on the argmin of the distance array, so the
hardware prefetch-friendly streaming of the media kernels disappears —
the workload regime where the asynchronous-memory slack (and thus DVS
headroom) is most irregular.

Classic O(V²) Dijkstra: argmin scan over unvisited nodes, then a
relaxation sweep over the chosen node's adjacency row.
"""

from __future__ import annotations

N_VERTICES = 96
INFINITY = 1 << 28

SOURCE = """
# O(V^2) Dijkstra over a dense adjacency matrix (0 = no edge).

func main(nv: int) -> int {
    extern adj: int[9216];       # nv x nv edge weights
    array dist: int[96];
    array visited: int[96];

    var inf: int = 268435456;
    for (var i: int = 0; i < nv; i = i + 1) {
        dist[i] = inf;
        visited[i] = 0;
    }
    dist[0] = 0;

    var reached: int = 0;
    for (var round: int = 0; round < nv; round = round + 1) {
        # ---- argmin over unvisited vertices
        var u: int = -1;
        var best: int = inf;
        for (var i: int = 0; i < nv; i = i + 1) {
            if (visited[i] == 0 && dist[i] < best) {
                best = dist[i];
                u = i;
            }
        }
        if (u < 0) { break; }
        visited[u] = 1;
        reached = reached + 1;

        # ---- relax u's adjacency row (data-dependent row address)
        var rowbase: int = u * nv;
        for (var v: int = 0; v < nv; v = v + 1) {
            var w: int = adj[rowbase + v];
            if (w > 0 && visited[v] == 0) {
                var cand: int = dist[u] + w;
                if (cand < dist[v]) {
                    dist[v] = cand;
                }
            }
        }
    }

    # checksum: reachable count and distance fingerprint
    var sig: int = 0;
    for (var i: int = 0; i < nv; i = i + 1) {
        if (dist[i] < inf) {
            sig = (sig + dist[i] * (i + 1)) % 999983;
        }
    }
    return reached * 1000000 + sig % 1000000;
}
"""


def make_inputs(category: str = "default", seed: int = 0) -> dict[str, list]:
    """Random sparse-ish weighted digraph with a connected backbone."""
    from repro.workloads import inputs as gen

    generator = gen.rng(500 + seed)
    n = N_VERTICES
    adj = [0] * (n * n)
    # Backbone ring keeps everything reachable.
    for i in range(n):
        adj[i * n + (i + 1) % n] = int(generator.integers(1, 50))
    # Random extra edges (~12% density).
    extra = int(0.12 * n * n)
    sources = generator.integers(0, n, size=extra)
    targets = generator.integers(0, n, size=extra)
    weights = generator.integers(1, 100, size=extra)
    for s, t, w in zip(sources, targets, weights):
        if s != t:
            adj[int(s) * n + int(t)] = int(w)
    return {"adj": adj}


def make_registers() -> dict[str, float]:
    return {"main.nv": N_VERTICES}
