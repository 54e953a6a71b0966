"""EPIC workload: wavelet pyramid coder.

MediaBench's epic is an image coder built on a steerable/wavelet pyramid
followed by quantization and run-length entropy coding.  This kernel keeps
that pipeline: a 3-level separable Haar-style pyramid over a 64x64 float
image (row pass + *strided* column pass, the cache-unfriendly part),
deadzone quantization, and a run-length statistics pass.

Character: floating point, strided accesses that sweep a working set
larger than L1 — the memory-bound profile the paper's Table 7 reports for
epic (its t_invariant is the largest of the suite relative to runtime).
"""

from __future__ import annotations

WIDTH = 64

SOURCE = """
# 3-level separable wavelet pyramid + quantization over a 64x64 image.

func main(levels: int) -> int {
    extern img: float[4096];     # 64x64, row-major
    array work: float[4096];
    array qcoef: int[4096];

    # copy input into the working buffer
    for (var i: int = 0; i < 4096; i = i + 1) {
        work[i] = img[i];
    }

    var size: int = 64;
    for (var level: int = 0; level < levels; level = level + 1) {
        var half: int = size / 2;
        # ---- row transform: averages to [0,half), details to [half,size)
        for (var r: int = 0; r < size; r = r + 1) {
            var rowbase: int = r * 64;
            for (var c: int = 0; c < half; c = c + 1) {
                var a: float = work[rowbase + 2 * c];
                var b: float = work[rowbase + 2 * c + 1];
                img[rowbase + c] = (a + b) * 0.5;
                img[rowbase + half + c] = (a - b) * 0.5;
            }
        }
        # ---- column transform (stride-64 accesses)
        for (var c: int = 0; c < size; c = c + 1) {
            for (var r: int = 0; r < half; r = r + 1) {
                var a: float = img[(2 * r) * 64 + c];
                var b: float = img[(2 * r + 1) * 64 + c];
                work[r * 64 + c] = (a + b) * 0.5;
                work[(half + r) * 64 + c] = (a - b) * 0.5;
            }
        }
        size = half;
    }

    # ---- deadzone quantization (coarser for finer subbands)
    var zeros: int = 0;
    for (var r: int = 0; r < 64; r = r + 1) {
        var qstep: float = 2.0;
        if (r >= 32) { qstep = 8.0; }
        else { if (r >= 16) { qstep = 4.0; } }
        for (var c: int = 0; c < 64; c = c + 1) {
            var v: float = work[r * 64 + c] / qstep;
            var q: int = int(v);
            if (abs(v) < 0.75) { q = 0; }
            qcoef[r * 64 + c] = q;
            if (q == 0) { zeros = zeros + 1; }
        }
    }

    # ---- run-length statistics (the entropy-coder stand-in)
    var runs: int = 0;
    var run: int = 0;
    var mag: int = 0;
    for (var i: int = 0; i < 4096; i = i + 1) {
        if (qcoef[i] == 0) {
            run = run + 1;
        } else {
            runs = runs + 1;
            mag = (mag + abs(qcoef[i]) + run) % 65521;
            run = 0;
        }
    }
    return zeros * 131 % 100003 + runs + mag;
}
"""


def make_inputs(category: str = "default", seed: int = 0) -> dict[str, list]:
    from repro.workloads import inputs as gen

    return {"img": gen.image_like(WIDTH, WIDTH, seed=seed)}


def make_registers() -> dict[str, float]:
    return {"main.levels": 3}
