"""mpg123 workload: MPEG-audio polyphase subband synthesis.

mpg123's decode time is dominated by the synthesis filterbank: per
granule, a 32-subband matrixing (a DCT-like dense matrix-vector product)
followed by windowed accumulation through a sliding FIFO of past
matrixing outputs.  This kernel reproduces both stages in floating point:

* matrixing: ``v[i] = sum_j cosmat[i][j] * samples[g][j]`` (32x32);
* windowing: each output sample accumulates 8 window taps applied to
  stride-32 slots of the 512-entry FIFO (the classic mpg123 access
  pattern).

The cosine matrix and the synthesis window are supplied as extern inputs
(computed host-side; the kernel language has no trig intrinsics).
Character: floating-point multiply bound, medium working set.
"""

from __future__ import annotations

import math

N_GRANULES = 24
N_BANDS = 32
FIFO = 512

SOURCE = """
# Polyphase synthesis: matrixing + windowed FIFO accumulation.

func main(ngran: int) -> int {
    extern samples: float[768];     # ngran * 32 subband samples
    extern cosmat: float[1024];     # 32x32 matrixing coefficients
    extern window: float[256];      # 32 outputs x 8 taps
    array v: float[512];            # sliding FIFO of matrixing outputs
    array pcm: float[768];         # synthesized output

    var vpos: int = 0;
    for (var g: int = 0; g < ngran; g = g + 1) {
        var sbase: int = g * 32;

        # ---- matrixing: 32 dot products of length 32
        for (var i: int = 0; i < 32; i = i + 1) {
            var acc: float = 0.0;
            var mbase: int = i * 32;
            for (var j: int = 0; j < 32; j = j + 1) {
                acc = acc + cosmat[mbase + j] * samples[sbase + j];
            }
            v[(vpos + i) % 512] = acc;
        }

        # ---- windowing: 32 outputs, 8 taps each at stride 64
        for (var i: int = 0; i < 32; i = i + 1) {
            var acc: float = 0.0;
            var wbase: int = i * 8;
            for (var t: int = 0; t < 8; t = t + 1) {
                var slot: int = (vpos + i + t * 64) % 512;
                acc = acc + window[wbase + t] * v[slot];
            }
            pcm[sbase + i] = acc;
        }

        vpos = (vpos + 32) % 512;
    }

    # checksum over clipped 16-bit output
    var checksum: int = 0;
    for (var i: int = 0; i < ngran * 32; i = i + 1) {
        var s: int = int(pcm[i]);
        if (s > 32767) { s = 32767; }
        if (s < -32768) { s = -32768; }
        checksum = (checksum + abs(s)) % 999983;
    }
    return checksum;
}
"""


def _cosmat() -> list[float]:
    return [
        math.cos((2 * j + 1) * (i % 16) * math.pi / 32.0) / (1.0 + 0.02 * i)
        for i in range(N_BANDS)
        for j in range(N_BANDS)
    ]


def _window() -> list[float]:
    # A raised-cosine synthesis window shaped like mpg123's dewindowing table.
    out = []
    for i in range(N_BANDS):
        for t in range(8):
            phase = (t * N_BANDS + i) / (8.0 * N_BANDS)
            out.append(math.cos(math.pi * (phase - 0.5)) * (0.9**t))
    return out


def make_inputs(category: str = "default", seed: int = 0) -> dict[str, list]:
    from repro.workloads import inputs as gen

    return {
        "samples": gen.subband_samples(N_GRANULES, N_BANDS, seed=seed),
        "cosmat": _cosmat(),
        "window": _window(),
    }


def make_registers() -> dict[str, float]:
    return {"main.ngran": N_GRANULES}
