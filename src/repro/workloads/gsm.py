"""GSM workload: full-rate speech encoder core.

MediaBench's gsm implements GSM 06.10 RPE-LTP full-rate coding.  This
kernel keeps its two dominant stages per 160-sample frame:

* **short-term analysis** — autocorrelation (lags 0..8), reflection
  coefficients via a Levinson/Schur-style recursion, and the short-term
  residual filter;
* **long-term prediction** — cross-correlation lag search over each
  40-sample subframe (the MAC-heavy inner loop that dominates gsm's
  runtime).

Fixed-point integer arithmetic with shifts, as in the reference coder.
Character: integer-multiply bound with streaming reads of the speech
buffer.
"""

from __future__ import annotations

N_FRAMES = 5
FRAME = 160
N_SAMPLES = N_FRAMES * FRAME

SOURCE = """
# GSM-like short-term analysis + long-term predictor search.

func main(nframes: int) -> int {
    extern speech: int[800];      # nframes * 160 samples
    array autoc: int[9];
    array refl: int[8];
    array residual: int[800];
    array lags: int[32];          # best lag per subframe (4 per frame)
    array gains: int[32];

    var checksum: int = 0;

    for (var f: int = 0; f < nframes; f = f + 1) {
        var base: int = f * 160;

        # ---- autocorrelation, lags 0..8 (scaled >> 10)
        for (var k: int = 0; k <= 8; k = k + 1) {
            var sum: int = 0;
            for (var i: int = k; i < 160; i = i + 1) {
                sum = sum + (speech[base + i] * speech[base + i - k] >> 10);
            }
            autoc[k] = sum;
        }

        # ---- reflection coefficients (simplified Schur recursion)
        var err: int = autoc[0];
        if (err < 1) { err = 1; }
        for (var k: int = 0; k < 8; k = k + 1) {
            var r: int = (autoc[k + 1] << 8) / err;
            if (r > 255) { r = 255; }
            if (r < -255) { r = -255; }
            refl[k] = r;
            err = err - (r * r * err >> 16);
            if (err < 1) { err = 1; }
        }

        # ---- short-term residual filter (8-tap lattice approximation)
        for (var i: int = 0; i < 160; i = i + 1) {
            var pred: int = 0;
            var taps: int = 8;
            if (i < 8) { taps = i; }
            for (var k: int = 0; k < taps; k = k + 1) {
                pred = pred + (refl[k] * speech[base + i - 1 - k] >> 8);
            }
            residual[base + i] = speech[base + i] - pred;
        }

        # ---- long-term prediction: per 40-sample subframe, search the lag
        #      (40..120, step 3) maximizing cross-correlation.
        for (var sub: int = 0; sub < 4; sub = sub + 1) {
            var sbase: int = base + sub * 40;
            var best_lag: int = 40;
            var best_score: int = -2147483647;
            var lag: int = 40;
            while (lag <= 120) {
                if (sbase - lag >= 0) {
                    var score: int = 0;
                    for (var i: int = 0; i < 40; i = i + 1) {
                        score = score + (residual[sbase + i] * residual[sbase + i - lag] >> 6);
                    }
                    if (score > best_score) {
                        best_score = score;
                        best_lag = lag;
                    }
                }
                lag = lag + 3;
            }
            lags[f * 4 + sub] = best_lag;
            gains[f * 4 + sub] = best_score;
            checksum = (checksum + best_lag * 7 + (abs(best_score) % 9973)) % 999983;
        }
    }

    # fold residual energy into the checksum
    var energy: int = 0;
    for (var i: int = 0; i < nframes * 160; i = i + 1) {
        energy = (energy + abs(residual[i])) % 1000003;
    }
    return checksum * 3 + energy;
}
"""


def make_inputs(category: str = "default", seed: int = 0) -> dict[str, list]:
    from repro.workloads import inputs as gen

    return {"speech": gen.speech_like(N_SAMPLES, seed=seed)}


def make_registers() -> dict[str, float]:
    return {"main.nframes": N_FRAMES}
