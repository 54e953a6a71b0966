"""ADPCM workload: IMA ADPCM encoder + decoder.

The MediaBench adpcm benchmark compresses 16-bit PCM to 4-bit codes with
the IMA step-size table and reconstructs it.  This kernel keeps the exact
algorithmic skeleton — sign/magnitude bit extraction, step-index
adaptation, clamping — over a synthetically generated speech-like signal.
The step table is built in-program from the standard 1.1x geometric
recurrence, so the workload needs no data files.

Character: integer, branch-heavy, small working set (compute-dominated;
the paper's Table 7 shows adpcm with the smallest memory component).
"""

from __future__ import annotations

N_SAMPLES = 2048

SOURCE = """
# IMA ADPCM encode + decode over NSAMP samples.

func clamp(v: int, lo: int, hi: int) -> int {
    if (v < lo) { return lo; }
    if (v > hi) { return hi; }
    return v;
}

func encode_sample(sample: int, pred: int, step: int) -> int {
    # 4-bit code: sign bit + 3 magnitude bits (returns 0..15)
    var diff: int = sample - pred;
    var code: int = 0;
    if (diff < 0) { code = 8; diff = -diff; }
    if (diff >= step) { code = code | 4; diff = diff - step; }
    if (diff >= step / 2) { code = code | 2; diff = diff - step / 2; }
    if (diff >= step / 4) { code = code | 1; }
    return code;
}

func decode_delta(code: int, step: int) -> int {
    var delta: int = step / 8;
    if (code & 4) { delta = delta + step; }
    if (code & 2) { delta = delta + step / 2; }
    if (code & 1) { delta = delta + step / 4; }
    if (code & 8) { delta = -delta; }
    return delta;
}

func main(nsamp: int) -> int {
    extern pcm: int[2048];
    array codes: int[2048];
    array recon: int[2048];
    array steptab: int[89];
    array idxadj: int[16];

    # Build the IMA step table: geometric growth by ~1.1 from 7.
    var s: int = 7;
    for (var i: int = 0; i < 89; i = i + 1) {
        steptab[i] = s;
        s = s + (s / 10) + 1;
    }
    # Index adjustment table: -1 for small codes, +2/+4/+6/+8 for large.
    for (var m: int = 0; m < 16; m = m + 1) {
        var mag: int = m & 7;
        if (mag < 4) { idxadj[m] = -1; }
        else { idxadj[m] = (mag - 3) * 2; }
    }

    # ---- Encode ----
    var pred: int = 0;
    var index: int = 0;
    for (var i: int = 0; i < nsamp; i = i + 1) {
        var step: int = steptab[index];
        var code: int = encode_sample(pcm[i], pred, step);
        codes[i] = code;
        pred = clamp(pred + decode_delta(code, step), -32768, 32767);
        index = clamp(index + idxadj[code], 0, 88);
    }

    # ---- Decode ----
    pred = 0;
    index = 0;
    for (var i: int = 0; i < nsamp; i = i + 1) {
        var step: int = steptab[index];
        pred = clamp(pred + decode_delta(codes[i], step), -32768, 32767);
        index = clamp(index + idxadj[codes[i]], 0, 88);
        recon[i] = pred;
    }

    # Checksum: accumulated absolute reconstruction error + code mix.
    var err: int = 0;
    var mix: int = 0;
    for (var i: int = 0; i < nsamp; i = i + 1) {
        err = err + abs(recon[i] - pcm[i]);
        mix = (mix + codes[i] * 31) % 65521;
    }
    return err % 1000000 + mix;
}
"""


def make_inputs(category: str = "default", seed: int = 0) -> dict[str, list]:
    """Speech-like PCM; categories only vary the seed for this workload."""
    from repro.workloads import inputs as gen

    return {"pcm": gen.speech_like(N_SAMPLES, seed=seed)}


def make_registers() -> dict[str, float]:
    return {"main.nsamp": N_SAMPLES}
