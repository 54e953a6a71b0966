"""MPEG workload: video decode inner loops (dequant + IDCT + motion comp).

MediaBench's mpeg2/decode spends its time in three kernels per 8x8 block:
coefficient dequantization, the 2-D inverse transform, and motion
compensation against reference frames.  This kernel reproduces that
pipeline over 54 blocks of a 128x128 frame:

* dequantization with an intra-style quantizer matrix built in-program;
* a separable 2-D butterfly transform (Walsh-Hadamard structure — the
  same add/sub dataflow as the fast IDCT, without cosine tables);
* motion compensation: each block fetches a motion-shifted 8x8 region
  from a 64 KB reference frame (main-memory traffic on the scale
  machine), adds the residual, clamps, and stores to the current frame.

**Input categories** (the paper's Section 4.3 study): ``no_b`` streams
predict every block from one reference, ``with_b`` streams make every
third block bidirectional — it reads a *second* reference frame and
averages, exercising extra code paths and memory traffic, exactly the
structural difference between the paper's 100b/bbc and flwr/cact inputs.
"""

from __future__ import annotations

N_BLOCKS = 54
FRAME_DIM = 128

SOURCE = """
# MPEG-style block decode: dequant + butterfly transform + motion comp.

func butterfly8(base: int) {
    # In-place 3-stage butterfly over work[base .. base+7] (stride 1).
    var s: int = 1;
    while (s < 8) {
        var g: int = 0;
        while (g < 8) {
            for (var i: int = g; i < g + s; i = i + 1) {
                var a: int = work[base + i];
                var b: int = work[base + i + s];
                work[base + i] = a + b;
                work[base + i + s] = a - b;
            }
            g = g + 2 * s;
        }
        s = s * 2;
    }
}

func clamppix(v: int) -> int {
    if (v < 0) { return 0; }
    if (v > 255) { return 255; }
    return v;
}

func main(nblocks: int) -> int {
    extern coeffs: int[3456];     # 54 blocks x 64 quantized coefficients
    extern mvs: int[108];         # (dx, dy) per block
    extern btype: int[54];        # 1 = bidirectional block
    extern ref0: int[16384];      # 128x128 forward reference
    extern ref1: int[16384];      # 128x128 backward reference
    array cur: int[16384];        # decoded frame
    array work: int[64];
    array qmat: int[64];

    # Intra-style quantizer matrix: 8 + distance from DC.
    for (var r: int = 0; r < 8; r = r + 1) {
        for (var c: int = 0; c < 8; c = c + 1) {
            qmat[r * 8 + c] = 8 + r + c;
        }
    }

    var checksum: int = 0;
    var blocks_per_row: int = 16;          # 128 / 8

    for (var b: int = 0; b < nblocks; b = b + 1) {
        var cbase: int = b * 64;

        # ---- dequantize into the work block
        for (var i: int = 0; i < 64; i = i + 1) {
            work[i] = coeffs[cbase + i] * qmat[i] >> 3;
        }

        # ---- 2-D transform: rows then columns (via transpose trick)
        for (var r: int = 0; r < 8; r = r + 1) {
            butterfly8(r * 8);
        }
        # transpose
        for (var r: int = 0; r < 8; r = r + 1) {
            for (var c: int = r + 1; c < 8; c = c + 1) {
                var t: int = work[r * 8 + c];
                work[r * 8 + c] = work[c * 8 + r];
                work[c * 8 + r] = t;
            }
        }
        for (var r: int = 0; r < 8; r = r + 1) {
            butterfly8(r * 8);
        }

        # ---- motion compensation
        var bx: int = (b % blocks_per_row) * 8;
        var by: int = (b / blocks_per_row) * 8;
        var dx: int = mvs[b * 2];
        var dy: int = mvs[b * 2 + 1];
        var sx: int = clampmv(bx + dx);
        var sy: int = clampmv(by + dy);
        var bidir: int = btype[b];

        for (var r: int = 0; r < 8; r = r + 1) {
            var dst: int = (by + r) * 128 + bx;
            var src: int = (sy + r) * 128 + sx;
            for (var c: int = 0; c < 8; c = c + 1) {
                var pred: int = ref0[src + c];
                if (bidir == 1) {
                    # average forward and (mirrored-motion) backward refs
                    pred = (pred + ref1[src + c] + 1) / 2;
                }
                var pix: int = clamppix(pred + (work[r * 8 + c] >> 6));
                cur[dst + c] = pix;
            }
        }
        checksum = (checksum + cur[by * 128 + bx] * 31 + cur[(by + 7) * 128 + bx + 7]) % 999983;
    }

    # fold a frame signature
    var sig: int = 0;
    for (var i: int = 0; i < 16384; i = i + 128) {
        sig = (sig + cur[i]) % 65521;
    }
    return checksum + sig;
}

func clampmv(v: int) -> int {
    if (v < 0) { return 0; }
    if (v > 120) { return 120; }
    return v;
}
"""


CATEGORIES = ("no_b", "with_b")


def make_inputs(category: str = "no_b", seed: int = 0) -> dict[str, list]:
    """Inputs for one stream category.

    The paper's four streams map to (category, seed) pairs:
    100b -> ("no_b", 0), bbc -> ("no_b", 1), flwr -> ("with_b", 0),
    cact -> ("with_b", 1).
    """
    from repro.workloads import inputs as gen

    generator = gen.rng(1000 + seed)
    ref0 = [int(v) for v in generator.integers(0, 256, size=FRAME_DIM * FRAME_DIM)]
    ref1 = [int(v) for v in generator.integers(0, 256, size=FRAME_DIM * FRAME_DIM)]
    magnitude = 4 if category == "no_b" else 10
    return {
        "coeffs": gen.dct_blocks(N_BLOCKS, seed=seed, sparsity=0.8),
        "mvs": gen.motion_vectors(N_BLOCKS, seed=seed, magnitude=magnitude),
        "btype": gen.b_frame_flags(N_BLOCKS, category),
        "ref0": ref0,
        "ref1": ref1,
    }


def make_registers() -> dict[str, float]:
    return {"main.nblocks": N_BLOCKS}
