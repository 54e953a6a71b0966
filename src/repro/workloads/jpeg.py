"""JPEG workload: baseline-encoder block pipeline.

A second extension beyond the paper's set (cjpeg is the other half of
MediaBench's image pair).  Per 8x8 block of a 64x64 grayscale image:

* level shift and a separable butterfly transform (the fast-DCT dataflow,
  as in the mpeg workload);
* quantization with the luminance-style quality-scaled matrix;
* zigzag reordering (host-computed order table, as a real encoder's
  constant table);
* run-length coding of AC coefficients with a magnitude-category bit
  estimate — the entropy-coding stand-in producing a realistic
  data-dependent inner loop.

Character: int transform compute plus table-driven irregular reads;
midway between adpcm (pure compute) and epic (strided memory).
"""

from __future__ import annotations

IMAGE_DIM = 64
N_BLOCKS = 40  # top 5 block-rows of the 8x8 grid (keeps runs fast)

SOURCE = """
# Baseline JPEG-style encoder core: transform + quantize + zigzag + RLE.

func butterfly8w(base: int) {
    var s: int = 1;
    while (s < 8) {
        var g: int = 0;
        while (g < 8) {
            for (var i: int = g; i < g + s; i = i + 1) {
                var a: int = blk[base + i];
                var b: int = blk[base + i + s];
                blk[base + i] = a + b;
                blk[base + i + s] = a - b;
            }
            g = g + 2 * s;
        }
        s = s * 2;
    }
}

func bit_category(v: int) -> int {
    var mag: int = abs(v);
    var bits: int = 0;
    while (mag > 0) {
        bits = bits + 1;
        mag = mag / 2;
    }
    return bits;
}

func main(nblk: int) -> int {
    extern img: int[4096];       # 64x64 grayscale, 0..255
    extern zigzag: int[64];      # standard zigzag order
    extern qmat: int[64];        # quality-scaled luminance matrix
    array blk: int[64];
    array coeffs: int[64];
    array qcoef: int[4096];      # all blocks' quantized output

    var blocks_per_row: int = 8;
    var total_bits: int = 0;
    var prev_dc: int = 0;

    for (var b: int = 0; b < nblk; b = b + 1) {
        var bx: int = (b % blocks_per_row) * 8;
        var by: int = (b / blocks_per_row) * 8;

        # ---- load block with level shift (-128)
        for (var r: int = 0; r < 8; r = r + 1) {
            var src: int = (by + r) * 64 + bx;
            for (var c: int = 0; c < 8; c = c + 1) {
                blk[r * 8 + c] = img[src + c] - 128;
            }
        }

        # ---- 2-D transform: rows, transpose, rows
        for (var r: int = 0; r < 8; r = r + 1) { butterfly8w(r * 8); }
        for (var r: int = 0; r < 8; r = r + 1) {
            for (var c: int = r + 1; c < 8; c = c + 1) {
                var t: int = blk[r * 8 + c];
                blk[r * 8 + c] = blk[c * 8 + r];
                blk[c * 8 + r] = t;
            }
        }
        for (var r: int = 0; r < 8; r = r + 1) { butterfly8w(r * 8); }

        # ---- quantize + zigzag
        for (var i: int = 0; i < 64; i = i + 1) {
            var zz: int = zigzag[i];
            coeffs[i] = blk[zz] / qmat[zz];
            qcoef[b * 64 + i] = coeffs[i];
        }

        # ---- DC differential + AC run-length bit estimate
        var dc_diff: int = coeffs[0] - prev_dc;
        prev_dc = coeffs[0];
        total_bits = total_bits + 3 + bit_category(dc_diff) + abs(dc_diff) % 8;
        var run: int = 0;
        for (var i: int = 1; i < 64; i = i + 1) {
            if (coeffs[i] == 0) {
                run = run + 1;
                if (run == 16) { total_bits = total_bits + 11; run = 0; }
            } else {
                var cat: int = bit_category(coeffs[i]);
                total_bits = total_bits + 4 + cat + cat;
                run = 0;
            }
        }
        total_bits = total_bits + 4;     # EOB
    }

    # fingerprint of the coefficient stream
    var sig: int = 0;
    for (var i: int = 0; i < nblk * 64; i = i + 8) {
        sig = (sig + abs(qcoef[i]) * 13 + i % 7) % 65521;
    }
    return total_bits % 1000000 * 7 + sig % 7;
}
"""

_ZIGZAG = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
]

_LUMINANCE_Q = [
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56, 14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99,
]


def make_inputs(category: str = "default", seed: int = 0, quality: int = 50) -> dict[str, list]:
    """Image plus the constant tables a real encoder carries.

    ``quality`` scales the quantization matrix the standard way
    (50 = the reference luminance matrix).
    """
    from repro.workloads import inputs as gen

    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    qmat = [max(1, min(255, (q * scale + 50) // 100)) for q in _LUMINANCE_Q]
    image = [
        max(0, min(255, int(v / 1.0 + 128)))
        for v in gen.image_like(IMAGE_DIM, IMAGE_DIM, seed=seed, scale=90.0)
    ]
    return {"img": image, "zigzag": list(_ZIGZAG), "qmat": qmat}


def make_registers() -> dict[str, float]:
    return {"main.nblk": N_BLOCKS}
