"""Ghostscript workload: scanline triangle rasterizer.

Ghostscript's core job is rasterizing page descriptions into a large
framebuffer.  This kernel reproduces the inner loop that dominates that
work: for each input triangle, scan its bounding box and test every pixel
against the three signed edge functions, writing covered pixels (flat
shading with a per-triangle colour) into a 128x128 framebuffer.

Character: integer multiply + branch heavy per pixel, with streaming
*store* traffic over a 64 KB framebuffer (bigger than the scale-model L2),
and highly variable per-triangle trip counts — the control-flow-diverse
profile of the suite.
"""

from __future__ import annotations

N_TRIANGLES = 18
DIM = 128


SOURCE = """
# Edge-function triangle rasterization into a 128x128 framebuffer.

func edge(ax: int, ay: int, bx: int, by: int, px: int, py: int) -> int {
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax);
}

func main(ntri: int) -> int {
    extern tri: int[108];        # ntri * 6 vertex coordinates
    array fb: int[16384];        # 128x128 framebuffer

    var covered: int = 0;
    for (var t: int = 0; t < ntri; t = t + 1) {
        var tb: int = t * 6;
        var x0: int = tri[tb];     var y0: int = tri[tb + 1];
        var x1: int = tri[tb + 2]; var y1: int = tri[tb + 3];
        var x2: int = tri[tb + 4]; var y2: int = tri[tb + 5];

        # winding: flip to counter-clockwise if needed
        var area: int = edge(x0, y0, x1, y1, x2, y2);
        if (area < 0) {
            var tx: int = x1; x1 = x2; x2 = tx;
            var ty: int = y1; y1 = y2; y2 = ty;
            area = -area;
        }
        if (area == 0) { continue; }

        # bounding box
        var xmin: int = min(x0, min(x1, x2));
        var xmax: int = max(x0, max(x1, x2));
        var ymin: int = min(y0, min(y1, y2));
        var ymax: int = max(y0, max(y1, y2));
        var colour: int = (t * 37 + 11) % 255 + 1;

        for (var y: int = ymin; y <= ymax; y = y + 1) {
            var rowbase: int = y * 128;
            for (var x: int = xmin; x <= xmax; x = x + 1) {
                var w0: int = edge(x1, y1, x2, y2, x, y);
                var w1: int = edge(x2, y2, x0, y0, x, y);
                var w2: int = edge(x0, y0, x1, y1, x, y);
                if (w0 >= 0 && w1 >= 0 && w2 >= 0) {
                    fb[rowbase + x] = colour;
                    covered = covered + 1;
                }
            }
        }
    }

    # signature over the framebuffer
    var sig: int = 0;
    for (var i: int = 0; i < 16384; i = i + 64) {
        sig = (sig + fb[i] * (i % 251 + 1)) % 999983;
    }
    return covered + sig;
}
"""


def make_inputs(category: str = "default", seed: int = 0) -> dict[str, list]:
    from repro.workloads import inputs as gen

    return {"tri": gen.triangles(N_TRIANGLES, DIM, seed=seed)}


def make_registers() -> dict[str, float]:
    return {"main.ntri": N_TRIANGLES}
