"""Workload registry and Table 4-style deadline derivation."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import ReproError
from repro.workloads import adpcm, dijkstra, epic, ghostscript_wl, gsm, jpeg, mpeg, mpg123

if TYPE_CHECKING:
    from repro.ir.cfg import CFG


@dataclass(frozen=True)
class WorkloadSpec:
    """One suite member: source, inputs and run parameters."""

    name: str
    source: str
    make_inputs: Callable[..., dict[str, list]]
    make_registers: Callable[[], dict[str, float]]
    categories: tuple[str, ...] = ("default",)
    description: str = ""

    def inputs(self, category: str | None = None, seed: int = 0) -> dict[str, list]:
        category = category or self.categories[0]
        if category not in self.categories:
            raise ReproError(
                f"workload {self.name!r} has no category {category!r} "
                f"(available: {self.categories})"
            )
        return self.make_inputs(category=category, seed=seed)

    def registers(self) -> dict[str, float]:
        return self.make_registers()


_REGISTRY: dict[str, WorkloadSpec] = {}


def _register(spec: WorkloadSpec) -> WorkloadSpec:
    _REGISTRY[spec.name] = spec
    return spec


_register(
    WorkloadSpec(
        name="adpcm",
        source=adpcm.SOURCE,
        make_inputs=adpcm.make_inputs,
        make_registers=adpcm.make_registers,
        description="IMA ADPCM encode+decode (int, branchy, compute-bound)",
    )
)
_register(
    WorkloadSpec(
        name="epic",
        source=epic.SOURCE,
        make_inputs=epic.make_inputs,
        make_registers=epic.make_registers,
        description="wavelet pyramid + quantization (float, strided, memory-bound)",
    )
)
_register(
    WorkloadSpec(
        name="gsm",
        source=gsm.SOURCE,
        make_inputs=gsm.make_inputs,
        make_registers=gsm.make_registers,
        description="LPC analysis + long-term predictor search (int MAC-bound)",
    )
)
_register(
    WorkloadSpec(
        name="mpeg",
        source=mpeg.SOURCE,
        make_inputs=mpeg.make_inputs,
        make_registers=mpeg.make_registers,
        categories=mpeg.CATEGORIES,
        description="dequant + 2-D transform + motion compensation (memory-heavy)",
    )
)
_register(
    WorkloadSpec(
        name="mpg123",
        source=mpg123.SOURCE,
        make_inputs=mpg123.make_inputs,
        make_registers=mpg123.make_registers,
        description="polyphase subband synthesis (float multiply bound)",
    )
)
_register(
    WorkloadSpec(
        name="ghostscript",
        source=ghostscript_wl.SOURCE,
        make_inputs=ghostscript_wl.make_inputs,
        make_registers=ghostscript_wl.make_registers,
        description="edge-function triangle rasterizer (branchy, store-heavy)",
    )
)


_register(
    WorkloadSpec(
        name="dijkstra",
        source=dijkstra.SOURCE,
        make_inputs=dijkstra.make_inputs,
        make_registers=dijkstra.make_registers,
        description="O(V^2) shortest paths (irregular data-dependent memory; "
        "extension beyond the paper's set)",
    )
)
_register(
    WorkloadSpec(
        name="jpeg",
        source=jpeg.SOURCE,
        make_inputs=jpeg.make_inputs,
        make_registers=jpeg.make_registers,
        description="baseline JPEG encoder core: transform+quant+zigzag+RLE "
        "(extension beyond the paper's set)",
    )
)


#: The six benchmarks the paper's evaluation uses (Tables 3-5, Figures
#: 14/15/17/18); `dijkstra` and `jpeg` extend the suite beyond the paper.
PAPER_SUITE = ("adpcm", "epic", "gsm", "mpeg", "mpg123", "ghostscript")


def get_workload(name: str) -> WorkloadSpec:
    """Look up a suite member by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown workload {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def all_workloads() -> list[WorkloadSpec]:
    """Every registered workload, in registration order."""
    return list(_REGISTRY.values())


@functools.lru_cache(maxsize=None)
def compile_workload(name: str) -> CFG:
    """Compile a workload's source to IR (cached per process).

    The compiler is imported here, not at module level: reading the
    registry (sources, inputs, cache keys) must not load it.
    """
    from repro.lang import compile_program

    spec = get_workload(name)
    return compile_program(spec.source, name=spec.name)


def derive_deadlines(
    t_slowest_s: float, t_middle_s: float, t_fastest_s: float
) -> list[float]:
    """Five deadlines spanning the feasible range, as the paper's Table 4.

    The paper picks application-specific deadlines at characteristic
    positions between the all-fast and all-slow runtimes (its Figure 16);
    the factors below reproduce the relative positions of its Table 4:

    * D1 (stringent): just above the all-800MHz runtime;
    * D2: a third of the way from all-fast to all-middle;
    * D3: just above the all-middle runtime;
    * D4: halfway between all-middle and all-slow;
    * D5 (lax): just *below* the all-slow runtime (so the slowest mode
      alone cannot meet it, as in the paper where Deadline 5 sits at or
      under the 200 MHz runtime).

    Returned stringent-first: [D1, D2, D3, D4, D5].
    """
    if not t_fastest_s < t_middle_s < t_slowest_s:
        raise ReproError(
            "expected t_fastest < t_middle < t_slowest, got "
            f"{t_fastest_s}, {t_middle_s}, {t_slowest_s}"
        )
    d1 = 1.03 * t_fastest_s
    d2 = t_fastest_s + 0.30 * (t_middle_s - t_fastest_s)
    d3 = 1.02 * t_middle_s
    d4 = t_middle_s + 0.52 * (t_slowest_s - t_middle_s)
    d5 = 0.985 * t_slowest_s
    return [d1, d2, d3, d4, d5]
