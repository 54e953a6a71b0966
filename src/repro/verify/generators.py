"""Random well-formed kernel-language programs.

One generator body serves two consumers:

* the hypothesis test suite (``tests/test_random_programs.py``) draws
  through the :func:`random_program` strategy, keeping hypothesis's
  shrinking;
* the fuzz CLI (``repro fuzz``) draws through a plain seeded
  :class:`random.Random`, so reproduction needs only ``--seed``, not a
  hypothesis database.

Both paths share :func:`_generate_parts`, which is written against a
minimal draw interface (``draw_int``, ``choice``) rather than a specific
randomness source.  Programs are nested loops, branches, array traffic
and arithmetic over a fixed ``data`` array — enough to exercise the
compiler, simulator, profiler and MILP end to end while staying cheap to
simulate at every mode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.ir.cfg import ENTRY_EDGE_SOURCE

ARRAY_LEN = 64

try:  # hypothesis is a dev dependency; the fuzz CLI must run without it.
    from hypothesis import strategies as _st

    _HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without dev deps
    _HAVE_HYPOTHESIS = False


@dataclass(frozen=True)
class GeneratedProgram:
    """A generated source plus everything needed to rerun and shrink it.

    Attributes:
        source: complete kernel-language source text.
        inputs: array name -> initial contents.
        statements: the top-level statement list the source was assembled
            from (the unit the fuzz minimizer deletes).
    """

    source: str
    inputs: dict[str, list[int]]
    statements: tuple[str, ...]

    def as_tuple(self) -> tuple[str, dict]:
        return self.source, self.inputs


def build_source(statements: Sequence[str]) -> str:
    """Assemble a complete program around a top-level statement list."""
    body_parts = ["var s0: int = 1;", "var s1: int = 2;", *statements]
    return (
        "func main() -> int {\n"
        f"    extern data: int[{ARRAY_LEN}];\n"
        + "\n".join("    " + part for part in body_parts)
        + "\n    return (s0 + s1 * 31) % 1000003;\n}"
    )


def _generate_parts(
    draw_int: Callable[[int, int], int],
    choice: Callable[[Sequence[str]], str],
) -> tuple[list[str], list[int]]:
    """Generate (top-level statements, data array) through a draw interface."""
    seed_values = [draw_int(-100, 100) for _ in range(ARRAY_LEN)]
    num_stmts = draw_int(2, 5)
    scalars = ["s0", "s1"]

    def expr(depth: int) -> str:
        kind = draw_int(0, 5 if depth < 2 else 2)
        if kind == 0:
            return str(draw_int(-20, 20))
        if kind == 1:
            return choice(scalars)
        if kind == 2:
            index = draw_int(0, ARRAY_LEN - 1)
            return f"data[{index}]"
        op = choice(["+", "-", "*"])
        return f"({expr(depth + 1)} {op} {expr(depth + 1)})"

    counter = [0]

    def fresh_loop_var() -> str:
        counter[0] += 1
        return f"i{counter[0]}"

    def statement(depth: int) -> str:
        kinds = ["assign", "array", "if"]
        if depth < 2:
            kinds.append("for")
        kind = choice(kinds)
        if kind == "assign":
            target = choice(scalars)
            return f"{target} = ({expr(0)}) % 1000003;"
        if kind == "array":
            index = draw_int(0, ARRAY_LEN - 1)
            return f"data[{index}] = ({expr(0)}) % 251;"
        if kind == "if":
            op = choice(["<", ">", "==", "!="])
            then_stmt = statement(depth + 1)
            else_stmt = statement(depth + 1)
            return (
                f"if ({expr(0)} {op} {expr(0)}) {{ {then_stmt} }} "
                f"else {{ {else_stmt} }}"
            )
        loop_var = fresh_loop_var()
        trips = draw_int(1, 12)
        inner = statement(depth + 1)
        use = choice(scalars)
        return (
            f"for (var {loop_var}: int = 0; {loop_var} < {trips}; "
            f"{loop_var} = {loop_var} + 1) {{ "
            f"{inner} {use} = ({use} + data[{loop_var} % {ARRAY_LEN}]) % 65521; }}"
        )

    statements = [statement(0) for _ in range(num_stmts)]
    return statements, seed_values


def generate_program(seed: int | random.Random) -> GeneratedProgram:
    """Generate one program from a plain seed (the fuzz CLI's path)."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    statements, seed_values = _generate_parts(rng.randint, rng.choice)
    return GeneratedProgram(
        source=build_source(statements),
        inputs={"data": seed_values},
        statements=tuple(statements),
    )


def random_schedule(cfg, num_modes: int,
                    rng: random.Random) -> tuple[dict, int]:
    """A random mode-set placement over ``cfg``, for the scheduled-replay
    differential: ``(schedule, initial_mode)``.

    Every CFG edge, loop back-edges and edges inside loops included,
    carries a mode-set with probability 0.3, to a uniformly drawn mode;
    the synthetic entry edge carries one half the time.
    """
    schedule = {edge: rng.randrange(num_modes) for edge in cfg.edges()
                if rng.random() < 0.3}
    if rng.random() < 0.5:
        schedule[(ENTRY_EDGE_SOURCE, cfg.entry)] = rng.randrange(num_modes)
    return schedule, rng.randrange(num_modes)


# -- pathological LP instances ------------------------------------------------

#: Torture profiles for the LP differential fuzz (``repro fuzz
#: --lp-runs`` and ``tests/solver/test_revised_differential.py``).
LP_PROFILES = (
    "generic",        # well-conditioned random feasible LP
    "degenerate",     # many constraints active at the optimum vertex
    "near_singular",  # nearly linearly dependent rows
    "rank_deficient", # exactly duplicated/linear-combination rows
    "wide_range",     # coefficients spanning ~10 orders of magnitude
    "boxed_milp",     # 0/1 boxes + one-of-N equalities (DVS shape)
)


@dataclass(frozen=True)
class GeneratedLP:
    """A feasible-by-construction LP torture instance.

    ``integrality`` is all-False except for the ``boxed_milp`` profile,
    so the same instances feed both the LP differential and the MILP
    differential.
    """

    profile: str
    seed: int
    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    bounds: np.ndarray
    integrality: np.ndarray

    def lp_kwargs(self) -> dict:
        return {
            "c": self.c,
            "a_ub": self.a_ub if self.a_ub.size else None,
            "b_ub": self.b_ub if self.b_ub.size else None,
            "a_eq": self.a_eq if self.a_eq.size else None,
            "b_eq": self.b_eq if self.b_eq.size else None,
            "bounds": self.bounds,
        }


def generate_lp(seed: int, profile: str = "generic") -> GeneratedLP:
    """Generate one LP instance for ``profile`` (see :data:`LP_PROFILES`).

    Every instance is primal feasible by construction: a reference point
    inside the bounds is drawn first and the inequality right-hand sides
    are set at (or, for degenerate profiles, exactly on) that point, so a
    solver disagreement is always a solver bug, never an ambiguous
    infeasibility verdict.
    """
    if profile not in LP_PROFILES:
        raise ValueError(f"unknown LP profile {profile!r} "
                         f"(choose from {', '.join(LP_PROFILES)})")
    # Seeded per (seed, profile index) — str hash() is process-salted
    # and would break seed-only reproduction.
    gen = np.random.default_rng((seed, LP_PROFILES.index(profile)))
    n = int(gen.integers(3, 10))
    m = int(gen.integers(2, 9))
    c = gen.uniform(-5, 5, n)
    a_ub = gen.uniform(-3, 3, (m, n))
    x0 = gen.uniform(0, 2, n)
    slack = gen.uniform(0.5, 3, m)
    bounds = np.column_stack([np.zeros(n), gen.uniform(2.5, 8, n)])
    a_eq = np.empty((0, n))
    b_eq = np.empty(0)
    integrality = np.zeros(n, dtype=bool)

    if profile == "degenerate":
        # Half the rows are tight at x0 and several are rescaled copies
        # of each other: the optimum sits on a massively degenerate
        # vertex where naive pivoting stalls or cycles.
        tight = gen.random(m) < 0.5
        slack = np.where(tight, 0.0, slack)
        for row in range(1, m, 2):
            a_ub[row] = a_ub[row - 1] * gen.uniform(0.5, 2.0)
            slack[row] = slack[row - 1] * (a_ub[row, 0] / a_ub[row - 1, 0]
                                           if a_ub[row - 1, 0] else 1.0)
    elif profile == "near_singular":
        # Each even row is an epsilon-perturbed copy of its predecessor,
        # so basis matrices are within ~1e-10 of singular.
        for row in range(1, m):
            if row % 2 == 0:
                a_ub[row] = a_ub[row - 1] + gen.normal(0, 1e-10, n)
    elif profile == "rank_deficient":
        # Exact duplicates and exact linear combinations of earlier
        # rows — the redundant-row path must absorb them, not fail.
        for row in range(1, m):
            if row % 3 == 0:
                a_ub[row] = a_ub[row - 1]
            elif row % 3 == 2 and row >= 2:
                a_ub[row] = 0.5 * a_ub[row - 1] + 0.5 * a_ub[row - 2]
        if m >= 2:  # a genuinely redundant equality pair
            coeffs = gen.uniform(-1, 1, n)
            rhs = float(coeffs @ x0)
            a_eq = np.vstack([coeffs, coeffs])
            b_eq = np.array([rhs, rhs])
    elif profile == "wide_range":
        # Column scaling over ~10 orders of magnitude: absolute
        # tolerances that do not scale with the data fail here.
        scale = 10.0 ** gen.uniform(-5, 5, n)
        a_ub *= scale
        c *= scale
        bounds[:, 1] /= scale
        x0 /= scale
    elif profile == "boxed_milp":
        # The DVS formulation's shape: binary one-of-N selectors plus a
        # coupling budget row.
        groups = max(1, n // 3)
        n = groups * 3
        c = gen.uniform(0.1, 10, n)
        times = gen.uniform(1, 5, n)
        a_eq = np.zeros((groups, n))
        for g in range(groups):
            a_eq[g, g * 3:(g + 1) * 3] = 1.0
        b_eq = np.ones(groups)
        budget = times.reshape(groups, 3).min(axis=1).sum() * 1.5
        a_ub = times.reshape(1, n)
        b_ub = np.array([budget])
        bounds = np.array([[0.0, 1.0]] * n)
        integrality = np.ones(n, dtype=bool)
        return GeneratedLP(profile, seed, c, a_ub, b_ub, a_eq, b_eq,
                           bounds, integrality)

    b_ub = a_ub @ x0 + slack
    if a_eq.size:
        b_eq = a_eq @ x0
    # A sprinkle of fixed variables exercises the substitution path.
    if n >= 4 and gen.random() < 0.5:
        j = int(gen.integers(0, n))
        bounds[j] = (x0[j], x0[j])
    return GeneratedLP(profile, seed, c, a_ub, b_ub, a_eq, b_eq,
                       bounds, integrality)


if _HAVE_HYPOTHESIS:

    @_st.composite
    def random_program(draw) -> tuple[str, dict]:
        """Hypothesis strategy yielding ``(source, inputs)`` pairs."""

        def draw_int(lo: int, hi: int) -> int:
            return draw(_st.integers(lo, hi))

        def choice(seq: Sequence[str]) -> str:
            return draw(_st.sampled_from(list(seq)))

        statements, seed_values = _generate_parts(draw_int, choice)
        return build_source(statements), {"data": seed_values}

else:  # pragma: no cover - exercised only without dev deps

    def random_program(*_args, **_kwargs):
        raise ImportError(
            "hypothesis is not installed; use generate_program(seed) instead"
        )
