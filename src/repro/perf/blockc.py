"""Block compiler: generated Python fast paths for basic blocks.

A decoded block whose executions the fast path may replay is compiled to a
small generated Python function that

1. validates the block's *cache-residency signature* inline — every
   I-line the block spans and every D-line it touches must hit in L1 —
   bailing out to the reference interpreter otherwise;
2. re-executes only the data arithmetic (registers as locals, exactly the
   :mod:`repro.ir.interp` operator semantics); and
3. returns the successor label.

Everything else about the execution — Δtime, Δenergy, Δcycle-classes,
Δcache-hit counters — is a constant of (block, mode) under the fast path's
preconditions (empty pending set, no outstanding miss, all-L1-resident),
so it is folded once per mode by
:func:`repro.simulator.timing.fold_block` — the interpreter's own timing
model evaluated under those preconditions — and replayed arithmetically
by the machine's dispatcher.

Safety of a mid-block bail-out (the interpreter then re-executes the block
from scratch) rests on three invariants of the generated code:

* L1-LRU refreshes performed before the bail are idempotent — re-executing
  the same hit sequence leaves the final LRU order identical, and hit
  *counters* are only updated on commit (by the dispatcher) or by the
  interpreter;
* stores are buffered and only written to memory at commit, with later
  loads in the same block forwarding from the buffer (the static
  instruction order is known at compile time);
* register writeback happens at commit only.

Any Python exception inside a generated function (undefined register,
division by zero, ...) is treated as a bail by the caller; the reference
interpreter then re-executes the block and raises the proper
:class:`~repro.errors.SimulationError` with exact accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.ir.instructions import (
    BinOp,
    Branch,
    Const,
    Jump,
    Load,
    Move,
    Ret,
    Store,
    UnOp,
)


class Bail(Exception):
    """Raised inside generated loop code to abandon the fast path."""


def _int_div(a, b):
    a, b = int(a), int(b)
    if b == 0:
        raise SimulationError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_mod(a, b):
    a, b = int(a), int(b)
    if b == 0:
        raise SimulationError("integer modulo by zero")
    return a - _int_div(a, b) * b


#: Expression templates mirroring repro.ir.interp's operator tables
#: (coercions included — semantics must match the interpreter exactly).
_BIN_EXPR = {
    "add": "int({a}) + int({b})",
    "sub": "int({a}) - int({b})",
    "mul": "int({a}) * int({b})",
    "div": "_idiv({a}, {b})",
    "mod": "_imod({a}, {b})",
    "and": "int({a}) & int({b})",
    "or": "int({a}) | int({b})",
    "xor": "int({a}) ^ int({b})",
    "shl": "int({a}) << int({b})",
    "shr": "int({a}) >> int({b})",
    "lt": "int(int({a}) < int({b}))",
    "le": "int(int({a}) <= int({b}))",
    "gt": "int(int({a}) > int({b}))",
    "ge": "int(int({a}) >= int({b}))",
    "eq": "int(int({a}) == int({b}))",
    "ne": "int(int({a}) != int({b}))",
    "min": "min(int({a}), int({b}))",
    "max": "max(int({a}), int({b}))",
    "fadd": "float({a}) + float({b})",
    "fsub": "float({a}) - float({b})",
    "fmul": "float({a}) * float({b})",
    "fdiv": "float({a}) / float({b})",
    "flt": "int(float({a}) < float({b}))",
    "fle": "int(float({a}) <= float({b}))",
    "fgt": "int(float({a}) > float({b}))",
    "fge": "int(float({a}) >= float({b}))",
    "feq": "int(float({a}) == float({b}))",
    "fne": "int(float({a}) != float({b}))",
    "fmin": "min(float({a}), float({b}))",
    "fmax": "max(float({a}), float({b}))",
}

_UN_EXPR = {
    "neg": "-int({a})",
    "not": "int(not int({a}))",
    "abs": "abs(int({a}))",
    "fneg": "-float({a})",
    "fabs": "abs(float({a}))",
    "i2f": "float(int({a}))",
    "f2i": "int(float({a}))",
    "sqrt": "_sqrt(float({a}))",
}

#: Names injected into every generated function's globals.
CODEGEN_GLOBALS = {
    "_idiv": _int_div,
    "_imod": _int_mod,
    "_sqrt": math.sqrt,
    "Bail": Bail,
}


class RegEnv:
    """Register naming for one generated function.

    ``read`` yields the local currently holding a register (recording a
    live-in on first read of an undefined register); ``write`` allocates a
    fresh temp and rebinds the register to it.  Subclassed by the loop
    compiler to scope registers function-wide across blocks.
    """

    def __init__(self) -> None:
        self._current: dict[str, str] = {}
        self.live_in: list[str] = []  # regs read before any def, in order
        self.defs: dict[str, str] = {}  # reg -> latest local
        self._n = 0

    def temp(self) -> str:
        self._n += 1
        return f"t{self._n}"

    def read(self, reg: str) -> str:
        name = self._current.get(reg)
        if name is None:
            name = f"r{len(self.live_in)}"
            self.live_in.append(reg)
            self._current[reg] = name
        return name

    def write(self, reg: str) -> str:
        name = self.temp()
        self._current[reg] = name
        self.defs[reg] = name
        return name


@dataclass
class EmittedBlock:
    """The pieces of one block's generated body (pre-commit)."""

    body: list[str] = field(default_factory=list)
    stores: list[tuple[str, str]] = field(default_factory=list)  # (idx, val)
    term: tuple = ()  # ("jump", target) | ("branch", cond_local, t, f)


def emit_block(instrs, line_addrs, l1i_cfg, l1d_cfg, element_size: int,
               env: RegEnv, bail: str, ind: str, uniq: str = ""):
    """Emit the residency checks and data arithmetic of one block.

    Args:
        instrs: the block's :class:`~repro.ir.instructions.Instruction` list.
        line_addrs: byte addresses of the I-lines the block spans.
        l1i_cfg, l1d_cfg: the L1 :class:`~repro.simulator.config.CacheConfig`s.
        element_size: the program's memory cell width in bytes.
        env: register-naming environment (caller-scoped).
        bail: statement abandoning the fast path ("return None" in a block
            function, "raise Bail" inside a loop function).
        ind: indentation prefix for every emitted line.
        uniq: scratch-name suffix making emissions for several blocks
            coexist in one function (the loop compiler passes the block
            index).

    Returns:
        an :class:`EmittedBlock`, or None when the block cannot be compiled
        (it ends in ``Ret``, or contains an unknown construct).
    """
    out = EmittedBlock()
    body = out.body

    # I-line residency + LRU refresh (addresses are compile-time constants).
    ns_i = l1i_cfg.num_sets
    for k, addr in enumerate(line_addrs):
        line = addr // l1i_cfg.line_bytes
        idx = line % ns_i
        tag = line // ns_i
        s = f"_is{uniq}_{k}"
        body.append(f"{ind}{s} = _IS[{idx}]")
        body.append(f"{ind}if {tag} in {s}:")
        body.append(f"{ind}    del {s}[{tag}]; {s}[{tag}] = None")
        body.append(f"{ind}else:")
        body.append(f"{ind}    {bail}")

    ns_d = l1d_cfg.num_sets
    lb_d = l1d_cfg.line_bytes
    esz = element_size

    def emit_daccess(base_reg: str, offset: int, k: str):
        """Address computation + bounds/alignment + L1D residency check."""
        b = env.read(base_reg)
        off = f" + {offset}" if offset else ""
        body.append(f"{ind}_a{k} = int({b}){off}")
        body.append(f"{ind}_q{k}, _r{k} = divmod(_a{k}, {esz})")
        body.append(f"{ind}if _r{k} or _a{k} < 0 or _q{k} >= len(_cells):")
        body.append(f"{ind}    {bail}")
        body.append(f"{ind}_l{k} = _a{k} // {lb_d}")
        body.append(f"{ind}_ds{k} = _DS[_l{k} % {ns_d}]")
        body.append(f"{ind}_t{k} = _l{k} // {ns_d}")
        body.append(f"{ind}if _t{k} in _ds{k}:")
        body.append(f"{ind}    del _ds{k}[_t{k}]; _ds{k}[_t{k}] = None")
        body.append(f"{ind}else:")
        body.append(f"{ind}    {bail}")

    n_access = 0
    for pos, instr in enumerate(instrs):
        last = pos == len(instrs) - 1
        if isinstance(instr, Const):
            dst = env.write(instr.dst)
            body.append(f"{ind}{dst} = {instr.value!r}")
        elif isinstance(instr, Move):
            src = env.read(instr.src)
            dst = env.write(instr.dst)
            body.append(f"{ind}{dst} = {src}")
        elif isinstance(instr, BinOp):
            expr = _BIN_EXPR.get(instr.op)
            if expr is None:
                return None
            a = env.read(instr.lhs)
            b = env.read(instr.rhs)
            dst = env.write(instr.dst)
            body.append(f"{ind}{dst} = {expr.format(a=a, b=b)}")
        elif isinstance(instr, UnOp):
            expr = _UN_EXPR.get(instr.op)
            if expr is None:
                return None
            a = env.read(instr.src)
            dst = env.write(instr.dst)
            body.append(f"{ind}{dst} = {expr.format(a=a)}")
        elif isinstance(instr, Load):
            k = f"{uniq}_{n_access}"
            n_access += 1
            emit_daccess(instr.base, instr.offset, k)
            # Forward from buffered stores (most recent first); fall back
            # to the memory cell.
            expr = f"_cells[_q{k}]"
            for idx_local, val_local in reversed(out.stores):
                expr = f"{val_local} if _q{k} == {idx_local} else ({expr})"
            dst = env.write(instr.dst)
            body.append(f"{ind}{dst} = {expr}")
        elif isinstance(instr, Store):
            k = f"{uniq}_{n_access}"
            n_access += 1
            val = env.read(instr.src)
            emit_daccess(instr.base, instr.offset, k)
            out.stores.append((f"_q{k}", val))
        elif isinstance(instr, Branch):
            if not last:
                return None
            cond = env.read(instr.cond)
            out.term = ("branch", cond, instr.if_true, instr.if_false)
        elif isinstance(instr, Jump):
            if not last:
                return None
            out.term = ("jump", instr.target)
        elif isinstance(instr, Ret):
            return None  # terminal blocks stay on the reference path
        else:
            return None
    if not out.term:
        return None  # fall-through block: let the interpreter report it
    return out


def compile_block(label: str, instrs, line_addrs, config, element_size: int):
    """Compile one block to a standalone fast function.

    The function signature is ``fn(regs, cells, dsets, isets)`` and it
    returns the successor label, or None to bail (any exception is also a
    bail).  Returns None when the block is not compilable.
    """
    env = RegEnv()
    emitted = emit_block(instrs, line_addrs, config.l1i, config.l1d,
                         element_size, env, "return None", "    ")
    if emitted is None:
        return None
    lines = ["def _blk(_regs, _cells, _DS, _IS):"]
    lines.extend(emitted.body)
    # Live-in loads must precede their first use; RegEnv guarantees the
    # names, so prepend the dict reads (KeyError on a genuinely undefined
    # register is a bail; the interpreter then raises properly).
    prologue = [
        f"    r{i} = _regs[{reg!r}]" for i, reg in enumerate(env.live_in)
    ]
    lines[1:1] = prologue
    for idx_local, val_local in emitted.stores:
        lines.append(f"    _cells[{idx_local}] = {val_local}")
    for reg, local in env.defs.items():
        lines.append(f"    _regs[{reg!r}] = {local}")
    term = emitted.term
    if term[0] == "jump":
        lines.append(f"    return {term[1]!r}")
    else:
        _, cond, if_true, if_false = term
        lines.append(f"    return {if_true!r} if {cond} else {if_false!r}")
    namespace = dict(CODEGEN_GLOBALS)
    exec(compile("\n".join(lines), f"<perf:{label}>", "exec"), namespace)
    return namespace["_blk"]

